//! Workload generators: random kernel sizes for the heatmap sweeps.
//! Closed-loop reference trajectories live in `soc_scenarios::reference`.

use matlib::rng::SplitMix64;

/// The matrix-height (I) axis used by the paper's heatmap figures.
pub fn heatmap_heights() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

/// The matrix-width / reduction-length (K) axis used by the heatmaps.
pub fn heatmap_widths() -> Vec<usize> {
    vec![4, 8, 12, 16, 24, 32, 48, 64]
}

/// `n` random `(I, K)` kernel sizes in the paper's sweep range.
pub fn random_sizes(seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.range_usize(4, 64), rng.range_usize(4, 64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sizes_are_in_range_and_deterministic() {
        let a = random_sizes(7, 50);
        let b = random_sizes(7, 50);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|&(i, k)| (4..=64).contains(&i) && (4..=64).contains(&k)));
        assert_ne!(random_sizes(8, 50), a);
    }

    #[test]
    fn heatmap_axes_nonempty() {
        assert!(!heatmap_heights().is_empty());
        assert_eq!(heatmap_heights().len(), heatmap_widths().len());
    }
}
