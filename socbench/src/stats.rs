//! Order statistics and the metric sink every stack reports into.

/// Nearest-rank percentile (`p` in 0–100) of an unsorted sample; 0.0 on
/// an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The undisturbed end of per-step host times: their first quartile.
/// Neighbours on a shared host slow some steps down and speed none up,
/// so the fast quartile follows the code while a mean or median drifts
/// with the host's load. A slower build moves every step, and this with
/// them.
pub fn fast_time(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// The undisturbed end of per-step host rates: their third quartile
/// (see [`fast_time`]).
pub fn fast_rate(values: &[f64]) -> f64 {
    percentile(values, 75.0)
}

/// The samples of the undisturbed half of a run: the steps (groups of
/// samples that each hold the same mix of work) whose total is in the
/// faster half, pooled in step order. Neighbours on a shared host slow
/// some steps down and speed none up, so percentiles read over these
/// follow the code rather than the host's load; with many short steps
/// to choose from, even a tail percentile read over them is steady. A
/// slower build slows every step, and these samples with them.
pub fn fastest_half(steps: &[&[f64]]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..steps.len()).collect();
    order.sort_by(|&a, &b| {
        let total = |i: usize| steps[i].iter().sum::<f64>();
        total(a).total_cmp(&total(b))
    });
    order.truncate(steps.len().div_ceil(2));
    order.sort_unstable();
    order
        .iter()
        .flat_map(|&i| steps[i].iter().copied())
        .collect()
}

/// Geometric mean of positive values; 0.0 if any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, 0.0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in report order, plus the run's correctness ledger.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (session-ticks, solves, design-point pricings).
    pub attempted: u64,
    /// Operations that failed (aborted ticks, retries, watchdog trips,
    /// FAILED sweep points, solver errors, non-finite results).
    pub failed: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records an output check; `false` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Looks a metric value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_half_keeps_the_faster_steps() {
        let steps: [&[f64]; 3] = [&[5.0, 5.0], &[1.0, 2.0], &[4.0, 4.0]];
        assert_eq!(fastest_half(&steps), vec![1.0, 2.0, 4.0, 4.0]);
        assert!(fastest_half(&[]).is_empty());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
