//! Energy extension: the area-performance Pareto analysis of Figure 20,
//! redone in energy terms (nJ per MPC solve and solves per millijoule) —
//! quantifying the introduction's qualitative efficiency claims.

use soc_backend::Platform;
use soc_dse::energy::{solve_energy, EnergyParams};
use soc_dse::experiments::pareto_frontier;
use soc_dse::report::markdown_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Energy per TinyMPC solve (extension; 7-nm-class first-order model)\n");
    let params = EnergyParams::default();
    let mut reports: Vec<_> = Platform::table1_registry()
        .iter()
        .map(|p| (p.area().total_mm2(), solve_energy(p, 10, &params).unwrap()))
        .collect();
    reports.sort_by(|a, b| a.0.total_cmp(&b.0));

    let frontier = pareto_frontier(
        &reports
            .iter()
            .map(|(_, r)| (r.cycles as f64, r.total_nj()))
            .collect::<Vec<_>>(),
    );
    let rows: Vec<Vec<String>> = reports
        .iter()
        .zip(&frontier)
        .map(|((area, r), &on)| {
            vec![
                r.platform.clone(),
                format!("{area:.3}"),
                format!("{:.0}", r.dynamic_nj),
                format!("{:.0}", r.leakage_nj),
                format!("{:.0}", r.total_nj()),
                format!("{:.0}", r.solves_per_mj),
                if on { "*".into() } else { String::new() },
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "area mm^2",
                "dynamic nJ",
                "leakage nJ",
                "total nJ/solve",
                "solves/mJ",
                "perf-energy Pareto"
            ],
            &rows
        )
    );
    println!(
        "Reading: the wide out-of-order cores pay per-instruction frontend energy\nand leak across large areas; the accelerated designs do the same control\nwork with far fewer (wider) operations — more solves per millijoule at\nhigher control rates."
    );
    Ok(())
}
