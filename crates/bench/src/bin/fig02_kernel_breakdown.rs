//! Regenerates Figure 2: the kernel breakdown of TinyMPC — per-kernel
//! invocation counts, FLOPs, and the share of Rocket cycles per ADMM
//! iteration, grouped by the paper's three kernel classes.

use soc_backend::Platform;
use soc_dse::experiments::kernel_breakdown;
use soc_dse::report::{bar_chart, markdown_table};
use tinympc::{KernelClass, KernelId, KernelProfile, ProblemDims};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = ProblemDims {
        nx: 12,
        nu: 4,
        horizon: 10,
    };
    let profile = KernelProfile::new(dims);

    println!("Figure 2 — kernel breakdown of TinyMPC (quadrotor 12x4, N=10)\n");
    let rows: Vec<Vec<String>> = profile
        .rows
        .iter()
        .map(|(k, inv, flops)| {
            vec![
                k.to_string(),
                format!("{:?}", k.class()),
                inv.to_string(),
                flops.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * *flops as f64 / profile.total_flops() as f64
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "kernel",
                "class",
                "invocations/iter",
                "flops/iter",
                "flop share"
            ],
            &rows
        )
    );

    println!("FLOPs by class per ADMM iteration:");
    for (class, f) in profile.flops_by_class() {
        println!("  {class:?}: {f}");
    }

    // Measured cycle shares on the Rocket baseline.
    let breakdown = kernel_breakdown(&Platform::rocket_eigen(), 10)?;
    let total: u64 = breakdown.values().sum();
    println!("\nMeasured cycle share per kernel on Rocket (whole solve):");
    let bars: Vec<(String, f64)> = KernelId::ALL
        .iter()
        .map(|k| {
            (
                k.to_string(),
                100.0 * breakdown.get(k).copied().unwrap_or(0) as f64 / total as f64,
            )
        })
        .collect();
    println!("{}", bar_chart(&bars, 50));

    let iterative: u64 = breakdown
        .iter()
        .filter(|(k, _)| k.class() == KernelClass::Iterative)
        .map(|(_, c)| c)
        .sum();
    println!(
        "Iterative kernels consume {:.1}% of Rocket cycles — the paper's motivation\nfor accelerating small GEMVs.",
        100.0 * iterative as f64 / total as f64
    );
    Ok(())
}
