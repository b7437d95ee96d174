//! Regenerates Figure 18: per-kernel performance of the optimized 4x4
//! output-stationary Gemmini (Rocket frontend) on end-to-end TinyMPC, as
//! speedup over the Rocket scalar baseline.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{kernel_speedups, solve_cycles};
use soc_dse::report::bar_chart;
use soc_gemmini::{GemminiConfig, GemminiOpts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    let baseline = Platform::rocket_eigen();
    println!("Figure 18 — Gemmini 4x4 FP mesh per-kernel speedup over Rocket\n");
    let speedups = kernel_speedups(&gemmini, &baseline, 10)?;
    let bars: Vec<(String, f64)> = speedups.iter().map(|(k, s)| (k.to_string(), *s)).collect();
    println!("{}", bar_chart(&bars, 40));
    let e2e_g = solve_cycles(&gemmini, 10)?.result.total_cycles;
    let e2e_r = solve_cycles(&baseline, 10)?.result.total_cycles;
    println!(
        "End-to-end: {:.2}x over Rocket (paper: 392,261/132,697 = 2.96x)",
        e2e_r as f64 / e2e_g as f64
    );
    println!("Expected shape: strongest on the matrix-product-dominated passes;\nweaker on reductions, which partially fall back to the scalar core.");
    Ok(())
}
