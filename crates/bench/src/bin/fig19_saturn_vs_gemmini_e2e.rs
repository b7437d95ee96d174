//! Regenerates Figure 19: end-to-end TinyMPC comparison of Saturn vs
//! Gemmini at equal PE count (V512D512 vs 4x4 FP mesh, both Rocket-
//! driven), with per-kernel breakdown.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{kernel_breakdown, solve_cycles};
use soc_dse::report::markdown_table;
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_vector::SaturnConfig;
use tinympc::KernelId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
    let gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );
    println!("Figure 19 — Saturn V512D512 vs Gemmini 4x4 (equal PEs, Rocket frontends)\n");
    let ks = kernel_breakdown(&saturn, 10)?;
    let kg = kernel_breakdown(&gemmini, 10)?;
    let rows: Vec<Vec<String>> = KernelId::ALL
        .iter()
        .map(|k| {
            let s = ks.get(k).copied().unwrap_or(0);
            let g = kg.get(k).copied().unwrap_or(0);
            let who = if s < g { "Saturn" } else { "Gemmini" };
            vec![
                k.to_string(),
                s.to_string(),
                g.to_string(),
                format!("{who} ({:.2}x)", s.max(1) as f64 / g.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "kernel",
                "Saturn cycles",
                "Gemmini cycles",
                "winner (Saturn/Gemmini ratio)"
            ],
            &rows
        )
    );
    let ts = solve_cycles(&saturn, 10)?.result.total_cycles;
    let tg = solve_cycles(&gemmini, 10)?.result.total_cycles;
    println!("End-to-end: Saturn {ts}, Gemmini {tg} cycles/solve.");
    println!("Expected shape: Saturn shows uniform speedups across kernel types;\nGemmini peaks on matrix-product passes, loses on reductions.");
    Ok(())
}
