//! Regenerates Figure 3: matlib-based vs hand-optimized implementations
//! on CPUs and Saturn — library code vectorized for Saturn beats scalar
//! matlib but loses to optimized scalar Eigen, motivating the fused
//! hand-optimized vector mapping.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::solve_cycles;
use soc_dse::report::markdown_table;
use soc_vector::{SaturnConfig, VectorStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs = vec![
        Platform::rocket_matlib(),
        Platform::rocket_eigen(),
        Platform::saturn_with(
            CoreConfig::rocket(),
            SaturnConfig::v512d256(),
            VectorStyle::Matlib,
            Some(1),
        ),
        Platform::saturn_with(
            CoreConfig::rocket(),
            SaturnConfig::v512d256(),
            VectorStyle::Fused,
            None,
        ),
    ];

    println!("Figure 3 — matlib vs hand-optimized TinyMPC on CPUs and Saturn\n");
    let baseline = solve_cycles(&configs[0], 10)?.result.total_cycles;
    let mut rows = Vec::new();
    for p in &configs {
        let c = solve_cycles(p, 10)?.result.total_cycles;
        rows.push(vec![
            p.name.clone(),
            c.to_string(),
            format!("{:.2}x", baseline as f64 / c as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["configuration", "cycles/solve", "speedup vs Rocket matlib"],
            &rows
        )
    );
    println!(
        "Expected shape: vectorized matlib > scalar matlib, but optimized scalar\n(Eigen) beats vectorized matlib; hand-optimized Saturn wins overall."
    );
    Ok(())
}
