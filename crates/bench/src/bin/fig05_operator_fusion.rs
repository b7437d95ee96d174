//! Regenerates Figure 5: library vs fused-operator mappings on a
//! Rocket-driven 512V/256D Saturn — keeping temporaries in vector
//! registers across operator boundaries removes the store/reload
//! round-trips of matlib function calls.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::{kernel_breakdown, solve_cycles};
use soc_dse::report::markdown_table;
use soc_vector::{SaturnConfig, VectorStyle};
use tinympc::KernelId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = Platform::saturn_with(
        CoreConfig::rocket(),
        SaturnConfig::v512d256(),
        VectorStyle::Matlib,
        Some(1),
    );
    let fused = Platform::saturn_with(
        CoreConfig::rocket(),
        SaturnConfig::v512d256(),
        VectorStyle::Fused,
        Some(1),
    );

    println!("Figure 5 — library vs fused-operator speedup (Rocket-driven V512D256)\n");
    let lib_k = kernel_breakdown(&lib, 10)?;
    let fused_k = kernel_breakdown(&fused, 10)?;
    let rows: Vec<Vec<String>> = KernelId::ALL
        .iter()
        .map(|k| {
            let l = lib_k.get(k).copied().unwrap_or(0);
            let f = fused_k.get(k).copied().unwrap_or(1);
            vec![
                k.to_string(),
                l.to_string(),
                f.to_string(),
                format!("{:.2}x", l as f64 / f.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["kernel", "library cycles", "fused cycles", "fusion speedup"],
            &rows
        )
    );

    let lt = solve_cycles(&lib, 10)?.result.total_cycles;
    let ft = solve_cycles(&fused, 10)?.result.total_cycles;
    println!(
        "End-to-end: library {lt} cycles, fused {ft} cycles -> {:.2}x",
        lt as f64 / ft as f64
    );
    Ok(())
}
