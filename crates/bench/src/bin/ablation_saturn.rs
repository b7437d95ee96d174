//! Ablation study of the paper's Saturn software optimizations
//! (Section V-A): mapping style, LMUL policy, and the rejected
//! serial-reduction GEMV mapping.

use soc_backend::Platform;
use soc_cpu::{simulate_with_accel, CoreConfig};
use soc_dse::experiments::solve_cycles;
use soc_dse::report::markdown_table;
use soc_isa::TraceBuilder;
use soc_vector::{SaturnConfig, SaturnUnit, VectorKernels, VectorStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SaturnConfig::v512d256();
    println!("Saturn software-optimization ablation (V512D256, Rocket frontend)\n");

    let mut rows = Vec::new();
    for (name, style, lmul) in [
        (
            "hand-optimized (fused, per-class LMUL)",
            VectorStyle::Fused,
            None,
        ),
        ("fused, uniform LMUL=1", VectorStyle::Fused, Some(1)),
        ("fused, uniform LMUL=8", VectorStyle::Fused, Some(8)),
        (
            "vectorized matlib (library calls)",
            VectorStyle::Matlib,
            Some(1),
        ),
    ] {
        let p = Platform::saturn_with(CoreConfig::rocket(), cfg, style, lmul);
        let c = solve_cycles(&p, 10)?.result.total_cycles;
        rows.push(vec![name.to_string(), c.to_string()]);
    }
    println!("{}", markdown_table(&["mapping", "cycles/solve"], &rows));

    // The rejected alternative: GEMV via serial in-register reductions.
    println!("GEMV mapping alternatives on a 12x12 operand (the paper's rejection of\nvfred* because Saturn reduces serially):\n");
    let mut alt_rows = Vec::new();
    for (name, use_reduction) in [
        ("vfmacc.vf broadcast-scalar", false),
        ("vfredosum serial reduction", true),
    ] {
        let gen = VectorKernels::new(cfg, VectorStyle::Fused, 1);
        let mut b = TraceBuilder::new();
        for _ in 0..10 {
            if use_reduction {
                gen.gemv_with_reduction(&mut b, 12, 12);
            } else {
                gen.gemv(&mut b, 12, 12);
            }
        }
        b.fence();
        let mut unit = SaturnUnit::new(cfg);
        let c = simulate_with_accel(&CoreConfig::rocket(), &b.finish(), &mut unit);
        alt_rows.push(vec![name.to_string(), format!("{}", c / 10)]);
    }
    println!(
        "{}",
        markdown_table(&["GEMV mapping", "cycles per 12x12 GEMV"], &alt_rows)
    );
    Ok(())
}
