//! Regenerates Figure 4: speedup over Rocket across LMUL ∈ {1,2,4,8} on a
//! 512V/256D Saturn — register grouping helps strip-mining kernels but
//! hurts the short-vector iterative kernels.

use soc_backend::Platform;
use soc_cpu::CoreConfig;
use soc_dse::experiments::kernel_speedups;
use soc_dse::report::markdown_table;
use soc_vector::{SaturnConfig, VectorStyle};
use tinympc::{KernelClass, KernelId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let baseline = Platform::rocket_eigen();
    println!("Figure 4 — per-kernel speedup over Rocket across LMUL (V512D256, Rocket frontend)\n");

    let mut per_lmul = Vec::new();
    for lmul in [1u8, 2, 4, 8] {
        let p = Platform::saturn_with(
            CoreConfig::rocket(),
            SaturnConfig::v512d256(),
            VectorStyle::Fused,
            Some(lmul),
        );
        per_lmul.push(kernel_speedups(&p, &baseline, 10)?);
    }

    let rows: Vec<Vec<String>> = KernelId::ALL
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut row = vec![k.to_string(), format!("{:?}", k.class())];
            for sweep in &per_lmul {
                row.push(format!("{:.2}x", sweep[i].1));
            }
            row
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["kernel", "class", "LMUL=1", "LMUL=2", "LMUL=4", "LMUL=8"],
            &rows
        )
    );

    // Class-level summary (geometric mean within class).
    for class in [
        KernelClass::Iterative,
        KernelClass::StripMining,
        KernelClass::Reduction,
    ] {
        print!("{class:?}: ");
        for sweep in &per_lmul {
            let vals: Vec<f64> = sweep
                .iter()
                .filter(|(k, _)| k.class() == class)
                .map(|(_, s)| *s)
                .collect();
            let gm = vals.iter().product::<f64>().powf(1.0 / vals.len() as f64);
            print!("{gm:.2}x ");
        }
        println!();
    }
    println!("\nExpected shape: LMUL helps strip-mining, hurts iterative kernels.");
    Ok(())
}
