//! Termination-check ablation: the global-maximum residual reductions
//! (Algorithm 3) are the kernels the paper's Gemmini mapping struggles
//! with most; checking them less often trades reduction work against
//! extra ADMM iterations.

use soc_backend::Platform;
use soc_dse::experiments::solve_cycles_with;
use soc_dse::report::markdown_table;
use tinympc::{KernelClass, KernelId, SolverSettings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Residual-check interval ablation (Gemmini OS 4x4, Rocket frontend)\n");
    let platform = Platform::table1_registry()
        .into_iter()
        .find(|p| p.name == "OSGemminiRocket32KB")
        .expect("registry contains the Gemmini point");

    let mut rows = Vec::new();
    for interval in [1usize, 2, 5, 10] {
        let settings = SolverSettings {
            check_interval: interval,
            ..Default::default()
        };
        let o = solve_cycles_with(&platform, 10, settings)?;
        let reduction_cycles: u64 = o
            .result
            .kernel_cycles
            .iter()
            .filter(|(k, _)| k.class() == KernelClass::Reduction)
            .map(|(_, c)| c)
            .sum();
        rows.push(vec![
            interval.to_string(),
            o.result.iterations.to_string(),
            o.result.total_cycles.to_string(),
            reduction_cycles.to_string(),
            format!(
                "{:.1}%",
                100.0 * reduction_cycles as f64 / o.result.total_cycles as f64
            ),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "check interval",
                "iterations",
                "cycles/solve",
                "reduction cycles",
                "reduction share"
            ],
            &rows
        )
    );
    let _ = KernelId::ALL; // (documented enumeration; used by other ablations)
    println!(
        "Checking less often cuts the reduction kernels' share but risks extra\niterations past the convergence point — interval 2-5 is usually free,\nwhich is why solvers on reduction-weak accelerators space out checks."
    );
    Ok(())
}
