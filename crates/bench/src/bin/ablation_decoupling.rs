//! Decoupling-depth ablation: the paper's Figure 1 taxonomy separates
//! tightly-integrated (Saturn) from decoupled (Gemmini) designs. Both
//! hide latency through command queues; this ablation sweeps those
//! depths to show how much decoupling the MPC workload actually needs.

use soc_backend::{Backend, Platform};
use soc_cpu::CoreConfig;
use soc_dse::experiments::solve_cycles;
use soc_dse::report::markdown_table;
use soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_vector::{SaturnConfig, VectorStyle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Saturn command-queue depth (V512D256, Rocket):\n");
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 8, 16] {
        let mut cfg = SaturnConfig::v512d256();
        cfg.queue_depth = depth;
        let p = Platform {
            name: format!("queue depth {depth}"),
            core: CoreConfig::rocket(),
            backend: Backend::Saturn {
                config: cfg,
                style: VectorStyle::Fused,
                lmul: None,
            },
        };
        let o = solve_cycles(&p, 10)?;
        rows.push(vec![depth.to_string(), o.result.total_cycles.to_string()]);
    }
    println!(
        "{}",
        markdown_table(&["queue depth", "cycles/solve"], &rows)
    );

    println!("Gemmini reservation-station entries (OS 4x4, Rocket):\n");
    let mut rows = Vec::new();
    for entries in [2usize, 4, 8, 16, 32] {
        let mut cfg = GemminiConfig::os_4x4_32kb();
        cfg.rs_entries = entries;
        let p = Platform::gemmini(CoreConfig::rocket(), cfg, GemminiOpts::optimized());
        let o = solve_cycles(&p, 10)?;
        rows.push(vec![entries.to_string(), o.result.total_cycles.to_string()]);
    }
    println!("{}", markdown_table(&["RS entries", "cycles/solve"], &rows));
    println!(
        "Reading: a handful of in-flight commands suffices — the small MPC\nkernels never build deep command backlogs, so decoupling depth is cheap\nto provision and quickly saturates."
    );
    Ok(())
}
