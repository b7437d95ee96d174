//! MPC scaling study (Section IV's claims): online cost grows linearly
//! with the horizon, while the state-space growth lands in the *offline*
//! Riccati cache computation — the TinyMPC memory/compute trade the paper
//! describes.

use soc_backend::Platform;
use soc_dse::experiments::solve_cycles;
use soc_dse::report::markdown_table;
use std::time::Instant;
use tinympc::{problems, AdmmSolver, ProblemDims, SolverSettings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Horizon scaling (quadrotor 12x4, Rocket, per-ADMM-iteration cycles):\n");
    let mut rows = Vec::new();
    let mut base = 0.0;
    for horizon in [5usize, 10, 20, 40] {
        let o = solve_cycles(&Platform::rocket_eigen(), horizon)?;
        let per_iter = o.cycles_per_iteration();
        if base == 0.0 {
            base = per_iter / horizon as f64;
        }
        rows.push(vec![
            horizon.to_string(),
            format!("{per_iter:.0}"),
            format!("{:.2}", per_iter / horizon as f64 / base),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "horizon N",
                "cycles/iteration",
                "normalized cycles/(iter*N)"
            ],
            &rows
        )
    );
    println!("Linear scaling: the normalized column stays ~1.\n");

    println!("State-dimension scaling of the offline cache (host wall-time):\n");
    let mut rows = Vec::new();
    for nx in [4usize, 8, 12, 16, 24] {
        let p = problems::random_stable::<f64>(nx, 4.min(nx), 10, 7)?;
        let t0 = Instant::now();
        let solver = AdmmSolver::new(p, SolverSettings::default())?;
        let dt = t0.elapsed();
        let dims: ProblemDims = solver.dims();
        rows.push(vec![
            dims.nx.to_string(),
            format!("{:.2} ms", dt.as_secs_f64() * 1e3),
            solver.cache().riccati_iterations.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["nx", "cache computation", "Riccati iterations"], &rows)
    );
    println!("The cubic-in-state Riccati work happens once, offline — the online\niteration stays matrix-vector shaped (the TinyMPC design point).");
    Ok(())
}
