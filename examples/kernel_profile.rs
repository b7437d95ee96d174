//! Kernel-level profiling: where do the cycles go on each back-end, and
//! which back-end wins each kernel class?
//!
//! ```sh
//! cargo run --example kernel_profile --release
//! ```

use std::time::Instant;

use soc_dse_repro::matlib;
use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_cpu::CoreConfig;
use soc_dse_repro::soc_dse::experiments::{
    kernel_breakdown, standalone_kernel, KernelShape, Residency,
};
use soc_dse_repro::soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_dse_repro::soc_vector::SaturnConfig;
use soc_dse_repro::tinympc::{problems, AdmmSolver, KernelId, NullExecutor, SolverSettings};

/// Wall-clock time of one `i`×`k` matlib GEMV on this host (warm data,
/// in-place kernel — the same code the solver's hot path runs).
fn host_gemv_ns(i: usize, k: usize) -> f64 {
    let a = matlib::Matrix::<f32>::from_fn(i, k, |r, c| 0.01 + 0.001 * (r * k + c) as f32);
    let x = matlib::Vector::<f32>::from_fn(k, |j| 0.5 - 0.01 * j as f32);
    let mut y = vec![0.0f32; i];
    for _ in 0..100 {
        matlib::gemv_into(&a, x.as_slice(), &mut y).unwrap();
    }
    let reps = 20_000u32;
    let start = Instant::now();
    for _ in 0..reps {
        matlib::gemv_into(&a, x.as_slice(), &mut y).unwrap();
        std::hint::black_box(&mut y);
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rocket = Platform::rocket_eigen();
    let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d256());
    let gemmini = Platform::gemmini(
        CoreConfig::rocket(),
        GemminiConfig::os_4x4_32kb(),
        GemminiOpts::optimized(),
    );

    println!("Per-kernel cycles for one TinyMPC solve (quadrotor, N=10):\n");
    let br = kernel_breakdown(&rocket, 10)?;
    let bs = kernel_breakdown(&saturn, 10)?;
    let bg = kernel_breakdown(&gemmini, 10)?;
    println!(
        "{:<24} {:>10} {:>10} {:>10}",
        "kernel", "Rocket", "Saturn", "Gemmini"
    );
    for k in KernelId::ALL {
        println!(
            "{:<24} {:>10} {:>10} {:>10}",
            k.to_string(),
            br.get(&k).copied().unwrap_or(0),
            bs.get(&k).copied().unwrap_or(0),
            bg.get(&k).copied().unwrap_or(0),
        );
    }

    println!("\nStandalone GEMV: simulated cycles (cold operands) next to the host-side");
    println!("wall clock of the same matlib kernel (warm, in-place):");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "I x K", "Rocket", "Saturn", "Gemmini", "host ns"
    );
    for (i, k) in [(4usize, 12usize), (12, 12), (32, 32), (64, 64)] {
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>12.0}",
            format!("{i}x{k}"),
            standalone_kernel(&rocket, KernelShape::Gemv, Residency::Cold, i, k),
            standalone_kernel(&saturn, KernelShape::Gemv, Residency::Cold, i, k),
            standalone_kernel(&gemmini, KernelShape::Gemv, Residency::Cold, i, k),
            host_gemv_ns(i, k),
        );
    }

    // End-to-end host timing of the flattened hot path, next to the
    // simulated totals above: a warm in-place solve allocates nothing
    // and reads u0 straight from the arena workspace.
    let problem = problems::quadrotor_hover::<f32>(10)?;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default())?;
    let x0 = solver.problem().hover_offset_state(0.2);
    solver.solve_in_place(x0.as_slice(), &mut NullExecutor)?;
    let reps = 400u32;
    let start = Instant::now();
    for _ in 0..reps {
        solver.solve_in_place(x0.as_slice(), &mut NullExecutor)?;
    }
    let warm_ns = start.elapsed().as_nanos() / u128::from(reps);
    println!(
        "\nHost-side warm solve (quadrotor, {:?} specialization): {warm_ns} ns/solve, 0 allocations.",
        solver.specialization()
    );
    println!("\nThe MPC-sized kernels (top rows) are where frontends, not PEs, decide\nthe outcome — the paper's central characterization result.");
    Ok(())
}
