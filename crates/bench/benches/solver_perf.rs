//! Host-performance benchmarks of the TinyMPC solver: functional solves
//! and hardware-priced solves (executor memoization makes the latter
//! nearly as fast after warm-up).
//!
//! Plain self-timed harness (no external bench framework): run with
//! `cargo bench -p soc-bench --bench solver_perf`.

use soc_backend::Platform;
use std::hint::black_box;
use std::time::Instant;
use tinympc::{problems, AdmmSolver, NullExecutor, SolverSettings};

/// Times `f` over a fixed iteration count and prints ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let iters = 20u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_nanos() / iters as u128;
    println!("{name:<32} {per_iter:>10} ns/iter");
}

fn bench_functional_solve() {
    for horizon in [10usize, 20] {
        let problem = problems::quadrotor_hover::<f32>(horizon).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.2);
        bench(&format!("admm_solve/quadrotor_f32_n{horizon}"), || {
            solver.cold_start();
            black_box(
                solver
                    .solve_in_place(x0.as_slice(), &mut NullExecutor)
                    .unwrap(),
            );
        });
    }
    let problem = problems::double_integrator::<f64>(20).unwrap();
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let x0 = matlib::Vector::from_slice(&[1.0, 0.0]);
    bench("admm_solve/double_integrator_f64_n20", || {
        solver.cold_start();
        black_box(
            solver
                .solve_in_place(x0.as_slice(), &mut NullExecutor)
                .unwrap(),
        );
    });
}

fn bench_priced_solve() {
    for platform in [
        Platform::rocket_eigen(),
        Platform::table1_registry().remove(9),
    ] {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.2);
        // Warm the executor's per-kernel memo outside the loop.
        let mut executor = platform.executor();
        let _ = solver
            .solve_in_place(x0.as_slice(), executor.as_mut())
            .unwrap();
        bench(&format!("priced_solve/{}", platform.name), || {
            solver.cold_start();
            black_box(
                solver
                    .solve_in_place(x0.as_slice(), executor.as_mut())
                    .unwrap(),
            );
        });
    }
}

fn main() {
    bench_functional_solve();
    bench_priced_solve();
}
