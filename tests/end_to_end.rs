//! Cross-crate end-to-end tests: functional equivalence across executors,
//! closed-loop behaviour, and accounting consistency.

use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_dse::experiments::solve_cycles;
use soc_dse_repro::soc_scenarios::reference::figure8;
use soc_dse_repro::tinympc::{problems, AdmmSolver, KernelId, NullExecutor, SolverSettings};

#[test]
fn every_platform_converges_with_identical_trajectories() {
    // The executor is a timing oracle only: the functional result must be
    // bit-identical across all platforms.
    let (ref_u0, ref_iterations) = {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.2);
        let status = solver
            .solve_in_place(x0.as_slice(), &mut NullExecutor)
            .unwrap();
        (solver.u0().to_vec(), status.iterations)
    };
    for platform in Platform::table1_registry() {
        let outcome = solve_cycles(&platform, 10).unwrap();
        assert!(
            outcome.result.converged,
            "{} did not converge",
            platform.name
        );
        assert_eq!(
            outcome.result.u0.as_slice(),
            ref_u0.as_slice(),
            "{} changed the functional result",
            platform.name
        );
        assert_eq!(outcome.result.iterations, ref_iterations);
        assert!(outcome.result.total_cycles > 0);
    }
}

#[test]
fn kernel_cycles_sum_to_total_minus_setup() {
    for platform in Platform::table1_registry() {
        let outcome = solve_cycles(&platform, 10).unwrap();
        let sum: u64 = outcome.result.kernel_cycles.values().sum();
        assert!(
            sum <= outcome.result.total_cycles,
            "{}: kernel sum {sum} exceeds total {}",
            platform.name,
            outcome.result.total_cycles
        );
        // Setup (scratchpad preload) is the only non-kernel component.
        let setup = outcome.result.total_cycles - sum;
        assert!(
            setup < outcome.result.total_cycles / 4,
            "{}: setup share suspiciously large ({setup})",
            platform.name
        );
    }
}

#[test]
fn all_fifteen_kernels_are_charged() {
    let outcome = solve_cycles(&Platform::rocket_eigen(), 10).unwrap();
    for k in KernelId::ALL {
        assert!(
            outcome.result.kernel_cycles.get(&k).copied().unwrap_or(0) > 0,
            "kernel {k} was never charged"
        );
    }
}

#[test]
fn horizon_scaling_is_roughly_linear() {
    // The paper: MPC computation grows linearly with the horizon (the
    // cubic state-space growth is precomputed into the cache).
    let c10 = solve_cycles(&Platform::rocket_eigen(), 10).unwrap();
    let c20 = solve_cycles(&Platform::rocket_eigen(), 20).unwrap();
    let per_iter_10 = c10.cycles_per_iteration();
    let per_iter_20 = c20.cycles_per_iteration();
    let ratio = per_iter_20 / per_iter_10;
    assert!(
        (1.5..2.6).contains(&ratio),
        "per-iteration cost should ~double from N=10 to N=20, got {ratio:.2}"
    );
}

#[test]
fn closed_loop_figure8_tracks_on_fastest_platform() {
    let horizon = 10;
    let problem = problems::quadrotor_hover::<f32>(horizon).unwrap();
    let a = problem.a.clone();
    let b = problem.b.clone();
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let platform = Platform::table1_registry()
        .into_iter()
        .find(|p| p.name == "RefV512D256Shuttle")
        .unwrap();
    let mut executor = platform.executor();

    let mut x = solver.problem().hover_offset_state(0.0);
    let mut worst_err = 0.0f64;
    for step in 0..600 {
        let xref = figure8::<f32>(12, horizon, step, 0.01);
        solver.set_reference(&xref).unwrap();
        solver
            .solve_in_place(x.as_slice(), executor.as_mut())
            .unwrap();
        let u0 = soc_dse_repro::matlib::Vector::from_slice(solver.u0());
        x = a.matvec(&x).unwrap().add(&b.matvec(&u0).unwrap()).unwrap();
        if step > 100 {
            let e = ((x[0] - xref[0][0]).powi(2) + (x[1] - xref[0][1]).powi(2)).sqrt() as f64;
            worst_err = worst_err.max(e);
        }
    }
    assert!(worst_err < 0.3, "tracking error {worst_err:.3} m too large");
}

#[test]
fn arbitrary_problems_price_on_any_platform() {
    use soc_dse_repro::soc_dse::experiments::solve_problem_cycles;
    use soc_dse_repro::tinympc::SolverSettings;
    let cartpole = problems::cartpole::<f32>(10).unwrap();
    let rocket = solve_problem_cycles(
        &Platform::rocket_eigen(),
        cartpole.clone(),
        SolverSettings::default(),
    )
    .unwrap();
    let registry = Platform::table1_registry();
    let saturn = registry
        .iter()
        .find(|p| p.name == "RefV512D256Shuttle")
        .unwrap();
    let v = solve_problem_cycles(saturn, cartpole, SolverSettings::default()).unwrap();
    assert!(rocket.result.converged && v.result.converged);
    // 4x1 kernels are tiny: Saturn's advantage over Rocket must shrink
    // well below its quadrotor-sized speedup (the workload-sensitivity
    // claim).
    let quad_rocket = solve_cycles(&Platform::rocket_eigen(), 10).unwrap();
    let quad_saturn = solve_cycles(saturn, 10).unwrap();
    let small_speedup = rocket.result.total_cycles as f64 / v.result.total_cycles as f64;
    let quad_speedup =
        quad_rocket.result.total_cycles as f64 / quad_saturn.result.total_cycles as f64;
    assert!(
        small_speedup < quad_speedup,
        "cartpole speedup {small_speedup:.2} should trail quadrotor {quad_speedup:.2}"
    );
}

#[test]
fn solver_is_deterministic() {
    let run = || {
        let problem = problems::quadrotor_hover::<f32>(10).unwrap();
        let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
        let x0 = solver.problem().hover_offset_state(0.13);
        let status = solver
            .solve_in_place(x0.as_slice(), &mut NullExecutor)
            .unwrap();
        (solver.u0().to_vec(), status.iterations)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
