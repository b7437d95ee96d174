//! Differential tests: independent implementations of the same kernel
//! must agree.
//!
//! Layer 1 — ISA vs scalar reference: the RV32IMF functional machine in
//! `crates/riscv` executes hand-written assembly for GEMV, AXPY and
//! max-abs and must produce **bit-identical** f32 results to the
//! `matlib` reference, because both sides perform the same IEEE-754
//! single-precision operations in the same order (`fmadd.s` ≡
//! `mul_add`, `fmul.s`+`fadd.s` ≡ `scale().add()`, `fsgnjx.s`+`fmax.s`
//! ≡ `fold(max(abs))`).
//!
//! Layer 2 — accelerated executors vs scalar solve: Saturn and Gemmini
//! executors are *timing oracles* layered over the same `matlib`
//! functional math, so their solver outcomes must match the scalar
//! back-end within [`U0_TOLERANCE`] (documented at 0.0 — bit-identical
//! — precisely because no accelerated code path substitutes different
//! arithmetic; a nonzero diff means a backend started computing its own
//! numbers and this contract needs re-documenting).

use soc_dse_repro::matlib::rng::SplitMix64;
use soc_dse_repro::matlib::{gemv, Matrix, Vector};
use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_cpu::CoreConfig;
use soc_dse_repro::soc_dse::experiments::Scenario;
use soc_dse_repro::soc_dse::experiments::{
    solve_problem_cycles, solve_scenario_cycles, ScenarioCatalog,
};
use soc_dse_repro::soc_gemmini::{GemminiConfig, GemminiOpts};
use soc_dse_repro::soc_riscv::{assemble, Machine};
use soc_dse_repro::soc_vector::SaturnConfig;
use soc_dse_repro::tinympc::{
    problems, AdmmSolver, SolveStatus, SolverDims, SolverSettings, TinyMpcProblem,
};

const A_BASE: u32 = 0x4000;
const X_BASE: u32 = 0x8000;
const Y_BASE: u32 = 0xc000;

/// `y[0..m] = A[m×k] · x[k]`, accumulating each row with `fmadd.s` in
/// column order — the exact operation sequence of `matlib::gemv`.
const GEMV_ASM: &str = r#"
    li   t0, 0            # i
row:
    bge  t0, a3, done
    fmv.w.x ft0, zero     # acc = 0
    li   t1, 0            # j
    mul  t4, t0, a4
    slli t4, t4, 2
    add  t2, a0, t4       # &A[i][0]
    mv   t3, a1           # &x[0]
col:
    bge  t1, a4, rowend
    flw  ft1, (t2)
    flw  ft2, (t3)
    fmadd.s ft0, ft1, ft2, ft0
    addi t2, t2, 4
    addi t3, t3, 4
    addi t1, t1, 1
    j    col
rowend:
    slli t5, t0, 2
    add  t6, a2, t5
    fsw  ft0, (t6)
    addi t0, t0, 1
    j    row
done:
    ecall
"#;

/// `y[0..n] = alpha·x + y` as a separate `fmul.s` + `fadd.s` — the
/// operation sequence of `Vector::scale(alpha).add(&y)` (no fusion).
const AXPY_ASM: &str = r#"
    li   t0, 0
loop:
    bge  t0, a3, done
    slli t1, t0, 2
    add  t2, a0, t1       # &x[i]
    add  t3, a1, t1       # &y[i]
    flw  ft1, (t2)
    fmul.s ft1, ft1, fa0
    flw  ft2, (t3)
    fadd.s ft1, ft1, ft2
    fsw  ft1, (t3)
    addi t0, t0, 1
    j    loop
done:
    ecall
"#;

/// Infinity norm via `fsgnjx.s` (abs) + `fmax.s`, folding from +0.0 —
/// the operation sequence of `Vector::max_abs`. Result left in `ft0`.
const MAX_ABS_ASM: &str = r#"
    fmv.w.x ft0, zero
    li   t0, 0
loop:
    bge  t0, a3, done
    slli t1, t0, 2
    add  t2, a0, t1
    flw  ft1, (t2)
    fsgnjx.s ft1, ft1, ft1
    fmax.s ft0, ft0, ft1
    addi t0, t0, 1
    j    loop
done:
    ecall
"#;

fn random_f32(rng: &mut SplitMix64) -> f32 {
    (rng.unit_f64() * 2.0 - 1.0) as f32
}

fn machine_with(asm: &str) -> Machine {
    let prog = assemble(asm).expect("reference assembly must assemble");
    let mut m = Machine::new(64 * 1024);
    m.load_program(0, &prog);
    m
}

#[test]
fn rv32_gemv_is_bit_identical_to_matlib() {
    for seed in 0..20u64 {
        let mut rng = SplitMix64::new(seed);
        let (rows, cols) = (rng.range_usize(1, 16), rng.range_usize(1, 16));
        let a = Matrix::<f32>::from_fn(rows, cols, |_, _| random_f32(&mut rng));
        let x = Vector::<f32>::from_fn(cols, |_| random_f32(&mut rng));

        let mut m = machine_with(GEMV_ASM);
        for r in 0..rows {
            for c in 0..cols {
                m.write_f32(A_BASE + ((r * cols + c) * 4) as u32, a[(r, c)])
                    .unwrap();
            }
        }
        for i in 0..cols {
            m.write_f32(X_BASE + (i * 4) as u32, x[i]).unwrap();
        }
        m.set_x(10, A_BASE);
        m.set_x(11, X_BASE);
        m.set_x(12, Y_BASE);
        m.set_x(13, rows as u32);
        m.set_x(14, cols as u32);
        m.run(200_000).expect("gemv program must terminate");

        let reference = gemv(&a, &x).unwrap();
        for i in 0..rows {
            let machine_bits = m.read_f32(Y_BASE + (i * 4) as u32).unwrap().to_bits();
            let reference_bits = reference[i].to_bits();
            assert_eq!(
                machine_bits, reference_bits,
                "seed {seed}: y[{i}] differs for {rows}x{cols}: {machine_bits:#010x} vs {reference_bits:#010x}"
            );
        }
    }
}

#[test]
fn rv32_axpy_is_bit_identical_to_scale_add() {
    for seed in 100..120u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_usize(1, 32);
        let alpha = random_f32(&mut rng);
        let x = Vector::<f32>::from_fn(n, |_| random_f32(&mut rng));
        let y = Vector::<f32>::from_fn(n, |_| random_f32(&mut rng));

        let mut m = machine_with(AXPY_ASM);
        for i in 0..n {
            m.write_f32(A_BASE + (i * 4) as u32, x[i]).unwrap();
            m.write_f32(X_BASE + (i * 4) as u32, y[i]).unwrap();
        }
        m.set_x(10, A_BASE);
        m.set_x(11, X_BASE);
        m.set_x(13, n as u32);
        m.set_f(10, alpha); // fa0
        m.run(200_000).expect("axpy program must terminate");

        let reference = x.scale(alpha).add(&y).unwrap();
        for i in 0..n {
            let got = m.read_f32(X_BASE + (i * 4) as u32).unwrap().to_bits();
            assert_eq!(
                got,
                reference[i].to_bits(),
                "seed {seed}: y[{i}] differs at n={n}"
            );
        }
    }
}

#[test]
fn rv32_max_abs_is_bit_identical_to_matlib() {
    for seed in 200..220u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_usize(1, 48);
        let x = Vector::<f32>::from_fn(n, |_| random_f32(&mut rng));

        let mut m = machine_with(MAX_ABS_ASM);
        for i in 0..n {
            m.write_f32(A_BASE + (i * 4) as u32, x[i]).unwrap();
        }
        m.set_x(10, A_BASE);
        m.set_x(13, n as u32);
        m.run(200_000).expect("max-abs program must terminate");

        // ft0 = f0 holds the reduction.
        assert_eq!(
            m.f(0).to_bits(),
            x.max_abs().to_bits(),
            "seed {seed}: max_abs differs at n={n}"
        );
    }
}

/// Documented tolerance for accelerated-vs-scalar solver outcomes.
///
/// It is exactly 0.0: Saturn and Gemmini executors price traces but the
/// functional math always runs through `matlib`, so every platform must
/// produce the same control bit-for-bit. If an accelerated backend ever
/// grows its own arithmetic (reduced precision, reordered reductions),
/// this constant is where its numerical contract gets documented.
const U0_TOLERANCE: f32 = 0.0;

fn problem_set() -> Vec<(&'static str, TinyMpcProblem<f32>)> {
    vec![
        ("quadrotor_hover", problems::quadrotor_hover(8).unwrap()),
        (
            "double_integrator",
            problems::double_integrator(12).unwrap(),
        ),
        ("cartpole", problems::cartpole(10).unwrap()),
        (
            "random_stable",
            problems::random_stable(6, 2, 8, 3).unwrap(),
        ),
    ]
}

/// Layer 2 at full width: every registered scenario, solved on every
/// registered Table-I back-end, must reproduce the scalar reference's
/// control **bit-for-bit** (same [`U0_TOLERANCE`] = 0.0 contract as
/// above) with the same iteration count and convergence flag. This is
/// the scenario × backend grid: a back-end whose timing model grew a
/// functional side effect, or a scenario whose reference threading
/// differs between platforms, fails here first.
#[test]
fn every_scenario_agrees_with_scalar_solve_on_every_backend() {
    let scalar = Platform::rocket_eigen();
    let registry = Platform::table1_registry();
    for scenario in ScenarioCatalog::standard().scenarios() {
        let horizon = scenario.default_horizon();
        let reference = solve_scenario_cycles(&scalar, scenario, horizon)
            .unwrap_or_else(|e| panic!("{}: scalar solve failed: {e:?}", scenario.name()));
        for platform in &registry {
            let outcome = solve_scenario_cycles(platform, scenario, horizon).unwrap_or_else(|e| {
                panic!(
                    "{} on {}: solve failed: {e:?}",
                    scenario.name(),
                    platform.name
                )
            });
            assert_eq!(
                outcome.result.converged,
                reference.result.converged,
                "{} on {}: convergence disagrees",
                scenario.name(),
                platform.name
            );
            assert_eq!(
                outcome.result.iterations,
                reference.result.iterations,
                "{} on {}: iteration count disagrees",
                scenario.name(),
                platform.name
            );
            for i in 0..reference.result.u0.len() {
                let diff = (outcome.result.u0[i] - reference.result.u0[i]).abs();
                assert!(
                    diff <= U0_TOLERANCE,
                    "{} on {}: u0[{i}] off by {diff} (tolerance {U0_TOLERANCE})",
                    scenario.name(),
                    platform.name
                );
            }
        }
    }
}

#[test]
fn accelerated_executors_agree_with_scalar_solve() {
    let scalar = Platform::rocket_eigen();
    let accelerated = [
        Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
        Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb(),
            GemminiOpts::optimized(),
        ),
    ];
    for (name, problem) in problem_set() {
        let settings = SolverSettings::default();
        let reference = solve_problem_cycles(&scalar, problem.clone(), settings)
            .unwrap_or_else(|e| panic!("{name}: scalar solve failed: {e:?}"));
        for platform in &accelerated {
            let outcome = solve_problem_cycles(platform, problem.clone(), settings)
                .unwrap_or_else(|e| panic!("{name}: {} solve failed: {e:?}", platform.name));
            assert_eq!(
                outcome.result.converged, reference.result.converged,
                "{name}: {} convergence disagrees",
                platform.name
            );
            assert_eq!(
                outcome.result.iterations, reference.result.iterations,
                "{name}: {} iteration count disagrees",
                platform.name
            );
            assert_eq!(
                outcome.result.u0.len(),
                reference.result.u0.len(),
                "{name}: {} control dimension disagrees",
                platform.name
            );
            for i in 0..reference.result.u0.len() {
                let diff = (outcome.result.u0[i] - reference.result.u0[i]).abs();
                assert!(
                    diff <= U0_TOLERANCE,
                    "{name}: {} u0[{i}] off by {diff} (tolerance {U0_TOLERANCE})",
                    platform.name
                );
            }
        }
        // The agreed-on solution must also be a *good* one when the
        // solver reports convergence.
        if reference.result.converged {
            let (pri_x, dual_x, pri_u, dual_u) = reference.result.residuals;
            let tol = settings.tolerance;
            for (which, r) in [
                ("primal/state", pri_x),
                ("dual/state", dual_x),
                ("primal/input", pri_u),
                ("dual/input", dual_u),
            ] {
                assert!(
                    r <= tol,
                    "{name}: converged but {which} residual {r} > {tol}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Layer 3 — dims-specialized vs dynamic ADMM passes
// ---------------------------------------------------------------------
//
// The solver's hot passes are one generic implementation instantiated
// both with runtime dimensions (`SolverDims::Dynamic`) and with
// const-generic shapes for the shipped problems (12×4, 6×3, 2×1).
// Monomorphization must not change a single bit: both paths run the
// same source over the same arena, so convergence, iteration count,
// charged cycles and `u0` must agree at [`U0_TOLERANCE`] = 0.0.

/// Solves one scenario instance with the solver's automatic
/// specialization or with the dynamic fallback forced, returning
/// `(status, u0)`.
fn solve_with_spec(
    scenario: &Scenario,
    horizon: usize,
    platform: &Platform,
    force_dynamic: bool,
) -> (SolveStatus, Vec<f32>) {
    let problem = scenario.problem::<f32>(horizon).unwrap();
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    if force_dynamic {
        solver.set_specialization(SolverDims::Dynamic).unwrap();
    }
    solver
        .set_reference(&scenario.reference::<f32>(horizon, 0))
        .unwrap();
    let x0 = scenario.initial_state::<f32>();
    let mut executor = platform.executor();
    let status = solver
        .solve_in_place(x0.as_slice(), executor.as_mut())
        .unwrap_or_else(|e| panic!("{} on {}: {e:?}", scenario.name(), platform.name));
    (status, solver.u0().to_vec())
}

fn assert_spec_matches_dynamic(scenario: &Scenario, horizon: usize, platform: &Platform) {
    let (spec, spec_u0) = solve_with_spec(scenario, horizon, platform, false);
    let (dynamic, dyn_u0) = solve_with_spec(scenario, horizon, platform, true);
    let ctx = format!("{} on {}", scenario.name(), platform.name);
    assert_eq!(spec.converged, dynamic.converged, "{ctx}: convergence");
    assert_eq!(spec.iterations, dynamic.iterations, "{ctx}: iterations");
    assert_eq!(spec.total_cycles, dynamic.total_cycles, "{ctx}: cycles");
    assert_eq!(spec_u0.len(), dyn_u0.len(), "{ctx}: control dimension");
    for i in 0..spec_u0.len() {
        let diff = (spec_u0[i] - dyn_u0[i]).abs();
        assert!(
            diff <= U0_TOLERANCE,
            "{ctx}: u0[{i}] off by {diff} (tolerance {U0_TOLERANCE})"
        );
    }
}

/// Layer 3 at full width: every registered scenario on every Table-I
/// back-end, specialized vs dynamic.
#[test]
fn specialized_passes_agree_with_dynamic_on_every_scenario_and_backend() {
    let registry = Platform::table1_registry();
    for scenario in ScenarioCatalog::standard().scenarios() {
        let horizon = scenario.default_horizon();
        for platform in &registry {
            assert_spec_matches_dynamic(scenario, horizon, platform);
        }
    }
}

/// Layer 3 over randomized plants: 25 seeds cycling through the three
/// const-specialized shapes (quadrotor 12×4, rendezvous 6×3, double
/// integrator 2×1), so every monomorphized path sees plants it was
/// never tuned on.
#[test]
fn specialized_passes_agree_with_dynamic_on_random_plants() {
    let scalar = Platform::rocket_eigen();
    let shapes = [(12usize, 4usize), (6, 3), (2, 1)];
    for seed in 0..25u64 {
        let (nx, nu) = shapes[seed as usize % shapes.len()];
        let scenario = Scenario::random_stable_plant(nx, nu, seed);
        let solver = AdmmSolver::new(
            scenario.problem::<f32>(8).unwrap(),
            SolverSettings::default(),
        )
        .unwrap();
        assert_ne!(
            solver.specialization(),
            SolverDims::Dynamic,
            "seed {seed}: shape {nx}x{nu} must hit a const path"
        );
        assert_spec_matches_dynamic(&scenario, 8, &scalar);
    }
}

/// The specialization seam rejects a const shape that does not match
/// the problem, and reports the auto-selected variant.
#[test]
fn specialization_selection_and_validation() {
    let quad = AdmmSolver::new(
        problems::quadrotor_hover::<f32>(8).unwrap(),
        SolverSettings::default(),
    )
    .unwrap();
    assert_eq!(quad.specialization(), SolverDims::Quadrotor12x4);

    let mut di = AdmmSolver::new(
        problems::double_integrator::<f32>(8).unwrap(),
        SolverSettings::default(),
    )
    .unwrap();
    assert_eq!(di.specialization(), SolverDims::DoubleIntegrator2x1);
    assert!(di.set_specialization(SolverDims::Quadrotor12x4).is_err());
    di.set_specialization(SolverDims::Dynamic).unwrap();
    assert_eq!(di.specialization(), SolverDims::Dynamic);
}
