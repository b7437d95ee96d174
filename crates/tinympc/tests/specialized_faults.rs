//! Fault detection does not depend on the dims specialization: a NaN
//! struck into the warm-start arena surfaces as the same error, or the
//! same `TerminationCause`, on the const-shape path and on the
//! `Dynamic` path.

use matlib::Scalar;
use tinympc::{
    problems, AdmmSolver, NullExecutor, SolverDims, SolverSettings, TinyMpcProblem, WsField,
};

/// The warm-start iterates a solve reads before rewriting them.
const WARM_FIELDS: [WsField; 8] = [
    WsField::U,
    WsField::D,
    WsField::P,
    WsField::V,
    WsField::Z,
    WsField::Y,
    WsField::G,
    WsField::XRef,
];

/// Strikes a NaN into every knot and element position of every warm
/// field (in turn) of a warmed-up solver, and solves the struck arena
/// on both paths. Returns how many strikes the solve detected.
fn assert_same_detection<T: Scalar>(name: &str, problem: TinyMpcProblem<T>) -> usize {
    let nx = problem.dims().nx;
    let mut warm = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    assert_ne!(warm.specialization(), SolverDims::Dynamic, "{name}");
    let x0 = vec![T::from_f64(0.05); nx];
    warm.solve_in_place(&x0, &mut NullExecutor).unwrap();

    let (mut strikes, mut detected) = (0, 0);
    for field in WARM_FIELDS {
        let knots = warm.workspace().knots(field);
        let dim = warm.workspace().knot_dim(field);
        for k in [0, knots / 2, knots - 1] {
            for j in [0, dim - 1] {
                let mut fixed = warm.clone();
                fixed.workspace_mut().knot_mut(field, k)[j] = T::from_f64(f64::NAN);
                let mut dynamic = fixed.clone();
                dynamic.set_specialization(SolverDims::Dynamic).unwrap();

                let a = fixed.solve_in_place(&x0, &mut NullExecutor);
                let b = dynamic.solve_in_place(&x0, &mut NullExecutor);
                // Debug form: residuals may be NaN, which `==` rejects.
                assert_eq!(
                    format!("{a:?} {:?}", fixed.u0()),
                    format!("{b:?} {:?}", dynamic.u0()),
                    "{name}: NaN in {field:?}[{k}][{j}]"
                );
                strikes += 1;
                detected += match a {
                    Err(_) => 1,
                    Ok(s) => usize::from(s.termination == tinympc::TerminationCause::Diverged),
                };
            }
        }
    }
    assert!(strikes > 0);
    detected
}

#[test]
fn nan_in_the_warm_start_arena_is_detected_alike_on_both_paths() {
    let detected = [
        assert_same_detection(
            "quadrotor f32",
            problems::quadrotor_hover::<f32>(10).unwrap(),
        ),
        assert_same_detection(
            "rendezvous f32",
            problems::satellite_rendezvous::<f32>(10).unwrap(),
        ),
        assert_same_detection(
            "double integrator f32",
            problems::double_integrator::<f32>(10).unwrap(),
        ),
        assert_same_detection(
            "quadrotor f64",
            problems::quadrotor_hover::<f64>(10).unwrap(),
        ),
    ];
    assert!(
        detected.iter().all(|&d| d > 0),
        "some strikes must be detected: {detected:?}"
    );
}
