//! Differential tests for the `soc-bounds` static cycle-bound analyzer:
//! the abstract interpreter's `[lower, upper]` intervals against the
//! trace simulators they model, across every registered back-end.
//!
//! The contract under test, per back-end family:
//!
//! * **In-order cores** ([`BoundClaim::Exact`]): the analyzer replicates
//!   the simulator bit for bit — every interval is a singleton equal to
//!   the trace-simulated cycle count, for kernels, setup traces, and
//!   standalone measurements alike.
//! * **Out-of-order cores** ([`BoundClaim::Bounded`]): the analyzer
//!   brackets the simulator — the simulated count always lies inside the
//!   interval, and the upper bound stays within a bounded factor of the
//!   simulated count ([`OOO_UPPER_FACTOR`]). (The steady-state lower
//!   bound may clamp degenerately on short kernels; soundness, not
//!   tightness, is the contract there.)
//! * **Solve level**: with the default solver settings there is no cycle
//!   budget, so pricing cannot perturb iteration counts and the per-side
//!   totals of [`solve_bounds`] must bracket the trace-priced total.
//! * **Sweep tiering**: the analytical tier's report is byte-identical
//!   to the trace tier's and its pruning never changes the frontier.

use soc_dse_repro::soc_backend::Platform;
use soc_dse_repro::soc_backend::{pipeline_for, BoundClaim};
use soc_dse_repro::soc_bounds::{kernel_bounds, setup_bounds, solve_bounds, standalone_bounds};
use soc_dse_repro::soc_dse::experiments::{solve_cycles, KernelShape, Residency};
use soc_dse_repro::soc_sweep::{run_sweep, run_sweep_tiered, SweepEngine, SweepSpec, SweepTier};
use soc_dse_repro::tinympc::{KernelId, ProblemDims};

/// Empirical ceiling (with margin) on `upper / simulated` for
/// out-of-order backends: observed max is 7x across the registry grid.
const OOO_UPPER_FACTOR: u64 = 8;

fn dims(horizon: usize) -> ProblemDims {
    ProblemDims {
        nx: 12,
        nu: 4,
        horizon,
    }
}

#[test]
fn kernel_bounds_hold_for_every_registry_backend() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let claim = pipeline.bound_claim();
        for &horizon in &[6, 10] {
            let d = dims(horizon);
            for &kernel in KernelId::ALL.iter() {
                let interval = kernel_bounds(pipeline.as_ref(), kernel, &d).unwrap();
                let simulated = pipeline.steady_cycles(kernel, &d).unwrap();
                assert!(
                    interval.contains(simulated),
                    "{} / {kernel} @ horizon {horizon}: simulated {simulated} \
                     outside {interval}",
                    platform.name
                );
                match claim {
                    BoundClaim::Exact => assert!(
                        interval.is_exact(),
                        "{} / {kernel}: exactness claimed but got {interval}",
                        platform.name
                    ),
                    BoundClaim::Bounded => assert!(
                        interval.hi <= OOO_UPPER_FACTOR * simulated,
                        "{} / {kernel}: upper bound {} further than {OOO_UPPER_FACTOR}x \
                         from simulated {simulated}",
                        platform.name,
                        interval.hi
                    ),
                }
            }
        }
    }
}

#[test]
fn setup_bounds_hold_for_every_registry_backend() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let d = dims(10);
        let interval = setup_bounds(pipeline.as_ref(), &d).unwrap();
        let simulated = pipeline.setup_cost(&d).unwrap();
        assert!(
            interval.contains(simulated),
            "{} setup: simulated {simulated} outside {interval}",
            platform.name
        );
        if pipeline.bound_claim() == BoundClaim::Exact {
            assert!(interval.is_exact(), "{} setup: {interval}", platform.name);
        }
    }
}

#[test]
fn standalone_bounds_hold_across_shapes_and_residencies() {
    for platform in &Platform::table1_registry() {
        let pipeline = pipeline_for(platform);
        let exact = pipeline.bound_claim() == BoundClaim::Exact;
        for shape in [KernelShape::Gemv, KernelShape::Gemm] {
            for residency in [Residency::Cold, Residency::Warm] {
                for (i, k) in [(4, 4), (8, 8), (12, 4)] {
                    let interval = standalone_bounds(pipeline.as_ref(), shape, residency, i, k);
                    let simulated = pipeline.standalone_cycles(shape, residency, i, k);
                    assert!(
                        interval.contains(simulated),
                        "{} {shape:?}/{residency:?} {i}x{k}: simulated {simulated} \
                         outside {interval}",
                        platform.name
                    );
                    if exact {
                        assert!(
                            interval.is_exact(),
                            "{} {shape:?}/{residency:?} {i}x{k}: {interval}",
                            platform.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn solve_bounds_bracket_the_trace_priced_solve() {
    // One platform per family plus one out-of-order point; short horizon
    // keeps the six end-to-end solves seconds-scale.
    let spec = SweepSpec::smoke();
    let mut platforms = spec.platforms.clone();
    platforms.push(
        Platform::table1_registry()
            .into_iter()
            .find(|p| p.name == "SmallBoom")
            .expect("SmallBoom is registered"),
    );
    for platform in &platforms {
        let interval = solve_bounds(platform, 6).unwrap();
        let outcome = solve_cycles(platform, 6).unwrap();
        let simulated = outcome.result.total_cycles;
        assert!(
            interval.contains(simulated),
            "{}: solve total {simulated} outside {interval}",
            platform.name
        );
        if pipeline_for(platform).bound_claim() == BoundClaim::Exact {
            assert!(
                interval.is_exact(),
                "{}: in-order solve bounds must collapse, got {interval}",
                platform.name
            );
        }
    }
}

#[test]
fn analytical_tier_reproduces_the_trace_frontier_byte_for_byte() {
    let spec = SweepSpec::smoke();
    let reference = run_sweep(&spec, &SweepEngine::in_memory(2)).unwrap();
    let tiered =
        run_sweep_tiered(&spec, &SweepEngine::in_memory(2), SweepTier::Analytical).unwrap();
    assert_eq!(
        tiered.render(),
        reference.render(),
        "analytical tier must not change the report"
    );
    let summary = tiered.tier_summary.expect("tier summary present");
    assert!(summary.contains("frontier confirmed"), "{summary}");
}
