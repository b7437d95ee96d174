//! Seeded fault-injection campaigns across the shipped back-ends.
//!
//! A campaign takes one seed, derives a deterministic [`FaultPlan`] per
//! back-end, runs the quadrotor workload under injection with a deadline
//! budget of 1.5× the measured nominal solve, and classifies every trial:
//!
//! - **detected** — some detection layer fired (rejected trace,
//!   non-finite guard, divergence detector, workspace pin, post-solve
//!   cache scrub);
//! - **recovered** — detected *and* the applied `u0` still matches the
//!   fault-free reference within the SDC bound;
//! - **deadline-missed** — the solve degraded onto a budget rung;
//! - **masked** — undetected but the output deviation is within bound;
//! - **SDC** — silent data corruption: undetected *and* out of bound.
//!
//! The SDC bound is 5% of the input-box width — a control deviation an
//! outer loop absorbs in one step. Identical seeds produce identical
//! reports, across runs and across back-ends.

use crate::deadline::{DeadlineConfig, DeadlineSolver, DegradeRung};
use crate::inject::{DataInjector, FaultyExecutor, TraceFaultOutcome};
use crate::plan::{Fault, FaultKind, FaultPlan, FaultSite};
use crate::riscv::{run_instruction_campaign, InstructionStats};
use matlib::rng::SplitMix64;
use matlib::Vector;
use soc_backend::Platform;
use soc_backend::{pipeline_for, FaultSurface, PipelineExecutor};
use soc_dse::experiments::Scenario;
use soc_dse::report::markdown_table;
use tinympc::{AdmmSolver, NullExecutor, NullObserver, SolverSettings, TerminationCause};

/// Campaign size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// 24 trials per back-end — fast enough for CI.
    Smoke,
    /// 120 trials per back-end.
    Full,
}

impl CampaignKind {
    fn trials(self) -> usize {
        match self {
            CampaignKind::Smoke => 24,
            CampaignKind::Full => 120,
        }
    }

    fn instruction_trials(self) -> usize {
        match self {
            CampaignKind::Smoke => 16,
            CampaignKind::Full => 64,
        }
    }
}

/// Classification counters for one back-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// Registry name of the platform.
    pub backend: String,
    /// Trials run.
    pub trials: usize,
    /// Faults caught by any detection layer.
    pub detected: usize,
    /// Detected faults whose applied control still matched the
    /// reference within the SDC bound.
    pub recovered: usize,
    /// Solves that landed on a budget rung.
    pub deadline_missed: usize,
    /// Undetected faults with in-bound output deviation.
    pub masked: usize,
    /// Silent data corruptions (undetected, out of bound).
    pub sdc: usize,
}

/// Full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The seed everything was derived from.
    pub seed: u64,
    /// Name of the scenario the campaign flew.
    pub workload: String,
    /// Per-back-end data/command fault stats.
    pub backends: Vec<BackendStats>,
    /// Instruction-level stats from the functional RISC-V harness
    /// (reported separately: it exercises a different execution model).
    pub instruction: InstructionStats,
}

impl CampaignReport {
    /// Renders the report as markdown tables.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .backends
            .iter()
            .map(|b| {
                vec![
                    b.backend.clone(),
                    b.trials.to_string(),
                    b.detected.to_string(),
                    b.recovered.to_string(),
                    b.deadline_missed.to_string(),
                    b.masked.to_string(),
                    b.sdc.to_string(),
                ]
            })
            .collect();
        let mut out = format!(
            "Fault campaign (seed {}, workload {})\n\n",
            self.seed, self.workload
        );
        out.push_str(&markdown_table(
            &[
                "back-end",
                "trials",
                "detected",
                "recovered",
                "deadline-missed",
                "masked",
                "SDC",
            ],
            &rows,
        ));
        out.push_str("\nInstruction-level faults (functional RV32IMF GEMV harness)\n\n");
        let i = &self.instruction;
        out.push_str(&markdown_table(
            &["trials", "trapped", "masked", "silent-wrong"],
            &[vec![
                i.trials.to_string(),
                i.trapped.to_string(),
                i.masked.to_string(),
                i.silent_wrong.to_string(),
            ]],
        ));
        out
    }

    /// Total silent data corruptions on scalar back-ends — the quantity
    /// the CI smoke gate asserts to be zero.
    pub fn scalar_sdc(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.backend == "Rocket")
            .map(|b| b.sdc)
            .sum()
    }
}

/// Maps a pipeline-declared fault surface onto the campaign's planner
/// vocabulary.
fn site_of(surface: FaultSurface) -> FaultSite {
    match surface {
        FaultSurface::StoredMatrixWord => FaultSite::ScratchpadWord,
        FaultSurface::DmaWord => FaultSite::DmaWord,
        FaultSurface::VectorRegister => FaultSite::VectorRegister,
        FaultSurface::CommandStream => FaultSite::RoccCommand,
    }
}

/// The back-ends a campaign sweeps — one representative per family —
/// with the fault sites derived from each pipeline's declared
/// [`FaultSurface`] rather than hand-coded per family.
fn campaign_targets() -> Vec<(Platform, Vec<FaultSite>)> {
    let registry = Platform::table1_registry();
    let pick = |name: &str| {
        registry
            .iter()
            .find(|p| p.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("platform {name} missing from registry"))
    };
    ["Rocket", "RefV512D256Rocket", "OSGemminiRocket32KB"]
        .into_iter()
        .map(|name| {
            let p = pick(name);
            let sites = pipeline_for(&p)
                .fault_surface()
                .iter()
                .map(|&s| site_of(s))
                .collect();
            (p, sites)
        })
        .collect()
}

/// Builds the campaign's solver for a scenario: its plant at the
/// scenario's default horizon with the step-0 reference window set (for
/// hover this is bit-identical to the legacy hover-only prototype — the
/// hover window is all zeros, exactly the workspace default).
fn prototype_for(scenario: &Scenario) -> AdmmSolver<f32> {
    let horizon = scenario.default_horizon();
    let p = scenario.problem::<f32>(horizon).expect("scenario problem");
    let mut solver = AdmmSolver::new(p, SolverSettings::default()).expect("solver construction");
    solver
        .set_reference(&scenario.reference::<f32>(horizon, 0))
        .expect("reference window");
    solver
}

/// Runs one seeded campaign.
///
/// # Errors
///
/// Returns [`tinympc::Error::Campaign`] if a nominal (fault-free) solve
/// or the instruction harness fails — that means the environment is
/// broken, not that a fault escaped.
pub fn run_campaign(seed: u64, kind: CampaignKind) -> tinympc::Result<CampaignReport> {
    run_campaign_scenario(seed, kind, &Scenario::hover())
}

/// [`run_campaign`] flying an arbitrary scenario: the same fault plans,
/// deadline ladder and classification, against that scenario's plant,
/// reference and (randomly rescaled) initial states.
///
/// # Errors
///
/// Returns [`tinympc::Error::Campaign`] if a nominal (fault-free) solve
/// or the instruction harness fails.
pub fn run_campaign_scenario(
    seed: u64,
    kind: CampaignKind,
    scenario: &Scenario,
) -> tinympc::Result<CampaignReport> {
    let proto = prototype_for(scenario);
    let problem = proto.problem();
    let sdc_bound = 0.05 * (problem.u_max - problem.u_min);
    let mut backends = Vec::new();

    for (bi, (platform, sites)) in campaign_targets().into_iter().enumerate() {
        // Nominal timing on this back-end sets the deadline budget.
        let mut nominal_exec = PipelineExecutor::for_platform(&platform);
        let nominal = proto
            .clone()
            .solve_in_place(
                scenario.initial_state::<f32>().as_slice(),
                &mut nominal_exec,
            )
            .map_err(|e| tinympc::Error::Campaign {
                what: format!("nominal solve failed on {}: {e}", platform.name),
            })?;
        let budget = nominal.total_cycles * 3 / 2;
        // Plan the ladder around the measured fault-free iteration count,
        // not the generic default, so the 1.5× budget genuinely admits a
        // nominal solve on every back-end.
        let mut config = DeadlineConfig::new(budget);
        config.expected_iterations = nominal.iterations.max(1);

        let plan = FaultPlan::generate(
            seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(bi as u64 + 1)),
            kind.trials(),
            &sites,
            8,
        );
        let mut rng = SplitMix64::new(seed ^ ((bi as u64) << 32));
        let mut stats = BackendStats {
            backend: platform.name.clone(),
            trials: plan.faults.len(),
            detected: 0,
            recovered: 0,
            deadline_missed: 0,
            masked: 0,
            sdc: 0,
        };

        for fault in &plan.faults {
            // Each trial perturbs the scenario's characteristic initial
            // state by a random scale in [0.25, 1.75] — for hover this
            // spans the legacy 0.05..0.35 offset range.
            let x0 = scenario
                .initial_state::<f32>()
                .scale((0.25 + 1.5 * rng.unit_f64()) as f32);
            let u_ref = {
                let mut reference = proto.clone();
                reference
                    .solve_in_place(x0.as_slice(), &mut NullExecutor)
                    .map_err(|e| tinympc::Error::Campaign {
                        what: format!("reference solve failed: {e}"),
                    })?;
                Vector::from_slice(reference.u0())
            };
            let mut d = DeadlineSolver::new(proto.clone(), config);

            let outcome = if fault.site == FaultSite::RoccCommand {
                // Command-stream fault: route it through the executor so
                // the static verifier gets first shot at it.
                let mut faulty =
                    FaultyExecutor::new(PipelineExecutor::for_platform(&platform), *fault);
                let o = d.solve(&x0, &mut faulty, &mut NullObserver);
                if faulty.outcome == TraceFaultOutcome::Undetected {
                    // The stream verified clean but the command is still
                    // wrong: model its architectural effect as the
                    // equivalent stored-data corruption and re-run.
                    let equivalent = Fault {
                        site: FaultSite::ScratchpadWord,
                        kind: FaultKind::BitFlip {
                            bit: (fault.word >> 32) as u8 % 32,
                        },
                        ..*fault
                    };
                    d = DeadlineSolver::new(proto.clone(), config);
                    d.solve(
                        &x0,
                        &mut PipelineExecutor::for_platform(&platform),
                        &mut DataInjector::new(equivalent),
                    )
                } else {
                    o
                }
            } else {
                d.solve(
                    &x0,
                    &mut PipelineExecutor::for_platform(&platform),
                    &mut DataInjector::new(*fault),
                )
            };

            let deviation = outcome
                .u0
                .max_abs_diff(&u_ref)
                .map(f64::from)
                .unwrap_or(f64::INFINITY);
            let within = deviation <= f64::from(sdc_bound);

            if outcome.retried || outcome.termination == TerminationCause::Diverged {
                stats.detected += 1;
                if within {
                    stats.recovered += 1;
                }
            } else if !d.cache_is_pristine() {
                // Post-solve scrub: the cached matrices no longer match
                // their checksummed pristine copy.
                stats.detected += 1;
                if within {
                    stats.recovered += 1;
                }
            } else if outcome.termination == TerminationCause::Deadline
                || outcome.rung >= DegradeRung::EarlyExit
            {
                stats.deadline_missed += 1;
            } else if within {
                stats.masked += 1;
            } else {
                stats.sdc += 1;
            }
        }
        backends.push(stats);
    }

    let instruction = run_instruction_campaign(seed ^ 0x5bf0_3635, kind.instruction_trials())
        .map_err(|e| tinympc::Error::Campaign {
            what: format!("instruction harness failed: {e}"),
        })?;
    Ok(CampaignReport {
        seed,
        workload: scenario.name().to_string(),
        backends,
        instruction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_buckets_partition_trials() {
        let r = run_campaign(3, CampaignKind::Smoke).unwrap();
        for b in &r.backends {
            let undetected = b.masked + b.sdc + b.deadline_missed;
            assert_eq!(
                b.detected + undetected,
                b.trials,
                "buckets must partition {}: {b:?}",
                b.backend
            );
        }
        assert_eq!(
            r.instruction.trapped + r.instruction.masked + r.instruction.silent_wrong,
            r.instruction.trials
        );
    }

    #[test]
    fn scalar_backend_has_no_silent_corruption() {
        let r = run_campaign(7, CampaignKind::Smoke).unwrap();
        assert_eq!(r.scalar_sdc(), 0, "{}", r.render());
    }

    #[test]
    fn scenario_campaign_flies_the_soc_workload() {
        let r = run_campaign_scenario(11, CampaignKind::Smoke, &Scenario::soft_landing()).unwrap();
        assert_eq!(r.workload, "soft-landing");
        assert!(r.render().contains("workload soft-landing"));
        for b in &r.backends {
            assert_eq!(
                b.detected + b.masked + b.sdc + b.deadline_missed,
                b.trials,
                "buckets must partition {}: {b:?}",
                b.backend
            );
        }
        // Identical seed, identical report — scenario campaigns keep
        // the determinism contract.
        let again =
            run_campaign_scenario(11, CampaignKind::Smoke, &Scenario::soft_landing()).unwrap();
        assert_eq!(r, again);
    }

    #[test]
    fn null_observer_is_a_clean_baseline() {
        // No fault: the deadline solver under the campaign budget must
        // match the reference exactly.
        let proto = prototype_for(&Scenario::hover());
        let x0 = proto.problem().hover_offset_state(0.2);
        let u_ref = {
            let mut reference = proto.clone();
            reference
                .solve_in_place(x0.as_slice(), &mut NullExecutor)
                .unwrap();
            Vector::from_slice(reference.u0())
        };
        let mut d = DeadlineSolver::new(proto, DeadlineConfig::new(u64::MAX));
        let o = d.solve(&x0, &mut NullExecutor, &mut NullObserver);
        assert_eq!(o.rung, DegradeRung::Nominal);
        assert!(f64::from(o.u0.max_abs_diff(&u_ref).unwrap()) < 1e-6);
    }
}
