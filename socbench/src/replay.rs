//! The solver stack on its own: single-thread receding-horizon replay
//! (the `solver-replay` workload).
//!
//! A round replays `INSTANCES` copies of every catalog scenario plus
//! `RANDOM_PLANTS` seeded random stable plants for their rollout length,
//! each from a seed-perturbed initial state and reference phase — the
//! perturbation serve admission applies to sessions. Each step streams
//! the reference window (`Scenario::reference` +
//! `AdmmSolver::set_reference`), solves with `solve_in_place_observed` on
//! a `NullExecutor`, checks `u0`, and steps the plant with
//! `gemv_into`/`add_into`. No executor, lock, shedding or pricing runs.
//! Solvers (and their DARE) are built in set-up and every instance
//! starts from a clone of its plant's pristine solver, so replaying the
//! same instances must repeat bit for bit.

use std::sync::Arc;
use std::time::Instant;

use matlib::rng::SplitMix64;
use soc_scenarios::{Scenario, ScenarioCatalog};
use tinympc::{
    AdmmSolver, NullExecutor, NullObserver, SolveObserver, SolverSettings, TerminationCause,
    TinyMpcCache, TinyMpcWorkspace,
};

use crate::stats::{fast_rate, fast_time, geomean, median, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::{StackOut, Stepper};

/// Seeded random stable plants replayed beside the catalog, cycling
/// through these `(nx, nu)` shapes.
const RANDOM_SHAPES: [(usize, usize); 3] = [(4, 2), (8, 3), (10, 4)];
/// Random plants per run.
const RANDOM_PLANTS: usize = 6;
/// Perturbed instances per catalog scenario in a round (each random
/// plant is replayed once).
const INSTANCES: usize = 16;
/// Reference phase offsets instances are spread over (as serve
/// admission staggers sessions).
const PHASE_SLOTS: usize = 32;
/// Set-ups per run on the workload's own seed, for the set-up median.
const SETUPS: usize = 5;
/// Slack on the second-order-cone margin of an applied `u0` (f32 math).
const CONE_TOLERANCE: f64 = 1e-4;

/// One replayed plant: the scenario and its pristine solver (DARE
/// done), shared by every instance.
struct Plant {
    scenario: Scenario,
    label: String,
    pristine: AdmmSolver<f32>,
}

/// One replayed instance: a plant, a seed-perturbed initial state and a
/// reference phase.
struct Case {
    plant: usize,
    x0: Vec<f32>,
    phase: usize,
}

/// What one round of one case produced (compared across rounds).
#[derive(Debug, Clone, PartialEq)]
struct CaseResult {
    iterations: Vec<usize>,
    rms_bits: u64,
}

/// `(dims, milliseconds)` per solver construction.
type SetupMs = Vec<(String, f64)>;

/// Builds every plant (the DARE runs here).
fn build(seed: u64, tracer: &Tracer) -> tinympc::Result<(Vec<Plant>, SetupMs)> {
    let mut rng = SplitMix64::new(seed ^ 0x2E91_A7C3);
    let mut scenarios = ScenarioCatalog::standard().into_scenarios();
    for i in 0..RANDOM_PLANTS {
        let (nx, nu) = RANDOM_SHAPES[i % RANDOM_SHAPES.len()];
        scenarios.push(Scenario::random_stable_plant(nx, nu, rng.next_u64()));
    }
    let mut plants = Vec::with_capacity(scenarios.len());
    let mut setup_ms = Vec::new();
    for scenario in scenarios {
        let problem = scenario.problem::<f32>(scenario.default_horizon())?;
        let started = Instant::now();
        let pristine = tracer.span("solver.new", 0, || {
            AdmmSolver::new(problem, SolverSettings::default())
        })?;
        let (nx, nu) = scenario.dims();
        setup_ms.push((format!("{nx}x{nu}"), started.elapsed().as_secs_f64() * 1e3));
        plants.push(Plant {
            label: scenario.name().to_string(),
            scenario,
            pristine,
        });
    }
    Ok((plants, setup_ms))
}

/// The instances of round `r`: `INSTANCES` per catalog scenario and one
/// per random plant, each with a perturbed initial state (scale
/// 0.9–1.1 plus a small nudge, as serve admission draws them) and a
/// reference phase. Phases are stratified over the slots from a seeded
/// offset, so every round samples the whole reference cycle.
fn instances(plants: &[Plant], seed: u64, r: usize) -> Vec<Case> {
    let mut rng =
        SplitMix64::new(seed ^ 0x1A57_7A9E ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cases = Vec::new();
    for (index, plant) in plants.iter().enumerate() {
        let count = if plant.label == "random" {
            1
        } else {
            INSTANCES
        };
        let offset = rng.range_usize(0, PHASE_SLOTS - 1);
        for i in 0..count {
            let mut x0 = plant.scenario.initial_state::<f32>().as_slice().to_vec();
            for v in &mut x0 {
                let scale = 0.9 + 0.2 * rng.unit_f64();
                let nudge = 0.02 * (rng.unit_f64() - 0.5);
                *v = *v * scale as f32 + nudge as f32;
            }
            cases.push(Case {
                plant: index,
                x0,
                phase: (offset + i * PHASE_SLOTS / count) % PHASE_SLOTS,
            });
        }
    }
    cases
}

/// Timestamps `after_iteration` calls for the per-iteration split.
struct IterationClock {
    stamps: Vec<Instant>,
}

impl SolveObserver<f32> for IterationClock {
    fn after_iteration(
        &mut self,
        _iteration: usize,
        _cache: &mut TinyMpcCache<f32>,
        _workspace: &mut TinyMpcWorkspace<f32>,
    ) {
        self.stamps.push(Instant::now());
    }
}

/// Host samples of one or more rounds.
#[derive(Default)]
struct Samples {
    /// Per-solve wall times of the current round.
    solve_ns: Vec<f64>,
    solves: u64,
    failed: u64,
    /// Wall time of the replay loops.
    loop_ns: f64,
    /// Traced only.
    reference_ns: Vec<f64>,
    plant_ns: Vec<f64>,
    iteration_ns: Vec<f64>,
    first_iteration_ns: Vec<f64>,
    converged: u64,
    max_iter: u64,
}

/// Replays every case once. Returns per-case results.
fn round(
    plants: &[Plant],
    cases: &[Case],
    tracer: &Tracer,
    samples: &mut Samples,
    rep: &mut Report,
) -> Vec<CaseResult> {
    let traced = tracer.enabled();
    let round_span = tracer.start("replay.round", 0);
    let loop_start = Instant::now();
    let mut results = Vec::with_capacity(cases.len());
    let mut clock = IterationClock {
        stamps: Vec::with_capacity(128),
    };
    for case in cases {
        let plant = &plants[case.plant];
        let scenario = &plant.scenario;
        let label = &plant.label;
        let mut solver = plant.pristine.clone();
        let problem = solver.problem().clone();
        let horizon = problem.horizon;
        let tracked = scenario.tracked_states();
        let steps = scenario.rollout_steps();
        let mut x = case.x0.clone();
        let mut ax = vec![0.0f32; x.len()];
        let mut bu = vec![0.0f32; x.len()];
        let mut iterations = Vec::with_capacity(steps);
        let mut sum_sq = 0.0f64;
        let case_span = tracer.start("replay.case", round_span.id());
        for step in 0..steps {
            let t = step + case.phase;
            let r = tracer.start("scenarios.reference", case_span.id());
            let started = Instant::now();
            let window = scenario.reference::<f32>(horizon, t);
            if traced {
                samples
                    .reference_ns
                    .push(started.elapsed().as_nanos() as f64);
            }
            tracer.end(r);
            if let Err(e) = solver.set_reference(&window) {
                samples.failed += 1;
                rep.check(false, || format!("{label}: set_reference failed: {e}"));
                break;
            }
            let s = tracer.start("solver.solve", case_span.id());
            clock.stamps.clear();
            let started = Instant::now();
            let status = if traced {
                solver.solve_in_place_observed(&x, &mut NullExecutor, &mut clock)
            } else {
                solver.solve_in_place_observed(&x, &mut NullExecutor, &mut NullObserver)
            };
            samples.solve_ns.push(started.elapsed().as_nanos() as f64);
            tracer.end(s);
            samples.solves += 1;
            let status = match status {
                Ok(status) => status,
                Err(e) => {
                    samples.failed += 1;
                    rep.check(false, || format!("{label} step {step}: solve failed: {e}"));
                    break;
                }
            };
            if let (Some(first), Some(last)) = (clock.stamps.first(), clock.stamps.last()) {
                samples
                    .first_iteration_ns
                    .push(first.duration_since(started).as_nanos() as f64);
                if clock.stamps.len() > 1 {
                    samples.iteration_ns.push(
                        last.duration_since(*first).as_nanos() as f64
                            / (clock.stamps.len() - 1) as f64,
                    );
                }
            }
            samples.converged += u64::from(status.converged);
            samples.max_iter += u64::from(status.termination == TerminationCause::MaxIterations);
            iterations.push(status.iterations);

            let u0 = solver.u0();
            let in_box = u0
                .iter()
                .all(|u| u.is_finite() && (problem.u_min..=problem.u_max).contains(u));
            let in_cone = problem
                .input_cones
                .iter()
                .all(|c| c.margin(u0) >= -CONE_TOLERANCE);
            if !(in_box && in_cone) {
                samples.failed += 1;
                rep.check(false, || {
                    format!("{label} step {step}: u0 {u0:?} outside its box or cone")
                });
            }

            let p = tracer.start("matlib.plant_step", case_span.id());
            let started = Instant::now();
            let stepped = matlib::gemv_into(&problem.a, &x, &mut ax)
                .and_then(|_| matlib::gemv_into(&problem.b, u0, &mut bu))
                .and_then(|_| matlib::add_into(&ax, &bu, &mut x));
            if traced {
                samples.plant_ns.push(started.elapsed().as_nanos() as f64);
            }
            tracer.end(p);
            if let Err(e) = stepped {
                samples.failed += 1;
                rep.check(false, || {
                    format!("{label} step {step}: plant step failed: {e}")
                });
                break;
            }
            let target = scenario.reference::<f32>(1, t + 1);
            let err_sq: f64 = tracked
                .iter()
                .map(|&i| f64::from(x[i] - target[0][i]).powi(2))
                .sum();
            if !err_sq.is_finite() {
                samples.failed += 1;
                rep.check(false, || format!("{label} step {step}: state diverged"));
            }
            sum_sq += err_sq;
        }
        tracer.end(case_span);
        let rms = (sum_sq / steps.max(1) as f64).sqrt();
        results.push(CaseResult {
            iterations,
            rms_bits: rms.to_bits(),
        });
    }
    samples.loop_ns += loop_start.elapsed().as_nanos() as f64;
    tracer.end(round_span);
    results
}

/// Mean of a count sample.
fn mean(values: impl Iterator<Item = usize>) -> f64 {
    let (sum, n) = values.fold((0usize, 0usize), |(s, n), v| (s + v, n + 1));
    sum as f64 / n.max(1) as f64
}

/// The solver stack as a stepper: each step replays one round of
/// fresh instances. Set-up builds every solver and replays round 0 cold;
/// round 0 fixes the deterministic metrics and is replayed again at the
/// end, where it must repeat bit for bit.
pub struct Replay {
    plants: Vec<Plant>,
    cases: Vec<Case>,
    reference: Vec<CaseResult>,
    setups: Vec<f64>,
    setup_ms: SetupMs,
    samples: Samples,
    /// Per round: solves/s, solve p50 and solve p99 (ns).
    per_round: Vec<[f64; 3]>,
    seed: u64,
    rounds: usize,
}

impl Replay {
    /// Sets the stack up on `seed` (`SETUPS` times when `primary`, for
    /// the set-up median).
    pub fn new(
        seed: u64,
        primary: bool,
        tracer: &Tracer,
        rep: &mut Report,
    ) -> tinympc::Result<Self> {
        let mut setups = Vec::new();
        let mut setup_ms = Vec::new();
        let mut reference: Option<Vec<CaseResult>> = None;
        let mut plants = Vec::new();
        let mut cases = Vec::new();
        for _ in 0..if primary { SETUPS } else { 1 } {
            let started = Instant::now();
            let (built, ms) = build(seed, tracer)?;
            cases = instances(&built, seed, 0);
            let first = round(
                &built,
                &cases,
                &Tracer::new(false),
                &mut Samples::default(),
                rep,
            );
            setups.push(started.elapsed().as_secs_f64());
            setup_ms.extend(ms);
            match &reference {
                None => reference = Some(first),
                Some(r) => rep.check(*r == first, || "replay set-up rounds differ".into()),
            }
            plants = built;
        }
        Ok(Replay {
            plants,
            cases,
            reference: reference.expect("one set-up"),
            setups,
            setup_ms,
            samples: Samples::default(),
            per_round: Vec::new(),
            seed,
            rounds: 0,
        })
    }
}

impl Stepper for Replay {
    fn ready(&self) -> bool {
        self.rounds >= 1
    }

    fn step(&mut self, tracer: &Arc<Tracer>, rep: &mut Report) -> tinympc::Result<()> {
        self.rounds += 1;
        let fresh = instances(&self.plants, self.seed, self.rounds);
        // Per-solve times are summarised per round and dropped, so memory
        // does not grow with the length of the run.
        self.samples.solve_ns.clear();
        let (solves, loop_ns) = (self.samples.solves, self.samples.loop_ns);
        round(&self.plants, &fresh, tracer, &mut self.samples, rep);
        let solve_ns = &self.samples.solve_ns;
        self.per_round.push([
            ratio(
                (self.samples.solves - solves) as f64 * 1e9,
                self.samples.loop_ns - loop_ns,
            ),
            percentile(solve_ns, 50.0),
            percentile(solve_ns, 99.0),
        ]);
        Ok(())
    }

    fn finish(
        self: Box<Self>,
        tracer: &Arc<Tracer>,
        rep: &mut Report,
    ) -> tinympc::Result<StackOut> {
        let Replay {
            plants,
            cases,
            reference,
            setups,
            setup_ms,
            samples,
            per_round,
            rounds,
            ..
        } = *self;
        let again = round(&plants, &cases, tracer, &mut Samples::default(), rep);
        rep.check(again == reference, || {
            "replay of round 0 changed iteration counts or tracking error".into()
        });

        let rms: Vec<f64> = reference
            .iter()
            .map(|r| f64::from_bits(r.rms_bits))
            .collect();
        let of = |k: usize| per_round.iter().map(|r| r[k]).collect::<Vec<_>>();
        rep.put("solves_per_s", fast_rate(&of(0)), "1/s");
        rep.put("solve_us_p50", fast_time(&of(1)) / 1e3, "us");
        rep.put("solve_us_p99", fast_time(&of(2)) / 1e3, "us");
        rep.put("tracking_rms_geomean", geomean(&rms), "state-units");
        rep.attempted += samples.solves;
        rep.failed += samples.failed;
        eprintln!(
            "replay: {} plants, {} cases, {rounds} rounds, {} solves, failed {}",
            plants.len(),
            cases.len(),
            samples.solves,
            samples.failed
        );

        if tracer.enabled() {
            for label in ["12x4", "6x3", "2x1"] {
                let v: Vec<f64> = setup_ms
                    .iter()
                    .filter(|(l, _)| l == label)
                    .map(|(_, ms)| *ms)
                    .collect();
                rep.put(format!("solver.setup_ms.{label}"), median(&v), "ms");
            }
            let all: Vec<f64> = reference
                .iter()
                .flat_map(|r| r.iterations.iter().map(|&i| i as f64))
                .collect();
            rep.put("solver.iterations_p50", percentile(&all, 50.0), "count");
            rep.put("solver.iterations_p99", percentile(&all, 99.0), "count");
            let mut labels: Vec<&str> = plants.iter().map(|p| p.label.as_str()).collect();
            labels.dedup();
            for label in labels {
                let per_solve = cases
                    .iter()
                    .zip(&reference)
                    .filter(|(c, _)| plants[c.plant].label == label)
                    .flat_map(|(_, r)| r.iterations.iter().copied());
                rep.put(
                    format!("solver.iterations.{label}"),
                    mean(per_solve),
                    "count",
                );
            }
            rep.put(
                "solver.ns_per_iteration",
                median(&samples.iteration_ns),
                "ns",
            );
            rep.put(
                "solver.first_iteration_ns",
                median(&samples.first_iteration_ns),
                "ns",
            );
            let solves = samples.solves as f64;
            rep.put(
                "solver.converged_share",
                ratio(samples.converged as f64, solves),
                "ratio",
            );
            rep.put(
                "solver.max_iter_share",
                ratio(samples.max_iter as f64, solves),
                "ratio",
            );
            rep.put(
                "scenarios.reference_us",
                median(&samples.reference_ns) / 1e3,
                "us",
            );
            rep.put("matlib.plant_step_ns", median(&samples.plant_ns), "ns");
        }

        Ok(StackOut {
            setup_s: median(&setups),
            unit_ns: ratio(samples.loop_ns, samples.solves as f64),
        })
    }
}
