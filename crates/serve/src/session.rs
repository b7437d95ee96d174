//! Cohorts and sessions — the tenancy model of the serve runtime.
//!
//! A **cohort** is every session flying the same workload on the same
//! platform: one `(scenario, platform, dims)` triple. Everything
//! expensive is computed at most once per cohort at admission — the
//! [`CachedCosts`] pricing snapshot, the [`RungCosts`] ladder costs, and
//! the flat reference trajectory. The DARE (Riccati) cache is shared
//! wider still: it depends on the plant alone, never on the platform,
//! so [`plant_for`] computes it **once per plant per process** and every
//! later cohort of that plant — in this admission or any later one —
//! starts from a clone of the interned prototype solver. A **session**
//! is one tenant: a warm clone of the cohort's prototype
//! [`DeadlineSolver`] (cheap memcpy of the shared cache), its own plant
//! state, and preallocated scratch. Cloning is what lets ten thousand
//! quadrotor sessions share one Riccati solve and one pricing pass
//! while keeping their warm-start state private.

use crate::costs::CachedCosts;
use matlib::rng::SplitMix64;
use soc_backend::Platform;
use soc_faults::{DeadlineConfig, DeadlineSolver, DegradeRung, RungCosts, RungStatus};
use soc_scenarios::Scenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use tinympc::{AdmmSolver, NullObserver, ProblemDims, SolverSettings, WsField};

/// Phase-offset slots sessions are staggered across, so cohort members
/// track shifted copies of the reference instead of moving in lockstep.
pub const PHASE_SLOTS: usize = 32;

/// Interned prototype solvers, keyed by `(scenario.cache_id(), horizon)`.
type PlantMap = HashMap<(String, usize), Arc<AdmmSolver<f32>>>;

fn plants() -> MutexGuard<'static, PlantMap> {
    static PLANTS: OnceLock<Mutex<PlantMap>> = OnceLock::new();
    // Every critical section is one probe or one insert on an
    // insert-only map, so a poisoned lock still guards a whole map.
    PLANTS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

static PLANTS_BUILT: AtomicU64 = AtomicU64::new(0);
static PLANTS_REUSED: AtomicU64 = AtomicU64::new(0);

/// The process-wide prototype solver for `scenario`'s plant at
/// `horizon`: problem plus DARE cache, built once with
/// [`SolverSettings::default`] and shared by every cohort flying that
/// plant, whatever its platform. Callers clone it; a clone is
/// bit-identical to a fresh [`AdmmSolver::new`].
///
/// The DARE runs outside the interner's lock, so a slow build never
/// blocks other plants; if two threads race on one plant, the first
/// insert wins and both get that solver. Failed builds are not
/// memoized: every call with a bad `horizon` errors again.
///
/// # Errors
///
/// Propagates problem construction and Riccati-cache failures.
pub fn plant_for(scenario: &Scenario, horizon: usize) -> tinympc::Result<Arc<AdmmSolver<f32>>> {
    let key = (scenario.cache_id(), horizon);
    if let Some(solver) = plants().get(&key) {
        PLANTS_REUSED.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(solver));
    }
    let built = AdmmSolver::new(scenario.problem(horizon)?, SolverSettings::default())?;
    PLANTS_BUILT.fetch_add(1, Ordering::Relaxed);
    Ok(Arc::clone(
        plants().entry(key).or_insert_with(|| Arc::new(built)),
    ))
}

/// How often [`plant_for`] ran a DARE versus handed out an interned
/// prototype, since process start. Host-process events: they depend on
/// what ran earlier in the process, so they stay out of report bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlantReuse {
    /// Prototype solvers built (one DARE each).
    pub built: u64,
    /// Cohort builds served from the interner without a DARE.
    pub reused: u64,
}

/// The current [`PlantReuse`] counters.
pub fn plant_reuse() -> PlantReuse {
    PlantReuse {
        built: PLANTS_BUILT.load(Ordering::Relaxed),
        reused: PLANTS_REUSED.load(Ordering::Relaxed),
    }
}

/// Everything shared by one cohort of sessions, computed once at
/// admission.
#[derive(Debug)]
pub struct CohortModel {
    scenario: Scenario,
    platform_name: String,
    horizon: usize,
    dims: ProblemDims,
    costs: CachedCosts,
    rung_costs: RungCosts,
    budget: u64,
    baseline: DegradeRung,
    prototype: DeadlineSolver<f32>,
    /// Reference states `r(0..knots)`, row-major `nx` per knot. Covers
    /// every (tick + phase + horizon) window a session can request.
    flat_ref: Vec<f32>,
    knots: usize,
}

impl CohortModel {
    /// Builds a cohort model: a clone of the plant's interned prototype
    /// solver ([`plant_for`]: one DARE per plant per process), kernel
    /// pricing once (through the process-wide pricer interner), ladder
    /// costs once, and the reference trajectory flattened out to `ticks`
    /// plant steps.
    ///
    /// # Errors
    ///
    /// Propagates solver construction and back-end pricing failures.
    pub fn build(
        scenario: &Scenario,
        platform: &Platform,
        horizon: usize,
        ticks: usize,
        control_hz: f64,
    ) -> tinympc::Result<Self> {
        let solver = AdmmSolver::clone(&*plant_for(scenario, horizon)?);
        let dims = solver.problem().dims();
        let config = DeadlineConfig::from_rates(control_hz, CLOCK_HZ);
        let mut prototype = DeadlineSolver::new(solver, config);
        let mut costs = CachedCosts::price(platform, dims)?;
        let rung_costs = prototype.rung_costs(&mut costs)?;
        let baseline = rung_costs.mildest_within(config.cycle_budget);

        let knots = ticks + horizon + PHASE_SLOTS;
        let mut flat_ref = Vec::with_capacity(knots * dims.nx);
        for t in 0..knots {
            let window = scenario.reference::<f32>(1, t);
            flat_ref.extend_from_slice(window[0].as_slice());
        }

        Ok(CohortModel {
            scenario: scenario.clone(),
            platform_name: platform.name.clone(),
            horizon,
            dims,
            costs,
            rung_costs,
            budget: config.cycle_budget,
            baseline,
            prototype,
            flat_ref,
            knots,
        })
    }

    /// The cohort's workload.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The cohort's platform name (Table-I identifier).
    pub fn platform_name(&self) -> &str {
        &self.platform_name
    }

    /// Per-rung predicted solve costs.
    pub fn rung_costs(&self) -> RungCosts {
        self.rung_costs
    }

    /// Per-solve cycle budget (deadline) of this cohort.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The mildest rung whose predicted cost fits the per-solve budget
    /// — where the cohort sits when the service is unloaded.
    pub fn baseline(&self) -> DegradeRung {
        self.baseline
    }

    /// Problem dimensions.
    pub fn dims(&self) -> ProblemDims {
        self.dims
    }

    /// Admits one session: a warm clone of the prototype solver, a
    /// seeded perturbation of the scenario's initial state, and a
    /// seeded phase offset into the reference trajectory.
    pub fn new_session(&self, rng: &mut SplitMix64) -> Session {
        let nx = self.dims.nx;
        let nu = self.dims.nu;
        let mut x = self.scenario.initial_state::<f32>().as_slice().to_vec();
        for v in &mut x {
            // Scale plus a small additive nudge, so all-zero states
            // still spread out across the cohort.
            let scale = 0.9 + 0.2 * rng.unit_f64();
            let nudge = 0.02 * (rng.unit_f64() - 0.5);
            *v = *v * scale as f32 + nudge as f32;
        }
        Session {
            solver: self.prototype.clone(),
            costs: self.costs,
            phase: rng.range_usize(0, PHASE_SLOTS - 1),
            x,
            ax: vec![0.0; nx],
            bu: vec![0.0; nx],
            lqr_u: vec![0.0; nu],
            ticks: 0,
            misses: 0,
            fallbacks: 0,
        }
    }
}

/// Simulated core clock the serve deadline budgets are derived from
/// (the repo's reporting convention: "MPC Hz @ 1 GHz").
pub const CLOCK_HZ: f64 = 1.0e9;

/// One tenant: a warm solver clone plus everything its tick touches.
/// All buffers are sized at admission; [`Session::tick`] performs zero
/// heap allocations.
#[derive(Debug)]
pub struct Session {
    solver: DeadlineSolver<f32>,
    costs: CachedCosts,
    phase: usize,
    /// Current plant state.
    x: Vec<f32>,
    /// Plant-update scratch: `A·x` and `B·u`.
    ax: Vec<f32>,
    bu: Vec<f32>,
    /// LQR-fallback control scratch.
    lqr_u: Vec<f32>,
    ticks: u64,
    misses: u64,
    fallbacks: u64,
}

impl Session {
    /// Runs one control tick at the cohort-assigned `rung`: stream the
    /// reference window into the arena, solve in place, apply `u0` to
    /// the plant. Returns the achieved [`RungStatus`] (the assigned
    /// rung, downgraded on a mid-solve deadline trip, or the LQR rung
    /// after a fault fallback).
    pub fn tick(&mut self, model: &CohortModel, step: usize, rung: DegradeRung) -> RungStatus {
        let nx = model.dims.nx;
        let horizon = model.horizon;
        // Stream the reference window straight into the arena: the
        // allocation-free equivalent of `set_reference`.
        let start = (step + self.phase).min(model.knots - horizon);
        let ws = self.solver.solver_mut().workspace_mut();
        for i in 0..horizon {
            let knot = &model.flat_ref[(start + i) * nx..(start + i + 1) * nx];
            ws.knot_mut(WsField::XRef, i).copy_from_slice(knot);
        }

        let status =
            self.solver
                .solve_in_place_at_rung(&self.x, &mut self.costs, rung, &mut NullObserver);

        // Plant update x⁺ = A·x + B·u₀ with the applied control: the
        // arena-staged u0, or the cached gain on the LQR rung.
        let u: &[f32] = if status.rung == DegradeRung::LqrFallback {
            self.solver.lqr_u0_into(&self.x, &mut self.lqr_u);
            &self.lqr_u
        } else {
            self.solver.solver().u0()
        };
        let p = self.solver.solver().problem();
        // Scratch is sized to the plant; these cannot fail.
        let _ = matlib::gemv_into(&p.a, &self.x, &mut self.ax);
        let _ = matlib::gemv_into(&p.b, u, &mut self.bu);
        let _ = matlib::add_into(&self.ax, &self.bu, &mut self.x);

        self.ticks += 1;
        if status.total_cycles > model.budget {
            self.misses += 1;
        }
        if status.fell_back {
            self.fallbacks += 1;
        }
        status
    }

    /// Session-ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks whose applied solve overran the cohort's cycle budget.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Ticks that hit the fault-fallback path.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Current plant state (testing hook).
    pub fn state(&self) -> &[f32] {
        &self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CohortModel {
        CohortModel::build(&Scenario::hover(), &Platform::rocket_eigen(), 10, 16, 100.0).unwrap()
    }

    #[test]
    fn cohort_model_prices_a_consistent_ladder() {
        let m = model();
        let c = m.rung_costs();
        assert!(c.nominal >= c.widened && c.widened >= c.early_exit);
        assert_eq!(m.baseline(), c.mildest_within(m.budget()));
        assert_eq!(m.flat_ref.len(), m.knots * m.dims().nx);
    }

    #[test]
    fn sessions_are_seed_deterministic() {
        let m = model();
        let mut a_rng = SplitMix64::new(9);
        let mut b_rng = SplitMix64::new(9);
        let a = m.new_session(&mut a_rng);
        let b = m.new_session(&mut b_rng);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.phase, b.phase);
    }

    #[test]
    fn ticks_converge_and_regulate_the_plant() {
        let m = CohortModel::build(&Scenario::hover(), &Platform::rocket_eigen(), 10, 40, 100.0)
            .unwrap();
        let mut rng = SplitMix64::new(3);
        let mut s = m.new_session(&mut rng);
        // Hover's reference is zero: track the commanded position
        // coordinate (full-state norm transiently grows as the
        // controller induces velocity to fly the offset out).
        let start = s.state()[0].abs();
        for step in 0..40 {
            let status = s.tick(&m, step, m.baseline());
            assert!(!status.fell_back, "fault path must not trigger");
        }
        assert!(s.state().iter().all(|v| v.is_finite()));
        let end = s.state()[0].abs();
        assert!(
            end < start,
            "hover regulation must contract the offset: {start} -> {end}"
        );
        assert_eq!(s.ticks(), 40);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn interned_plants_match_a_fresh_construction_bit_for_bit() {
        let mut scenarios = soc_scenarios::ScenarioCatalog::standard()
            .scenarios()
            .to_vec();
        scenarios.push(Scenario::random_stable_plant(6, 2, 42));
        scenarios.push(Scenario::random_stable_plant(4, 3, 1009));
        for scenario in &scenarios {
            let horizon = scenario.default_horizon();
            let fresh = AdmmSolver::new(
                scenario.problem::<f32>(horizon).unwrap(),
                SolverSettings::default(),
            )
            .unwrap();
            // Twice: the first call may build, the second must reuse.
            let first = plant_for(scenario, horizon).unwrap();
            let interned = plant_for(scenario, horizon).unwrap();
            assert!(Arc::ptr_eq(&first, &interned), "{}", scenario.cache_id());

            let (p, q) = (interned.problem(), fresh.problem());
            let name = scenario.cache_id();
            assert_eq!(bits(p.a.as_slice()), bits(q.a.as_slice()), "{name}: A");
            assert_eq!(bits(p.b.as_slice()), bits(q.b.as_slice()), "{name}: B");
            assert_eq!(
                bits(p.q_diag.as_slice()),
                bits(q.q_diag.as_slice()),
                "{name}: Q"
            );
            assert_eq!(
                bits(p.r_diag.as_slice()),
                bits(q.r_diag.as_slice()),
                "{name}: R"
            );
            let scalars = |p: &tinympc::TinyMpcProblem<f32>| {
                bits(&[p.rho, p.u_min, p.u_max, p.x_min, p.x_max])
            };
            assert_eq!(scalars(p), scalars(q), "{name}: scalars");
            assert_eq!(p.horizon, q.horizon, "{name}: horizon");
            assert_eq!(
                format!("{:?}", p.input_cones),
                format!("{:?}", q.input_cones),
                "{name}: cones"
            );

            let (c, d) = (interned.cache(), fresh.cache());
            for (field, x, y) in [
                ("kinf", &c.kinf, &d.kinf),
                ("kinf_t", &c.kinf_t, &d.kinf_t),
                ("pinf", &c.pinf, &d.pinf),
                ("quu_inv", &c.quu_inv, &d.quu_inv),
                ("am_bk_t", &c.am_bk_t, &d.am_bk_t),
                ("b_t", &c.b_t, &d.b_t),
            ] {
                assert_eq!(x.shape(), y.shape(), "{name}: {field}");
                assert_eq!(bits(x.as_slice()), bits(y.as_slice()), "{name}: {field}");
            }
            assert_eq!(c.riccati_iterations, d.riccati_iterations, "{name}");
            assert_eq!(interned.settings(), fresh.settings(), "{name}");
        }
    }

    #[test]
    fn failed_plant_builds_error_every_time_and_are_never_cached() {
        let scenario = Scenario::double_integrator();
        for _ in 0..3 {
            assert!(plant_for(&scenario, 1).is_err());
            assert!(!plants().contains_key(&(scenario.cache_id(), 1)));
        }
        assert!(CohortModel::build(&scenario, &Platform::rocket_eigen(), 1, 8, 100.0).is_err());
        assert!(!plants().contains_key(&(scenario.cache_id(), 1)));
    }

    #[test]
    fn lqr_rung_applies_the_cached_gain() {
        let m = model();
        let mut rng = SplitMix64::new(4);
        let mut s = m.new_session(&mut rng);
        let status = s.tick(&m, 0, DegradeRung::LqrFallback);
        assert_eq!(status.rung, DegradeRung::LqrFallback);
        assert_eq!(status.total_cycles, 0);
        assert!(s.state().iter().all(|v| v.is_finite()));
    }
}
