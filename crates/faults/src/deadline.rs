//! Deadline-aware graceful degradation.
//!
//! A control loop that misses its deadline is as broken as one that
//! computes the wrong answer. [`DeadlineSolver`] wraps [`AdmmSolver`]
//! with a hard cycle budget (derived from the control rate and the
//! platform's clock) and walks an explicit degradation ladder instead of
//! overrunning:
//!
//! 1. [`DegradeRung::Nominal`] — the full solve fits; run it unchanged.
//! 2. [`DegradeRung::WidenedCheck`] — residual checks are priced kernels
//!    too; widening `check_interval` buys compute iterations.
//! 3. [`DegradeRung::EarlyExit`] — run what fits and apply the best
//!    iterate so far (the clipped slack `u0` is always feasible).
//! 4. [`DegradeRung::LqrFallback`] — no iteration fits: apply the cached
//!    infinite-horizon LQR gain `u = clip(−K∞ x0)` directly.
//!
//! The same wrapper owns fault recovery: any solver error (rejected
//! trace, non-finite data, corrupted workspace) or detected divergence
//! triggers one bounded retry — workspace reset, pristine Riccati cache
//! restored, timing falls back to the scalar reference back-end — and if
//! the retry fails too, the LQR rung catches. `solve` is therefore
//! infallible: it always returns a finite, feasible `u0`.

use matlib::{Scalar, Vector};
use soc_backend::{PipelineExecutor, Platform};
use tinympc::{
    AdmmSolver, KernelExecutor, KernelId, NullObserver, SolveObserver, SolverSettings,
    TerminationCause, TinyMpcCache,
};

/// The degradation ladder, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeRung {
    /// Full solve within budget.
    Nominal,
    /// Residual checks widened to every `widen_factor` iterations.
    WidenedCheck,
    /// Budgeted early exit with the best iterate so far.
    EarlyExit,
    /// Cached LQR gain applied directly; no ADMM iteration ran.
    LqrFallback,
}

impl DegradeRung {
    /// Every rung, mildest first — the ladder order used for cohort
    /// walks and rung-occupancy histograms.
    pub const ALL: [DegradeRung; 4] = [
        DegradeRung::Nominal,
        DegradeRung::WidenedCheck,
        DegradeRung::EarlyExit,
        DegradeRung::LqrFallback,
    ];

    /// Ladder position, 0 (nominal) to 3 (LQR fallback).
    pub fn index(self) -> usize {
        match self {
            DegradeRung::Nominal => 0,
            DegradeRung::WidenedCheck => 1,
            DegradeRung::EarlyExit => 2,
            DegradeRung::LqrFallback => 3,
        }
    }

    /// The rung at ladder position `index` (clamped to the last rung).
    pub fn from_index(index: usize) -> DegradeRung {
        *DegradeRung::ALL
            .get(index)
            .unwrap_or(&DegradeRung::LqrFallback)
    }

    /// The next-harsher rung (saturating at the LQR fallback).
    pub fn demoted(self) -> DegradeRung {
        DegradeRung::from_index(self.index() + 1)
    }
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeRung::Nominal => "nominal",
            DegradeRung::WidenedCheck => "widened-check",
            DegradeRung::EarlyExit => "early-exit",
            DegradeRung::LqrFallback => "lqr-fallback",
        })
    }
}

/// Budget and ladder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Hard per-solve cycle budget.
    pub cycle_budget: u64,
    /// `check_interval` used on the widened rungs.
    pub widen_factor: usize,
    /// Iterations the ladder plans for when predicting whether a full
    /// solve fits (warm-started TinyMPC solves typically converge well
    /// under this).
    pub expected_iterations: usize,
}

impl DeadlineConfig {
    /// A config with the given budget and default ladder parameters.
    pub fn new(cycle_budget: u64) -> Self {
        DeadlineConfig {
            cycle_budget,
            widen_factor: 5,
            expected_iterations: 25,
        }
    }

    /// Budget from a control rate and core clock: one solve must fit in
    /// `clock_hz / control_hz` cycles.
    pub fn from_rates(control_hz: f64, clock_hz: f64) -> Self {
        DeadlineConfig::new((clock_hz / control_hz).max(1.0) as u64)
    }
}

/// Everything a caller needs to know about one degraded solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome<T> {
    /// The control to apply — always finite and inside the input box.
    pub u0: Vector<T>,
    /// Which ladder rung produced it.
    pub rung: DegradeRung,
    /// Why the underlying iteration stopped.
    pub termination: TerminationCause,
    /// ADMM iterations performed (0 on [`DegradeRung::LqrFallback`]).
    pub iterations: usize,
    /// Simulated cycles of the applied solve.
    pub total_cycles: u64,
    /// Whether the bounded retry (workspace reset + scalar fallback
    /// timing) ran.
    pub retried: bool,
}

/// Predicted per-solve cycle cost of each ladder rung, probed once from
/// an executor.
///
/// This is the ladder generalized into data: a per-solve caller
/// compares these against its own budget
/// ([`DeadlineSolver::solve`] does exactly that), while an overload
/// policy — the `soc-serve` admission layer — sums them across whole
/// session cohorts and walks cohorts down the ladder until the
/// aggregate fits a tick's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungCosts {
    /// Full solve at the planned iteration count, nominal check
    /// interval.
    pub nominal: u64,
    /// Full solve with residual checks widened to `widen_factor`.
    pub widened: u64,
    /// A single budgeted iteration (the cheapest useful ADMM step).
    pub early_exit: u64,
    /// The cached-gain fallback `u = clip(−K∞ x0)` — charged as zero
    /// simulated cycles, matching [`SolveOutcome::total_cycles`] on the
    /// LQR rung (the gain multiply is negligible next to one ADMM
    /// iteration).
    pub lqr: u64,
}

impl RungCosts {
    /// Predicted cost of solving at `rung`.
    pub fn at(&self, rung: DegradeRung) -> u64 {
        match rung {
            DegradeRung::Nominal => self.nominal,
            DegradeRung::WidenedCheck => self.widened,
            DegradeRung::EarlyExit => self.early_exit,
            DegradeRung::LqrFallback => self.lqr,
        }
    }

    /// The mildest rung whose predicted cost fits `budget` (the LQR
    /// fallback always fits).
    pub fn mildest_within(&self, budget: u64) -> DegradeRung {
        for rung in DegradeRung::ALL {
            if self.at(rung) <= budget {
                return rung;
            }
        }
        DegradeRung::LqrFallback
    }
}

/// Outcome of a forced-rung, allocation-free solve
/// ([`DeadlineSolver::solve_in_place_at_rung`]). `Copy`, so recording
/// it never touches the heap; the applied control stays staged in the
/// solver's arena (or comes from
/// [`DeadlineSolver::lqr_u0_into`] when `rung` is the LQR fallback).
#[derive(Debug, Clone, Copy)]
pub struct RungStatus {
    /// The rung that actually produced the control (the requested rung,
    /// downgraded if the budget tripped mid-solve, or
    /// [`DegradeRung::LqrFallback`] after a detected fault).
    pub rung: DegradeRung,
    /// Why the underlying iteration stopped.
    pub termination: TerminationCause,
    /// ADMM iterations performed (0 on the LQR rung).
    pub iterations: usize,
    /// Simulated cycles of the applied solve.
    pub total_cycles: u64,
    /// Whether ADMM converged within tolerance.
    pub converged: bool,
    /// Set when a solver error or divergence forced the pristine-cache
    /// restore and the LQR fallback — the caller must fetch `u0` via
    /// [`DeadlineSolver::lqr_u0_into`].
    pub fell_back: bool,
}

impl RungStatus {
    /// The LQR rung's status: no iteration ran, no cycles charged.
    fn lqr(fell_back: bool) -> RungStatus {
        RungStatus {
            rung: DegradeRung::LqrFallback,
            termination: TerminationCause::Deadline,
            iterations: 0,
            total_cycles: 0,
            converged: false,
            fell_back,
        }
    }
}

/// [`AdmmSolver`] wrapped with a cycle budget, the degradation ladder
/// and bounded fault recovery.
#[derive(Debug, Clone)]
pub struct DeadlineSolver<T> {
    solver: AdmmSolver<T>,
    pristine_cache: TinyMpcCache<T>,
    base: SolverSettings,
    config: DeadlineConfig,
}

impl<T: Scalar> DeadlineSolver<T> {
    /// Wraps a solver, snapshotting its cache for recovery.
    pub fn new(solver: AdmmSolver<T>, config: DeadlineConfig) -> Self {
        let pristine_cache = solver.cache().clone();
        let base = solver.settings();
        DeadlineSolver {
            solver,
            pristine_cache,
            base,
            config,
        }
    }

    /// The wrapped solver.
    pub fn solver(&self) -> &AdmmSolver<T> {
        &self.solver
    }

    /// Mutable access to the wrapped solver — the serve session layer
    /// uses this to stream reference windows straight into the arena
    /// workspace between ticks.
    pub fn solver_mut(&mut self) -> &mut AdmmSolver<T> {
        &mut self.solver
    }

    /// The budget and ladder parameters.
    pub fn config(&self) -> DeadlineConfig {
        self.config
    }

    /// The pristine cache snapshot taken at construction.
    pub fn pristine_cache(&self) -> &TinyMpcCache<T> {
        &self.pristine_cache
    }

    /// Whether the live Riccati cache still matches the pristine
    /// snapshot bit-for-bit (a post-solve scrub for silent scratchpad
    /// corruption).
    pub fn cache_is_pristine(&self) -> bool {
        let live = self.solver.cache();
        let p = &self.pristine_cache;
        [
            (live.kinf.as_slice(), p.kinf.as_slice()),
            (live.kinf_t.as_slice(), p.kinf_t.as_slice()),
            (live.pinf.as_slice(), p.pinf.as_slice()),
            (live.quu_inv.as_slice(), p.quu_inv.as_slice()),
            (live.am_bk_t.as_slice(), p.am_bk_t.as_slice()),
            (live.b_t.as_slice(), p.b_t.as_slice()),
        ]
        .iter()
        .all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
        })
    }

    /// Restores the pristine cache and resets duals/slacks.
    pub fn restore(&mut self) {
        *self.solver.cache_mut() = self.pristine_cache.clone();
        self.solver.cold_start();
    }

    /// Probes the executor and predicts the per-solve cycle cost of
    /// every ladder rung (see [`RungCosts`]), mirroring the solver's
    /// exact charge schedule (see `cycle_accounting_is_exact` in
    /// `tinympc`). Pure pricing: no solve runs, no solver state changes.
    ///
    /// # Errors
    ///
    /// Propagates executor pricing failures (e.g. a rejected trace).
    pub fn rung_costs(&mut self, executor: &mut dyn KernelExecutor) -> tinympc::Result<RungCosts> {
        let dims = self.solver.dims();
        let n = dims.horizon as u64;
        let mut cost = |k: KernelId| executor.kernel_cycles(k, &dims);
        use KernelId::*;
        let lc = cost(UpdateLinearCost1)?
            + cost(UpdateLinearCost2)?
            + cost(UpdateLinearCost3)?
            + cost(UpdateLinearCost4)?;
        let iter = (cost(BackwardPass1)?
            + cost(BackwardPass2)?
            + cost(ForwardPass1)?
            + cost(ForwardPass2)?)
            * (n - 1)
            + cost(UpdateSlack1)?
            + cost(UpdateSlack2)?
            + cost(UpdateDual1)?
            + lc;
        let check = cost(PrimalResidualState)?
            + cost(DualResidualState)?
            + cost(PrimalResidualInput)?
            + cost(DualResidualInput)?;
        let fixed = executor.setup_cycles(&dims)? + lc;
        // A full solve with a residual check every `interval` iterations.
        let solve = |iterations: usize, interval: usize| {
            let checks = iterations.div_ceil(interval.max(1)) as u64;
            fixed + iter * iterations as u64 + check * checks
        };
        let e = self.config.expected_iterations.max(1);
        Ok(RungCosts {
            nominal: solve(e, self.base.check_interval),
            widened: solve(e, self.config.widen_factor.max(1)),
            early_exit: solve(1, 1),
            lqr: 0,
        })
    }

    /// Settings for a rung: the budget is always installed as a hard
    /// stop; widened rungs also stretch the residual check interval.
    fn settings_for(&self, rung: DegradeRung) -> SolverSettings {
        let mut s = self.base;
        s.cycle_budget = Some(self.config.cycle_budget);
        if matches!(rung, DegradeRung::WidenedCheck | DegradeRung::EarlyExit) {
            s.check_interval = self.config.widen_factor.max(1);
        }
        s
    }

    /// Whether `x0` is a finite state of the plant's dimension — the
    /// only input an ADMM rung may run on.
    fn accepts(&self, x0: &[T]) -> bool {
        x0.len() == self.solver.dims().nx && x0.iter().all(|v| v.is_finite())
    }

    /// Allocation-free LQR fallback: writes `clip(−K∞ x0)` from the
    /// pristine cache into `out` (length `nu`). Structurally finite —
    /// a rejected matvec (non-finite `x0`) degrades to the clipped zero
    /// input, and `clip` squashes NaN to a bound.
    pub fn lqr_u0_into(&self, x0: &[T], out: &mut [T]) {
        let p = self.solver.problem();
        if matlib::gemv_into(&self.pristine_cache.kinf, x0, out).is_err() {
            out.fill(T::ZERO);
        }
        matlib::scale_in_place(out, -T::ONE);
        matlib::clamp_in_place(out, p.u_min, p.u_max);
    }

    /// Solves within the budget, degrading and recovering as needed.
    /// Never fails and never returns a non-finite or out-of-box `u0`.
    ///
    /// Prices the ladder on `executor` and runs the mildest rung that
    /// fits the budget through
    /// [`solve_in_place_at_rung`](Self::solve_in_place_at_rung). A fault
    /// fallback on a valid `x0` (rejected trace, solver error, detected
    /// divergence) triggers one bounded retry: pristine cache restored,
    /// timing on the scalar reference back-end, and no `observer` (the
    /// retry never re-injects). A second failure lands on the LQR rung.
    pub fn solve(
        &mut self,
        x0: &Vector<T>,
        executor: &mut dyn KernelExecutor,
        observer: &mut dyn SolveObserver<T>,
    ) -> SolveOutcome<T> {
        let x0 = x0.as_slice();
        let mut status = self.solve_within_budget(x0, executor, observer);
        let retried = status.fell_back && self.accepts(x0);
        if retried {
            self.restore();
            let mut reference = PipelineExecutor::for_platform(&Platform::rocket_eigen());
            status = self.solve_within_budget(x0, &mut reference, &mut NullObserver);
        }
        let p = self.solver.problem();
        let mut u0 = Vector::from_slice(self.solver.u0());
        matlib::clamp_in_place(u0.as_mut_slice(), p.u_min, p.u_max);
        if status.rung == DegradeRung::LqrFallback || !u0.is_finite() {
            self.lqr_u0_into(x0, u0.as_mut_slice());
        }
        SolveOutcome {
            u0,
            rung: status.rung,
            termination: status.termination,
            iterations: status.iterations,
            total_cycles: status.total_cycles,
            retried,
        }
    }

    /// One pass of [`solve`](Self::solve): the mildest rung whose
    /// predicted cost on `executor` fits the budget. A pricing failure
    /// means the back-end rejected a trace before any iteration ran —
    /// a fault fallback.
    fn solve_within_budget(
        &mut self,
        x0: &[T],
        executor: &mut dyn KernelExecutor,
        observer: &mut dyn SolveObserver<T>,
    ) -> RungStatus {
        match self.rung_costs(executor) {
            Ok(c) => {
                let rung = c.mildest_within(self.config.cycle_budget);
                self.solve_in_place_at_rung(x0, executor, rung, observer)
            }
            Err(_) => RungStatus::lqr(true),
        }
    }

    /// Solves at an externally chosen ladder rung, allocation-free —
    /// the one place a rung executes.
    ///
    /// This is the ladder's policy seam turned inside out: where
    /// [`solve`](Self::solve) probes costs and picks its own rung per
    /// solve, here the *caller* owns rung selection — the serve runtime
    /// walks whole session cohorts down the ladder under burst and
    /// forces each session's tick to the cohort's rung. The applied
    /// control stays staged in the solver arena (read it via
    /// `solver().u0()`); on [`DegradeRung::LqrFallback`] — requested or
    /// reached via fault fallback (`fell_back`) — fetch it with
    /// [`lqr_u0_into`](Self::lqr_u0_into) instead. `observer` runs
    /// between ADMM iterations (fault injection, instrumentation).
    ///
    /// Infallible like `solve`: any solver error or detected divergence
    /// restores the pristine cache and reports the LQR rung. A warm
    /// steady-state call performs zero heap allocations (fault paths
    /// excepted).
    pub fn solve_in_place_at_rung(
        &mut self,
        x0: &[T],
        executor: &mut dyn KernelExecutor,
        rung: DegradeRung,
        observer: &mut dyn SolveObserver<T>,
    ) -> RungStatus {
        if rung == DegradeRung::LqrFallback {
            return RungStatus::lqr(false);
        }
        if !self.accepts(x0) {
            return RungStatus::lqr(true);
        }
        self.solver.set_settings(self.settings_for(rung));
        match self.solver.solve_in_place_observed(x0, executor, observer) {
            Ok(r) if r.termination != TerminationCause::Diverged => RungStatus {
                // Downgrade the label when the budget tripped mid-solve.
                rung: if r.termination == TerminationCause::Deadline {
                    rung.max(DegradeRung::EarlyExit)
                } else {
                    rung
                },
                termination: r.termination,
                iterations: r.iterations,
                total_cycles: r.total_cycles,
                converged: r.converged,
                fell_back: false,
            },
            // Fault path: restore the pristine cache and hand the solve
            // to the LQR rung (the caller's policy decides what happens
            // next).
            _ => {
                self.restore();
                RungStatus::lqr(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinympc::{problems, NullExecutor};

    fn solver() -> AdmmSolver<f32> {
        let p = problems::quadrotor_hover::<f32>(10).unwrap();
        AdmmSolver::new(p, SolverSettings::default()).unwrap()
    }

    #[test]
    fn generous_budget_stays_nominal() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(u64::MAX));
        let x0 = d.solver().problem().hover_offset_state(0.2);
        let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
        let o = d.solve(&x0, &mut e, &mut NullObserver);
        assert_eq!(o.rung, DegradeRung::Nominal);
        assert_eq!(o.termination, TerminationCause::Converged);
        assert!(!o.retried);
        assert!(o.u0.is_finite());
    }

    #[test]
    fn zero_budget_falls_back_to_lqr() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(1));
        let x0 = d.solver().problem().hover_offset_state(0.4);
        let o = d.solve(&x0, &mut NullExecutor, &mut NullObserver);
        // NullExecutor charges nothing, so even budget 1 fits a full
        // solve; use a real executor for the pressure test below.
        assert!(o.u0.is_finite());
        let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(1));
        let o = d.solve(&x0, &mut e, &mut NullObserver);
        assert_eq!(o.rung, DegradeRung::LqrFallback);
        assert_eq!(o.iterations, 0);
        assert!(o.u0.is_finite());
        let p = problems::quadrotor_hover::<f32>(10).unwrap();
        for i in 0..o.u0.len() {
            assert!(o.u0[i] >= p.u_min && o.u0[i] <= p.u_max);
        }
    }

    #[test]
    fn from_rates_divides_clock_by_control_rate() {
        let c = DeadlineConfig::from_rates(500.0, 1.0e9);
        assert_eq!(c.cycle_budget, 2_000_000);
    }

    #[test]
    fn rung_costs_order_and_budget_selection() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(u64::MAX));
        let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
        let c = d.rung_costs(&mut e).unwrap();
        // Harsher rungs must never predict more cycles than milder ones.
        assert!(c.nominal >= c.widened, "{c:?}");
        assert!(c.widened >= c.early_exit, "{c:?}");
        assert_eq!(c.lqr, 0);
        assert_eq!(c.mildest_within(u64::MAX), DegradeRung::Nominal);
        assert_eq!(c.mildest_within(c.widened), DegradeRung::WidenedCheck);
        assert_eq!(c.mildest_within(c.early_exit), DegradeRung::EarlyExit);
        assert_eq!(c.mildest_within(0), DegradeRung::LqrFallback);
    }

    #[test]
    fn ladder_indexing_round_trips() {
        for rung in DegradeRung::ALL {
            assert_eq!(DegradeRung::from_index(rung.index()), rung);
        }
        assert_eq!(DegradeRung::Nominal.demoted(), DegradeRung::WidenedCheck);
        assert_eq!(
            DegradeRung::LqrFallback.demoted(),
            DegradeRung::LqrFallback,
            "ladder saturates"
        );
    }

    #[test]
    fn forced_rung_solve_matches_the_requested_rung() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(u64::MAX));
        let x0 = d.solver().problem().hover_offset_state(0.2);
        let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
        let s = d.solve_in_place_at_rung(
            x0.as_slice(),
            &mut e,
            DegradeRung::Nominal,
            &mut NullObserver,
        );
        assert_eq!(s.rung, DegradeRung::Nominal);
        assert!(s.converged);
        assert!(!s.fell_back);
        assert!(s.total_cycles > 0);
        // The arena holds the applied control.
        assert!(d.solver().u0().iter().all(|v| v.is_finite()));
        // A forced widened rung runs with the stretched check interval.
        let s = d.solve_in_place_at_rung(
            x0.as_slice(),
            &mut e,
            DegradeRung::WidenedCheck,
            &mut NullObserver,
        );
        assert_eq!(s.rung, DegradeRung::WidenedCheck);
        // Forcing the LQR rung never touches the solver.
        let s = d.solve_in_place_at_rung(
            x0.as_slice(),
            &mut e,
            DegradeRung::LqrFallback,
            &mut NullObserver,
        );
        assert_eq!(s.iterations, 0);
        assert_eq!(s.total_cycles, 0);
    }

    #[test]
    fn lqr_u0_into_applies_the_clipped_cached_gain_and_survives_garbage() {
        let d = DeadlineSolver::new(solver(), DeadlineConfig::new(1));
        let x0 = d.solver().problem().hover_offset_state(0.4);
        let p = d.solver().problem();
        // clip(−K∞ x0), by hand from the pristine cache.
        let kinf = &d.pristine_cache().kinf;
        let reference: Vec<f32> = (0..kinf.rows())
            .map(|i| {
                let ku: f32 = kinf
                    .row(i)
                    .iter()
                    .zip(x0.as_slice())
                    .map(|(k, x)| k * x)
                    .sum();
                (-ku).max(p.u_min).min(p.u_max)
            })
            .collect();
        let mut out = vec![0.0f32; reference.len()];
        d.lqr_u0_into(x0.as_slice(), &mut out);
        for (u, r) in out.iter().zip(&reference) {
            assert!(
                (u - r).abs() <= 1e-5 * (1.0 + r.abs()),
                "{out:?} vs {reference:?}"
            );
        }
        // Non-finite state: still finite, still inside the box.
        let bad = vec![f32::NAN; x0.len()];
        d.lqr_u0_into(&bad, &mut out);
        for v in &out {
            assert!(v.is_finite() && *v >= p.u_min && *v <= p.u_max);
        }
    }

    #[test]
    fn forced_rung_garbage_state_falls_back() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(u64::MAX));
        let bad = vec![f32::NAN; 12];
        let s = d.solve_in_place_at_rung(
            &bad,
            &mut NullExecutor,
            DegradeRung::Nominal,
            &mut NullObserver,
        );
        assert_eq!(s.rung, DegradeRung::LqrFallback);
        assert!(s.fell_back);
    }

    #[test]
    fn restore_undoes_cache_corruption() {
        let mut d = DeadlineSolver::new(solver(), DeadlineConfig::new(u64::MAX));
        assert!(d.cache_is_pristine());
        d.solver.cache_mut().kinf.as_mut_slice()[0] += 1.0;
        assert!(!d.cache_is_pristine());
        d.restore();
        assert!(d.cache_is_pristine());
    }
}
