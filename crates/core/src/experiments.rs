//! Runnable reproductions of the paper's experiments: end-to-end TinyMPC
//! solves, per-kernel breakdowns, standalone kernel sweeps, and the
//! Pareto analysis.
//!
//! Every experiment that prices more than one design point is expressed
//! against a [`CycleSource`]: a batch oracle for solve and standalone
//! kernel cycle counts. [`SerialSource`] is the reference implementation
//! (compute every request in order, on this thread); the `soc-sweep`
//! crate provides a parallel, memoized implementation that must remain
//! bit-identical to it.

use soc_backend::pipeline_for;
use soc_backend::Platform;
use std::collections::BTreeMap;
use tinympc::{AdmmSolver, KernelCycles, KernelId, NullObserver, SolveResult, SolverSettings};

pub use soc_backend::{KernelShape, Residency};
pub use soc_scenarios::{evaluate_closed_loop, ClosedLoopReport, Scenario, ScenarioCatalog};

/// Outcome of an end-to-end solve on a platform.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Platform display name.
    pub platform: String,
    /// Full solver result including per-kernel cycle attribution.
    pub result: SolveResult<f32>,
}

impl SolveOutcome {
    /// Cycles per ADMM iteration (total divided by iterations).
    pub fn cycles_per_iteration(&self) -> f64 {
        self.result.total_cycles as f64 / self.result.iterations.max(1) as f64
    }
}

/// Solves the quadrotor hover problem on a platform, charging cycles to
/// its executor. Equivalent to [`solve_scenario_cycles`] with the
/// `hover` scenario (bit for bit — the scenario path is the only solve
/// path).
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_cycles(platform: &Platform, horizon: usize) -> tinympc::Result<SolveOutcome> {
    solve_cycles_with(platform, horizon, SolverSettings::default())
}

/// [`solve_cycles`] with explicit solver settings (tolerance, iteration
/// budget, residual-check interval).
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_cycles_with(
    platform: &Platform,
    horizon: usize,
    settings: SolverSettings,
) -> tinympc::Result<SolveOutcome> {
    solve_scenario_cycles_with(platform, &Scenario::hover(), horizon, settings)
}

/// Solves one MPC instance of `scenario` on a platform, charging cycles
/// to its executor: the scenario's plant at `horizon`, its reference
/// window at rollout step 0, from its characteristic initial state.
///
/// For the `hover` scenario this is bit-identical to the legacy
/// hover-only path (the hover reference is all zeros, exactly the
/// workspace default).
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_scenario_cycles(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<SolveOutcome> {
    solve_scenario_cycles_with(platform, scenario, horizon, SolverSettings::default())
}

/// [`solve_scenario_cycles`] with explicit solver settings.
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_scenario_cycles_with(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
    settings: SolverSettings,
) -> tinympc::Result<SolveOutcome> {
    let problem = scenario.problem::<f32>(horizon)?;
    let mut solver = AdmmSolver::new(problem, settings)?;
    solver.set_reference(&scenario.reference::<f32>(horizon, 0))?;
    let x0 = scenario.initial_state::<f32>();
    let mut executor = platform.executor();
    let result = solver.solve_observed(&x0, executor.as_mut(), &mut NullObserver)?;
    Ok(SolveOutcome {
        platform: platform.name.clone(),
        result,
    })
}

/// Prices one scenario solve and returns just the cycle summary — the
/// batch-oracle hot path. Runs the solver's in-place entry point, so no
/// trajectory, `u0` vector or per-solve result struct is materialized;
/// bit-identical in cycles and iterations to
/// [`solve_scenario_cycles`] (same math, same charge schedule).
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_scenario_summary(
    platform: &Platform,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<SolveSummary> {
    let problem = scenario.problem::<f32>(horizon)?;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default())?;
    solver.set_reference(&scenario.reference::<f32>(horizon, 0))?;
    let x0 = scenario.initial_state::<f32>();
    let mut executor = platform.executor();
    let status = solver.solve_in_place(x0.as_slice(), executor.as_mut())?;
    Ok(SolveSummary {
        total_cycles: status.total_cycles,
        iterations: status.iterations,
        converged: status.converged,
        kernel_cycles: solver.last_kernel_cycles(),
    })
}

/// Prices an arbitrary MPC problem (any state/input dimensions) on a
/// platform — the workload-sensitivity entry point.
///
/// # Errors
///
/// Propagates solver construction/solve failures.
pub fn solve_problem_cycles(
    platform: &Platform,
    problem: tinympc::TinyMpcProblem<f32>,
    settings: SolverSettings,
) -> tinympc::Result<SolveOutcome> {
    let mut solver = AdmmSolver::new(problem, settings)?;
    let x0 = solver.problem().hover_offset_state(0.2);
    let mut executor = platform.executor();
    let result = solver.solve_observed(&x0, executor.as_mut(), &mut NullObserver)?;
    Ok(SolveOutcome {
        platform: platform.name.clone(),
        result,
    })
}

/// Cycle-relevant summary of one end-to-end solve — everything the sweep
/// experiments (Table I, kernel speedups) need, and nothing that cannot
/// be cheaply cached (no trajectories, no residual history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveSummary {
    /// Simulated cycles for the whole solve.
    pub total_cycles: u64,
    /// ADMM iterations performed.
    pub iterations: usize,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// Per-kernel cycle attribution.
    pub kernel_cycles: KernelCycles,
}

impl From<&SolveOutcome> for SolveSummary {
    fn from(outcome: &SolveOutcome) -> Self {
        SolveSummary {
            total_cycles: outcome.result.total_cycles,
            iterations: outcome.result.iterations,
            converged: outcome.result.converged,
            kernel_cycles: outcome
                .result
                .kernel_cycles
                .iter()
                .map(|(&k, &c)| (k, c))
                .collect(),
        }
    }
}

/// A request to price one end-to-end MPC solve of a scenario.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Platform to charge cycles to.
    pub platform: Platform,
    /// Workload to solve.
    pub scenario: Scenario,
    /// MPC horizon length.
    pub horizon: usize,
}

impl SolveRequest {
    /// A solve request for an arbitrary scenario.
    pub fn new(platform: Platform, scenario: Scenario, horizon: usize) -> Self {
        Self {
            platform,
            scenario,
            horizon,
        }
    }

    /// A quadrotor-hover solve request — the compatibility default all
    /// legacy (pre-scenario) call sites map onto.
    pub fn hover(platform: Platform, horizon: usize) -> Self {
        Self::new(platform, Scenario::hover(), horizon)
    }
}

/// A request to price one standalone kernel invocation.
#[derive(Debug, Clone)]
pub struct KernelRequest {
    /// Platform to charge cycles to.
    pub platform: Platform,
    /// GEMV or GEMM.
    pub shape: KernelShape,
    /// Cold (one-shot, DMA charged) or warm (steady-state).
    pub residency: Residency,
    /// Matrix height.
    pub i: usize,
    /// Matrix width / reduction length.
    pub k: usize,
}

/// Batch oracle for cycle counts.
///
/// Implementations MUST return exactly one element per request, in
/// request order, and MUST be deterministic: the same batch always
/// yields the same answers, bit for bit, regardless of how the work is
/// scheduled internally. [`SerialSource`] is the reference; the
/// `soc-sweep` engine is the parallel, memoized implementation and is
/// tested bit-identical against it.
pub trait CycleSource {
    /// Prices a batch of end-to-end solves.
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>>;

    /// Prices a batch of standalone kernels.
    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64>;
}

/// Reference [`CycleSource`]: computes every request in order on the
/// calling thread with no caching. The bit-exact baseline every other
/// source is measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialSource;

impl CycleSource for SerialSource {
    fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<tinympc::Result<SolveSummary>> {
        requests
            .iter()
            .map(|r| solve_scenario_summary(&r.platform, &r.scenario, r.horizon))
            .collect()
    }

    fn kernel_batch(&self, requests: &[KernelRequest]) -> Vec<u64> {
        requests
            .iter()
            .map(|r| standalone_kernel(&r.platform, r.shape, r.residency, r.i, r.k))
            .collect()
    }
}

/// One row of the paper's Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration name.
    pub name: String,
    /// Total platform area (µm²).
    pub area_um2: f64,
    /// Simulated cycles per MPC solve.
    pub cycles_per_solve: u64,
    /// Achievable MPC rate at a 1 GHz clock.
    pub mpc_hz: f64,
}

/// Regenerates Table I: area and cycles-per-solve for every registry
/// platform, submitting the solves through `source` as one batch.
/// Solves the hover scenario (the paper's workload).
///
/// # Errors
///
/// Propagates solver failures.
pub fn table1_with(source: &dyn CycleSource, horizon: usize) -> tinympc::Result<Vec<Table1Row>> {
    table1_scenario_with(source, &Scenario::hover(), horizon)
}

/// [`table1_with`] over an arbitrary scenario: the same back-end
/// registry, priced on a different workload.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table1_scenario_with(
    source: &dyn CycleSource,
    scenario: &Scenario,
    horizon: usize,
) -> tinympc::Result<Vec<Table1Row>> {
    let registry = Platform::table1_registry();
    let requests: Vec<SolveRequest> = registry
        .iter()
        .map(|p| SolveRequest::new(p.clone(), scenario.clone(), horizon))
        .collect();
    let summaries = source.solve_batch(&requests);
    assert_eq!(summaries.len(), requests.len(), "CycleSource contract");
    registry
        .iter()
        .zip(summaries)
        .map(|(p, summary)| {
            let cycles = summary?.total_cycles;
            Ok(Table1Row {
                name: p.name.clone(),
                area_um2: p.area().total(),
                cycles_per_solve: cycles,
                mpc_hz: 1.0e9 / cycles.max(1) as f64,
            })
        })
        .collect()
}

/// Regenerates Table I via the serial reference path.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table1(horizon: usize) -> tinympc::Result<Vec<Table1Row>> {
    table1_with(&SerialSource, horizon)
}

/// Marks the Pareto-optimal points among `(area, cycles)` pairs (both
/// minimized). Returns one flag per input point.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(a, c)| {
            !points
                .iter()
                .any(|&(a2, c2)| a2 <= a && c2 <= c && (a2 < a || c2 < c))
        })
        .collect()
}

/// Per-kernel cycles of one solve on a platform (Figures 16–19 raw data).
///
/// # Errors
///
/// Propagates solver failures.
pub fn kernel_breakdown(
    platform: &Platform,
    horizon: usize,
) -> tinympc::Result<BTreeMap<KernelId, u64>> {
    Ok(solve_cycles(platform, horizon)?.result.kernel_cycles)
}

/// Per-kernel speedup of `platform` over `baseline` (both solving the
/// same problem), submitting both solves through `source` as one batch.
///
/// # Errors
///
/// Propagates solver failures.
pub fn kernel_speedups_with(
    source: &dyn CycleSource,
    platform: &Platform,
    baseline: &Platform,
    horizon: usize,
) -> tinympc::Result<Vec<(KernelId, f64)>> {
    let requests = [
        SolveRequest::hover(platform.clone(), horizon),
        SolveRequest::hover(baseline.clone(), horizon),
    ];
    let mut summaries = source.solve_batch(&requests).into_iter();
    let (Some(a), Some(b)) = (summaries.next(), summaries.next()) else {
        panic!("CycleSource contract: two requests, two answers");
    };
    let (a, b) = (a?.kernel_cycles, b?.kernel_cycles);
    Ok(KernelId::ALL
        .iter()
        .filter_map(|k| {
            let (ca, cb) = (a.charged(*k)?, b.charged(*k)?);
            Some((*k, cb as f64 / ca.max(1) as f64))
        })
        .collect())
}

/// [`kernel_speedups_with`] via the serial reference path.
///
/// # Errors
///
/// Propagates solver failures.
pub fn kernel_speedups(
    platform: &Platform,
    baseline: &Platform,
    horizon: usize,
) -> tinympc::Result<Vec<(KernelId, f64)>> {
    kernel_speedups_with(&SerialSource, platform, baseline, horizon)
}

/// Cycles for a standalone GEMV/GEMM of the given size on a platform.
///
/// Measured in steady state (the kernel is emitted twice and the second
/// copy is charged), matching the paper's kernel-level methodology:
/// Gemmini operates on scratchpad-resident operands and Saturn streams
/// from the L1, without cold DMA warm-up dominating the comparison.
pub fn standalone_kernel(
    platform: &Platform,
    shape: KernelShape,
    residency: Residency,
    i: usize,
    k: usize,
) -> u64 {
    pipeline_for(platform).standalone_cycles(shape, residency, i, k)
}

/// A 2-D sweep of relative speedups over (I, K) kernel sizes.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Row axis: matrix heights (I).
    pub heights: Vec<usize>,
    /// Column axis: matrix widths / reduction lengths (K).
    pub widths: Vec<usize>,
    /// `values[r][c]` = speedup of the numerator platform over the
    /// denominator at `(heights[r], widths[c])`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Geometric mean of all cells.
    ///
    /// Guarded: computed in log space (a 64×64 grid of large ratios
    /// would overflow a running product to `inf`), skips non-finite and
    /// non-positive cells, and returns `1.0` for an empty or fully
    /// degenerate grid instead of NaN.
    pub fn geomean(&self) -> f64 {
        crate::report::geomean(self.values.iter().flatten().copied())
    }

    /// Arithmetic mean of all cells (the paper quotes arithmetic "on
    /// average ~Nx" speedups).
    pub fn mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in &self.values {
            for v in row {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// Sweeps `(I, K)` sizes and reports the speedup of `numerator` over
/// `denominator` (cycles_denominator / cycles_numerator), submitting
/// all `2 · |heights| · |widths|` kernel pricings through `source` as
/// one batch.
pub fn speedup_heatmap_with(
    source: &dyn CycleSource,
    numerator: &Platform,
    denominator: &Platform,
    shape: KernelShape,
    residency: Residency,
    heights: &[usize],
    widths: &[usize],
) -> Heatmap {
    let mut requests = Vec::with_capacity(2 * heights.len() * widths.len());
    for &i in heights {
        for &k in widths {
            for platform in [numerator, denominator] {
                requests.push(KernelRequest {
                    platform: platform.clone(),
                    shape,
                    residency,
                    i,
                    k,
                });
            }
        }
    }
    let cycles = source.kernel_batch(&requests);
    assert_eq!(cycles.len(), requests.len(), "CycleSource contract");
    let mut pairs = cycles.chunks_exact(2);
    let values = heights
        .iter()
        .map(|_| {
            widths
                .iter()
                .map(|_| {
                    let pair = pairs.next().expect("one (num, den) pair per cell");
                    let (n, d) = (pair[0].max(1), pair[1].max(1));
                    d as f64 / n as f64
                })
                .collect()
        })
        .collect();
    Heatmap {
        heights: heights.to_vec(),
        widths: widths.to_vec(),
        values,
    }
}

/// [`speedup_heatmap_with`] via the serial reference path.
pub fn speedup_heatmap(
    numerator: &Platform,
    denominator: &Platform,
    shape: KernelShape,
    residency: Residency,
    heights: &[usize],
    widths: &[usize],
) -> Heatmap {
    speedup_heatmap_with(
        &SerialSource,
        numerator,
        denominator,
        shape,
        residency,
        heights,
        widths,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use soc_cpu::CoreConfig;
    use soc_gemmini::{GemminiConfig, GemminiOpts};
    use soc_vector::SaturnConfig;

    #[test]
    fn pareto_marks_dominated_points() {
        let pts = [(1.0, 10.0), (2.0, 5.0), (3.0, 6.0), (4.0, 1.0)];
        let flags = pareto_frontier(&pts);
        assert_eq!(flags, vec![true, true, false, true]);
    }

    #[test]
    fn hover_scenario_is_bit_identical_to_the_legacy_path() {
        // The pre-scenario solve path: quadrotor_hover problem, no
        // set_reference (workspace xref stays zeroed), x0 offset 0.2.
        let platform = Platform::rocket_eigen();
        let problem = tinympc::problems::quadrotor_hover::<f32>(10).unwrap();
        let legacy = solve_problem_cycles(&platform, problem, SolverSettings::default()).unwrap();
        let scenario = solve_scenario_cycles(&platform, &Scenario::hover(), 10).unwrap();
        assert_eq!(legacy.result.total_cycles, scenario.result.total_cycles);
        assert_eq!(legacy.result.iterations, scenario.result.iterations);
        assert_eq!(
            legacy.result.u0, scenario.result.u0,
            "u0 must match bit for bit"
        );
    }

    #[test]
    fn scenarios_change_the_priced_workload() {
        let platform = Platform::rocket_eigen();
        let hover = solve_scenario_cycles(&platform, &Scenario::hover(), 10).unwrap();
        let dint = solve_scenario_cycles(&platform, &Scenario::double_integrator(), 10).unwrap();
        // A 2×1 plant must be far cheaper per ADMM iteration than the
        // 12×4 quad (iteration counts differ between workloads).
        assert!(dint.cycles_per_iteration() < hover.cycles_per_iteration() / 4.0);
        // And the SOC scenario must still solve to a finite input.
        let soc = solve_scenario_cycles(&platform, &Scenario::soft_landing(), 10).unwrap();
        assert!(soc.result.u0.is_finite());
    }

    #[test]
    fn rocket_solve_produces_breakdown() {
        let outcome = solve_cycles(&Platform::rocket_eigen(), 10).unwrap();
        assert!(outcome.result.converged);
        assert!(outcome.result.total_cycles > 10_000);
        assert_eq!(outcome.result.kernel_cycles.len(), 15);
    }

    #[test]
    fn saturn_beats_rocket_end_to_end() {
        let rocket = solve_cycles(&Platform::rocket_eigen(), 10).unwrap();
        let saturn = solve_cycles(
            &Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256()),
            10,
        )
        .unwrap();
        assert!(
            saturn.result.total_cycles < rocket.result.total_cycles,
            "saturn {} vs rocket {}",
            saturn.result.total_cycles,
            rocket.result.total_cycles
        );
    }

    #[test]
    fn standalone_gemv_saturn_beats_plain_gemmini() {
        // Figure 13: Saturn over original (GEMM-only) Gemmini on GEMV.
        let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
        let gemmini = Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb(),
            GemminiOpts::optimized(),
        );
        let h = speedup_heatmap(
            &saturn,
            &gemmini,
            KernelShape::Gemv,
            Residency::Cold,
            &workloads::heatmap_heights()[..3],
            &workloads::heatmap_widths()[..3],
        );
        assert!(
            h.mean() > 1.0,
            "Saturn should beat plain Gemmini on GEMV: {}",
            h.mean()
        );
    }

    #[test]
    fn gemv_extension_flips_the_comparison() {
        // Figure 14: GEMV-Gemmini over Saturn on GEMV.
        let saturn = Platform::saturn(CoreConfig::rocket(), SaturnConfig::v512d512());
        let plain = Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb(),
            GemminiOpts::optimized(),
        );
        let ext = Platform::gemmini(
            CoreConfig::rocket(),
            GemminiConfig::os_4x4_32kb().with_gemv_support(),
            GemminiOpts::optimized(),
        );
        let hs = workloads::heatmap_heights();
        let ws_ = workloads::heatmap_widths();
        let plain_vs_saturn = speedup_heatmap(
            &plain,
            &saturn,
            KernelShape::Gemv,
            Residency::Cold,
            &hs[..4],
            &ws_[..4],
        );
        let ext_vs_saturn = speedup_heatmap(
            &ext,
            &saturn,
            KernelShape::Gemv,
            Residency::Cold,
            &hs[..4],
            &ws_[..4],
        );
        assert!(
            ext_vs_saturn.mean() > plain_vs_saturn.mean(),
            "extension should improve Gemmini vs Saturn: {} vs {}",
            ext_vs_saturn.mean(),
            plain_vs_saturn.mean()
        );
    }

    #[test]
    fn heatmap_stats() {
        let h = Heatmap {
            heights: vec![1, 2],
            widths: vec![1, 2],
            values: vec![vec![1.0, 4.0], vec![4.0, 1.0]],
        };
        assert!((h.geomean() - 2.0).abs() < 1e-12);
        assert!((h.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn heatmap_geomean_survives_degenerate_cells() {
        // Empty grid: multiplicative identity, not NaN (0^(1/0)).
        let empty = Heatmap {
            heights: vec![],
            widths: vec![],
            values: vec![],
        };
        assert_eq!(empty.geomean(), 1.0);
        assert_eq!(empty.mean(), 1.0);

        // All-degenerate cells (zero speedup, NaN from 0/0 pricing):
        // skipped, not propagated.
        let degenerate = Heatmap {
            heights: vec![4],
            widths: vec![4, 8, 16],
            values: vec![vec![0.0, f64::NAN, -1.0]],
        };
        assert_eq!(degenerate.geomean(), 1.0);

        // Degenerate cells must not poison healthy ones.
        let mixed = Heatmap {
            heights: vec![4],
            widths: vec![4, 8],
            values: vec![vec![f64::NAN, 9.0]],
        };
        assert!((mixed.geomean() - 9.0).abs() < 1e-12);

        // A large grid of large ratios must not overflow to inf (the
        // old running-product implementation did).
        let big = Heatmap {
            heights: vec![0; 64],
            widths: vec![0; 64],
            values: vec![vec![1e30; 64]; 64],
        };
        let g = big.geomean();
        assert!(g.is_finite(), "geomean overflowed: {g}");
        assert!((g - 1e30).abs() / 1e30 < 1e-10);
    }

    #[test]
    fn serial_source_matches_direct_calls() {
        let rocket = Platform::rocket_eigen();
        let saturn = Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256());

        // Solve batch ≡ solve_cycles, element for element.
        let requests = [
            SolveRequest::hover(rocket.clone(), 8),
            SolveRequest::hover(saturn.clone(), 8),
        ];
        let batch = SerialSource.solve_batch(&requests);
        assert_eq!(batch.len(), 2);
        for (req, got) in requests.iter().zip(&batch) {
            let direct = SolveSummary::from(&solve_cycles(&req.platform, req.horizon).unwrap());
            assert_eq!(got.as_ref().unwrap(), &direct);
        }

        // Kernel batch ≡ standalone_kernel, element for element.
        let kreqs = [
            KernelRequest {
                platform: rocket.clone(),
                shape: KernelShape::Gemv,
                residency: Residency::Cold,
                i: 8,
                k: 8,
            },
            KernelRequest {
                platform: saturn,
                shape: KernelShape::Gemm,
                residency: Residency::Warm,
                i: 12,
                k: 12,
            },
        ];
        let cycles = SerialSource.kernel_batch(&kreqs);
        for (req, got) in kreqs.iter().zip(&cycles) {
            assert_eq!(
                *got,
                standalone_kernel(&req.platform, req.shape, req.residency, req.i, req.k)
            );
        }
    }
}
