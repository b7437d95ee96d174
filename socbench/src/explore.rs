//! The DSE stack: fresh design points swept through `run_sweep` on one
//! long-lived in-memory `SweepEngine` (the `dse-explore` workload).
//!
//! Each batch holds one freshly perturbed design point per back-end
//! family (scalar in-order, scalar out-of-order, Saturn, Gemmini), drawn
//! from the Table-I registry with only timing parameters changed
//! (latencies, queue depths, ROB size, DMA latency). Every point has a
//! new `cache_id`, so its pricer is cold and its DARE runs afresh. The
//! batch is swept over every catalog scenario with `jobs = nproc`.
//! Every fourth batch revisits a seeded earlier one, so the sweep cache
//! serves hits beside misses.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use matlib::rng::SplitMix64;
use soc_backend::{pipeline_for, priced_for, Backend, BackendPipeline, Platform};
use soc_cpu::CoreKind;
use soc_scenarios::{Scenario, ScenarioCatalog};
use soc_sweep::{run_sweep, ShardStats, SweepEngine, SweepSpec};
use tinympc::{KernelId, ProblemDims};

use crate::stats::{fastest_half, median, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::{host, StackOut, Stepper};

/// Set-ups per run on the workload's own seed. Each first batch draws
/// its own bases, whose cost differs by family member, so the median
/// needs more samples than the other stacks' set-ups.
const SETUPS: usize = 5;
/// Every `REVISIT_EVERY`-th batch revisits a seeded earlier batch
/// (cache hits).
const REVISIT_EVERY: usize = 4;
/// Back-end families, in batch order.
const FAMILIES: [&str; 4] = ["scalar-inorder", "scalar-ooo", "saturn", "gemmini"];

/// The family label of a design point.
fn family(platform: &Platform) -> &'static str {
    match (&platform.backend, &platform.core.kind) {
        (Backend::Scalar(_), CoreKind::InOrder { .. }) => FAMILIES[0],
        (Backend::Scalar(_), CoreKind::OutOfOrder { .. }) => FAMILIES[1],
        (Backend::Saturn { .. }, _) => FAMILIES[2],
        (Backend::Gemmini { .. }, _) => FAMILIES[3],
    }
}

/// Seeded stream of fresh design points.
struct PointStream {
    rng: SplitMix64,
    by_family: Vec<Vec<Platform>>,
    seen: HashSet<String>,
    drawn: usize,
}

impl PointStream {
    fn new(seed: u64) -> Self {
        let registry = Platform::table1_registry();
        let by_family = FAMILIES
            .iter()
            .map(|f| {
                registry
                    .iter()
                    .filter(|p| family(p) == *f)
                    .cloned()
                    .collect()
            })
            .collect();
        PointStream {
            rng: SplitMix64::new(seed ^ 0xD5E0_0C1A),
            seen: registry.iter().map(Platform::cache_id).collect(),
            by_family,
            drawn: 0,
        }
    }

    fn bump(&mut self, value: u64, max: u64) -> u64 {
        value + self.rng.range_usize(0, max as usize) as u64
    }

    /// A perturbed copy of a random registry point of `family`, with a
    /// configuration identity never seen before in this stream.
    fn fresh(&mut self, family: usize) -> Platform {
        for _ in 0..10_000 {
            let bases = &self.by_family[family];
            let mut p = bases[self.rng.range_usize(0, bases.len() - 1)].clone();
            let mut lat = p.core.latency;
            lat.fp_fma = self.bump(lat.fp_fma, 3);
            lat.fp_add = self.bump(lat.fp_add, 3);
            lat.fp_mul = self.bump(lat.fp_mul, 3);
            lat.fp_div = self.bump(lat.fp_div, 8);
            lat.int_mul = self.bump(lat.int_mul, 3);
            lat.load = self.bump(lat.load, 2);
            p.core.latency = lat;
            let extra_rob = self.rng.range_usize(0, 4) as u32 * 8;
            let extra_iq = self.rng.range_usize(0, 2) as u32 * 2;
            if let CoreKind::OutOfOrder {
                rob_size, queues, ..
            } = &mut p.core.kind
            {
                *rob_size += extra_rob;
                queues.iq_entries += extra_iq;
            }
            match &mut p.backend {
                Backend::Saturn { config, .. } => {
                    config.queue_depth += self.rng.range_usize(0, 4);
                    config.startup_latency = self.bump(config.startup_latency, 2);
                    config.chain_latency = self.bump(config.chain_latency, 1);
                }
                Backend::Gemmini { config, .. } => {
                    config.dma_latency = self.bump(config.dma_latency, 24);
                    config.rs_entries += self.rng.range_usize(0, 8);
                }
                Backend::Scalar(_) => {}
            }
            if self.seen.insert(p.cache_id()) {
                self.drawn += 1;
                p.name = format!("{}-d{}", p.name, self.drawn);
                return p;
            }
        }
        panic!("no fresh {} design point left to draw", FAMILIES[family]);
    }

    /// One batch: a fresh point per family.
    fn batch(&mut self) -> Vec<Platform> {
        (0..FAMILIES.len()).map(|f| self.fresh(f)).collect()
    }
}

/// The sweep specs of one batch: every catalog scenario at its default
/// horizon over the batch's points, no heatmaps.
fn specs(points: &[Platform], scenarios: &[Scenario]) -> Vec<SweepSpec> {
    scenarios
        .iter()
        .map(|s| SweepSpec {
            label: "dse-explore".to_string(),
            scenario: s.clone(),
            horizons: vec![s.default_horizon()],
            platforms: points.to_vec(),
            heatmaps: Vec::new(),
        })
        .collect()
}

/// Per-batch accounting.
#[derive(Default)]
struct Tally {
    /// Wall time of each batch, ms.
    batch_ms: Vec<f64>,
    points: u64,
    attempted: u64,
    failed: u64,
    requests: u64,
    hits: u64,
    misses: u64,
    busy: Vec<f64>,
    retries: u64,
}

/// Sweeps one batch over every scenario; returns the rendered reports.
fn sweep_batch(
    engine: &SweepEngine,
    points: &[Platform],
    scenarios: &[Scenario],
    tracer: &Tracer,
    tally: &mut Tally,
) -> tinympc::Result<Vec<String>> {
    let root = tracer.start("sweep.batch", 0);
    let started = Instant::now();
    let mut bodies = Vec::with_capacity(scenarios.len());
    for spec in specs(points, scenarios) {
        let call = Instant::now();
        let report = tracer.span("sweep.run_sweep", root.id(), || run_sweep(&spec, engine))?;
        let wall = call.elapsed().as_secs_f64();
        let shards = ShardStats::total(&report.shards);
        let busy: f64 = report.shards.iter().map(|s| s.wall.as_secs_f64()).sum();
        tally.busy.push(ratio(busy, report.jobs as f64 * wall));
        tally.attempted += spec.platforms.len() as u64;
        tally.failed += report.failed_points as u64;
        tally.retries += (shards.retries + shards.watchdog_trips) as u64;
        tally.requests += report.stats.requests as u64;
        tally.hits += report.stats.hits() as u64;
        tally.misses += report.stats.misses as u64;
        bodies.push(report.render());
    }
    tally.batch_ms.push(started.elapsed().as_secs_f64() * 1e3);
    tally.points += points.len() as u64;
    tracer.end(root);
    Ok(bodies)
}

/// Host times of the back-end stages, per kernel pricing (traced runs).
#[derive(Default)]
struct StageTimes {
    lower_us: Vec<f64>,
    trace_ops: Vec<f64>,
    /// `(family, simulate µs, trace ops)`.
    simulate: Vec<(&'static str, f64, f64)>,
    setup_us: Vec<f64>,
}

impl StageTimes {
    /// Times `timed_trace` (the lowering) and `simulate` of one kernel.
    fn record(
        &mut self,
        pipeline: &dyn BackendPipeline,
        kernel: KernelId,
        dims: &ProblemDims,
        family: &'static str,
        tracer: &Tracer,
    ) {
        let started = Instant::now();
        let (trace, _mark) = tracer.span("backend.timed_trace", 0, || {
            pipeline.timed_trace(kernel, dims)
        });
        self.lower_us.push(started.elapsed().as_secs_f64() * 1e6);
        let ops = trace.ops().len() as f64;
        self.trace_ops.push(ops);
        let started = Instant::now();
        tracer.span("backend.simulate", 0, || pipeline.simulate(&trace));
        self.simulate
            .push((family, started.elapsed().as_secs_f64() * 1e6, ops));
    }

    fn report(&self, rep: &mut Report) {
        rep.put("backend.lower_us", median(&self.lower_us), "us");
        rep.put("backend.trace_ops", median(&self.trace_ops), "count");
        for fam in FAMILIES {
            let of_family = || self.simulate.iter().filter(move |s| s.0 == fam);
            let us: Vec<f64> = of_family().map(|s| s.1).collect();
            let ops: f64 = of_family().map(|s| s.2).sum();
            rep.put(format!("backend.simulate_us.{fam}"), median(&us), "us");
            rep.put(
                format!("backend.sim_mops_per_s.{fam}"),
                ratio(ops, us.iter().sum::<f64>()),
                "Mops/s",
            );
        }
        rep.put("backend.setup_cost_us", median(&self.setup_us), "us");
    }
}

/// Checks every kernel and set-up price the sweep memoized for `points`
/// against an unmemoized `pipeline_for(p)` pricing. In a traced run the
/// same calls also time the back-end stages per family.
fn check_unmemoized(
    points: &[Platform],
    scenarios: &[Scenario],
    tracer: &Tracer,
    rep: &mut Report,
) -> tinympc::Result<()> {
    let mut dims: Vec<ProblemDims> = Vec::new();
    for s in scenarios {
        let (nx, nu) = s.dims();
        let d = ProblemDims {
            nx,
            nu,
            horizon: s.default_horizon(),
        };
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let mut stages = StageTimes::default();
    for p in points {
        let memo = priced_for(p);
        let fresh = pipeline_for(p);
        for d in &dims {
            for k in KernelId::ALL {
                let want = fresh.steady_cycles(k, d)?;
                let got = memo.kernel_cycles(k, d)?;
                rep.check(got == want, || {
                    format!("{} {k} {d:?}: memoized {got} != unmemoized {want}", p.name)
                });
                if tracer.enabled() {
                    stages.record(fresh.as_ref(), k, d, family(p), tracer);
                }
            }
            let started = Instant::now();
            let want = tracer.span("backend.setup_cost", 0, || fresh.setup_cost(d))?;
            stages.setup_us.push(started.elapsed().as_secs_f64() * 1e6);
            let got = memo.setup_cycles(d)?;
            rep.check(got == want, || {
                format!(
                    "{} setup {d:?}: memoized {got} != unmemoized {want}",
                    p.name
                )
            });
        }
    }
    if tracer.enabled() {
        stages.report(rep);
    }
    Ok(())
}

/// The DSE stack as a stepper: each step sweeps one batch on the
/// long-lived engine.
pub struct Explore {
    jobs: usize,
    primary: bool,
    scenarios: Vec<Scenario>,
    stream: PointStream,
    rng: SplitMix64,
    engine: SweepEngine,
    history: Vec<Vec<Platform>>,
    first: (Vec<Platform>, Vec<String>),
    setups: Vec<f64>,
    setup_tally: Tally,
    tally: Tally,
    revisits: usize,
}

impl Explore {
    /// Sets the stack up on `seed`: a fresh engine and its first, cold
    /// batch (`SETUPS` times when `primary`, for the set-up median).
    pub fn new(seed: u64, primary: bool, tracer: &Tracer) -> tinympc::Result<Self> {
        let jobs = host::nproc();
        let scenarios = ScenarioCatalog::standard().into_scenarios();
        let mut stream = PointStream::new(seed);
        let mut setups = Vec::new();
        let mut first = None;
        let mut engine = SweepEngine::in_memory(jobs);
        let mut last = Vec::new();
        let mut setup_tally = Tally::default();
        for _ in 0..if primary { SETUPS } else { 1 } {
            let started = Instant::now();
            engine = SweepEngine::in_memory(jobs);
            let points = stream.batch();
            let bodies = sweep_batch(&engine, &points, &scenarios, tracer, &mut setup_tally)?;
            setups.push(started.elapsed().as_secs_f64());
            if first.is_none() {
                first = Some((points.clone(), bodies));
            }
            last = points;
        }
        Ok(Explore {
            jobs,
            primary,
            scenarios,
            stream,
            rng: SplitMix64::new(seed ^ 0x4E71_517E),
            engine,
            // Only the last set-up engine lives on: its batch is the one
            // a revisit can hit.
            history: vec![last],
            first: first.expect("one set-up"),
            setups,
            setup_tally,
            tally: Tally::default(),
            revisits: 0,
        })
    }
}

impl Stepper for Explore {
    fn ready(&self) -> bool {
        self.tally.batch_ms.len() >= REVISIT_EVERY
    }

    fn step(&mut self, tracer: &Arc<Tracer>, _rep: &mut Report) -> tinympc::Result<()> {
        let revisit = self.tally.batch_ms.len() % REVISIT_EVERY == REVISIT_EVERY - 1;
        let points = if revisit {
            self.revisits += 1;
            self.history[self.rng.range_usize(0, self.history.len() - 1)].clone()
        } else {
            let fresh = self.stream.batch();
            self.history.push(fresh.clone());
            fresh
        };
        sweep_batch(
            &self.engine,
            &points,
            &self.scenarios,
            tracer,
            &mut self.tally,
        )?;
        Ok(())
    }

    fn finish(
        self: Box<Self>,
        tracer: &Arc<Tracer>,
        rep: &mut Report,
    ) -> tinympc::Result<StackOut> {
        let jobs = self.jobs;
        let (points0, bodies0) = &self.first;
        check_unmemoized(points0, &self.scenarios, tracer, rep)?;
        if self.primary {
            let single = SweepEngine::in_memory(1);
            let bodies = sweep_batch(
                &single,
                points0,
                &self.scenarios,
                &Tracer::new(false),
                &mut Tally::default(),
            )?;
            rep.check(bodies == *bodies0, || {
                format!("sweep reports differ between jobs = 1 and jobs = {jobs}")
            });
        }
        let (tally, setup_tally) = (&self.tally, &self.setup_tally);
        let total_ms: f64 = tally.batch_ms.iter().sum();
        // Host figures over the batches of the faster half of the whole
        // revisit cycles (each cycle holds the same mix of fresh and
        // revisited points).
        let cycles: Vec<&[f64]> = tally.batch_ms.chunks_exact(REVISIT_EVERY).collect();
        let batches = fastest_half(&cycles);
        rep.put(
            "design_points_per_s",
            ratio(
                batches.len() as f64 * FAMILIES.len() as f64 * 1e3,
                batches.iter().sum(),
            ),
            "1/s",
        );
        rep.put("sweep_ms_p50", percentile(&batches, 50.0), "ms");
        rep.put("sweep_ms_p90", percentile(&batches, 90.0), "ms");
        rep.attempted += tally.attempted + setup_tally.attempted;
        rep.failed += tally.failed + setup_tally.failed + tally.retries + setup_tally.retries;
        eprintln!(
            "explore: {} batches ({} revisits, {} points) after {} set-up batches, \
             {jobs} jobs, hits {}/{} requests, failed points {}",
            tally.batch_ms.len(),
            self.revisits,
            tally.points,
            self.setups.len(),
            tally.hits,
            tally.requests,
            tally.failed + setup_tally.failed
        );
        if tracer.enabled() {
            rep.put(
                "sweep.hit_rate",
                ratio(tally.hits as f64, tally.requests as f64),
                "ratio",
            );
            rep.put("sweep.misses", tally.misses as f64, "count");
            rep.put("sweep.failed_points", tally.failed as f64, "count");
            rep.put("sweep.shard_busy_share", median(&tally.busy), "ratio");
        }
        Ok(StackOut {
            setup_s: median(&self.setups),
            unit_ns: ratio(total_ms * 1e6, tally.points as f64),
        })
    }
}
