//! The serve stack: `plan_load` → `ServeRuntime::new` → a closed loop of
//! `run_tick`s (the `serve-mix` workload).
//!
//! One *epoch* admits a seeded catalog mix (7 scenarios × 3 serving
//! platforms, `SESSIONS` tenants) and runs `EPOCH_TICKS` ticks, each
//! submitted after the previous one drained, on `nproc` workers. Every
//! epoch draws its mix, session perturbations and bursts from its own
//! epoch seed. Set-up (plan, admission, first cold tick) is timed per
//! epoch and reported as a median.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use matlib::rng::SplitMix64;
use soc_serve::loadgen::{control_hz, serving_platforms};
use soc_serve::{plan_load, CohortModel, LoadPlan, ServeRuntime, Session};
use soc_sweep::{BatchJob, RetryPolicy, ShardFailure, TickExecutor};

use crate::stats::{fast_rate, fast_time, median, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::{host, StackOut, Stepper};

/// Tenants admitted per epoch: the load the serving figures of this
/// repository were measured at on a 2-core host (38.6k–47.7k
/// session-ticks/s at 500 sessions on 2 workers).
const SESSIONS: usize = 500;
/// Ticks per epoch, as `dse bench-serve` runs them by default and in its
/// CI gate; also the reference-tape length at admission.
const EPOCH_TICKS: usize = 100;
/// Epochs the simulated metrics are read over when serve is the
/// workload's own stack. The seeded bursts (a few per 100 ticks) make
/// one epoch's degraded share vary by about half its mean from seed to
/// seed; 12 epochs keep the spread across seeds inside its bound.
const SIM_EPOCHS: usize = 12;
/// Epochs the simulated metrics are read over in a short pass on the
/// reference seed.
const SIDE_SIM_EPOCHS: usize = 2;
/// Ticks of the traced session probe.
const PROBE_TICKS: usize = 12;

/// One admitted epoch.
struct Epoch {
    rt: ServeRuntime,
    /// Wall time of the plan, the admission and the first tick.
    setup_ns: u64,
    admission_ns: u64,
    retries: usize,
    watchdog_trips: usize,
}

fn admit(seed: u64, workers: usize, tracer: &Tracer) -> tinympc::Result<Epoch> {
    let root = tracer.start("serve.setup", 0);
    let started = Instant::now();
    let plan = tracer.span("loadgen.plan_load", root.id(), || plan_load(SESSIONS, seed));
    let admitted = Instant::now();
    let mut rt = tracer.span("runtime.new", root.id(), || {
        ServeRuntime::new(&plan, EPOCH_TICKS, seed, workers)
    })?;
    let admission_ns = admitted.elapsed().as_nanos() as u64;
    let first = tracer.span("runtime.run_tick", root.id(), || rt.run_tick());
    let setup_ns = started.elapsed().as_nanos() as u64;
    tracer.end(root);
    Ok(Epoch {
        rt,
        setup_ns,
        admission_ns,
        retries: first.retries,
        watchdog_trips: first.watchdog_trips,
    })
}

/// Runs the remaining ticks of an epoch, appending each tick's wall time
/// (ns): submission to the last straggler, wake-ups and the runtime's
/// serial shedding step included.
fn drain(epoch: &mut Epoch, tracer: &Tracer, tick_ns: &mut Vec<f64>) {
    while epoch.rt.ticks_run() < EPOCH_TICKS {
        let open = tracer.start("runtime.run_tick", 0);
        let started = Instant::now();
        let stats = epoch.rt.run_tick();
        tick_ns.push(started.elapsed().as_nanos() as f64);
        tracer.end(open);
        epoch.retries += stats.retries;
        epoch.watchdog_trips += stats.watchdog_trips;
    }
}

/// The worker-count-invariant report body of an epoch: every number
/// derives from simulated cycles and seeded streams.
fn body(rt: &ServeRuntime) -> String {
    let m = rt.metrics();
    let mut out = format!("capacity {} cycles/tick\n", rt.capacity());
    for c in rt.cohorts() {
        let _ = writeln!(
            out,
            "{} on {}: {} sessions, budget {}, baseline {}, occupancy {:?}",
            c.model.scenario().name(),
            c.model.platform_name(),
            c.sessions(),
            c.model.budget(),
            c.model.baseline(),
            c.occupancy()
        );
    }
    let _ = writeln!(
        out,
        "cycles p50={} p99={} p99.9={}; session-ticks={} misses={} fallbacks={} aborted={} rungs={:?}",
        m.cycles.percentile(50.0),
        m.cycles.percentile(99.0),
        m.cycles.percentile(99.9),
        m.session_ticks.load(Ordering::Relaxed),
        m.misses.load(Ordering::Relaxed),
        m.fallbacks.load(Ordering::Relaxed),
        m.aborted.load(Ordering::Relaxed),
        m.rung_snapshot()
    );
    out
}

/// The seed of epoch `k`: every epoch draws a fresh mix, fresh session
/// perturbations and a fresh burst pattern from the run's seed.
fn epoch_seed(seed: u64, k: usize) -> u64 {
    SplitMix64::new(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The serve stack as a stepper: each step is one epoch on a fresh
/// epoch seed.
pub struct Serve {
    seed: u64,
    primary: bool,
    workers: usize,
    sim_epochs: usize,
    epochs: usize,
    tick_ns: Vec<f64>,
    /// Per epoch: session-ticks/s, tick p50 and tick p90 (ns). A whole
    /// epoch, not a shorter window, so that burst ticks (cheaper, as
    /// shedding demotes sessions) and calm ones are mixed alike.
    per_epoch: Vec<[f64; 3]>,
    setups: Vec<f64>,
    admissions: Vec<f64>,
    body0: String,
    occupancy: [u64; 4],
    p99s: Vec<f64>,
    misses: u64,
    ticks: u64,
    retries: usize,
    trips: usize,
    aborted: u64,
    attempted: u64,
}

impl Serve {
    /// A serve stack on `seed`. The simulated metrics are read over the
    /// first `SIM_EPOCHS` (primary) or `SIDE_SIM_EPOCHS` epochs, so they
    /// are a pure function of the seed; `primary` also adds the
    /// 1-worker report-body check.
    pub fn new(seed: u64, primary: bool) -> Self {
        Serve {
            seed,
            primary,
            workers: host::nproc(),
            sim_epochs: if primary { SIM_EPOCHS } else { SIDE_SIM_EPOCHS },
            epochs: 0,
            tick_ns: Vec::new(),
            per_epoch: Vec::new(),
            setups: Vec::new(),
            admissions: Vec::new(),
            body0: String::new(),
            occupancy: [0; 4],
            p99s: Vec::new(),
            misses: 0,
            ticks: 0,
            retries: 0,
            trips: 0,
            aborted: 0,
            attempted: 0,
        }
    }
}

impl Stepper for Serve {
    fn ready(&self) -> bool {
        self.epochs >= self.sim_epochs
    }

    fn step(&mut self, tracer: &Arc<Tracer>, _rep: &mut Report) -> tinympc::Result<()> {
        let mut epoch = admit(epoch_seed(self.seed, self.epochs), self.workers, tracer)?;
        let from = self.tick_ns.len();
        drain(&mut epoch, tracer, &mut self.tick_ns);
        let ticks = &self.tick_ns[from..];
        self.per_epoch.push([
            ratio(
                ticks.len() as f64 * SESSIONS as f64 * 1e9,
                ticks.iter().sum(),
            ),
            percentile(ticks, 50.0),
            percentile(ticks, 90.0),
        ]);
        self.setups.push(epoch.setup_ns as f64 / 1e9);
        self.admissions.push(epoch.admission_ns as f64 / 1e6);
        self.retries += epoch.retries;
        self.trips += epoch.watchdog_trips;
        let m = epoch.rt.metrics();
        let aborted = m.aborted.load(Ordering::Relaxed);
        self.attempted += m.session_ticks.load(Ordering::Relaxed) + aborted;
        self.aborted += aborted;
        if self.epochs == 0 {
            self.body0 = body(&epoch.rt);
        }
        if self.epochs < self.sim_epochs {
            for c in epoch.rt.cohorts() {
                for (o, v) in self.occupancy.iter_mut().zip(c.occupancy()) {
                    *o += v;
                }
            }
            self.p99s.push(m.cycles.percentile(99.0) as f64);
            self.misses += m.misses.load(Ordering::Relaxed);
            self.ticks += m.session_ticks.load(Ordering::Relaxed);
        }
        self.epochs += 1;
        Ok(())
    }

    fn finish(
        self: Box<Self>,
        tracer: &Arc<Tracer>,
        rep: &mut Report,
    ) -> tinympc::Result<StackOut> {
        let s = *self;
        if s.primary {
            // Determinism contract: the first epoch on one worker renders
            // the same body.
            let quiet = Tracer::new(false);
            let mut single = admit(epoch_seed(s.seed, 0), 1, &quiet)?;
            drain(&mut single, &quiet, &mut Vec::new());
            let text = body(&single.rt);
            rep.check(text == s.body0, || {
                format!(
                    "serve body differs between 1 and {} workers:\n{}\nvs\n{text}",
                    s.workers, s.body0
                )
            });
        }
        let session_ticks = s.tick_ns.len() as f64 * SESSIONS as f64;
        let tick_total_ns: f64 = s.tick_ns.iter().sum();
        let ticks = s.ticks as f64;
        let of = |k: usize| s.per_epoch.iter().map(|e| e[k]).collect::<Vec<_>>();
        rep.put("session_ticks_per_s", fast_rate(&of(0)), "1/s");
        rep.put("tick_ms_p50", fast_time(&of(1)) / 1e6, "ms");
        rep.put("tick_ms_p90", fast_time(&of(2)) / 1e6, "ms");
        rep.put("sim_solve_cycles_p99", median(&s.p99s), "cycles");
        rep.put("deadline_miss_rate", ratio(s.misses as f64, ticks), "ratio");
        let degraded = s.occupancy[1] + s.occupancy[2] + s.occupancy[3];
        rep.put(
            "degraded_tick_share",
            ratio(degraded as f64, ticks),
            "ratio",
        );
        rep.attempted += s.attempted;
        rep.failed += s.aborted + s.retries as u64 + s.trips as u64;
        eprintln!(
            "serve: {} epochs x {EPOCH_TICKS} ticks x {SESSIONS} sessions, {} workers, \
             {} timed ticks, aborted {}, retries {}, watchdog trips {}",
            s.epochs,
            s.workers,
            s.tick_ns.len(),
            s.aborted,
            s.retries,
            s.trips
        );
        if tracer.enabled() {
            rep.put("runtime.admission_ms", median(&s.admissions), "ms");
            for (name, v) in ["nominal", "widened", "early_exit", "lqr"]
                .iter()
                .zip(s.occupancy)
            {
                rep.put(format!("runtime.rung_ticks.{name}"), v as f64, "count");
            }
            rep.put("executor.retries", s.retries as f64, "count");
            rep.put("executor.watchdog_trips", s.trips as f64, "count");
            rep.put(
                "executor.submit_us_per_item",
                submit_us_per_item(s.workers, tracer),
                "us",
            );
            let plan = plan_load(SESSIONS, epoch_seed(s.seed, 0));
            session_probe(&plan, s.seed, s.workers, tracer, rep)?;
        }
        Ok(StackOut {
            setup_s: median(&s.setups),
            unit_ns: ratio(tick_total_ns, session_ticks),
        })
    }
}

/// A batch whose items do nothing: isolates the executor's dispatch,
/// claim and completion cost.
struct NoopJob(usize);

impl BatchJob for NoopJob {
    fn items(&self) -> usize {
        self.0
    }
    fn run(&self, _item: usize, _attempt: u32) {}
    fn fail(&self, _failure: ShardFailure) {}
}

fn submit_us_per_item(workers: usize, tracer: &Tracer) -> f64 {
    const ITEMS: usize = 1024;
    const BATCHES: usize = 200;
    let executor = TickExecutor::new(workers);
    let job: Arc<dyn BatchJob> = Arc::new(NoopJob(ITEMS));
    let open = tracer.start("executor.noop_batches", 0);
    let started = Instant::now();
    for _ in 0..BATCHES {
        executor.submit(&job, RetryPolicy::no_retry());
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    tracer.end(open);
    elapsed / 1e3 / (ITEMS * BATCHES) as f64
}

/// The serve tick rebuilt from its public parts (`CohortModel::build`,
/// `CohortModel::new_session`, `Session::tick` on a `TickExecutor`) so
/// each session-tick can be timed and spanned individually. Every
/// session runs at its cohort's baseline rung.
struct ProbeJob {
    models: Vec<CohortModel>,
    sessions: Vec<(usize, Mutex<Session>)>,
    step: AtomicUsize,
    parent: AtomicU64,
    tick_ns: Vec<AtomicU64>,
    failed: AtomicU64,
    tracer: Arc<Tracer>,
}

impl BatchJob for ProbeJob {
    fn items(&self) -> usize {
        self.sessions.len()
    }

    fn run(&self, item: usize, _attempt: u32) {
        let (cohort, session) = &self.sessions[item];
        let model = &self.models[*cohort];
        let step = self.step.load(Ordering::Relaxed);
        let mut session = session.lock().unwrap_or_else(|p| p.into_inner());
        let open = self
            .tracer
            .start("session.tick", self.parent.load(Ordering::Relaxed));
        let started = Instant::now();
        session.tick(model, step, model.baseline());
        self.tick_ns[item].store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tracer.end(open);
    }

    fn fail(&self, _failure: ShardFailure) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
}

fn session_probe(
    plan: &LoadPlan,
    seed: u64,
    workers: usize,
    tracer: &Arc<Tracer>,
    rep: &mut Report,
) -> tinympc::Result<()> {
    let platforms = serving_platforms();
    let mut models = Vec::new();
    let mut build_ms: Vec<(String, f64)> = Vec::new();
    let mut sessions = Vec::new();
    let mut rng = SplitMix64::new(seed ^ 0x9B0B_E5E5);
    for spec in &plan.cohorts {
        let started = Instant::now();
        let model = tracer.span("session.build", 0, || {
            CohortModel::build(
                &spec.scenario,
                &platforms[spec.platform],
                spec.scenario.default_horizon(),
                PROBE_TICKS,
                control_hz(&spec.scenario),
            )
        })?;
        let d = model.dims();
        build_ms.push((
            format!("{}x{}", d.nx, d.nu),
            started.elapsed().as_secs_f64() * 1e3,
        ));
        for _ in 0..spec.sessions {
            sessions.push((models.len(), Mutex::new(model.new_session(&mut rng))));
        }
        models.push(model);
    }
    let items = sessions.len();
    let job = Arc::new(ProbeJob {
        models,
        sessions,
        step: AtomicUsize::new(0),
        parent: AtomicU64::new(0),
        tick_ns: (0..items).map(|_| AtomicU64::new(0)).collect(),
        failed: AtomicU64::new(0),
        tracer: Arc::clone(tracer),
    });
    let batch: Arc<dyn BatchJob> = job.clone();
    let executor = TickExecutor::new(workers);
    let mut busy = Vec::new();
    let mut per_tick: Vec<f64> = Vec::new();
    let mut per_scenario: Vec<(&str, f64)> = Vec::new();
    rep.attempted += (items * PROBE_TICKS) as u64;
    for step in 0..PROBE_TICKS {
        job.step.store(step, Ordering::Relaxed);
        let open = tracer.start("serve.probe_tick", 0);
        job.parent.store(open.id(), Ordering::Relaxed);
        let started = Instant::now();
        executor.submit(&batch, RetryPolicy::default());
        let wall = started.elapsed().as_nanos() as f64;
        tracer.end(open);
        // The first probe tick runs on cold caches; it is not sampled.
        if step == 0 {
            continue;
        }
        let mut sum = 0.0;
        for (i, ns) in job.tick_ns.iter().enumerate() {
            let v = ns.load(Ordering::Relaxed) as f64;
            sum += v;
            per_tick.push(v);
            per_scenario.push((job.models[job.sessions[i].0].scenario().name(), v));
        }
        busy.push(sum / (workers as f64 * wall));
    }
    for label in ["12x4", "6x3", "2x1"] {
        let v: Vec<f64> = build_ms
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, ms)| *ms)
            .collect();
        rep.put(format!("session.build_ms.{label}"), median(&v), "ms");
    }
    rep.put(
        "session.tick_us_p50",
        percentile(&per_tick, 50.0) / 1e3,
        "us",
    );
    rep.put(
        "session.tick_us_p99",
        percentile(&per_tick, 99.0) / 1e3,
        "us",
    );
    for scenario in soc_scenarios::ScenarioCatalog::standard().scenarios() {
        let v: Vec<f64> = per_scenario
            .iter()
            .filter(|(s, _)| *s == scenario.name())
            .map(|(_, ns)| *ns)
            .collect();
        rep.put(
            format!("session.tick_us.{}", scenario.name()),
            median(&v) / 1e3,
            "us",
        );
    }
    rep.put("executor.busy_share", median(&busy), "ratio");
    rep.failed += job.failed.load(Ordering::Relaxed);
    Ok(())
}
