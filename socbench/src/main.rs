//! `socbench` — the repository's benchmark: end-to-end and per-layer
//! metrics for the serve, solver and DSE stacks.
//!
//! ```text
//! socbench --workload <serve-mix|solver-replay|dse-explore> --seed <n> \
//!          --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! The workload names the stack under test: its inputs come from the
//! seed, and its set-up time is the run's `setup_s`. The other two
//! stacks run beside it on a fixed reference seed, so every run reports
//! every end-to-end metric. The three stacks take turns, one step at a
//! time, each getting an equal share of the window.
//! `peak_rss_mb` is the whole process's. Host time is wall time, read
//! where the host was least disturbed: a serve or replay figure is the
//! fast quartile across steps (see `stats::fast_time`), a sweep figure
//! is read over the faster half of the revisit cycles (see
//! `stats::fastest_half`). Each stack checks its own outputs. The last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.
//!
//! With `--trace 1` the workload's stack runs alone twice, once untraced
//! and once traced, then the other stacks run traced. The traced passes
//! wrap every call into a layer in spans, which are written to `--spans`
//! (default `.socbench/spans-<workload>-<seed>.jsonl`) at exit together
//! with per-layer self time; the cost per unit of work of the two
//! passes of the workload's stack gives the tracing overhead.

mod explore;
mod host;
mod replay;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats::Report;
use trace::Tracer;

/// What a stack hands back besides its metrics.
#[derive(Debug, Clone, Copy)]
pub struct StackOut {
    /// Median set-up time, wall seconds.
    pub setup_s: f64,
    /// Host wall ns per unit of work (session-tick, solve, design point).
    pub unit_ns: f64,
}

/// Seed of the two stacks that run beside the workload's own. It is
/// fixed, so they see the same inputs in every run and their figures
/// vary only with the host.
const REFERENCE_SEED: u64 = 0;

/// End-to-end metrics, in report order (must match `BENCHMARK.json`).
const END_TO_END: [&str; 14] = [
    "setup_s",
    "peak_rss_mb",
    "session_ticks_per_s",
    "tick_ms_p50",
    "tick_ms_p90",
    "sim_solve_cycles_p99",
    "degraded_tick_share",
    "solves_per_s",
    "solve_us_p50",
    "solve_us_p99",
    "tracking_rms_geomean",
    "design_points_per_s",
    "sweep_ms_p50",
    "sweep_ms_p90",
];

/// Simulated (deterministic) metrics: identical with tracing on and off.
const SIMULATED: [&str; 4] = [
    "sim_solve_cycles_p99",
    "deadline_miss_rate",
    "degraded_tick_share",
    "tracking_rms_geomean",
];

/// Per-layer metrics, in report order (must match `BENCHMARK.json`).
const PER_LAYER: [&str; 57] = [
    "runtime.admission_ms",
    "runtime.rung_ticks.nominal",
    "runtime.rung_ticks.widened",
    "runtime.rung_ticks.early_exit",
    "runtime.rung_ticks.lqr",
    "executor.submit_us_per_item",
    "executor.busy_share",
    "executor.retries",
    "executor.watchdog_trips",
    "session.build_ms.12x4",
    "session.build_ms.6x3",
    "session.build_ms.2x1",
    "session.tick_us_p50",
    "session.tick_us_p99",
    "session.tick_us.hover",
    "session.tick_us.figure8",
    "session.tick_us.slalom",
    "session.tick_us.disturbance",
    "session.tick_us.rendezvous",
    "session.tick_us.soft-landing",
    "session.tick_us.double-integrator",
    "solver.setup_ms.12x4",
    "solver.setup_ms.6x3",
    "solver.setup_ms.2x1",
    "solver.iterations_p50",
    "solver.iterations_p99",
    "solver.iterations.hover",
    "solver.iterations.figure8",
    "solver.iterations.slalom",
    "solver.iterations.disturbance",
    "solver.iterations.rendezvous",
    "solver.iterations.soft-landing",
    "solver.iterations.double-integrator",
    "solver.iterations.random",
    "solver.ns_per_iteration",
    "solver.first_iteration_ns",
    "solver.converged_share",
    "solver.max_iter_share",
    "scenarios.reference_us",
    "matlib.plant_step_ns",
    "backend.lower_us",
    "backend.trace_ops",
    "backend.simulate_us.scalar-inorder",
    "backend.simulate_us.scalar-ooo",
    "backend.simulate_us.saturn",
    "backend.simulate_us.gemmini",
    "backend.sim_mops_per_s.scalar-inorder",
    "backend.sim_mops_per_s.scalar-ooo",
    "backend.sim_mops_per_s.saturn",
    "backend.sim_mops_per_s.gemmini",
    "backend.setup_cost_us",
    "sweep.hit_rate",
    "sweep.misses",
    "sweep.failed_points",
    "sweep.shard_busy_share",
    "trace.overhead_pct",
    "deadline_miss_rate",
];

/// One stack of the benchmark, measured one step (epoch, round, batch)
/// at a time so the stacks of a run can share the window.
pub trait Stepper {
    /// Whether the stack has run the steps its fixed-size metrics need.
    fn ready(&self) -> bool;
    /// Runs one step of timed work.
    fn step(&mut self, tracer: &Arc<Tracer>, rep: &mut Report) -> tinympc::Result<()>;
    /// Runs the output checks and reports the stack's metrics.
    fn finish(self: Box<Self>, tracer: &Arc<Tracer>, rep: &mut Report)
        -> tinympc::Result<StackOut>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stack {
    Serve,
    Replay,
    Explore,
}

impl Stack {
    const ALL: [Stack; 3] = [Stack::Serve, Stack::Replay, Stack::Explore];

    fn from_workload(name: &str) -> Option<Stack> {
        match name {
            "serve-mix" => Some(Stack::Serve),
            "solver-replay" => Some(Stack::Replay),
            "dse-explore" => Some(Stack::Explore),
            _ => None,
        }
    }

    /// Sets the stack up on `seed`; `primary` when it is the workload's
    /// own stack.
    fn setup(
        self,
        seed: u64,
        primary: bool,
        tracer: &Arc<Tracer>,
        rep: &mut Report,
    ) -> tinympc::Result<Box<dyn Stepper>> {
        Ok(match self {
            Stack::Serve => Box::new(serve::Serve::new(seed, primary)),
            Stack::Replay => Box::new(replay::Replay::new(seed, primary, tracer, rep)?),
            Stack::Explore => Box::new(explore::Explore::new(seed, primary, tracer)?),
        })
    }
}

/// Steps the stacks, each time the one that has spent the least time,
/// until `budget` has passed and every stack is ready. Interleaving
/// spreads every stack's samples over the whole window, so slow and
/// fast phases of a shared host reach all of them alike; equal shares
/// give every end-to-end metric as many samples, whichever stack is the
/// workload's own.
fn measure(
    stacks: &mut [Box<dyn Stepper>],
    budget: Duration,
    tracer: &Arc<Tracer>,
    rep: &mut Report,
) -> tinympc::Result<()> {
    let started = Instant::now();
    let mut spent = vec![0.0f64; stacks.len()];
    loop {
        let over = started.elapsed() >= budget;
        let next = (0..stacks.len())
            .filter(|&i| !over || !stacks[i].ready())
            .min_by(|&a, &b| spent[a].total_cmp(&spent[b]));
        let Some(i) = next else {
            return Ok(());
        };
        let step = Instant::now();
        stacks[i].step(tracer, rep)?;
        spent[i] += step.elapsed().as_secs_f64();
    }
}

struct Args {
    workload: String,
    stack: Stack,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

/// The seed performance work is tuned and reported on (README.md names
/// the held-out one).
const DEFAULT_SEED: u64 = 7;
/// The measurement window `BENCHMARK.json` runs with.
const DEFAULT_SECONDS: f64 = 50.0;

const USAGE: &str = "usage: socbench --workload <serve-mix|solver-replay|dse-explore> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut spans = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--spans" => spans = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let stack = Stack::from_workload(&workload).ok_or(format!("unknown workload {workload}"))?;
    Ok(Args {
        workload,
        stack,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// Moves the ledger (attempted, failed, check failures) of `from` into
/// `into`, dropping its metrics.
fn merge_ledger(into: &mut Report, from: Report) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.check_failures.extend(from.check_failures);
}

fn run(args: &Args) -> tinympc::Result<(Report, Vec<&'static str>)> {
    let window = Duration::from_secs_f64(args.seconds);
    let others: Vec<Stack> = Stack::ALL
        .into_iter()
        .filter(|s| *s != args.stack)
        .collect();
    let mut rep = Report::default();
    if !args.trace {
        let off = Arc::new(Tracer::new(false));
        let mut stacks = vec![args.stack.setup(args.seed, true, &off, &mut rep)?];
        let mut sides = Vec::new();
        for other in &others {
            let mut side = Report::default();
            stacks.push(other.setup(REFERENCE_SEED, false, &off, &mut side)?);
            sides.push(side);
        }
        measure(&mut stacks, window, &off, &mut rep)?;
        let mut stacks = stacks.into_iter();
        let own = stacks.next().expect("primary").finish(&off, &mut rep)?;
        rep.put("setup_s", own.setup_s, "s");
        rep.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
        // The stacks beside the workload's own report their metrics; the
        // run's set-up time stays the workload's own.
        for (stack, mut side) in stacks.zip(sides) {
            stack.finish(&off, &mut side)?;
            for (name, value, unit) in side.metrics.drain(..) {
                rep.put(name, value, unit);
            }
            merge_ledger(&mut rep, side);
        }
        return Ok((rep, END_TO_END.to_vec()));
    }

    // Traced run, a quarter of the window each: the workload's stack
    // alone untraced (the overhead base), the same traced, then each
    // other stack traced.
    let quarter = window / 4;
    let off = Arc::new(Tracer::new(false));
    let mut plain = Report::default();
    let mut stack = [args.stack.setup(args.seed, true, &off, &mut plain)?];
    measure(&mut stack, quarter, &off, &mut plain)?;
    let [stack] = stack;
    let untraced = stack.finish(&off, &mut plain)?;

    let tracer = Arc::new(Tracer::new(true));
    let mut stack = [args.stack.setup(args.seed, true, &tracer, &mut rep)?];
    measure(&mut stack, quarter, &tracer, &mut rep)?;
    let [stack] = stack;
    let traced = stack.finish(&tracer, &mut rep)?;
    for name in SIMULATED {
        if let (Some(a), Some(b)) = (plain.get(name), rep.get(name)) {
            rep.check(a.to_bits() == b.to_bits(), || {
                format!("{name} differs with tracing on ({b}) and off ({a})")
            });
        }
    }
    merge_ledger(&mut rep, plain);
    rep.put(
        "trace.overhead_pct",
        (traced.unit_ns / untraced.unit_ns - 1.0) * 100.0,
        "%",
    );
    for other in others {
        let mut stack = [other.setup(REFERENCE_SEED, false, &tracer, &mut rep)?];
        measure(&mut stack, quarter, &tracer, &mut rep)?;
        let [stack] = stack;
        stack.finish(&tracer, &mut rep)?;
    }
    let spans = tracer.spans();
    print_self_times(&spans);
    let path = args
        .spans
        .clone()
        .unwrap_or_else(|| format!(".socbench/spans-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_spans(std::path::Path::new(&path), &spans) {
        Ok(()) => eprintln!("spans: {} written to {path}", spans.len()),
        Err(e) => rep.check(false, || format!("writing spans to {path}: {e}")),
    }
    Ok((rep, PER_LAYER.to_vec()))
}

fn print_self_times(spans: &[trace::Span]) {
    eprintln!("self time per span (ms): name, spans, total, self");
    for (name, (n, total, own)) in trace::self_times(spans) {
        eprintln!(
            "  {name:<24} {n:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::probe();
    eprintln!(
        "socbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", fingerprint.json());
    let (mut rep, expected) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut fields = Vec::with_capacity(expected.len());
    for name in expected {
        let found = rep
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, *u));
        match found {
            Some((value, unit)) if value.is_finite() => {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => rep.check(false, || format!("metric {name} missing or not finite")),
        }
    }
    for failure in &rep.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.check_failures.is_empty(),
        rep.attempted,
        rep.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
