//! Integration guards for the serving runtime: worker-count-invariant
//! reports and the zero-allocation steady-state contract.
//!
//! The lib crate is `#![forbid(unsafe_code)]`; the counting global
//! allocator needs `unsafe impl GlobalAlloc`, which is why the
//! allocation guard lives here (a separate test crate), mirroring
//! `crates/tinympc/tests/alloc_regression.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use soc_serve::{plan_load, run_bench, BenchConfig, ServeRuntime};

/// Counts every allocation and reallocation routed through the global
/// allocator. Frees are not counted — the contract is "no hidden
/// allocation", and a free without a matching alloc is impossible.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counting allocator is process-global and the test harness runs
/// tests on parallel threads, so a sibling test's allocations would land
/// in another test's counting window. Every test in this binary holds
/// this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that panicked while holding it does not
/// block the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The bench report body is a pure function of (sessions, ticks, seed):
/// every metric in it is computed from simulated cycles, which are
/// identical no matter how the tick batch is sharded across workers.
#[test]
fn bench_report_is_byte_identical_across_worker_counts() {
    let _serial = serial();
    let render = |workers: usize| {
        let cfg = BenchConfig {
            sessions: 96,
            ticks: 12,
            seed: 7,
            workers,
            smoke: false,
        };
        let out = run_bench(&cfg, &|| 0).expect("bench run");
        (out.report, out.json)
    };
    let (report1, json1) = render(1);
    for workers in [4, 16] {
        let (report, json) = render(workers);
        assert_eq!(report, report1, "report body diverged at workers={workers}");
        // The JSON's `deterministic` section must match too; the `host`
        // section may differ (wall times), so compare the deterministic
        // prefix, which ends right before the "host" key.
        let cut = |s: &str| {
            let at = s.find("\"host\"").expect("host section present");
            s[..at].to_string()
        };
        assert_eq!(
            cut(&json),
            cut(&json1),
            "deterministic JSON diverged at workers={workers}"
        );
    }
}

/// Same seed, same config, run twice: identical bytes (no hidden
/// iteration-order or time dependence in the report).
#[test]
fn bench_report_is_reproducible_for_a_fixed_seed() {
    let _serial = serial();
    let cfg = BenchConfig {
        sessions: 64,
        ticks: 8,
        seed: 21,
        workers: 3,
        smoke: false,
    };
    let a = run_bench(&cfg, &|| 0).expect("bench run");
    let b = run_bench(&cfg, &|| 0).expect("bench run");
    assert_eq!(a.report, b.report);
}

/// Steady-state serving performs zero heap allocations: after the
/// warm-up ticks every solve, plant update, reference restream, rung
/// demotion and histogram record works out of preallocated storage.
#[test]
fn steady_state_ticks_perform_zero_heap_allocations() {
    let _serial = serial();
    let plan = plan_load(48, 7);
    let mut rt = ServeRuntime::new(&plan, 16, 7, 2).expect("runtime");
    let run = rt.run(16, &alloc_count);
    assert!(run.warmup_ticks >= 1, "warm-up window missing");
    assert_eq!(
        run.steady_allocs, 0,
        "steady-state ticks allocated {} times",
        run.steady_allocs
    );
    assert_eq!(run.pool.items, 48 * 16, "every session-tick ran");
}

/// The full bench entry point reports the same zero-allocation result
/// through its probe plumbing (what `dse bench-serve --smoke` gates on).
#[test]
fn bench_probe_observes_zero_steady_state_allocations() {
    let _serial = serial();
    let cfg = BenchConfig {
        sessions: 48,
        ticks: 12,
        seed: 7,
        workers: 2,
        smoke: true,
    };
    let out = run_bench(&cfg, &alloc_count).expect("bench run");
    assert_eq!(
        out.host.steady_allocs, 0,
        "probe saw {} steady-state allocations",
        out.host.steady_allocs
    );
    assert!(
        out.gate_failures.is_empty(),
        "smoke gates failed: {:?}",
        out.gate_failures
    );
}
