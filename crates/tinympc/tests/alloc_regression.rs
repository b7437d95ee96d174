//! Allocation regression guard for the solver hot path.
//!
//! The arena-workspace contract says a *warm* [`AdmmSolver::solve_in_place`]
//! performs **zero** heap allocations: every iterate, scratch vector and
//! the staged `u0` live inside the workspace arena, and the per-kernel
//! cycle table is a fixed-size array. This test installs a counting
//! global allocator and fails on the first allocation (or reallocation)
//! that sneaks back into the warm loop.
//!
//! The lib crate itself is `#![forbid(unsafe_code)]`; the counting
//! allocator needs `unsafe impl GlobalAlloc`, which is why this guard
//! lives in an integration test (a separate crate).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tinympc::{problems, AdmmSolver, NullExecutor, SolverDims, SolverSettings};

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

/// Runs `f` and returns how many allocations it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

fn assert_warm_solve_is_allocation_free<const FORCE_DYNAMIC: bool>(name: &str) {
    let problem = match name {
        "quadrotor_hover" => problems::quadrotor_hover::<f32>(10).unwrap(),
        "double_integrator" => problems::double_integrator::<f32>(12).unwrap(),
        "random_stable_5x2" => problems::random_stable::<f32>(5, 2, 8, 7).unwrap(),
        other => panic!("unknown problem {other}"),
    };
    let nx = problem.dims().nx;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    if FORCE_DYNAMIC {
        solver.set_specialization(SolverDims::Dynamic).unwrap();
    }
    let x0 = vec![0.05f32; nx];

    // Two warm-up solves: the first touches every arena region, the
    // second settles the warm-start iterates.
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();

    let (allocs, status) =
        allocations_during(|| solver.solve_in_place(&x0, &mut NullExecutor).unwrap());
    assert!(status.iterations >= 1, "{name}: solve did not iterate");
    assert_eq!(
        allocs, 0,
        "{name} (dynamic={FORCE_DYNAMIC}): warm solve_in_place allocated {allocs} times"
    );
    assert!(
        solver.u0().iter().all(|v| v.is_finite()),
        "{name}: non-finite u0"
    );
}

#[test]
fn warm_solve_in_place_performs_zero_heap_allocations() {
    let _serial = serial();
    // Const-specialized paths.
    assert_warm_solve_is_allocation_free::<false>("quadrotor_hover");
    assert_warm_solve_is_allocation_free::<false>("double_integrator");
    // Dynamic fallback: a shape with no const path, and a const shape
    // with the fallback forced.
    assert_warm_solve_is_allocation_free::<false>("random_stable_5x2");
    assert_warm_solve_is_allocation_free::<true>("quadrotor_hover");
}

#[test]
fn warm_solve_with_reference_tracking_stays_allocation_free() {
    let _serial = serial();
    let problem = problems::quadrotor_hover::<f32>(10).unwrap();
    let nx = problem.dims().nx;
    let mut solver = AdmmSolver::new(problem, SolverSettings::default()).unwrap();
    let xref: Vec<matlib::Vector<f32>> = (0..10)
        .map(|_| matlib::Vector::from_fn(nx, |i| if i == 2 { 0.3 } else { 0.0 }))
        .collect();
    solver.set_reference(&xref).unwrap();
    let x0 = vec![0.0f32; nx];
    solver.solve_in_place(&x0, &mut NullExecutor).unwrap();

    // set_reference copies into the arena; re-targeting between warm
    // solves must stay allocation-free too.
    let (allocs, _) = allocations_during(|| {
        solver.set_reference(&xref).unwrap();
        solver.solve_in_place(&x0, &mut NullExecutor).unwrap()
    });
    assert_eq!(allocs, 0, "warm tracking solve allocated {allocs} times");
}
