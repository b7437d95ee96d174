//! The shared-pricer registry: one memoized steady-state pricer per
//! distinct configuration, interned process-wide by
//! [`BackendPipeline::cache_id`].
//!
//! [`crate::Platform::executor`] used to re-box a cold per-executor memo
//! table on every call; now every executor for the same configuration is
//! a cheap handle onto the same [`PricedPipeline`], so repeated solves
//! price each kernel exactly once per process.

use crate::pipeline::BackendPipeline;
use crate::platform::{pipeline_for, Platform};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use tinympc::{KernelCycles, KernelExecutor, KernelId, ProblemDims};

/// Locks a memo-table mutex, recovering from poisoning. Every critical
/// section here is a single probe or insert on an insert-only table, so
/// a panic unwinding through a lock holder cannot leave the table
/// half-updated — recovering is strictly better than bricking every
/// future pricing call in the process.
fn memo_lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every price memoized for one problem shape.
struct MemoRow {
    dims: ProblemDims,
    /// Kernel prices; [`KernelCycles::charged`] says which are known (a
    /// kernel priced at zero cycles is charged).
    kernels: KernelCycles,
    setup: Option<u64>,
}

/// A pipeline plus its shared steady-state memo: one row per
/// [`ProblemDims`] it has priced.
///
/// A pricer lives as long as the process (see [`priced_for`]), and a
/// design-space exploration interns one per explored configuration, so
/// the memo is a short, exactly-sized `Vec` probed linearly: a pricer
/// sees a handful of shapes, and two `HashMap`s cost more than twice as
/// many resident bytes per pricer.
pub struct PricedPipeline {
    pipeline: Arc<dyn BackendPipeline>,
    memo: Mutex<Vec<MemoRow>>,
}

impl PricedPipeline {
    /// Wraps a pipeline with a fresh (empty) memo.
    pub fn new(pipeline: Arc<dyn BackendPipeline>) -> Self {
        PricedPipeline {
            pipeline,
            memo: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &Arc<dyn BackendPipeline> {
        &self.pipeline
    }

    /// The memoized value `get` reads from the row for `dims`, if any.
    fn memoized(&self, dims: &ProblemDims, get: impl Fn(&MemoRow) -> Option<u64>) -> Option<u64> {
        memo_lock(&self.memo)
            .iter()
            .find(|row| row.dims == *dims)
            .and_then(get)
    }

    /// Runs `update` on the row for `dims`, appending an empty row (and
    /// growing the table by exactly one) when there is none yet.
    fn memoize<R>(&self, dims: &ProblemDims, update: impl FnOnce(&mut MemoRow) -> R) -> R {
        let mut memo = memo_lock(&self.memo);
        let i = match memo.iter().position(|row| row.dims == *dims) {
            Some(i) => i,
            None => {
                memo.reserve_exact(1);
                memo.push(MemoRow {
                    dims: *dims,
                    kernels: KernelCycles::new(),
                    setup: None,
                });
                memo.len() - 1
            }
        };
        update(&mut memo[i])
    }

    /// Memoized [`BackendPipeline::steady_cycles`].
    ///
    /// Pricing runs outside the lock (it can take milliseconds for large
    /// traces); errors are not memoized so a verification failure
    /// resurfaces on every call. When two callers race on one price, the
    /// first insert wins and both return it.
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the pipeline.
    pub fn kernel_cycles(&self, kernel: KernelId, dims: &ProblemDims) -> tinympc::Result<u64> {
        if let Some(c) = self.memoized(dims, |row| row.kernels.charged(kernel)) {
            return Ok(c);
        }
        let c = self.pipeline.steady_cycles(kernel, dims)?;
        Ok(self.memoize(dims, |row| match row.kernels.charged(kernel) {
            Some(first) => first,
            None => {
                row.kernels.add(kernel, c);
                c
            }
        }))
    }

    /// Memoized [`BackendPipeline::setup_cost`], with the rules of
    /// [`kernel_cycles`](Self::kernel_cycles).
    ///
    /// # Errors
    ///
    /// Propagates verification failures from the pipeline.
    pub fn setup_cycles(&self, dims: &ProblemDims) -> tinympc::Result<u64> {
        if let Some(c) = self.memoized(dims, |row| row.setup) {
            return Ok(c);
        }
        let c = self.pipeline.setup_cost(dims)?;
        Ok(self.memoize(dims, |row| *row.setup.get_or_insert(c)))
    }
}

fn interner() -> &'static Mutex<HashMap<String, Arc<PricedPipeline>>> {
    static INTERNER: OnceLock<Mutex<HashMap<String, Arc<PricedPipeline>>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide shared pricer for `platform`'s configuration,
/// interned by [`BackendPipeline::cache_id`]: two platforms with the same
/// hardware+mapping (however they are named) share one pricer.
pub fn priced_for(platform: &Platform) -> Arc<PricedPipeline> {
    let pipeline = pipeline_for(platform);
    let id = pipeline.cache_id();
    memo_lock(interner())
        .entry(id)
        .or_insert_with(|| Arc::new(PricedPipeline::new(pipeline)))
        .clone()
}

/// The [`KernelExecutor`] every platform hands to the solver: a cheap
/// clone-able handle onto the shared pricer, carrying its own display
/// name (several named platforms can share one pricer).
#[derive(Clone)]
pub struct PipelineExecutor {
    name: String,
    priced: Arc<PricedPipeline>,
}

impl std::fmt::Debug for PipelineExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineExecutor")
            .field("name", &self.name)
            .field("cache_id", &self.priced.pipeline().cache_id())
            .finish()
    }
}

impl PipelineExecutor {
    /// The executor for `platform`, backed by the shared pricer.
    pub fn for_platform(platform: &Platform) -> Self {
        let priced = priced_for(platform);
        PipelineExecutor {
            name: priced.pipeline().name(),
            priced,
        }
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Arc<dyn BackendPipeline> {
        self.priced.pipeline()
    }

    /// The double-emission trace the timing model replays, plus the op
    /// index where the steady-state copy begins (fault injection rewrites
    /// these traces before re-pricing them).
    pub fn timed_trace(&self, kernel: KernelId, dims: &ProblemDims) -> (soc_isa::Trace, usize) {
        self.pipeline().timed_trace(kernel, dims)
    }

    /// Verifier configuration for the backing pipeline.
    pub fn verify_config(&self) -> soc_verify::VerifyConfig {
        self.pipeline().verify_config()
    }
}

impl KernelExecutor for PipelineExecutor {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn kernel_cycles(&mut self, kernel: KernelId, dims: &ProblemDims) -> tinympc::Result<u64> {
        self.priced.kernel_cycles(kernel, dims)
    }

    fn setup_cycles(&mut self, dims: &ProblemDims) -> tinympc::Result<u64> {
        self.priced.setup_cycles(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{
        AccelModel, FaultSurface, KernelLowering, KernelShape, Residency, TuningCandidate,
    };
    use soc_area::AreaBreakdown;
    use soc_cpu::{Accelerator, CoreConfig};
    use soc_isa::Trace;
    use soc_vector::SaturnConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The Rocket pipeline with counted pricing: every kernel costs 0
    /// cycles, set-up costs 0, and horizon-1 shapes fail to price.
    struct Counted {
        inner: Arc<dyn BackendPipeline>,
        kernel_calls: AtomicUsize,
        setup_calls: AtomicUsize,
    }

    impl Counted {
        fn priced() -> (Arc<Counted>, PricedPipeline) {
            let counted = Arc::new(Counted {
                inner: pipeline_for(&Platform::rocket_eigen()),
                kernel_calls: AtomicUsize::new(0),
                setup_calls: AtomicUsize::new(0),
            });
            let priced = PricedPipeline::new(counted.clone());
            (counted, priced)
        }

        fn price(dims: &ProblemDims) -> tinympc::Result<u64> {
            if dims.horizon == 1 {
                return Err(tinympc::Error::BadProblem {
                    reason: "horizon 1".into(),
                });
            }
            Ok(0)
        }
    }

    impl BackendPipeline for Counted {
        fn family(&self) -> &'static str {
            self.inner.family()
        }
        fn core(&self) -> &CoreConfig {
            self.inner.core()
        }
        fn name(&self) -> String {
            self.inner.name()
        }
        fn cache_id(&self) -> String {
            format!("counted {}", self.inner.cache_id())
        }
        fn describe(&self) -> String {
            self.inner.describe()
        }
        fn lowering(&self) -> Box<dyn KernelLowering> {
            self.inner.lowering()
        }
        fn accelerator(&self) -> Box<dyn Accelerator> {
            self.inner.accelerator()
        }
        fn accel_model(&self) -> AccelModel {
            self.inner.accel_model()
        }
        fn area(&self) -> AreaBreakdown {
            self.inner.area()
        }
        fn fault_surface(&self) -> &'static [FaultSurface] {
            self.inner.fault_surface()
        }
        fn standalone_trace(
            &self,
            shape: KernelShape,
            residency: Residency,
            i: usize,
            k: usize,
        ) -> (Trace, usize) {
            self.inner.standalone_trace(shape, residency, i, k)
        }
        fn tuning_candidates(&self) -> Vec<TuningCandidate> {
            self.inner.tuning_candidates()
        }
        fn steady_cycles(&self, _kernel: KernelId, dims: &ProblemDims) -> tinympc::Result<u64> {
            self.kernel_calls.fetch_add(1, Ordering::Relaxed);
            Counted::price(dims)
        }
        fn setup_cost(&self, dims: &ProblemDims) -> tinympc::Result<u64> {
            self.setup_calls.fetch_add(1, Ordering::Relaxed);
            Counted::price(dims)
        }
    }

    #[test]
    fn a_price_of_zero_cycles_is_served_from_the_memo() {
        let (counted, priced) = Counted::priced();
        let other = ProblemDims {
            horizon: 20,
            ..dims()
        };
        for _ in 0..3 {
            for d in [dims(), other] {
                assert_eq!(priced.kernel_cycles(KernelId::ForwardPass1, &d).unwrap(), 0);
                assert_eq!(priced.kernel_cycles(KernelId::UpdateDual1, &d).unwrap(), 0);
                assert_eq!(priced.setup_cycles(&d).unwrap(), 0);
            }
        }
        assert_eq!(counted.kernel_calls.load(Ordering::Relaxed), 4);
        assert_eq!(counted.setup_calls.load(Ordering::Relaxed), 2);
        assert_eq!(memo_lock(&priced.memo).len(), 2, "one row per shape");
    }

    #[test]
    fn a_pricing_error_is_repriced_on_every_call() {
        let (counted, priced) = Counted::priced();
        let bad = ProblemDims {
            horizon: 1,
            ..dims()
        };
        for call in 1..=3 {
            assert!(priced.kernel_cycles(KernelId::ForwardPass1, &bad).is_err());
            assert!(priced.setup_cycles(&bad).is_err());
            assert_eq!(counted.kernel_calls.load(Ordering::Relaxed), call);
            assert_eq!(counted.setup_calls.load(Ordering::Relaxed), call);
        }
        assert!(memo_lock(&priced.memo).is_empty(), "errors leave no row");
    }

    fn dims() -> ProblemDims {
        ProblemDims {
            nx: 12,
            nu: 4,
            horizon: 10,
        }
    }

    #[test]
    fn same_config_shares_one_pricer() {
        let a = priced_for(&Platform::rocket_eigen());
        let mut renamed = Platform::rocket_eigen();
        renamed.name = "Rocket (baseline)".into();
        let b = priced_for(&renamed);
        assert!(Arc::ptr_eq(&a, &b), "renamed clone must share the pricer");
    }

    #[test]
    fn distinct_configs_get_distinct_pricers() {
        let a = priced_for(&Platform::rocket_eigen());
        let b = priced_for(&Platform::rocket_matlib());
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn executor_matches_unmemoized_pipeline() {
        let p = Platform::saturn(CoreConfig::shuttle(), SaturnConfig::v512d256());
        let mut e = PipelineExecutor::for_platform(&p);
        let direct = pipeline_for(&p);
        for k in KernelId::ALL {
            assert_eq!(
                e.kernel_cycles(k, &dims()).unwrap(),
                direct.steady_cycles(k, &dims()).unwrap(),
                "{k}"
            );
        }
    }

    #[test]
    fn executor_keeps_the_platform_display_independent_name() {
        let mut renamed = Platform::rocket_eigen();
        renamed.name = "Rocket (renamed)".into();
        // The executor reports the pipeline's canonical executor name,
        // which ignores the platform rename — matching the old
        // per-family executors.
        let e = PipelineExecutor::for_platform(&renamed);
        assert_eq!(e.name(), "Rocket (Eigen-opt)");
    }
}
