//! Fault injectors: wrappers that apply a planned [`Fault`] to solver
//! data, to generated micro-op streams, or to a back-end executor.

use crate::plan::{Fault, FaultKind, FaultSite};
use soc_backend::PipelineExecutor;
use soc_isa::{MicroOp, Payload, RoccCmd, Trace};
use tinympc::{
    KernelExecutor, KernelId, ProblemDims, SolveObserver, TinyMpcCache, TinyMpcWorkspace, WsField,
};

/// Flips one bit of an `f32` word.
fn flip_f32(v: f32, bit: u8) -> f32 {
    f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)))
}

// ---------------------------------------------------------------------
// Data-plane injection (scratchpad words, DMA words, vector registers)
// ---------------------------------------------------------------------

/// A [`SolveObserver`] that corrupts solver data at the fault's chosen
/// iteration.
///
/// - [`FaultSite::ScratchpadWord`] flips a bit of one word of the cached
///   solver matrices (`K∞`, `K∞ᵀ`, `P∞`, `Quu⁻¹`, `(A−BK)ᵀ`, `Bᵀ`) — the
///   data that lives in Gemmini's scratchpad (or the D-cache on scalar
///   cores) for the whole solve.
/// - [`FaultSite::DmaWord`] and [`FaultSite::VectorRegister`] flip a bit
///   of one in-flight workspace word (states, duals, linear-cost terms) —
///   data that crosses the DMA path or is resident in vector registers.
///
/// The fault strikes exactly once; [`DataInjector::injected`] records the
/// human-readable landing site afterwards.
#[derive(Debug, Clone)]
pub struct DataInjector {
    fault: Fault,
    /// Where the fault landed (`None` until it strikes — e.g. the solve
    /// converged before the fault's iteration).
    pub injected: Option<String>,
}

impl DataInjector {
    /// Creates an injector for one planned fault.
    pub fn new(fault: Fault) -> Self {
        DataInjector {
            fault,
            injected: None,
        }
    }

    fn corrupt_cache(&mut self, cache: &mut TinyMpcCache<f32>) {
        let bit = match self.fault.kind {
            FaultKind::BitFlip { bit } => bit,
            _ => 0,
        };
        let names = ["kinf", "kinf_t", "pinf", "quu_inv", "am_bk_t", "b_t"];
        let mats = [
            cache.kinf.as_mut_slice(),
            cache.kinf_t.as_mut_slice(),
            cache.pinf.as_mut_slice(),
            cache.quu_inv.as_mut_slice(),
            cache.am_bk_t.as_mut_slice(),
            cache.b_t.as_mut_slice(),
        ];
        let total: usize = mats.iter().map(|m| m.len()).sum();
        let mut idx = (self.fault.word as usize) % total.max(1);
        for (name, mat) in names.iter().zip(mats) {
            if idx < mat.len() {
                mat[idx] = flip_f32(mat[idx], bit);
                self.injected = Some(format!("{name}[{idx}] bit {bit}"));
                return;
            }
            idx -= mat.len();
        }
    }

    fn corrupt_workspace(&mut self, ws: &mut TinyMpcWorkspace<f32>) {
        let bit = match self.fault.kind {
            FaultKind::BitFlip { bit } => bit,
            _ => 0,
        };
        // Same field order (and therefore the same word → landing-site
        // mapping) as the pre-arena workspace, so seeded campaigns stay
        // deterministic across the refactor.
        let fields = [
            ("x", WsField::X),
            ("y", WsField::Y),
            ("g", WsField::G),
            ("p", WsField::P),
            ("q", WsField::Q),
            ("r", WsField::R),
            ("d", WsField::D),
        ];
        let total: usize = fields
            .iter()
            .map(|&(_, f)| ws.knots(f) * ws.knot_dim(f))
            .sum();
        let mut idx = (self.fault.word as usize) % total.max(1);
        for (name, field) in fields {
            let dim = ws.knot_dim(field);
            let len = ws.knots(field) * dim;
            if idx < len {
                let (k, e) = (idx / dim, idx % dim);
                let v = &mut ws.knot_mut(field, k)[e];
                *v = flip_f32(*v, bit);
                self.injected = Some(format!("{name}[{k}][{e}] bit {bit}"));
                return;
            }
            idx -= len;
        }
    }
}

impl SolveObserver<f32> for DataInjector {
    fn after_iteration(
        &mut self,
        iteration: usize,
        cache: &mut TinyMpcCache<f32>,
        workspace: &mut TinyMpcWorkspace<f32>,
    ) {
        if self.injected.is_some() || iteration != self.fault.iteration {
            return;
        }
        match self.fault.site {
            FaultSite::ScratchpadWord => self.corrupt_cache(cache),
            FaultSite::DmaWord | FaultSite::VectorRegister => self.corrupt_workspace(workspace),
            // Command-stream and instruction faults are injected by
            // `FaultyExecutor` / the RISC-V harness, not here.
            FaultSite::RoccCommand | FaultSite::InstructionWord => {}
        }
    }
}

// ---------------------------------------------------------------------
// Command-stream injection (RoCC micro-ops)
// ---------------------------------------------------------------------

/// Applies a command-stream fault to a generated micro-op trace.
///
/// Only RoCC-carrying ops are targeted (the fault models a corrupted
/// command in flight to Gemmini); traces without RoCC ops are returned
/// unchanged. The op index is chosen deterministically from the fault's
/// entropy word.
pub fn corrupt_trace(trace: &Trace, fault: &Fault) -> Trace {
    let rocc: Vec<usize> = trace
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.payload, Payload::Rocc(_)))
        .map(|(i, _)| i)
        .collect();
    if rocc.is_empty() {
        return trace.ops().iter().copied().collect();
    }
    let victim = rocc[(fault.word as usize) % rocc.len()];
    let mut ops: Vec<MicroOp> = trace.ops().to_vec();
    match fault.kind {
        FaultKind::DroppedOp => {
            ops.remove(victim);
        }
        FaultKind::BitFlip { bit } => {
            if let Payload::Rocc(cmd) = &mut ops[victim].payload {
                match cmd {
                    // Flip a bit of the scratchpad address in flight.
                    RoccCmd::Mvin { base, .. } | RoccCmd::Mvout { base, .. } => {
                        *base ^= 1 << (bit % 20)
                    }
                    RoccCmd::ComputeTile { out_base, .. } => *out_base ^= 1 << (bit % 20),
                    // Shape-carrying FSM command: flip a dimension bit.
                    RoccCmd::LoopMatmul { m, .. } => *m ^= 1 << (bit % 12),
                    // Payload-free commands: the flip lands in reserved
                    // bits and is architecturally absorbed.
                    _ => {}
                }
            }
        }
        FaultKind::CorruptedField => {
            if let Payload::Rocc(cmd) = &mut ops[victim].payload {
                match cmd {
                    // Blow up the tile shape: the transfer now walks far
                    // past the end of the scratchpad.
                    RoccCmd::Mvin { rows, .. } | RoccCmd::Mvout { rows, .. } => *rows = u16::MAX,
                    RoccCmd::ComputeTile { rows, .. } => *rows = u16::MAX,
                    RoccCmd::LoopMatmul { m, .. } => *m = u16::MAX,
                    _ => {}
                }
            }
        }
    }
    ops.into_iter().collect()
}

// ---------------------------------------------------------------------
// Back-end executors with injection
// ---------------------------------------------------------------------

/// What happened to a command-stream fault routed through a
/// [`FaultyExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFaultOutcome {
    /// The targeted pricing call has not happened yet.
    #[default]
    Pending,
    /// The static verifier rejected the corrupted stream.
    Detected,
    /// The corrupted stream passed verification (a candidate silent
    /// corruption).
    Undetected,
}

/// An executor wrapper that corrupts the micro-op stream of one pricing
/// call — chosen deterministically from the fault's entropy word — and
/// verifies the corrupted stream **unconditionally** (fault campaigns
/// must behave the same in release builds).
///
/// If the verifier flags the stream, the call fails with
/// [`tinympc::Error::InvalidTrace`] and the solver's recovery path takes
/// over; otherwise the nominal cost is charged and
/// [`FaultyExecutor::outcome`] records the escape.
#[derive(Debug, Clone)]
pub struct FaultyExecutor {
    inner: PipelineExecutor,
    fault: Fault,
    target_call: u64,
    calls: u64,
    /// Detection outcome of the injected command-stream fault.
    pub outcome: TraceFaultOutcome,
}

impl FaultyExecutor {
    /// Wraps `inner`, scheduling `fault` on one of the first 64 pricing
    /// calls.
    pub fn new(inner: PipelineExecutor, fault: Fault) -> Self {
        FaultyExecutor {
            inner,
            fault,
            target_call: fault.word % 64,
            calls: 0,
            outcome: TraceFaultOutcome::Pending,
        }
    }
}

impl KernelExecutor for FaultyExecutor {
    fn name(&self) -> String {
        format!("{} + fault({})", self.inner.name(), self.fault)
    }

    fn kernel_cycles(&mut self, kernel: KernelId, dims: &ProblemDims) -> tinympc::Result<u64> {
        let call = self.calls;
        self.calls += 1;
        if call == self.target_call && self.outcome == TraceFaultOutcome::Pending {
            let bad = corrupt_trace(&self.inner.timed_trace(kernel, dims).0, &self.fault);
            let report = soc_verify::verify(&bad, &self.inner.verify_config());
            if report.error_count() > 0 {
                self.outcome = TraceFaultOutcome::Detected;
                return Err(tinympc::Error::InvalidTrace {
                    backend: self.inner.name(),
                    report: report.render(),
                });
            }
            self.outcome = TraceFaultOutcome::Undetected;
        }
        self.inner.kernel_cycles(kernel, dims)
    }

    fn setup_cycles(&mut self, dims: &ProblemDims) -> tinympc::Result<u64> {
        self.inner.setup_cycles(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_backend::Platform;

    fn dims() -> ProblemDims {
        ProblemDims {
            nx: 12,
            nu: 4,
            horizon: 10,
        }
    }

    fn gemmini() -> PipelineExecutor {
        let p = Platform::table1_registry()
            .into_iter()
            .find(|p| p.name == "OSGemminiRocket32KB")
            .expect("registry platform");
        PipelineExecutor::for_platform(&p)
    }

    #[test]
    fn corrupted_field_is_caught_by_verifier() {
        let e = gemmini();
        let trace = e.timed_trace(KernelId::ForwardPass2, &dims()).0;
        let fault = Fault {
            site: FaultSite::RoccCommand,
            kind: FaultKind::CorruptedField,
            iteration: 1,
            word: 3,
        };
        let bad = corrupt_trace(&trace, &fault);
        let report = soc_verify::verify(&bad, &e.verify_config());
        assert!(
            report.error_count() > 0,
            "u16::MAX tile rows must overrun the scratchpad:\n{}",
            report.render()
        );
    }

    #[test]
    fn scalar_traces_have_no_rocc_ops_to_corrupt() {
        let p = Platform::table1_registry()
            .into_iter()
            .find(|p| p.name == "Rocket")
            .unwrap();
        let e = PipelineExecutor::for_platform(&p);
        let trace = e.timed_trace(KernelId::ForwardPass1, &dims()).0;
        let fault = Fault {
            site: FaultSite::RoccCommand,
            kind: FaultKind::DroppedOp,
            iteration: 1,
            word: 11,
        };
        assert_eq!(corrupt_trace(&trace, &fault).len(), trace.len());
    }

    #[test]
    fn bit_flip_changes_exactly_one_f32_bit() {
        let v = 1.5f32;
        let w = flip_f32(v, 31);
        assert_eq!(w, -1.5);
        assert_eq!(flip_f32(w, 31), v);
    }
}
