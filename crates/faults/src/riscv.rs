//! Instruction-level fault injection on the functional RISC-V machine.
//!
//! The harness assembles the repository's reference RV32IMF GEMV kernel,
//! runs it once cleanly, then re-runs it with one instruction-word bit
//! flipped per trial. Flips that break decoding, jump out of memory or
//! hang the program are trapped by the machine ([`soc_riscv::ExecError`]);
//! flips that complete are compared bit-for-bit against the clean output
//! vector. This gives the campaign a ground-truth execution model to
//! contrast with the micro-op-level back-ends.

use matlib::rng::SplitMix64;
use soc_riscv::{assemble, Machine};

/// The same GEMV kernel the `riscv_kernel` example validates against
/// `matlib`: `y[0..m] = A[m×k] · x[k]` with operand bases in `a0..a2`
/// and sizes in `a3`/`a4`.
const GEMV_ASM: &str = r#"
    li   t0, 0            # i
row:
    bge  t0, a3, done
    fmv.w.x ft0, zero     # acc = 0
    li   t1, 0            # j
    mul  t4, t0, a4
    slli t4, t4, 2
    add  t2, a0, t4       # &A[i][0]
    mv   t3, a1           # &x[0]
col:
    bge  t1, a4, rowend
    flw  ft1, (t2)
    flw  ft2, (t3)
    fmadd.s ft0, ft1, ft2, ft0
    addi t2, t2, 4
    addi t3, t3, 4
    addi t1, t1, 1
    j    col
rowend:
    slli t5, t0, 2
    add  t6, a2, t5
    fsw  ft0, (t6)
    addi t0, t0, 1
    j    row
done:
    ecall
"#;

const M: usize = 8;
const K: usize = 8;
const A_BASE: u32 = 0x4000;
const X_BASE: u32 = 0x8000;
const Y_BASE: u32 = 0xc000;

/// Classification counters for instruction-level faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstructionStats {
    /// Bit-flip trials run.
    pub trials: usize,
    /// Flips trapped by the machine (decode failure, out-of-bounds
    /// access, misalignment, or a hang caught by the step budget).
    pub trapped: usize,
    /// Flips whose run completed with a bit-identical output vector.
    pub masked: usize,
    /// Flips whose run completed with a wrong output — silent data
    /// corruption at the ISA level.
    pub silent_wrong: usize,
}

/// Builds a machine loaded with the GEMV program and operands.
fn fresh_machine() -> Result<(Machine, usize), String> {
    let prog = assemble(GEMV_ASM).map_err(|e| format!("assembler: {e}"))?;
    let mut m = Machine::new(64 * 1024);
    m.load_program(0, &prog);
    for r in 0..M {
        for c in 0..K {
            let v = ((r * 3 + c) % 7) as f32 * 0.3 - 0.9;
            m.write_f32(A_BASE + ((r * K + c) * 4) as u32, v)
                .map_err(|e| e.to_string())?;
        }
    }
    for i in 0..K {
        let v = (i % 5) as f32 * 0.4 - 0.8;
        m.write_f32(X_BASE + (i * 4) as u32, v)
            .map_err(|e| e.to_string())?;
    }
    m.set_x(10, A_BASE);
    m.set_x(11, X_BASE);
    m.set_x(12, Y_BASE);
    m.set_x(13, M as u32);
    m.set_x(14, K as u32);
    Ok((m, prog.len()))
}

fn read_output(m: &Machine) -> Result<[u32; M], String> {
    let mut y = [0u32; M];
    for (i, slot) in y.iter_mut().enumerate() {
        *slot = m
            .read_f32(Y_BASE + (i * 4) as u32)
            .map_err(|e| e.to_string())?
            .to_bits();
    }
    Ok(y)
}

/// Runs `trials` single-bit instruction flips, deterministic in `seed`.
///
/// # Errors
///
/// Returns a message if the *clean* baseline fails to assemble or run —
/// faulty runs never error, they are classified.
pub fn run_instruction_campaign(seed: u64, trials: usize) -> Result<InstructionStats, String> {
    let (mut clean, prog_len) = fresh_machine()?;
    let baseline_steps = clean.run(200_000).map_err(|e| format!("baseline: {e}"))?;
    let baseline = read_output(&clean)?;

    let mut rng = SplitMix64::new(seed);
    let mut stats = InstructionStats {
        trials,
        trapped: 0,
        masked: 0,
        silent_wrong: 0,
    };
    for _ in 0..trials {
        let inst = rng.range_usize(0, prog_len - 1);
        let bit = rng.range_usize(0, 31) as u32;
        let (mut m, _) = fresh_machine()?;
        let addr = (inst * 4) as u32;
        // Patch the encoded instruction word in memory: the machine
        // fetches and decodes from memory every step, so the flip is
        // architecturally visible.
        let word = m.read_f32(addr).map_err(|e| e.to_string())?.to_bits();
        m.write_f32(addr, f32::from_bits(word ^ (1 << bit)))
            .map_err(|e| e.to_string())?;
        // Generous step budget: a flip that turns the loop infinite is
        // caught as StepBudgetExhausted, i.e. a watchdog trap.
        match m.run(baseline_steps * 8 + 1_000) {
            Err(_) => stats.trapped += 1,
            Ok(_) => match read_output(&m) {
                Ok(y) if y == baseline => stats.masked += 1,
                _ => stats.silent_wrong += 1,
            },
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_clean() {
        let (mut m, _) = fresh_machine().unwrap();
        m.run(200_000).unwrap();
        let y = read_output(&m).unwrap();
        // Spot-check one element against the closed form.
        let mut acc = 0.0f32;
        for c in 0..K {
            let a = ((c) % 7) as f32 * 0.3 - 0.9;
            let x = (c % 5) as f32 * 0.4 - 0.8;
            acc = a.mul_add(x, acc);
        }
        assert!((f32::from_bits(y[0]) - acc).abs() < 1e-5);
    }

    #[test]
    fn campaign_is_deterministic_and_partitions() {
        let a = run_instruction_campaign(11, 12).unwrap();
        let b = run_instruction_campaign(11, 12).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.trapped + a.masked + a.silent_wrong, a.trials);
    }

    #[test]
    fn some_flips_are_trapped() {
        // With 32 trials over a ~25-instruction program, at least one
        // flip must land in an opcode field and break decoding.
        let s = run_instruction_campaign(5, 32).unwrap();
        assert!(s.trapped > 0, "{s:?}");
    }
}
