//! Superblock translation and execution — the instruction dispatch of
//! `ExecMode::Fast`.
//!
//! A [`Translation`] lowers every instruction of a
//! [`DecodedProgram`](crate::cpu::DecodedProgram) into a
//! [`MicroOp`] (see the `lrscwait_isa::uop` module docs for the
//! boundary rules). Micro-ops are 1:1 with instructions, so execution
//! can enter at any non-boundary index; [`run_block`] then *threads*
//! through the image — following jumps and taken branches between
//! internal micro-ops in one tight loop — until it reaches a boundary,
//! leaves the text image, or runs past the machine's cycle horizon.
//!
//! # Determinism contract
//!
//! `run_block` charges exactly the interpreter's per-instruction cycle
//! accounting: one `active_cycles` and one `instret` per issued
//! instruction, the same `ready_at` latencies (`+1` base, the divide
//! latency for `div`/`rem`, the branch penalty on every jump and taken
//! branch), and one `stall_cycles` per cycle the pipeline waits between
//! in-block issues. It runs *ahead* of the machine clock; the cycles it
//! has already accounted are recorded in `Core::charged_until` so the
//! per-cycle scheduler and `fast_forward` never double-charge them.
//! Internal micro-ops touch no memory and emit no trace events — in
//! both modes those instructions are trace-silent — so statistics,
//! trace streams, and snapshots stay bit-identical with the
//! interpreter-only `ExecMode::Reference`.

use lrscwait_isa::{AluOp, JumpTarget, MicroOp};

use crate::config::CoreTiming;
use crate::cpu::{Core, DecodedProgram};

/// A fully lowered program image: one [`MicroOp`] per instruction.
///
/// Built once per [`DecodedProgram`](crate::cpu::DecodedProgram) (see
/// `DecodedProgram::translation`) and shared behind an `Arc` by every
/// machine, sweep worker, and snapshot restore using that image.
#[derive(Debug)]
pub struct Translation {
    /// Text base address (micro-op `i` covers `base + 4*i`).
    base: u32,
    /// Lowered micro-ops, index-aligned with `DecodedProgram::instrs`.
    uops: Vec<MicroOp>,
}

impl Translation {
    /// Lowers a decoded program into its micro-op image.
    #[must_use]
    pub fn new(program: &DecodedProgram) -> Translation {
        let base = program.base;
        let len = program.instrs.len() as u32;
        let uops = program
            .instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| MicroOp::lower(instr, base + 4 * i as u32, base, len))
            .collect();
        Translation { base, uops }
    }

    /// Number of micro-ops (== instructions) in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Superblock entry index for `pc`: `Some` only when `pc` lands on
    /// an in-text, aligned, *non-boundary* micro-op. Boundary
    /// instructions and out-of-text pcs return `None` — the caller runs
    /// one interpreter step instead, which performs the architectural
    /// action (or raises the fault) at the correct cycle.
    #[must_use]
    pub fn entry(&self, pc: u32) -> Option<usize> {
        let rel = pc.wrapping_sub(self.base);
        if rel % 4 != 0 {
            return None;
        }
        let idx = (rel / 4) as usize;
        (idx < self.uops.len() && !self.uops[idx].is_boundary()).then_some(idx)
    }
}

/// Where execution continues after one micro-op.
enum Cont {
    /// Fall through to the next index.
    Next,
    /// Pre-resolved control-flow target.
    Target(JumpTarget),
    /// Runtime-computed pc (`jalr`), resolved against the image here.
    Pc(u32),
}

/// Executes one superblock: issues micro-ops starting at `entry` until
/// the next instruction is a boundary, control flow leaves the text
/// image, or the next issue cycle would pass `horizon`.
///
/// Entry invariants (checked by the caller): `now >= core.ready_at`, the
/// request outbox has room, and `uops[entry]` is not a boundary.
/// `now <= horizon` always holds (the horizon is clamped up to `now`).
///
/// On exit `core.pc` points at the next instruction to execute,
/// `core.ready_at` at its earliest issue cycle, and `core.charged_until`
/// at the last cycle already accounted into `core.stats` — later
/// per-cycle visits and `fast_forward` must only charge cycles beyond
/// it.
pub(crate) fn run_block(
    core: &mut Core,
    trans: &Translation,
    entry: usize,
    now: u64,
    horizon: u64,
    timing: &CoreTiming,
) {
    let base = trans.base;
    let len = trans.uops.len() as u32;
    let mut idx = entry;
    let mut t = now;
    let mut instret = 0u64;
    let mut active = 0u64;
    let mut stall = 0u64;
    let (exit_pc, ready) = loop {
        debug_assert!(idx < trans.uops.len());
        // Issue `uops[idx]` at cycle `t`: same accounting as one
        // interpreter step (instret in `Core::execute`, active in the
        // scheduler's pre-step charge).
        instret += 1;
        active += 1;
        let mut ready = t + 1;
        let cont = match trans.uops[idx] {
            MicroOp::Const { rd, imm } => {
                core.set_reg(rd, imm);
                Cont::Next
            }
            MicroOp::AluImm { op, rd, rs1, imm } => {
                core.set_reg(rd, op.eval(core.reg(rs1), imm));
                Cont::Next
            }
            MicroOp::AluReg { op, rd, rs1, rs2 } => {
                core.set_reg(rd, op.eval(core.reg(rs1), core.reg(rs2)));
                if matches!(op, AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu) {
                    ready = t + u64::from(timing.div_latency.max(1));
                }
                Cont::Next
            }
            MicroOp::Jump { rd, link, target } => {
                core.set_reg(rd, link);
                ready = t + 1 + u64::from(timing.branch_penalty);
                Cont::Target(target)
            }
            MicroOp::JumpReg {
                rd,
                rs1,
                offset,
                link,
            } => {
                // rs1 is read before the link write (`jalr ra, 0(ra)`).
                let target = core.reg(rs1).wrapping_add(offset as u32) & !1;
                core.set_reg(rd, link);
                ready = t + 1 + u64::from(timing.branch_penalty);
                Cont::Pc(target)
            }
            MicroOp::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                if op.taken(core.reg(rs1), core.reg(rs2)) {
                    ready = t + 1 + u64::from(timing.branch_penalty);
                    Cont::Target(target)
                } else {
                    Cont::Next
                }
            }
            // The caller never enters at a boundary and the loop exits
            // *before* stepping onto one.
            MicroOp::Boundary => unreachable!("superblock entered at a boundary micro-op"),
        };
        let next = match cont {
            Cont::Next => {
                let next = idx as u32 + 1;
                if next == len {
                    // Fell off the end of the text image: the fetch at
                    // `base + 4*len` faults — hand it to the interpreter.
                    break (base.wrapping_add(4 * len), ready);
                }
                next
            }
            Cont::Target(JumpTarget::Index(i)) => i,
            Cont::Target(JumpTarget::OutOfText(pc)) => break (pc, ready),
            Cont::Pc(pc) => {
                let rel = pc.wrapping_sub(base);
                if rel % 4 == 0 && rel / 4 < len {
                    rel / 4
                } else {
                    break (pc, ready);
                }
            }
        };
        let next_pc = base + 4 * next;
        if trans.uops[next as usize].is_boundary() || ready > horizon {
            break (next_pc, ready);
        }
        // In-block pipeline gap (branch penalty, divide latency): the
        // per-cycle schedulers charge one stall per waited cycle.
        stall += ready - t - 1;
        t = ready;
        idx = next as usize;
    };
    core.pc = exit_pc;
    core.ready_at = ready;
    core.charged_until = t;
    core.stats.instret += instret;
    core.stats.active_cycles += active;
    core.stats.stall_cycles += stall;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_asm::Assembler;

    fn decoded(src: &str) -> DecodedProgram {
        let p = Assembler::new()
            .assemble(src)
            .expect("test program assembles");
        DecodedProgram::from_program(&p).expect("test program decodes")
    }

    #[test]
    fn straight_line_block_runs_to_boundary() {
        let prog = decoded("li a0, 5\nli a1, 7\nadd a2, a0, a1\necall\n");
        let trans = Translation::new(&prog);
        assert_eq!(trans.len(), 4);
        assert_eq!(trans.entry(prog.base), Some(0));
        assert_eq!(trans.entry(prog.base + 12), None, "ecall is a boundary");
        assert_eq!(trans.entry(prog.base + 2), None, "misaligned");

        let mut core = Core::new(0, prog.base);
        run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default());
        assert_eq!(core.reg(lrscwait_isa::Reg::A2), 12);
        assert_eq!(core.pc, prog.base + 12, "stopped at the ecall");
        assert_eq!(core.ready_at, 3);
        assert_eq!(core.charged_until, 2);
        assert_eq!(core.stats.instret, 3);
        assert_eq!(core.stats.active_cycles, 3);
        assert_eq!(core.stats.stall_cycles, 0);
    }

    #[test]
    fn taken_branch_charges_penalty_as_in_block_stall() {
        // Loop: 4 iterations of (addi; bnez), then falls through to ecall.
        let prog = decoded("li t0, 4\nloop: addi t0, t0, -1\nbnez t0, loop\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        let mut core = Core::new(0, prog.base);
        run_block(&mut core, &trans, 0, 0, u64::MAX, &timing);
        assert_eq!(core.reg(lrscwait_isa::Reg::T0), 0);
        assert_eq!(core.pc, prog.base + 12);
        // 9 instructions issue (li + 4×(addi, bnez)); each of the 3
        // taken branches inserts `branch_penalty` stall cycles.
        assert_eq!(core.stats.instret, 9);
        assert_eq!(core.stats.active_cycles, 9);
        assert_eq!(
            core.stats.stall_cycles,
            3 * u64::from(timing.branch_penalty)
        );
    }

    #[test]
    fn horizon_splits_block_without_losing_cycles() {
        let prog = decoded("li a0, 1\nli a1, 2\nli a2, 3\nli a3, 4\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        fn run(core: &mut Core, trans: &Translation, now: u64, horizon: u64, timing: &CoreTiming) {
            let entry = trans.entry(core.pc).expect("re-enterable");
            run_block(core, trans, entry, now, horizon, timing);
        }
        // Horizon 1 → issues at cycles 0 and 1, then must stop.
        let mut split = Core::new(0, prog.base);
        run(&mut split, &trans, 0, 1, &timing);
        assert_eq!(split.stats.active_cycles, 2);
        assert_eq!(split.pc, prog.base + 8, "re-entry point is exact");
        run(&mut split, &trans, 2, u64::MAX, &timing);

        let mut whole = Core::new(0, prog.base);
        run(&mut whole, &trans, 0, u64::MAX, &timing);
        assert_eq!(split.pc, whole.pc);
        assert_eq!(split.ready_at, whole.ready_at);
        assert_eq!(split.stats.instret, whole.stats.instret);
        assert_eq!(split.stats.active_cycles, whole.stats.active_cycles);
        assert_eq!(split.stats.stall_cycles, whole.stats.stall_cycles);
        assert_eq!(split.regs, whole.regs);
    }

    #[test]
    fn divide_latency_matches_interpreter() {
        let prog = decoded("li a0, 100\nli a1, 7\ndiv a2, a0, a1\nrem a3, a0, a1\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        let mut core = Core::new(0, prog.base);
        run_block(&mut core, &trans, 0, 0, u64::MAX, &timing);
        assert_eq!(core.reg(lrscwait_isa::Reg::A2), 14);
        assert_eq!(core.reg(lrscwait_isa::Reg::A3), 2);
        // Issues at 0, 1, 2 (div → ready 2 + div_latency), then the rem
        // at that cycle (ready + div_latency again); exits at the ecall.
        // Only the div→rem gap is an *in-block* stall — the rem's own
        // latency trails the block and is charged per-visit by the
        // scheduler, exactly like the interpreter.
        assert_eq!(core.ready_at, 2 + 2 * u64::from(timing.div_latency));
        assert_eq!(core.charged_until, 2 + u64::from(timing.div_latency));
        assert_eq!(core.stats.active_cycles, 4);
        assert_eq!(core.stats.stall_cycles, u64::from(timing.div_latency) - 1);
    }

    #[test]
    fn jalr_out_of_text_exits_with_runtime_pc() {
        let prog = decoded("li t0, 0x9000\njalr ra, 0(t0)\necall\n");
        let trans = Translation::new(&prog);
        let mut core = Core::new(0, prog.base);
        run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default());
        assert_eq!(core.pc, 0x9000, "interpreter will raise IllegalPc here");
        // `li t0, 0x9000` expands to lui+addi, so the jalr sits at
        // base + 8 and links base + 12.
        assert_eq!(core.reg(lrscwait_isa::Reg::RA), prog.base + 12);
    }
}
