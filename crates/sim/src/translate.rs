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
//! in-block issues. It runs *ahead* of the machine clock; the last cycle
//! it has already accounted is recorded in `Core::charged_until` (the
//! core's stall watermark) so later visits never double-charge it.
//! Internal micro-ops touch no memory and emit no trace events — in
//! both modes those instructions are trace-silent — so statistics,
//! trace streams, and snapshots stay bit-identical with the
//! interpreter-only `ExecMode::Reference`.
//!
//! # Countdown loops
//!
//! Backoff and delay loops are almost always the two-instruction
//! countdown `L: addi r, r, -1; bnez r, L`. [`Translation::new`]
//! recognises it once, at lowering time, and marks the `addi` as a
//! `Slot::Countdown` head; the `bnez` stays an ordinary branch, so the
//! image stays 1:1 and entering at the `bnez` works unchanged. When
//! `run_block` issues a countdown head it retires every *taken*
//! iteration that fits before the horizon arithmetically — each one is
//! two issues and `branch_penalty` stall cycles — and then issues the
//! `addi` normally, so the final fall-through and any horizon split are
//! exactly the interpreter's. Slots outside the idiom pay no extra check.

use lrscwait_isa::{AluOp, BranchOp, JumpTarget, MicroOp, Reg};

use crate::config::CoreTiming;
use crate::cpu::{Core, DecodedProgram};

/// A fully lowered program image: one [`MicroOp`] per instruction.
///
/// Built once per [`DecodedProgram`](crate::cpu::DecodedProgram) (see
/// `DecodedProgram::translation`) and shared behind an `Arc` by every
/// machine, sweep worker, and snapshot restore using that image.
#[derive(Debug)]
pub struct Translation {
    /// Text base address (slot `i` covers `base + 4*i`).
    base: u32,
    /// Lowered slots, index-aligned with `DecodedProgram::instrs`.
    slots: Vec<Slot>,
}

/// One lowered instruction of a [`Translation`].
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Any instruction outside the countdown idiom.
    Op(MicroOp),
    /// `addi r, r, -1` (`r ≠ x0`) whose successor is `bne r, x0` (either
    /// operand order) branching back to it.
    Countdown { r: Reg },
}

impl Slot {
    fn is_boundary(self) -> bool {
        matches!(self, Slot::Op(MicroOp::Boundary))
    }
}

/// The counter `r` when `head` at index `i` and `next` at `i + 1` form the
/// countdown loop `L: addi r, r, -1; bnez r, L`.
fn countdown_reg(i: u32, head: MicroOp, next: MicroOp) -> Option<Reg> {
    let MicroOp::AluImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm: u32::MAX,
    } = head
    else {
        return None;
    };
    let MicroOp::Branch {
        op: BranchOp::Ne,
        rs1: a,
        rs2: b,
        target: JumpTarget::Index(target),
    } = next
    else {
        return None;
    };
    let tests_r = (a == rd && b == Reg::ZERO) || (a == Reg::ZERO && b == rd);
    (rd == rs1 && rd != Reg::ZERO && tests_r && target == i).then_some(rd)
}

impl Translation {
    /// Lowers a decoded program into its micro-op image, marking every
    /// countdown-loop head (see the module docs).
    #[must_use]
    pub fn new(program: &DecodedProgram) -> Translation {
        let base = program.base;
        let len = program.instrs.len() as u32;
        let mut slots: Vec<Slot> = program
            .instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| Slot::Op(MicroOp::lower(instr, base + 4 * i as u32, base, len)))
            .collect();
        for i in 1..slots.len() {
            if let (Slot::Op(head), Slot::Op(next)) = (slots[i - 1], slots[i]) {
                if let Some(r) = countdown_reg(i as u32 - 1, head, next) {
                    slots[i - 1] = Slot::Countdown { r };
                }
            }
        }
        Translation { base, slots }
    }

    /// Number of micro-ops (== instructions) in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
        (idx < self.slots.len() && !self.slots[idx].is_boundary()).then_some(idx)
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
/// request outbox has room, and `slots[entry]` is not a boundary.
/// `now <= horizon` always holds (the horizon is clamped up to `now`).
///
/// On exit `core.pc` points at the next instruction to execute,
/// `core.ready_at` at its earliest issue cycle, and `core.charged_until`
/// at the last issue cycle — the last cycle already accounted into
/// `core.stats`; later visits and statistics flushes charge only the
/// cycles beyond it.
pub(crate) fn run_block(
    core: &mut Core,
    trans: &Translation,
    entry: usize,
    now: u64,
    horizon: u64,
    timing: &CoreTiming,
) {
    let base = trans.base;
    let len = trans.slots.len() as u32;
    let mut idx = entry;
    let mut t = now;
    let mut instret = 0u64;
    let mut active = 0u64;
    let mut stall = 0u64;
    let (exit_pc, ready) = loop {
        debug_assert!(idx < trans.slots.len());
        // Issue `slots[idx]` at cycle `t`: same accounting as one
        // interpreter step (instret in `Core::execute`, active in the
        // scheduler's pre-step charge).
        instret += 1;
        active += 1;
        let mut ready = t + 1;
        let cont = match trans.slots[idx] {
            Slot::Countdown { r } => {
                // `value` counts down to zero (wrapping from 0), so the
                // loop runs `n` iterations and the first `n - 1` take the
                // branch. Retire the taken ones that end by the horizon
                // in one step, then issue this `addi` at the new `t`.
                let value = core.reg(r);
                let n = if value == 0 {
                    1u64 << 32
                } else {
                    u64::from(value)
                };
                let penalty = u64::from(timing.branch_penalty);
                let m = (n - 1).min((horizon - t) / (2 + penalty));
                t += m * (2 + penalty);
                instret += 2 * m;
                active += 2 * m;
                stall += m * penalty;
                ready = t + 1;
                core.set_reg(r, value.wrapping_sub(m as u32).wrapping_sub(1));
                Cont::Next
            }
            Slot::Op(MicroOp::Const { rd, imm }) => {
                core.set_reg(rd, imm);
                Cont::Next
            }
            Slot::Op(MicroOp::AluImm { op, rd, rs1, imm }) => {
                core.set_reg(rd, op.eval(core.reg(rs1), imm));
                Cont::Next
            }
            Slot::Op(MicroOp::AluReg { op, rd, rs1, rs2 }) => {
                core.set_reg(rd, op.eval(core.reg(rs1), core.reg(rs2)));
                if matches!(op, AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu) {
                    ready = t + u64::from(timing.div_latency.max(1));
                }
                Cont::Next
            }
            Slot::Op(MicroOp::Jump { rd, link, target }) => {
                core.set_reg(rd, link);
                ready = t + 1 + u64::from(timing.branch_penalty);
                Cont::Target(target)
            }
            Slot::Op(MicroOp::JumpReg {
                rd,
                rs1,
                offset,
                link,
            }) => {
                // rs1 is read before the link write (`jalr ra, 0(ra)`).
                let target = core.reg(rs1).wrapping_add(offset as u32) & !1;
                core.set_reg(rd, link);
                ready = t + 1 + u64::from(timing.branch_penalty);
                Cont::Pc(target)
            }
            Slot::Op(MicroOp::Branch {
                op,
                rs1,
                rs2,
                target,
            }) => {
                if op.taken(core.reg(rs1), core.reg(rs2)) {
                    ready = t + 1 + u64::from(timing.branch_penalty);
                    Cont::Target(target)
                } else {
                    Cont::Next
                }
            }
            // The caller never enters at a boundary and the loop exits
            // *before* stepping onto one.
            Slot::Op(MicroOp::Boundary) => {
                unreachable!("superblock entered at a boundary micro-op")
            }
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
        if trans.slots[next as usize].is_boundary() || ready > horizon {
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

    /// The one-instruction oracle: issues through `Core::execute` with
    /// `run_block`'s entry and exit rules and its in-block accounting.
    fn step_oracle(
        core: &mut Core,
        prog: &DecodedProgram,
        trans: &Translation,
        now: u64,
        horizon: u64,
        timing: &CoreTiming,
    ) {
        let mut t = now;
        loop {
            core.stats.active_cycles += 1;
            let action = core.execute(prog, t, timing).expect("executes");
            assert_eq!(
                action,
                crate::cpu::Action::Done,
                "oracle never leaves a block"
            );
            core.charged_until = t;
            if trans.entry(core.pc).is_none() || core.ready_at > horizon {
                return;
            }
            core.stats.stall_cycles += core.ready_at - t - 1;
            t = core.ready_at;
        }
    }

    /// Runs one superblock from the core's pc.
    fn block(core: &mut Core, trans: &Translation, now: u64, horizon: u64, timing: &CoreTiming) {
        let entry = trans.entry(core.pc).expect("pc enters a superblock");
        run_block(core, trans, entry, now, horizon, timing);
    }

    fn assert_same(got: &Core, want: &Core, ctx: &str) {
        assert_eq!(got.pc, want.pc, "{ctx}: pc");
        assert_eq!(got.regs, want.regs, "{ctx}: registers");
        assert_eq!(got.ready_at, want.ready_at, "{ctx}: ready_at");
        assert_eq!(
            got.charged_until, want.charged_until,
            "{ctx}: charged_until"
        );
        assert_eq!(got.stats.instret, want.stats.instret, "{ctx}: instret");
        assert_eq!(
            got.stats.active_cycles, want.stats.active_cycles,
            "{ctx}: active_cycles"
        );
        assert_eq!(
            got.stats.stall_cycles, want.stats.stall_cycles,
            "{ctx}: stall_cycles"
        );
    }

    /// Runs `src` from `pc` with `t0 = r` and `t1 = 1` through both the
    /// superblock path and the oracle, starting at cycle 5, and compares
    /// them.
    fn assert_matches_oracle(src: &str, pc_index: u32, r: u32, horizon: u64, penalty: u32) {
        let prog = decoded(src);
        let trans = Translation::new(&prog);
        let timing = CoreTiming {
            branch_penalty: penalty,
            ..CoreTiming::default()
        };
        let mut fast = Core::new(0, prog.base + 4 * pc_index);
        fast.set_reg(Reg::T0, r);
        fast.set_reg(Reg::T1, 1);
        let mut oracle = fast.clone();
        block(&mut fast, &trans, 5, horizon, &timing);
        step_oracle(&mut oracle, &prog, &trans, 5, horizon, &timing);
        let ctx = format!("{src:?} at {pc_index}, t0={r}, horizon={horizon}, penalty={penalty}");
        assert_same(&fast, &oracle, &ctx);
    }

    const COUNTDOWN: &str = "loop: addi t0, t0, -1\nbnez t0, loop\necall\n";

    fn countdown_heads(src: &str) -> Vec<usize> {
        let trans = Translation::new(&decoded(src));
        (0..trans.len())
            .filter(|&i| matches!(trans.slots[i], Slot::Countdown { .. }))
            .collect()
    }

    #[test]
    fn countdown_idiom_is_recognised_in_either_operand_order() {
        assert_eq!(countdown_heads(COUNTDOWN), vec![0]);
        assert_eq!(
            countdown_heads("loop: addi t0, t0, -1\nbne zero, t0, loop\necall\n"),
            vec![0]
        );
        // Only the inner loop of a nest is a countdown.
        assert_eq!(
            countdown_heads(
                "outer: li t1, 3\ninner: addi t1, t1, -1\nbnez t1, inner\n\
                 addi t0, t0, -1\nbnez t0, outer\necall\n"
            ),
            vec![1],
            "the outer loop branches to the `li`, not to its `addi`"
        );
    }

    #[test]
    fn countdown_equals_stepping() {
        for penalty in [0, 1, 3] {
            for r in [1, 2, 7, 2048] {
                assert_matches_oracle(COUNTDOWN, 0, r, u64::MAX, penalty);
            }
        }
    }

    #[test]
    fn countdown_entered_at_the_branch_equals_stepping() {
        for penalty in [0, 1, 3] {
            for r in [0, 1, 2, 7] {
                assert_matches_oracle(COUNTDOWN, 1, r, u64::MAX, penalty);
            }
        }
    }

    #[test]
    fn countdown_with_reversed_operands_equals_stepping() {
        let src = "loop: addi t0, t0, -1\nbne zero, t0, loop\necall\n";
        for penalty in [0, 1, 3] {
            for r in [1, 2, 7, 2048] {
                assert_matches_oracle(src, 0, r, u64::MAX, penalty);
            }
        }
    }

    #[test]
    fn countdown_from_zero_wraps_and_respects_the_horizon() {
        for penalty in [0, 1, 3] {
            for horizon in [5, 6, 7, 40, 1000] {
                assert_matches_oracle(COUNTDOWN, 0, 0, horizon, penalty);
            }
        }
        // Unclamped, `t0 = 0` runs 2^32 iterations; the last one falls
        // through. Check the arithmetic without stepping them.
        let prog = decoded(COUNTDOWN);
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        let period = 2 + u64::from(timing.branch_penalty);
        let mut core = Core::new(0, prog.base);
        block(&mut core, &trans, 0, u64::MAX, &timing);
        let iters = 1u64 << 32;
        assert_eq!(core.reg(Reg::T0), 0);
        assert_eq!(core.pc, prog.base + 8, "stopped at the ecall");
        assert_eq!(core.stats.instret, 2 * iters);
        assert_eq!(core.stats.active_cycles, 2 * iters);
        assert_eq!(
            core.stats.stall_cycles,
            (iters - 1) * u64::from(timing.branch_penalty)
        );
        assert_eq!(core.charged_until, (iters - 1) * period + 1);
        assert_eq!(core.ready_at, (iters - 1) * period + 2);
    }

    #[test]
    fn countdown_split_at_every_horizon_offset_equals_stepping() {
        let prog = decoded(COUNTDOWN);
        let trans = Translation::new(&prog);
        for penalty in [0, 1, 3] {
            let timing = CoreTiming {
                branch_penalty: penalty,
                ..CoreTiming::default()
            };
            let start = |r: u32| {
                let mut core = Core::new(0, prog.base);
                core.set_reg(Reg::T0, r);
                core
            };
            let r = 7;
            let mut whole = start(r);
            block(&mut whole, &trans, 5, u64::MAX, &timing);
            let span = whole.charged_until - 5;
            for horizon in 5..=5 + span {
                let ctx = format!("penalty={penalty}, horizon={horizon}");
                // The split point itself matches the oracle ...
                let mut split = start(r);
                let mut oracle = start(r);
                block(&mut split, &trans, 5, horizon, &timing);
                step_oracle(&mut oracle, &prog, &trans, 5, horizon, &timing);
                assert_same(&split, &oracle, &ctx);
                // ... and resuming from it finishes like the whole run.
                // The cycles between the split and the resume are stalls
                // the scheduler charges; the block never sees them.
                while trans.entry(split.pc).is_some() {
                    let now = split.ready_at;
                    split.stats.stall_cycles += now - 1 - split.charged_until;
                    block(&mut split, &trans, now, u64::MAX, &timing);
                }
                assert_same(&split, &whole, &format!("{ctx}, resumed"));
            }
        }
    }

    #[test]
    fn non_countdown_loops_do_not_collapse() {
        let cases = [
            // Destination x0: the addi is a no-op, the branch never taken.
            ("loop: addi zero, zero, -1\nbnez zero, loop\necall\n", 8),
            // A step other than -1.
            ("loop: addi t0, t0, -2\nbnez t0, loop\necall\n", 8),
            // Source and destination differ.
            ("loop: addi t0, t1, -1\nbnez t0, loop\necall\n", 1),
            // A branch to anything but the addi.
            ("nop\nloop: nop\naddi t0, t0, -1\nbnez t0, loop\necall\n", 5),
            // A branch that tests another register.
            ("loop: addi t0, t0, -1\nbnez t2, loop\necall\n", 3),
            // The wrong condition.
            ("loop: addi t0, t0, -1\nbeqz t0, loop\necall\n", 3),
        ];
        for (src, r) in cases {
            assert_eq!(countdown_heads(src), Vec::<usize>::new(), "{src:?}");
            for penalty in [0, 1, 3] {
                assert_matches_oracle(src, 0, r, u64::MAX, penalty);
                assert_matches_oracle(src, 0, r, 9, penalty);
            }
        }
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
