//! In-order single-issue core model (Snitch-like).
//!
//! The core executes all non-memory instructions internally in one cycle
//! (with configurable penalties for taken branches and division) and hands
//! memory operations to the engine as [`MemIntent`]s. While a blocking
//! memory operation is outstanding the core is *asleep*: it issues nothing
//! and consumes no network bandwidth — the property the LRSCwait extension
//! exploits.

use std::sync::{Arc, OnceLock};

use lrscwait_isa::{AluOp, AmoOp, Csr, CsrOp, Instr, MemWidth, Reg};
use lrscwait_trace::OpKind;

use crate::config::CoreTiming;
use crate::stats::CoreStats;
use crate::translate::Translation;

/// The trace [`OpKind`] a blocking atomic parks a core under — the
/// "cause" attached to the simulator's park/wake trace events and the
/// label Perfetto sleep spans carry.
#[must_use]
pub fn amo_op_kind(op: AmoOp) -> OpKind {
    match op {
        AmoOp::Lr => OpKind::Lr,
        AmoOp::Sc => OpKind::Sc,
        AmoOp::LrWait => OpKind::LrWait,
        AmoOp::ScWait => OpKind::ScWait,
        AmoOp::MWait => OpKind::MWait,
        _ => OpKind::Amo,
    }
}

/// A decoded program image shared by all cores — and, behind an
/// [`std::sync::Arc`], by all machines of a sweep: decoding (and the
/// text/raw/source-line buffers) happens once per distinct program, not
/// once per [`crate::Machine`].
#[derive(Debug)]
pub struct DecodedProgram {
    /// ROM base address.
    pub base: u32,
    /// Decoded instructions.
    pub instrs: Vec<Instr>,
    /// Raw words (for loads from the ROM region).
    pub raw: Vec<u32>,
    /// 1-based source line per word (diagnostics).
    pub source_lines: Vec<u32>,
    /// Entry point every core starts at.
    pub entry: u32,
    /// Base address of the initialized data image.
    pub data_base: u32,
    /// Initialized data image (byte-addressed, little-endian words).
    pub data: Vec<u8>,
    /// Base address of the zero-initialized segment.
    pub bss_base: u32,
    /// Size in bytes of the zero-initialized segment.
    pub bss_size: u32,
    /// Lazily-built superblock translation for `ExecMode::Fast`
    /// (see [`Translation`]). Built at most once per program image and
    /// shared by every machine (and every snapshot restore) holding this
    /// `DecodedProgram` — sweeps that share the image behind an `Arc`
    /// translate once.
    translation: OnceLock<Arc<Translation>>,
}

impl Clone for DecodedProgram {
    fn clone(&self) -> DecodedProgram {
        DecodedProgram {
            base: self.base,
            instrs: self.instrs.clone(),
            raw: self.raw.clone(),
            source_lines: self.source_lines.clone(),
            entry: self.entry,
            data_base: self.data_base,
            data: self.data.clone(),
            bss_base: self.bss_base,
            bss_size: self.bss_size,
            // A clone is the same program image, so the translation (if
            // already built) stays valid and is shared, not rebuilt.
            translation: self
                .translation
                .get()
                .map_or_else(OnceLock::new, |t| OnceLock::from(Arc::clone(t))),
        }
    }
}

impl DecodedProgram {
    /// Decodes an assembled [`lrscwait_asm::Program`] into a shareable
    /// image.
    ///
    /// # Errors
    ///
    /// Returns the index of the first text word that does not decode.
    pub fn from_program(program: &lrscwait_asm::Program) -> Result<DecodedProgram, usize> {
        let mut instrs = Vec::with_capacity(program.text.len());
        for (index, &word) in program.text.iter().enumerate() {
            match lrscwait_isa::decode(word) {
                Ok(i) => instrs.push(i),
                Err(_) => return Err(index),
            }
        }
        Ok(DecodedProgram {
            base: program.text_base,
            instrs,
            raw: program.text.clone(),
            source_lines: program.source_lines.clone(),
            entry: program.entry,
            data_base: program.data_base,
            data: program.data.clone(),
            bss_base: program.bss_base,
            bss_size: program.bss_size,
            translation: OnceLock::new(),
        })
    }

    /// Index of `pc` within the program, if in range and aligned.
    #[must_use]
    pub fn index_of(&self, pc: u32) -> Option<usize> {
        if pc < self.base || pc % 4 != 0 {
            return None;
        }
        let idx = ((pc - self.base) / 4) as usize;
        (idx < self.instrs.len()).then_some(idx)
    }

    /// The superblock translation of this image, built on first use and
    /// cached for the lifetime of the `DecodedProgram` (machines,
    /// restores, and sweep workers all share the same `Arc`).
    #[must_use]
    pub fn translation(&self) -> &Arc<Translation> {
        self.translation
            .get_or_init(|| Arc::new(Translation::new(self)))
    }
}

/// Scheduling state of one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreState {
    /// Fetching and executing.
    Running,
    /// Blocked on a memory response (sleeping, no traffic).
    WaitingMem,
    /// Parked at the hardware barrier.
    Barrier,
    /// Finished (`ecall` or MMIO EXIT).
    Halted,
}

/// What kind of response the core is waiting for, and how to write it back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingKind {
    /// Plain load; extract `width` at `addr`'s byte lane, sign-extend if set.
    Load { width: MemWidth, signed: bool },
    /// Value-returning atomic (`amo*`, `lr`, `lrwait`, `mwait`).
    Value,
    /// Success-flag atomic (`sc`, `scwait`): rd = 0 on success, 1 on failure.
    Flag,
}

/// An in-flight blocking memory operation.
#[derive(Clone, Copy, Debug)]
pub struct PendingMem {
    /// Destination register.
    pub rd: Reg,
    /// Unaligned byte address of the access.
    pub addr: u32,
    /// Writeback discipline.
    pub kind: PendingKind,
}

/// A memory operation the engine must carry out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemIntent {
    /// Load `width` bytes at `addr` into `rd`.
    Load {
        addr: u32,
        rd: Reg,
        width: MemWidth,
        signed: bool,
    },
    /// Store `width` bytes of `value` at `addr`.
    Store {
        addr: u32,
        value: u32,
        width: MemWidth,
    },
    /// Atomic operation at word-aligned `addr`. `operand` is rs2's value.
    Atomic {
        addr: u32,
        rd: Reg,
        op: AmoOp,
        operand: u32,
    },
    /// Drain the store buffer.
    Fence,
}

/// Outcome of executing one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Instruction fully retired inside the core.
    Done,
    /// Memory operation; `pc` was *not* advanced — the engine advances it
    /// once the operation is accepted.
    Mem(MemIntent),
    /// `ecall`: halt this core.
    Halt,
}

/// Execution error (turned into a simulator error with context).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Fetch outside the program image.
    IllegalPc(u32),
    /// `ebreak` executed.
    Breakpoint(u32),
    /// Misaligned load/store/atomic.
    Misaligned { pc: u32, addr: u32 },
}

/// Architectural and scheduling state of one core.
#[derive(Clone, Debug)]
pub struct Core {
    /// Hart id.
    pub id: u32,
    /// Register file (x0 kept zero).
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Scheduling state.
    pub state: CoreState,
    /// Earliest cycle the next instruction may issue.
    pub ready_at: u64,
    /// Last cycle the superblock fast path has already charged into
    /// `stats` for this core (superblocks run ahead of the machine
    /// clock; per-cycle visits before this point must not double-count
    /// stalls, and `fast_forward` must not re-credit them). Only
    /// `ExecMode::Fast` runs superblocks, so the reference stepper leaves
    /// it at `0`; transient simulation state, never serialized —
    /// snapshots reset it on restore.
    pub charged_until: u64,
    /// Cycle at which the core last entered `WaitingMem` or `Barrier`
    /// (event-driven lazy accounting: the sleep/barrier cycle total is
    /// settled as a single delta on wake instead of one increment per
    /// parked cycle).
    pub parked_at: u64,
    /// In-flight blocking operation (when `state == WaitingMem`).
    pub pending: Option<PendingMem>,
    /// Posted stores awaiting acknowledgement.
    pub outstanding_stores: u32,
    /// Per-core statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates a core with cleared registers starting at `entry`.
    #[must_use]
    pub fn new(id: u32, entry: u32) -> Core {
        Core {
            id,
            regs: [0; 32],
            pc: entry,
            state: CoreState::Running,
            ready_at: 0,
            charged_until: 0,
            parked_at: 0,
            pending: None,
            outstanding_stores: 0,
            stats: CoreStats::default(),
        }
    }

    /// Reads a register (x0 reads zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a register (writes to x0 are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Executes one instruction at `pc`.
    ///
    /// Non-memory instructions retire here (advancing `pc` and applying
    /// branch/divide penalties to `ready_at`); memory operations are
    /// returned as intents with `pc` left pointing at the instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on illegal fetch, `ebreak`, or misalignment.
    pub fn execute(
        &mut self,
        program: &DecodedProgram,
        now: u64,
        timing: &CoreTiming,
    ) -> Result<Action, ExecError> {
        let idx = program
            .index_of(self.pc)
            .ok_or(ExecError::IllegalPc(self.pc))?;
        let instr = program.instrs[idx];
        self.stats.instret += 1;
        self.ready_at = now + 1;
        match instr {
            Instr::Lui { rd, imm } => {
                self.set_reg(rd, imm);
                self.pc += 4;
                Ok(Action::Done)
            }
            Instr::Auipc { rd, imm } => {
                self.set_reg(rd, self.pc.wrapping_add(imm));
                self.pc += 4;
                Ok(Action::Done)
            }
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, self.pc + 4);
                self.pc = self.pc.wrapping_add(offset as u32);
                self.ready_at = now + 1 + u64::from(timing.branch_penalty);
                Ok(Action::Done)
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, self.pc + 4);
                self.pc = target;
                self.ready_at = now + 1 + u64::from(timing.branch_penalty);
                Ok(Action::Done)
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if op.taken(self.reg(rs1), self.reg(rs2)) {
                    self.pc = self.pc.wrapping_add(offset as u32);
                    self.ready_at = now + 1 + u64::from(timing.branch_penalty);
                } else {
                    self.pc += 4;
                }
                Ok(Action::Done)
            }
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                check_alignment(self.pc, addr, width)?;
                Ok(Action::Mem(MemIntent::Load {
                    addr,
                    rd,
                    width,
                    signed,
                }))
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                check_alignment(self.pc, addr, width)?;
                Ok(Action::Mem(MemIntent::Store {
                    addr,
                    value: self.reg(rs2),
                    width,
                }))
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm as u32));
                self.pc += 4;
                Ok(Action::Done)
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
                if matches!(op, AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu) {
                    self.ready_at = now + u64::from(timing.div_latency.max(1));
                }
                self.pc += 4;
                Ok(Action::Done)
            }
            Instr::Fence => Ok(Action::Mem(MemIntent::Fence)),
            Instr::Ecall => Ok(Action::Halt),
            Instr::Ebreak => Err(ExecError::Breakpoint(self.pc)),
            Instr::Csr {
                op,
                rd,
                rs1,
                csr,
                imm_form,
            } => {
                let old = self.read_csr(csr, now);
                let operand = if imm_form {
                    u32::from(rs1.index())
                } else {
                    self.reg(rs1)
                };
                // Writable CSRs are not modelled; the value computation is
                // performed for architectural completeness.
                let _ = match op {
                    CsrOp::ReadWrite => operand,
                    CsrOp::ReadSet => old | operand,
                    CsrOp::ReadClear => old & !operand,
                };
                self.set_reg(rd, old);
                self.pc += 4;
                Ok(Action::Done)
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                let addr = self.reg(rs1);
                check_alignment(self.pc, addr, MemWidth::Word)?;
                Ok(Action::Mem(MemIntent::Atomic {
                    addr,
                    rd,
                    op,
                    operand: self.reg(rs2),
                }))
            }
        }
    }

    fn read_csr(&self, csr: u16, now: u64) -> u32 {
        match Csr::from_address(csr) {
            Some(Csr::MHartId) => self.id,
            Some(Csr::Cycle) => now as u32,
            Some(Csr::CycleH) => (now >> 32) as u32,
            Some(Csr::InstRet) => self.stats.instret as u32,
            Some(Csr::InstRetH) => (self.stats.instret >> 32) as u32,
            None => 0,
        }
    }

    /// Completes an in-flight load/atomic with the raw word `value`.
    ///
    /// # Panics
    ///
    /// Panics when no operation is pending (engine bug).
    pub fn complete(&mut self, value: u32, now: u64) {
        let pending = self.pending.take().expect("completion without pending op");
        let result = match pending.kind {
            PendingKind::Load { width, signed } => extract(value, pending.addr, width, signed),
            PendingKind::Value => value,
            PendingKind::Flag => value, // engine passes 0/1 directly
        };
        self.set_reg(pending.rd, result);
        self.state = CoreState::Running;
        self.ready_at = now;
    }
}

/// Extracts a (possibly sub-word) load result from a full memory word.
#[must_use]
pub fn extract(word: u32, addr: u32, width: MemWidth, signed: bool) -> u32 {
    let shift = 8 * (addr & 3);
    match (width, signed) {
        (MemWidth::Word, _) => word,
        (MemWidth::Half, false) => (word >> shift) & 0xFFFF,
        (MemWidth::Half, true) => ((word >> shift) & 0xFFFF) as u16 as i16 as i32 as u32,
        (MemWidth::Byte, false) => (word >> shift) & 0xFF,
        (MemWidth::Byte, true) => ((word >> shift) & 0xFF) as u8 as i8 as i32 as u32,
    }
}

/// Builds the (aligned address, shifted value, byte mask) triple of a store.
#[must_use]
pub fn store_lanes(addr: u32, value: u32, width: MemWidth) -> (u32, u32, u32) {
    let shift = 8 * (addr & 3);
    match width {
        MemWidth::Word => (addr, value, !0),
        MemWidth::Half => (addr & !3, (value & 0xFFFF) << shift, 0xFFFFu32 << shift),
        MemWidth::Byte => (addr & !3, (value & 0xFF) << shift, 0xFFu32 << shift),
    }
}

fn check_alignment(pc: u32, addr: u32, width: MemWidth) -> Result<(), ExecError> {
    let ok = match width {
        MemWidth::Byte => true,
        MemWidth::Half => addr % 2 == 0,
        MemWidth::Word => addr % 4 == 0,
    };
    if ok {
        Ok(())
    } else {
        Err(ExecError::Misaligned { pc, addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_asm::Assembler;

    fn program(src: &str) -> DecodedProgram {
        let p = Assembler::new()
            .assemble(src)
            .expect("test program assembles");
        DecodedProgram::from_program(&p).expect("test program decodes")
    }

    fn run_steps(core: &mut Core, prog: &DecodedProgram, steps: usize) {
        let timing = CoreTiming::default();
        for step in 0..steps {
            match core.execute(prog, step as u64, &timing).unwrap() {
                Action::Done => {}
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn arithmetic_sequence() {
        let prog = program("li a0, 5\nli a1, 7\nadd a2, a0, a1\nsub a3, a0, a1\n");
        let mut core = Core::new(0, prog.base);
        run_steps(&mut core, &prog, 4);
        assert_eq!(core.reg(Reg::A2), 12);
        assert_eq!(core.reg(Reg::A3), (-2i32) as u32);
        assert_eq!(core.stats.instret, 4);
    }

    #[test]
    fn x0_stays_zero() {
        let prog = program("li zero, 5\naddi zero, zero, 3\n");
        let mut core = Core::new(0, prog.base);
        run_steps(&mut core, &prog, 2);
        assert_eq!(core.reg(Reg::ZERO), 0);
    }

    #[test]
    fn branch_taken_applies_penalty() {
        let prog = program("li t0, 1\nbnez t0, target\nli a0, 111\ntarget: li a0, 222\n");
        let mut core = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        core.execute(&prog, 0, &timing).unwrap(); // li
        core.execute(&prog, 1, &timing).unwrap(); // bnez taken
        assert_eq!(core.ready_at, 1 + 1 + u64::from(timing.branch_penalty));
        core.execute(&prog, core.ready_at, &timing).unwrap();
        assert_eq!(core.reg(Reg::A0), 222, "branch skipped the first li");
    }

    #[test]
    fn jal_links_and_jumps() {
        let prog = program("_start: jal ra, fwd\nli a0, 1\nfwd: li a0, 2\n");
        let mut core = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        core.execute(&prog, 0, &timing).unwrap();
        assert_eq!(core.reg(Reg::RA), prog.base + 4);
        core.execute(&prog, 3, &timing).unwrap();
        assert_eq!(core.reg(Reg::A0), 2);
    }

    #[test]
    fn division_takes_longer() {
        let prog = program("li a0, 100\nli a1, 7\ndiv a2, a0, a1\nrem a3, a0, a1\n");
        let mut core = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        core.execute(&prog, 0, &timing).unwrap();
        core.execute(&prog, 1, &timing).unwrap();
        core.execute(&prog, 2, &timing).unwrap();
        assert_eq!(core.reg(Reg::A2), 14);
        assert_eq!(core.ready_at, 2 + u64::from(timing.div_latency));
        core.execute(&prog, core.ready_at, &timing).unwrap();
        assert_eq!(core.reg(Reg::A3), 2);
    }

    #[test]
    fn memory_intents_do_not_advance_pc() {
        let prog = program("lw a0, 8(a1)\n");
        let mut core = Core::new(0, prog.base);
        core.set_reg(Reg::A1, 0x100);
        let timing = CoreTiming::default();
        let action = core.execute(&prog, 0, &timing).unwrap();
        assert_eq!(
            action,
            Action::Mem(MemIntent::Load {
                addr: 0x108,
                rd: Reg::A0,
                width: MemWidth::Word,
                signed: true
            })
        );
        assert_eq!(core.pc, prog.base, "pc stays until the engine accepts");
    }

    #[test]
    fn csr_reads() {
        let prog = program("csrr a0, mhartid\nrdcycle a1\n");
        let mut core = Core::new(9, prog.base);
        let timing = CoreTiming::default();
        core.execute(&prog, 5, &timing).unwrap();
        assert_eq!(core.reg(Reg::A0), 9);
        core.execute(&prog, 123, &timing).unwrap();
        assert_eq!(core.reg(Reg::A1), 123);
    }

    #[test]
    fn halting_and_breakpoints() {
        let prog = program("ecall\nebreak\n");
        let mut core = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        assert_eq!(core.execute(&prog, 0, &timing), Ok(Action::Halt));
        core.pc += 4;
        assert_eq!(
            core.execute(&prog, 1, &timing),
            Err(ExecError::Breakpoint(prog.base + 4))
        );
    }

    #[test]
    fn misaligned_detected() {
        let prog = program("lw a0, 2(zero)\n");
        let mut core = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        assert!(matches!(
            core.execute(&prog, 0, &timing),
            Err(ExecError::Misaligned { .. })
        ));
    }

    #[test]
    fn extract_subwords() {
        let word = 0x8476_FF80;
        assert_eq!(extract(word, 0, MemWidth::Byte, false), 0x80);
        assert_eq!(extract(word, 0, MemWidth::Byte, true), 0xFFFF_FF80);
        assert_eq!(extract(word, 1, MemWidth::Byte, false), 0xFF);
        assert_eq!(extract(word, 3, MemWidth::Byte, true), 0xFFFF_FF84);
        assert_eq!(extract(word, 0, MemWidth::Half, false), 0xFF80);
        assert_eq!(extract(word, 0, MemWidth::Half, true), 0xFFFF_FF80);
        assert_eq!(extract(word, 2, MemWidth::Half, false), 0x8476);
        assert_eq!(extract(word, 0, MemWidth::Word, true), word);
    }

    #[test]
    fn store_lane_building() {
        assert_eq!(
            store_lanes(0x100, 0xAABBCCDD, MemWidth::Word),
            (0x100, 0xAABBCCDD, !0)
        );
        let (a, v, m) = store_lanes(0x101, 0xEE, MemWidth::Byte);
        assert_eq!((a, v, m), (0x100, 0xEE00, 0xFF00));
        let (a, v, m) = store_lanes(0x102, 0x1234, MemWidth::Half);
        assert_eq!((a, v, m), (0x100, 0x1234_0000, 0xFFFF_0000));
    }
}
