//! Micro-op forms for the translated fast path.
//!
//! `lrscwait-sim`'s `ExecMode::Fast` pre-lowers each decoded
//! instruction into one [`MicroOp`] — a resolved, execution-ready form in
//! which PC-relative arithmetic (`auipc`, `jal`/branch targets, link
//! values) has been folded into constants and control-flow targets have
//! been rewritten as *instruction indices* into the text image wherever
//! they land inside it. A run of non-[`MicroOp::Boundary`] micro-ops is a
//! *superblock*: the simulator can execute it as one tight loop without
//! re-dispatching through the full instruction `match`, because nothing
//! in the run touches memory, CSRs, or the synchronization fabric.
//!
//! # Boundary rules
//!
//! An instruction lowers to [`MicroOp::Boundary`] — forcing an exit back
//! to the cycle-accurate interpreter — exactly when the memory system,
//! the NoC, the synchronization adapters, or the timing model must
//! observe the core executing it:
//!
//! | Instruction class | Why it is a boundary |
//! |---|---|
//! | `lw`/`lb`/`lh`/… loads | NoC request/response, bank arbitration |
//! | `sw`/`sb`/`sh` stores | store buffer occupancy, backpressure |
//! | `amo*`, `lr`/`sc`, `lrwait`/`scwait`/`mwait` | adapter state machines, parking |
//! | `csrr*` | reads the live cycle counter |
//! | `fence` | drains the store buffer |
//! | `ecall`, `ebreak` | halt / trap, observed by the run loop |
//!
//! Everything else (ALU, `lui`/`auipc`, jumps, branches) executes inside
//! a superblock with per-instruction cycle charging identical to the
//! interpreter, so statistics and traces stay bit-identical.
//!
//! Micro-ops are 1:1 with instructions (index `i` covers `base + 4*i`),
//! so execution can *enter* a superblock at any non-boundary index —
//! there is no block-head restriction to keep re-entry after a wake or
//! snapshot restore exact.

use crate::{AluOp, BranchOp, Instr, Reg};

/// A resolved control-flow target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JumpTarget {
    /// Target lies inside the translated text image at this instruction
    /// index (`pc = base + 4 * index`).
    Index(u32),
    /// Target pc falls outside the text image (or is misaligned); the
    /// executor must exit the superblock and let the interpreter raise
    /// the architectural fault at the right cycle.
    OutOfText(u32),
}

/// One lowered instruction of the translated fast path.
///
/// See the `uop` module-level docs for the boundary rules. Link values and
/// PC-relative immediates are pre-folded at lowering time, so executing
/// a micro-op never needs the original `pc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroOp {
    /// `rd = imm` — `lui`, and `auipc` with the pc folded in.
    Const { rd: Reg, imm: u32 },
    /// Register–immediate ALU op (immediate sign-extended at lowering).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    /// Register–register ALU op (division class carries extra latency,
    /// charged by the executor).
    AluReg {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `jal`: `rd = link` (pre-computed `pc + 4`), continue at `target`.
    Jump {
        rd: Reg,
        link: u32,
        target: JumpTarget,
    },
    /// `jalr`: target is `(rs1 + offset) & !1`, resolved at run time;
    /// `rd = link` afterwards (`rs1` is read *before* the link write, so
    /// `jalr ra, 0(ra)` behaves architecturally).
    JumpReg {
        rd: Reg,
        rs1: Reg,
        offset: i32,
        link: u32,
    },
    /// Conditional branch with a pre-resolved taken-target.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: JumpTarget,
    },
    /// Any instruction the timing model must observe (loads, stores,
    /// atomics, CSR, fence, ecall, ebreak): exit to the interpreter.
    Boundary,
}

impl MicroOp {
    /// Lowers one decoded instruction at `pc` into its micro-op, given
    /// the text image geometry (`base` address, `len` instructions).
    #[must_use]
    pub fn lower(instr: &Instr, pc: u32, base: u32, len: u32) -> MicroOp {
        let resolve = |target_pc: u32| {
            let rel = target_pc.wrapping_sub(base);
            if rel % 4 == 0 && rel / 4 < len {
                JumpTarget::Index(rel / 4)
            } else {
                JumpTarget::OutOfText(target_pc)
            }
        };
        match *instr {
            Instr::Lui { rd, imm } => MicroOp::Const { rd, imm },
            Instr::Auipc { rd, imm } => MicroOp::Const {
                rd,
                imm: pc.wrapping_add(imm),
            },
            Instr::OpImm { op, rd, rs1, imm } => MicroOp::AluImm {
                op,
                rd,
                rs1,
                imm: imm as u32,
            },
            Instr::Op { op, rd, rs1, rs2 } => MicroOp::AluReg { op, rd, rs1, rs2 },
            Instr::Jal { rd, offset } => MicroOp::Jump {
                rd,
                link: pc.wrapping_add(4),
                target: resolve(pc.wrapping_add(offset as u32)),
            },
            Instr::Jalr { rd, rs1, offset } => MicroOp::JumpReg {
                rd,
                rs1,
                offset,
                link: pc.wrapping_add(4),
            },
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => MicroOp::Branch {
                op,
                rs1,
                rs2,
                target: resolve(pc.wrapping_add(offset as u32)),
            },
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Amo { .. }
            | Instr::Fence
            | Instr::Ecall
            | Instr::Ebreak
            | Instr::Csr { .. } => MicroOp::Boundary,
        }
    }

    /// Whether this micro-op ends a superblock (the executor must hand
    /// the instruction back to the interpreter).
    #[must_use]
    pub fn is_boundary(self) -> bool {
        matches!(self, MicroOp::Boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmoOp, CsrOp, MemWidth};

    const BASE: u32 = 0x1000;
    const LEN: u32 = 8;

    #[test]
    fn auipc_folds_pc() {
        let instr = Instr::Auipc {
            rd: Reg::A0,
            imm: 0x2000,
        };
        assert_eq!(
            MicroOp::lower(&instr, 0x1004, BASE, LEN),
            MicroOp::Const {
                rd: Reg::A0,
                imm: 0x3004
            }
        );
    }

    #[test]
    fn jal_resolves_in_text_target_to_index() {
        let instr = Instr::Jal {
            rd: Reg::RA,
            offset: -8,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE + 12, BASE, LEN),
            MicroOp::Jump {
                rd: Reg::RA,
                link: BASE + 16,
                target: JumpTarget::Index(1)
            }
        );
    }

    #[test]
    fn jal_out_of_text_target_keeps_pc() {
        let instr = Instr::Jal {
            rd: Reg::ZERO,
            offset: 0x8000,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE, BASE, LEN),
            MicroOp::Jump {
                rd: Reg::ZERO,
                link: BASE + 4,
                target: JumpTarget::OutOfText(BASE + 0x8000)
            }
        );
    }

    #[test]
    fn branch_past_end_is_out_of_text() {
        let instr = Instr::Branch {
            op: BranchOp::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: (LEN * 4) as i32,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE, BASE, LEN),
            MicroOp::Branch {
                op: BranchOp::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                target: JumpTarget::OutOfText(BASE + LEN * 4)
            }
        );
    }

    #[test]
    fn memory_and_system_instructions_are_boundaries() {
        let boundaries = [
            Instr::Load {
                width: MemWidth::Word,
                signed: false,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Instr::Store {
                width: MemWidth::Word,
                rs2: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Instr::Amo {
                op: AmoOp::LrWait,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::ZERO,
            },
            Instr::Fence,
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Csr {
                op: CsrOp::ReadSet,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                csr: crate::CSR_CYCLE,
                imm_form: false,
            },
        ];
        for instr in &boundaries {
            assert!(
                MicroOp::lower(instr, BASE, BASE, LEN).is_boundary(),
                "{instr:?} must be a superblock boundary"
            );
        }
        assert!(!MicroOp::lower(&Instr::nop(), BASE, BASE, LEN).is_boundary());
    }

    #[test]
    fn negative_opimm_immediate_sign_extends() {
        let instr = Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: -1,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE, BASE, LEN),
            MicroOp::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: u32::MAX
            }
        );
    }
}
