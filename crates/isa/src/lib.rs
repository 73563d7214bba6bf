//! RV32IMA instruction set with the **Xlrscwait** extension.
//!
//! This crate defines the instruction-level contract shared by the
//! [`lrscwait-asm`](../lrscwait_asm/index.html) assembler and the
//! [`lrscwait-sim`](../lrscwait_sim/index.html) simulator: instruction
//! data types, binary encoding/decoding, register and CSR names, and a
//! disassembler.
//!
//! # The Xlrscwait extension
//!
//! The DATE 2024 paper *LRSCwait* extends RV32A with three instructions that
//! eliminate polling and retries:
//!
//! | Mnemonic | Encoding | Semantics |
//! |---|---|---|
//! | `lrwait.w rd, (rs1)` | AMO opcode, funct5 `0b00101` | Load-reserved whose response is withheld by the memory controller until the core is at the head of the reservation queue for `rs1`. |
//! | `scwait.w rd, rs2, (rs1)` | AMO opcode, funct5 `0b00111` | Store-conditional closing an `lrwait` critical sequence; wakes the successor. |
//! | `mwait.w rd, rs2, (rs1)` | AMO opcode, funct5 `0b01101` | Sleep until the word at `rs1` changes; `rs2` holds the *expected* value — if memory already differs when served, respond immediately. Returns the observed value in `rd`. |
//!
//! These funct5 code points are unused by RV32A, so standard instructions
//! round-trip unchanged.
//!
//! # Example
//!
//! ```
//! use lrscwait_isa::{decode, encode, AmoOp, Instr, Reg};
//!
//! # fn main() -> Result<(), lrscwait_isa::DecodeError> {
//! let instr = Instr::Amo {
//!     op: AmoOp::LrWait,
//!     rd: Reg::A0,
//!     rs1: Reg::A1,
//!     rs2: Reg::ZERO,
//! };
//! let word = encode(&instr);
//! assert_eq!(decode(word)?, instr);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod csr;
mod decode;
mod disasm;
mod encode;
mod instr;
mod reg;
mod uop;

pub use csr::{Csr, CSR_CYCLE, CSR_CYCLEH, CSR_INSTRET, CSR_INSTRETH, CSR_MHARTID};
pub use decode::{decode, DecodeError};
pub use disasm::disasm;
pub use encode::encode;
pub use instr::{AluOp, AmoOp, BranchOp, CsrOp, Instr, MemWidth};
pub use reg::Reg;
pub use uop::{JumpTarget, MicroOp};

/// Major opcode shared by RV32A and the Xlrscwait extension.
pub const OPCODE_AMO: u32 = 0b010_1111;

/// funct5 code point for `lrwait.w` (unused by RV32A).
pub const FUNCT5_LRWAIT: u32 = 0b00101;
/// funct5 code point for `scwait.w` (unused by RV32A).
pub const FUNCT5_SCWAIT: u32 = 0b00111;
/// funct5 code point for `mwait.w` (unused by RV32A).
pub const FUNCT5_MWAIT: u32 = 0b01101;
