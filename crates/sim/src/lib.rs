//! Cycle-accurate MemPool-like manycore simulator.
//!
//! The paper evaluates LRSCwait on MemPool: 256 RV32IMA cores, 1024
//! single-ported SPM banks behind a hierarchical interconnect, cycle-
//! accurate RTL simulation. This crate rebuilds that system architecturally:
//!
//! * cores execute real RV32IMA + Xlrscwait machine code
//!   ([`cpu`], programs assembled by `lrscwait-asm`),
//! * every bank sits behind a pluggable synchronization adapter from
//!   `lrscwait-core` (LRSC baseline, centralized LRSCwait queue, Colibri),
//! * the request/response networks come from `lrscwait-noc` with finite
//!   bandwidth, finite queues and head-of-line blocking,
//! * an MMIO harness device provides barriers, op counters, measured-region
//!   markers and arguments — standing in for MemPool's runtime.
//!
//! One machine steps on one host thread; sweeps parallelize across
//! machines, one per figure point (see the [`Machine`] docs for the phase
//! structure and determinism contract).
//!
//! # Quickstart
//!
//! ```
//! use lrscwait_asm::Assembler;
//! use lrscwait_core::SyncArch;
//! use lrscwait_sim::{Machine, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Assembler::new().assemble(
//!     r#"
//!     _start:
//!         la   a0, counter
//!         li   a1, 1
//!         amoadd.w a2, a1, (a0)   # counter += 1, atomically
//!         ecall
//!     .data
//!     counter: .word 0
//!     "#,
//! )?;
//! let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 4 });
//! let mut machine = Machine::new(cfg, &program)?;
//! machine.run()?;
//! assert_eq!(machine.read_word(program.symbol("counter")), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod calendar;
pub mod config;
pub mod cpu;
mod machine;
mod phases;
mod stats;
mod translate;

pub use config::{
    mmio_reg, ConfigError, CoreTiming, ExecMode, SimConfig, SimConfigBuilder, MMIO_BASE, MMIO_SIZE,
    NUM_ARGS, ROM_BASE,
};
pub use cpu::DecodedProgram;
pub use machine::{Machine, SimError};
pub use stats::{CoreStats, ExitReason, RunSummary, SimStats};
pub use translate::Translation;

// Host-side profiling types, re-exported so harnesses driving a
// `Machine` need not depend on `lrscwait-telemetry` directly.
pub use lrscwait_telemetry::{PhaseProfile, ProfilerConfig};

// Chaos fault-injection types, re-exported so harnesses enabling the
// engine through `SimConfigBuilder::chaos` need not depend on
// `lrscwait-chaos` directly.
pub use lrscwait_chaos::{FaultPlan, Mutation};
