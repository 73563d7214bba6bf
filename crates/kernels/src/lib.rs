//! Benchmark kernels for the LRSCwait evaluation — every workload from the
//! paper's Section V, written in real RV32IMA + Xlrscwait assembly and
//! assembled at run time with workload parameters injected as constants.
//!
//! | Paper experiment | Kernel |
//! |---|---|
//! | Fig. 3 / Fig. 4 / Table II — histogram under contention | [`HistogramKernel`] |
//! | Fig. 5 — matmul with atomics interference | [`MatmulKernel`] |
//! | Fig. 6 — concurrent queue throughput | [`QueueKernel`] |
//! | 1024-core multi-barrier study (Bertuletti et al.) | [`BarrierKernel`] |
//! | Open-loop tail-latency study (`lrscwait-traffic` harness) | [`ServiceKernel`] |
//! | RCU grace-period study (Quicksand `RCULock` idiom) | [`RcuKernel`] |
//!
//! All kernels use the MMIO harness (barrier, op counter, region markers)
//! so measured regions exclude setup, exactly as bare-metal MemPool
//! benchmarks do.
//!
//! Every kernel implements the [`Workload`] trait — program assembly, MMIO
//! arguments, and post-run functional verification behind one interface —
//! so the `lrscwait-bench` `Experiment`/`Sweep` runners can execute any
//! workload against any architecture without kernel-specific glue.
//!
//! # Example
//!
//! ```
//! use lrscwait_core::SyncArch;
//! use lrscwait_kernels::{HistImpl, HistogramKernel, Workload};
//! use lrscwait_sim::{Machine, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = HistogramKernel::new(HistImpl::AmoAdd, 16, 8, 4);
//! let cfg = SimConfig::builder().cores(4).arch(SyncArch::Lrsc).build()?;
//! let mut machine = Machine::new(cfg, &kernel.program())?;
//! machine.run()?;
//! kernel.verify(&machine)?; // no benchmark number without a correct run
//! assert_eq!(machine.stats().total_ops(), kernel.expected_total());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod barrier;
mod histogram;
mod litmus;
mod matmul;
mod queue;
mod rcu;
mod service;
mod workload;

pub use barrier::{BarrierImpl, BarrierKernel};
pub use histogram::{HistImpl, HistogramKernel};
pub use litmus::{LitmusKernel, LitmusScenario};
pub use matmul::{MatmulKernel, PollerKind};
pub use queue::{QueueImpl, QueueKernel};
pub use rcu::RcuKernel;
pub use service::ServiceKernel;
pub use workload::{VerifyError, Workload};
