//! Open-loop traffic generation and tail-latency measurement for the
//! LRSCwait service-fleet evaluation.
//!
//! The paper's throughput figures drive *closed* loops — every core
//! issues its next operation as soon as the previous one retires, so
//! latency is hidden by the loop itself. This crate measures the quantity
//! closed loops cannot see: **end-to-end latency under open-loop load**,
//! where items arrive on their own schedule whether or not the fleet is
//! keeping up, and queueing delay compounds toward saturation.
//!
//! Three pieces:
//!
//! * [`ArrivalProcess`] — seeded, platform-deterministic Poisson and
//!   bursty (two-state MMPP) arrival streams;
//! * [`LatencyRecorder`] / [`LatencyStats`] — per-item latencies with
//!   p50/p99/p99.9 tail percentiles and queue-depth-over-time samples;
//! * [`ServiceHarness`] — drives a simulated machine running the
//!   `lrscwait-kernels` `ServiceKernel` fleet: arrivals queue host-side,
//!   idle servers get items through per-core injection mailboxes, and
//!   completion cycles come back through guest-side `CYCLE` stamps.
//!
//! The harness checkpoints *everything* (machine snapshot + generator +
//! host queue + recorded samples) to a byte buffer and restores
//! bit-identically — long saturation sweeps can be cut and resumed.
//!
//! # Example
//!
//! ```
//! use lrscwait_core::SyncArch;
//! use lrscwait_kernels::ServiceKernel;
//! use lrscwait_sim::SimConfig;
//! use lrscwait_traffic::{ArrivalProcess, ServiceHarness, TrafficConfig};
//!
//! # fn main() -> Result<(), lrscwait_traffic::HarnessError> {
//! let kernel = ServiceKernel::new(4, 100);
//! let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
//! let arrivals = ArrivalProcess::poisson(7, 500.0);
//! let mut harness = ServiceHarness::new(cfg, kernel, TrafficConfig::new(32), arrivals)?;
//! let summary = harness.run()?;
//! assert_eq!(summary.completed, 32);
//! assert!(summary.latency.p99 >= summary.latency.p50);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod arrival;
mod harness;
mod latency;

pub use arrival::ArrivalProcess;
pub use harness::{HarnessError, ServiceHarness, StepStatus, TrafficConfig, TrafficSummary};
pub use latency::{LatencyRecorder, LatencyStats};
