//! The LRwait/SCwait/Mwait synchronization protocol — the primary
//! contribution of the DATE 2024 paper *"LRSCwait: Enabling Scalable and
//! Efficient Synchronization in Manycore Systems through Polling-Free and
//! Retry-Free Operation"* — together with all three hardware
//! implementations evaluated there:
//!
//! * [`LrscAdapter`] — the MemPool baseline: classic RV32A with a single
//!   LR/SC reservation slot per bank. Failing `sc.w` forces software retry
//!   loops (the polling problem).
//! * [`WaitQueueAdapter`] — the centralized `LRSCwait_q` reservation queue
//!   (ideal when `q = n`); responses to `lrwait.w` are withheld until the
//!   requester is at the head of its address's queue, moving the
//!   linearization point from the SC to the LR and eliminating retries.
//! * [`ColibriAdapter`] + [`Qnode`] — **Colibri**, the scalable distributed
//!   queue: `O(n + 2m)` state, one queue node per core, `SuccessorUpdate` /
//!   `WakeUp` hand-off messages.
//!
//! Everything here is *time-free*: adapters and Qnodes are message-driven
//! state machines. The cycle-accurate behaviour (latencies, bandwidth,
//! backpressure) is added by `lrscwait-sim`; the [`harness`] module provides
//! a random-interleaving scheduler used by the property tests to explore
//! protocol corner cases directly.
//!
//! # Example: the paper's Fig. 2 hand-off
//!
//! ```
//! use lrscwait_core::{ColibriAdapter, MapStorage, MemRequest, MemResponse,
//!                     SyncAdapter, WaitMode, WordStorage};
//!
//! let mut bank = ColibriAdapter::new(1);
//! let mut mem = MapStorage::new();
//! let mut out = Vec::new();
//!
//! // Core A wins the empty queue and receives the value immediately.
//! bank.handle(0, &MemRequest::LrWait { addr: 0x40 }, &mut mem, &mut out);
//! assert_eq!(out.pop(), Some((0, MemResponse::Wait { value: 0, reserved: true })));
//!
//! // Core B is appended; A's Qnode learns its successor.
//! bank.handle(1, &MemRequest::LrWait { addr: 0x40 }, &mut mem, &mut out);
//! assert_eq!(
//!     out.pop(),
//!     Some((0, MemResponse::SuccessorUpdate { successor: 1, mode: WaitMode::LrWait }))
//! );
//! ```

#![forbid(unsafe_code)]

mod adapter;
mod arch;
mod colibri;
pub mod harness;
mod lrsc;
mod msg;
mod qnode;
mod state;
mod storage;
mod waitq;

pub use adapter::{AdapterStats, SingleSlotLrsc, SyncAdapter, SyncEvent};
pub use arch::SyncArch;
pub use colibri::ColibriAdapter;
pub use lrsc::LrscAdapter;
pub use msg::{Addr, CoreId, MemRequest, MemResponse, RmwOp, WaitMode, Word};
pub use qnode::{Qnode, QnodeOutput};
pub use state::{StateError, StateReader, StateWriter};
pub use storage::{MapStorage, WordStorage};
pub use waitq::WaitQueueAdapter;
