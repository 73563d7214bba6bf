//! Persistent worker pool for bank-sharded simulation.
//!
//! A `Machine` built with `SimConfig::shards = n > 1` owns one
//! [`WorkerPool`] of `n − 1` threads, spawned once at construction and
//! joined on drop — **no per-cycle spawning, no steady-state allocation**.
//! Each cycle, the coordinator (the thread driving `Machine::step_cycle`)
//! dispatches at most two jobs — the bank-service phase and the
//! core-stepping phase (see `crate::phases`) — and participates as shard
//! 0 itself. A job is a [`Job`]: a `Copy` bundle of raw slice pointers
//! into the machine plus the cycle parameters.
//!
//! # Safety model
//!
//! All `unsafe` in the sharded path lives in this module and rests on two
//! invariants, both enforced by construction:
//!
//! 1. **Disjointness** — shard `s` touches only elements in its contiguous
//!    `bank_ranges[s]` / `core_ranges[s]` slice of each array (the manual
//!    `split_at_mut` pattern), plus its own `ShardScratch`. Ranges
//!    partition `0..banks` and `0..cores` and are fixed at pool build.
//! 2. **Phase scoping** — the pointers in a [`Job`] are valid for the
//!    duration of one [`WorkerPool::dispatch`] call: the coordinator
//!    derives them from `&mut Machine` immediately before dispatch,
//!    touches nothing else until every worker has signalled completion,
//!    and `dispatch` does not return until then. Workers only dereference
//!    a job between observing the epoch store (Acquire) that published it
//!    and their completion store (Release), so all accesses are inside
//!    the coordinator's exclusive-borrow window.
//!
//! The wake protocol is spin-then-park: a worker spins briefly on the
//! epoch counter, then blocks on a condvar (so an idle or fast-forwarding
//! machine does not burn host CPUs). Dispatch, parking and wakeup touch
//! no heap — the counting-allocator suite runs a sharded machine to prove
//! steady-state cycles stay allocation-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use lrscwait_core::{Qnode, SyncAdapter};
use lrscwait_telemetry::{PoolTelemetry, WorkerUtil};
use lrscwait_trace::OpKind;

use crate::config::SimConfig;
use crate::cpu::{Core, DecodedProgram};
use crate::phases::{self, CorePhase, ReqMsg, RespMsg, ShardScratch};
use crate::translate::Translation;

/// How many times a worker polls the epoch counter before parking on the
/// condvar. Phases follow each other within a few hundred nanoseconds
/// while the machine steps, so a short spin catches the common case
/// without a syscall; once the budget is spent the worker must *park*, so
/// an idle or fast-forwarding machine burns no host CPU per worker (the
/// `pool_parks_when_idle` test pins this behaviour down).
pub(crate) const WORKER_SPIN_LIMIT: u32 = 256;

/// The coordinator's phase barrier yields to the OS scheduler once per
/// this many spins while waiting for the last shard. The barrier is
/// always short (workers are mid-phase, never parked), so it spins rather
/// than parks — but on an oversubscribed host the straggler may need this
/// thread's CPU, hence the periodic `yield_now`.
pub(crate) const COORDINATOR_YIELD_INTERVAL: u32 = 64;

/// Splits `0..n` into `shards` contiguous ranges, remainder spread over
/// the leading ranges (every range non-empty when `shards <= n`, which
/// config validation guarantees).
pub(crate) fn ranges(n: usize, shards: usize) -> Vec<(u32, u32)> {
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push((lo as u32, (lo + len) as u32));
        lo += len;
    }
    debug_assert_eq!(lo, n);
    out
}

/// One parallel phase, as raw parts. `Copy` so the coordinator can keep a
/// copy while the slot is handed to the workers.
#[derive(Clone, Copy)]
pub(crate) enum Job {
    /// Phase 1b: sharded per-bank request service.
    Banks {
        reqs: *const ReqMsg,
        reqs_len: usize,
        order: *const (u32, u32),
        order_len: usize,
        banks: *mut Vec<u32>,
        adapters: *mut Box<dyn SyncAdapter>,
        bank_outbox: *mut VecDeque<RespMsg>,
        num_banks: u32,
        tracing: bool,
    },
    /// Phase 4: sharded core stepping.
    Cores {
        cores: *mut Core,
        qnodes: *mut Qnode,
        core_outbox: *mut VecDeque<ReqMsg>,
        park_kind: *mut OpKind,
        runnable: *const u32,
        runnable_len: usize,
        program: *const DecodedProgram,
        cfg: *const SimConfig,
        /// Superblock translation; null exactly in `ExecMode::Reference`,
        /// which selects the every-core walk.
        translation: *const Translation,
        num_banks: u32,
        now: u64,
        /// Run-ahead ceiling for superblocks (`now` outside the run loop).
        horizon: u64,
        tracing: bool,
    },
}

// SAFETY: a `Job` is only dereferenced inside a dispatch window (see the
// module docs); the pointers it carries target state the coordinator has
// exclusive access to for that window, partitioned disjointly per shard.
unsafe impl Send for Job {}

struct Shared {
    /// Bumped once per dispatched job; workers run when it changes.
    epoch: AtomicUsize,
    /// The published job (valid while `done < workers` for this epoch).
    job: std::cell::UnsafeCell<Option<Job>>,
    /// Workers finished with the current epoch's job.
    done: AtomicUsize,
    shutdown: AtomicBool,
    /// Set when a shard's phase body panicked; the coordinator re-raises
    /// after the barrier instead of hanging on a missing `done` signal.
    poisoned: AtomicBool,
    /// Per-shard scratch the phases accumulate into. One entry per
    /// shard; shard `s` (worker or coordinator) touches only entry `s`
    /// during a dispatch window, the coordinator reads all of them
    /// between windows. Per-element `UnsafeCell` so concurrent shards
    /// never materialize overlapping `&mut` borrows of the whole slice —
    /// each thread only ever forms a `&mut` to its own element.
    scratch: Box<[std::cell::UnsafeCell<ShardScratch>]>,
    /// Contiguous bank / core ranges per shard (fixed at build).
    bank_ranges: Vec<(u32, u32)>,
    core_ranges: Vec<(u32, u32)>,
    /// Park/wake support for idle workers.
    lock: Mutex<()>,
    cv: Condvar,
    /// Workers currently parked on the condvar (diagnostics/tests only —
    /// the wake protocol itself never reads it).
    parked: AtomicUsize,
    /// Per-worker busy/spin/park counters. Disabled (one relaxed atomic
    /// load per loop iteration) until the machine's profiler is enabled.
    telemetry: PoolTelemetry,
}

// SAFETY: the `UnsafeCell`s are coordinated by the epoch/done protocol —
// `job` is written only while all workers wait, `scratch[s]` is written
// only by shard `s` inside a window (disjoint per shard) and read by the
// coordinator only outside windows.
unsafe impl Sync for Shared {}

/// Persistent pool of `shards − 1` workers plus the coordinating caller.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    shards: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("shards", &self.shards)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns the pool: `shards − 1` workers, shard 0 reserved for the
    /// coordinator. `num_banks` / `num_cores` fix the contiguous ranges.
    pub fn new(shards: usize, num_banks: usize, num_cores: usize) -> WorkerPool {
        assert!(shards >= 2, "a 1-shard machine runs phases inline");
        let scratch: Box<[std::cell::UnsafeCell<ShardScratch>]> = (0..shards)
            .map(|_| std::cell::UnsafeCell::new(ShardScratch::default()))
            .collect();
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            job: std::cell::UnsafeCell::new(None),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            scratch,
            bank_ranges: ranges(num_banks, shards),
            core_ranges: ranges(num_cores, shards),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            telemetry: PoolTelemetry::new(shards - 1),
        });
        let handles = (1..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lrscwait-shard-{shard}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            shards,
        }
    }

    /// Number of shards (workers + coordinator).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Turns on per-worker busy/spin/park accounting (a host-side
    /// observation only — the dispatch protocol is unchanged).
    pub fn enable_telemetry(&self) {
        self.shared.telemetry.enable();
    }

    /// Snapshot of per-worker utilization counters (all zero until
    /// [`WorkerPool::enable_telemetry`]).
    pub fn worker_util(&self) -> Vec<WorkerUtil> {
        self.shared.telemetry.snapshot()
    }

    /// Number of workers currently parked on the condvar (all of
    /// `shards − 1` once the pool has been idle past
    /// [`WORKER_SPIN_LIMIT`]). Diagnostics/tests only.
    #[allow(dead_code)] // exercised from unit tests; kept for diagnostics
    pub fn parked_workers(&self) -> usize {
        self.shared.parked.load(Ordering::Acquire)
    }

    /// Mutable access to a shard's scratch — only call between dispatch
    /// windows (the coordinator's merge step).
    pub fn scratch_mut(&mut self, shard: usize) -> &mut ShardScratch {
        // SAFETY: `&mut self` proves no dispatch window is open (dispatch
        // borrows the pool for its whole duration), so no worker is
        // touching any scratch.
        unsafe { &mut *self.shared.scratch[shard].get() }
    }

    /// Clears every shard's per-cycle accumulators.
    pub fn reset_scratch(&mut self) {
        for shard in 0..self.shards {
            self.scratch_mut(shard).reset();
        }
    }

    /// Runs `job` across all shards and returns when every shard is done.
    /// The coordinator executes shard 0 on the calling thread.
    pub fn dispatch(&mut self, job: Job) {
        let shared = &*self.shared;
        // A shard that panicked is parked until shutdown and will never
        // signal again: fail fast instead of hanging the barrier.
        assert!(
            !shared.poisoned.load(Ordering::Acquire),
            "worker pool poisoned by an earlier shard panic"
        );
        shared.done.store(0, Ordering::Relaxed);
        // SAFETY: every worker is waiting for a new epoch (the previous
        // dispatch returned only after all of them signalled done and they
        // read the job slot only after observing a fresh epoch), so the
        // slot is not aliased.
        unsafe {
            *shared.job.get() = Some(job);
        }
        shared.epoch.fetch_add(1, Ordering::Release);
        // Wake parked workers. Taking the lock orders this notify after
        // any in-flight decision to wait (the worker re-checks the epoch
        // under the same lock), so no wakeup is lost.
        {
            let _guard = shared
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            shared.cv.notify_all();
        }
        // Participate as shard 0. Even if our own shard panics, wait for
        // the workers first (they hold live pointers into the machine)
        // and only then unwind.
        // SAFETY: the job was built from the coordinator's own `&mut
        // Machine` borrow for this window; shard 0's ranges are disjoint
        // from every worker's.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            execute(shared, &job, 0);
        }));
        // Phase barrier: wait for the workers. Panicked workers still
        // signal `done` (setting the poison flag), so this cannot hang.
        let workers = self.shards - 1;
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) < workers {
            spins += 1;
            if spins % COORDINATOR_YIELD_INTERVAL == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if let Err(panic) = own {
            std::panic::resume_unwind(panic);
        }
        assert!(
            !shared.poisoned.load(Ordering::Acquire),
            "a shard worker panicked during a parallel phase (see its stderr output)"
        );
    }

    /// Stops and joins every worker.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        {
            let _guard = self
                .shared
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    let mut seen = 0usize;
    loop {
        // Spin briefly, then park: phases follow each other closely while
        // the machine steps, but fast-forwarded stretches and sequential
        // sub-phases should not burn a host CPU per worker. With pool
        // telemetry enabled the wait splits into spin time and park time
        // (timestamps taken outside the dispatch window, so the protocol
        // and the phase bodies are unperturbed).
        let timing = shared.telemetry.is_enabled();
        let wait_start = timing.then(Instant::now);
        let mut park_ns = 0u64;
        let mut epoch = shared.epoch.load(Ordering::Acquire);
        let mut spins = 0u32;
        while epoch == seen && spins < WORKER_SPIN_LIMIT {
            std::hint::spin_loop();
            spins += 1;
            epoch = shared.epoch.load(Ordering::Acquire);
        }
        if epoch == seen {
            let park_start = timing.then(Instant::now);
            let mut guard = shared
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            shared.parked.fetch_add(1, Ordering::Release);
            loop {
                epoch = shared.epoch.load(Ordering::Acquire);
                if epoch != seen {
                    break;
                }
                guard = shared
                    .cv
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            shared.parked.fetch_sub(1, Ordering::Release);
            if let Some(started) = park_start {
                park_ns = started.elapsed().as_nanos() as u64;
            }
        }
        seen = epoch;
        if let Some(started) = wait_start {
            let total_ns = started.elapsed().as_nanos() as u64;
            shared
                .telemetry
                .record_wait(shard - 1, total_ns.saturating_sub(park_ns), park_ns);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the epoch Acquire above synchronizes with the dispatch
        // Release that published the job; the slot is not rewritten until
        // this worker (and all others) store `done`.
        let job = unsafe { (*shared.job.get()).expect("epoch bumped without a job") };
        // SAFETY: see the module safety model — this shard only touches
        // its own contiguous ranges and scratch. A panic in the phase
        // body must not skip the `done` signal (the coordinator would
        // spin forever waiting on this shard): catch it, poison the pool,
        // signal, and let the coordinator re-raise after the barrier.
        let busy_start = timing.then(Instant::now);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            execute(shared, &job, shard);
        }));
        if let Some(started) = busy_start {
            shared
                .telemetry
                .record_busy(shard - 1, started.elapsed().as_nanos() as u64);
        }
        if result.is_err() {
            shared.poisoned.store(true, Ordering::Release);
        }
        shared.done.fetch_add(1, Ordering::Release);
        if result.is_err() {
            // Dead shard: park until shutdown so no further job runs on
            // half-initialized state; every later dispatch fails fast on
            // the poison flag.
            let mut guard = shared
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !shared.shutdown.load(Ordering::Acquire) {
                guard = shared
                    .cv
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            return;
        }
    }
}

/// Runs one shard's part of a job. See the module docs for the safety
/// argument; all slice reconstruction from raw parts happens here.
unsafe fn execute(shared: &Shared, job: &Job, shard: usize) {
    // Element-level cell access: no `&mut` to the scratch slice as a
    // whole is ever formed, so concurrent shards never alias.
    let scratch = &mut *shared.scratch[shard].get();
    match *job {
        Job::Banks {
            reqs,
            reqs_len,
            order,
            order_len,
            banks,
            adapters,
            bank_outbox,
            num_banks,
            tracing,
        } => {
            let (lo, hi) = shared.bank_ranges[shard];
            let len = (hi - lo) as usize;
            let reqs = std::slice::from_raw_parts(reqs, reqs_len);
            let order = std::slice::from_raw_parts(order, order_len);
            // Narrow the (bank, delivery-index)-sorted order list to this
            // shard's banks.
            let start = order.partition_point(|&(b, _)| b < lo);
            let end = order.partition_point(|&(b, _)| b < hi);
            phases::service_banks(
                lo,
                std::slice::from_raw_parts_mut(banks.add(lo as usize), len),
                std::slice::from_raw_parts_mut(adapters.add(lo as usize), len),
                std::slice::from_raw_parts_mut(bank_outbox.add(lo as usize), len),
                num_banks,
                reqs,
                &order[start..end],
                scratch,
                tracing,
            );
        }
        Job::Cores {
            cores,
            qnodes,
            core_outbox,
            park_kind,
            runnable,
            runnable_len,
            program,
            cfg,
            translation,
            num_banks,
            now,
            horizon,
            tracing,
        } => {
            let (lo, hi) = shared.core_ranges[shard];
            let len = (hi - lo) as usize;
            let mut ctx = CorePhase {
                core_lo: lo,
                cores: std::slice::from_raw_parts_mut(cores.add(lo as usize), len),
                qnodes: std::slice::from_raw_parts_mut(qnodes.add(lo as usize), len),
                core_outbox: std::slice::from_raw_parts_mut(core_outbox.add(lo as usize), len),
                park_kind: std::slice::from_raw_parts_mut(park_kind.add(lo as usize), len),
                program: &*program,
                cfg: &*cfg,
                num_banks,
            };
            match translation.as_ref() {
                Some(translation) => {
                    let runnable = std::slice::from_raw_parts(runnable, runnable_len);
                    let start = runnable.partition_point(|&c| c < lo);
                    let end = runnable.partition_point(|&c| c < hi);
                    phases::step_translated_cores(
                        &mut ctx,
                        translation,
                        &runnable[start..end],
                        now,
                        horizon,
                        scratch,
                        tracing,
                    );
                }
                None => phases::step_all_cores(&mut ctx, now, scratch, tracing),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_parks_when_idle() {
        // An idle pool must end up with every worker parked on the
        // condvar — not spinning — once the spin budget is exhausted.
        let mut pool = WorkerPool::new(4, 8, 8);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.parked_workers() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers still not parked: {} of 3",
                pool.parked_workers()
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.parked_workers(), 3);
        // Shutdown wakes the parked workers; after the join none remain.
        pool.shutdown();
        assert_eq!(pool.parked_workers(), 0);
    }

    #[test]
    fn ranges_partition_exactly() {
        for (n, shards) in [(8, 3), (1024, 4), (5, 5), (7, 2)] {
            let r = ranges(n, shards);
            assert_eq!(r.len(), shards);
            assert_eq!(r[0].0, 0);
            assert_eq!(r[shards - 1].1 as usize, n);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].0 < w[0].1, "non-empty");
            }
        }
    }
}
