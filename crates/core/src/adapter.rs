//! The bank-adapter trait and shared building blocks.

use std::fmt;

use crate::msg::{Addr, CoreId, MemRequest, MemResponse, WaitMode};
use crate::state::{StateError, StateReader, StateWriter};
use crate::storage::WordStorage;

/// A structured synchronization event observed inside a bank adapter.
///
/// These are the per-occurrence counterparts of the aggregate
/// [`AdapterStats`] counters: where the counters answer *how many*, the
/// events answer *who, where and in which order* — the raw material for
/// handoff-latency and queue-occupancy analysis. Adapters are time-free,
/// so events carry no cycle; the caller (the simulator, or a protocol
/// harness) stamps them on receipt.
///
/// Emission is exact with respect to the statistics: every adapter emits
/// one `WaitEnqueued` per `wait_enqueued` increment, one `WaitFailFast`
/// per `wait_failfast`, one `ScResult` per `sc_*`/`scwait_*` increment,
/// one `SuccessorUpdate` per `successor_updates`, one `WakeupPromoted`
/// per `wakeups`, and one `ReservationBroken` per `reservations_broken`
/// — event streams reconcile with end-of-run aggregates by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// A `lrwait`/`mwait` request was accepted into a reservation queue
    /// (the issuing core will sleep until served).
    WaitEnqueued {
        /// Enqueued core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction created the entry.
        mode: WaitMode,
    },
    /// A queued waiter's withheld response was released (the core at the
    /// queue head becomes runnable once the response reaches it).
    WaitServed {
        /// Served core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction the entry came from.
        mode: WaitMode,
        /// `true` when the serve was triggered by a predecessor leaving
        /// the queue (a lock handoff or monitor fire) rather than the
        /// waiter finding the queue empty on arrival.
        handoff: bool,
    },
    /// A `lrwait`/`mwait` request failed fast (queue structure full, or
    /// wait-free hardware): no reservation was placed and software must
    /// retry.
    WaitFailFast {
        /// Rejected core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction was rejected.
        mode: WaitMode,
    },
    /// A store-conditional completed. `wait: false` is a classic `sc.w`,
    /// `wait: true` an `scwait.w` closing an `lrwait` sequence.
    ScResult {
        /// Issuing core.
        core: CoreId,
        /// Target word address.
        addr: Addr,
        /// Whether the store was performed.
        success: bool,
        /// Whether this was the wait-extension (`scwait.w`) form.
        wait: bool,
    },
    /// Colibri: a new tail enqueued behind `predecessor`, whose Qnode is
    /// being notified of its `successor`.
    SuccessorUpdate {
        /// Previous tail (receives the notification).
        predecessor: CoreId,
        /// Newly enqueued core.
        successor: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Wait mode of the new tail.
        mode: WaitMode,
    },
    /// Colibri: a bounced `WakeUp` was processed and `successor` promoted
    /// to queue head (its withheld response is released in the same
    /// cycle, reported as a separate [`SyncEvent::WaitServed`]).
    WakeupPromoted {
        /// Contended word address.
        addr: Addr,
        /// Promoted core.
        successor: CoreId,
        /// Wait mode of the promoted head.
        mode: WaitMode,
    },
    /// A reservation (classic slot or `lrwait` head) was invalidated by
    /// an intervening write.
    ReservationBroken {
        /// Word address whose reservation broke.
        addr: Addr,
    },
}

/// The no-op event consumer the untraced [`SyncAdapter::handle`] entry
/// point uses.
#[inline]
pub(crate) fn no_trace(_: SyncEvent) {}

/// Event counters every adapter maintains (inputs to the energy model and
/// the interference analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Requests processed, of any kind.
    pub requests: u64,
    /// Plain loads served.
    pub loads: u64,
    /// Stores (including masked) performed.
    pub stores: u64,
    /// RV32A read–modify-write atomics performed.
    pub amos: u64,
    /// Classic `sc.w` attempts that succeeded.
    pub sc_success: u64,
    /// Classic `sc.w` attempts that failed.
    pub sc_failure: u64,
    /// `lrwait`/`mwait` requests that were enqueued (or served as head).
    pub wait_enqueued: u64,
    /// `lrwait`/`mwait` requests that failed fast (structure full).
    pub wait_failfast: u64,
    /// `scwait` attempts that succeeded.
    pub scwait_success: u64,
    /// `scwait` attempts that failed (reservation lost or misuse).
    pub scwait_failure: u64,
    /// `SuccessorUpdate` messages emitted (Colibri only).
    pub successor_updates: u64,
    /// `WakeUp` requests processed (Colibri only).
    pub wakeups: u64,
    /// Reservations invalidated by an intervening write.
    pub reservations_broken: u64,
}

impl AdapterStats {
    /// Encodes every counter (checkpoint/restore).
    pub fn save(&self, out: &mut StateWriter) {
        for v in [
            self.requests,
            self.loads,
            self.stores,
            self.amos,
            self.sc_success,
            self.sc_failure,
            self.wait_enqueued,
            self.wait_failfast,
            self.scwait_success,
            self.scwait_failure,
            self.successor_updates,
            self.wakeups,
            self.reservations_broken,
        ] {
            out.put_u64(v);
        }
    }

    /// Decodes counters written by [`save`](AdapterStats::save).
    ///
    /// # Errors
    ///
    /// [`StateError::UnexpectedEof`] on a truncated buffer.
    pub fn load(src: &mut StateReader<'_>) -> Result<AdapterStats, StateError> {
        Ok(AdapterStats {
            requests: src.take_u64()?,
            loads: src.take_u64()?,
            stores: src.take_u64()?,
            amos: src.take_u64()?,
            sc_success: src.take_u64()?,
            sc_failure: src.take_u64()?,
            wait_enqueued: src.take_u64()?,
            wait_failfast: src.take_u64()?,
            scwait_success: src.take_u64()?,
            scwait_failure: src.take_u64()?,
            successor_updates: src.take_u64()?,
            wakeups: src.take_u64()?,
            reservations_broken: src.take_u64()?,
        })
    }
}

/// A synchronization adapter in front of one SPM bank.
///
/// The adapter observes **all** traffic reaching the bank (it must see plain
/// stores to invalidate reservations and fire `mwait` monitors), performs
/// the architectural side effects through [`WordStorage`], and produces the
/// response messages to send.
///
/// Implementations are *time-free*: the surrounding simulator decides when
/// messages are delivered. Correctness of the Colibri implementation relies
/// on the transport delivering messages between a fixed (bank, core) pair in
/// FIFO order, which both the test harness and the NoC guarantee.
pub trait SyncAdapter: fmt::Debug {
    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order, and reporting every
    /// synchronization event through `emit` (see [`SyncEvent`]).
    ///
    /// This is the one required entry point; the untraced
    /// [`handle`](SyncAdapter::handle) wrapper passes a no-op consumer.
    /// Implementations must behave identically regardless of what `emit`
    /// does — tracing observes, it never steers.
    fn handle_traced(
        &mut self,
        src: CoreId,
        req: &MemRequest,
        mem: &mut dyn WordStorage,
        out: &mut Vec<(CoreId, MemResponse)>,
        emit: &mut dyn FnMut(SyncEvent),
    );

    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order (untraced).
    fn handle(
        &mut self,
        src: CoreId,
        req: &MemRequest,
        mem: &mut dyn WordStorage,
        out: &mut Vec<(CoreId, MemResponse)>,
    ) {
        self.handle_traced(src, req, mem, out, &mut no_trace);
    }

    /// Chaos hook: spuriously evicts any reservation covering `addr` —
    /// the classic LR/SC slot and, for wait-queue architectures, an
    /// *active and valid* `lrwait` head — as if invalidated by capacity
    /// pressure. This is an architecturally legal perturbation: software
    /// must already tolerate reservations lost to intervening writes.
    /// Armed `mwait` monitors are **never** touched (dropping a monitor
    /// would be a lost wakeup — a hardware bug, not a legal fault).
    ///
    /// Each broken reservation increments
    /// [`reservations_broken`](AdapterStats::reservations_broken) and
    /// emits one [`SyncEvent::ReservationBroken`], preserving the 1:1
    /// event/stat contract. Returns `true` when anything was evicted.
    /// The default implementation holds no evictable state and does
    /// nothing.
    fn chaos_evict(&mut self, addr: Addr, emit: &mut dyn FnMut(SyncEvent)) -> bool {
        let _ = (addr, emit);
        false
    }

    /// Human-readable architecture label (used in reports and plots).
    fn label(&self) -> String;

    /// Event counters accumulated so far.
    fn stats(&self) -> &AdapterStats;

    /// True when the adapter holds no queued/waiting state (used by tests
    /// and by the simulator's quiescence check).
    fn is_quiescent(&self) -> bool;

    /// Serializes the adapter's complete mutable state — reservation
    /// slots, wait queues, statistics — for a machine checkpoint.
    ///
    /// Structural configuration (queue capacity, number of tracked
    /// addresses) is *not* written: a snapshot is restored into an adapter
    /// built from the same [`SyncArch`](crate::SyncArch), and
    /// [`load_state`](SyncAdapter::load_state) validates the shapes match.
    fn save_state(&self, out: &mut StateWriter);

    /// Restores state written by [`save_state`](SyncAdapter::save_state)
    /// into an adapter of identical structure.
    ///
    /// # Errors
    ///
    /// [`StateError`] when the buffer is truncated, a discriminant is
    /// unknown, or the recorded structure (queue capacity, slot count)
    /// does not match this adapter.
    fn load_state(&mut self, src: &mut StateReader<'_>) -> Result<(), StateError>;
}

/// Classic MemPool-style single reservation slot (one per bank).
///
/// `lr.w` displaces any previous reservation; `sc.w` succeeds only when the
/// slot still holds `(core, addr)`; any write to the reserved address clears
/// the slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SingleSlotLrsc {
    reservation: Option<(CoreId, Addr)>,
}

impl SingleSlotLrsc {
    /// Creates an empty slot.
    #[must_use]
    pub fn new() -> SingleSlotLrsc {
        SingleSlotLrsc::default()
    }

    /// Handles `lr.w`: places the reservation (displacing any other).
    pub fn load_reserved(&mut self, core: CoreId, addr: Addr) {
        self.reservation = Some((core, addr));
    }

    /// Handles `sc.w`: returns whether the store may proceed and clears the
    /// slot on success.
    pub fn store_conditional(&mut self, core: CoreId, addr: Addr) -> bool {
        if self.reservation == Some((core, addr)) {
            self.reservation = None;
            true
        } else {
            false
        }
    }

    /// Notifies the slot of a successful write to `addr`; returns `true`
    /// when a reservation was broken.
    pub fn on_write(&mut self, addr: Addr) -> bool {
        if self.reservation.is_some_and(|(_, a)| a == addr) {
            self.reservation = None;
            true
        } else {
            false
        }
    }

    /// Current reservation, if any.
    #[must_use]
    pub fn reservation(&self) -> Option<(CoreId, Addr)> {
        self.reservation
    }

    /// Encodes the slot (checkpoint/restore).
    pub fn save(&self, out: &mut StateWriter) {
        match self.reservation {
            Some((core, addr)) => {
                out.put_bool(true);
                out.put_u32(core);
                out.put_u32(addr);
            }
            None => out.put_bool(false),
        }
    }

    /// Decodes a slot written by [`save`](SingleSlotLrsc::save).
    ///
    /// # Errors
    ///
    /// [`StateError`] on a truncated or corrupt buffer.
    pub fn load(src: &mut StateReader<'_>) -> Result<SingleSlotLrsc, StateError> {
        let reservation = if src.take_bool()? {
            Some((src.take_u32()?, src.take_u32()?))
        } else {
            None
        };
        Ok(SingleSlotLrsc { reservation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_succeeds_only_with_matching_reservation() {
        let mut slot = SingleSlotLrsc::new();
        slot.load_reserved(1, 0x40);
        assert!(!slot.store_conditional(2, 0x40), "wrong core");
        assert!(!slot.store_conditional(1, 0x44), "wrong addr");
        assert!(slot.store_conditional(1, 0x40));
        assert!(!slot.store_conditional(1, 0x40), "slot cleared after use");
    }

    #[test]
    fn newer_lr_displaces_older() {
        let mut slot = SingleSlotLrsc::new();
        slot.load_reserved(1, 0x40);
        slot.load_reserved(2, 0x80);
        assert!(!slot.store_conditional(1, 0x40));
        assert!(slot.store_conditional(2, 0x80));
    }

    #[test]
    fn write_breaks_reservation() {
        let mut slot = SingleSlotLrsc::new();
        slot.load_reserved(1, 0x40);
        assert!(!slot.on_write(0x44), "other address leaves it alone");
        assert!(slot.on_write(0x40));
        assert!(!slot.store_conditional(1, 0x40));
        assert!(!slot.on_write(0x40), "already clear");
    }
}
