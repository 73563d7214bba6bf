//! In-memory synchronization analysis: derived metrics the aggregate
//! `SimStats` counters cannot express.
//!
//! The [`AnalysisSink`] folds the event stream into:
//!
//! * **Lock handoff latency** — for every handoff (a waiter promoted
//!   because its predecessor left the queue), the cycles from the
//!   releasing `scwait` reaching the bank to the wake response reaching
//!   the promoted core. On the centralized queue the serve happens in
//!   the releasing cycle, so the latency is pure response-network
//!   delivery; on Colibri it additionally contains the Qnode
//!   `WakeUp`-bounce round trip — exactly the protocol cost the paper
//!   discusses. Handoffs with no observed releasing `scwait` (monitor
//!   fires triggered by plain stores/AMOs) are measured from the serving
//!   bank cycle instead.
//! * **Wait-queue occupancy over time** — the number of cores enqueued
//!   in any reservation queue, sampled at every change, with maximum and
//!   time-weighted mean.
//! * **Failure causes** — SC failures, `scwait` failures, wait fail-fast
//!   rejections and broken reservations, i.e. every way an operation can
//!   be forced into a software retry.
//!
//! Event counts reconcile exactly with the adapter statistics (see
//! [`SyncEvent`](lrscwait_core::SyncEvent)); the bench suite asserts
//! this per architecture.

use lrscwait_core::harness::SplitMix64;
use lrscwait_core::SyncEvent;

use crate::{TraceEvent, TraceSink, WakeCause};

/// Capacity of the [`AnalysisSink`]'s sample reservoirs.
///
/// Aggregates (counts, maxima, time-weighted means, percentile *inputs*)
/// stay exact for any run length; only the retained raw-sample vectors
/// ([`SyncAnalysis::handoff_samples`], [`SyncAnalysis::occupancy_curve`])
/// are bounded to this many entries by seeded reservoir sampling —
/// a 10 M-cycle 1024-core run analyzes at the same memory footprint as a
/// unit test. Percentiles computed from a full reservoir are estimates
/// with sampling error `O(1/√cap)` (≈ 1–2 % here); runs with up to
/// `ANALYSIS_RESERVOIR_CAP` handoffs report them exactly.
pub const ANALYSIS_RESERVOIR_CAP: usize = 4096;

/// Algorithm-R reservoir: a uniform random sample of a stream, bounded to
/// `cap` entries, driven by a seeded [`SplitMix64`] so identical event
/// streams — e.g. the same run in both exec modes — retain
/// identical samples.
#[derive(Clone, Debug)]
struct Reservoir<T> {
    cap: usize,
    seen: u64,
    rng: SplitMix64,
    samples: Vec<T>,
}

impl<T: Copy> Reservoir<T> {
    fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            rng: SplitMix64::new(seed),
            samples: Vec::new(),
        }
    }

    fn push(&mut self, item: T) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(item);
        } else {
            // Keep the newcomer with probability cap/seen, displacing a
            // uniformly chosen incumbent — every stream element ends up
            // retained with equal probability.
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = item;
            }
        }
    }
}

/// Event counters accumulated by the [`AnalysisSink`].
///
/// Each field counts one [`SyncEvent`](lrscwait_core::SyncEvent) variant
/// (or refinement), so the whole struct reconciles 1:1 with the summed
/// `AdapterStats` of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncCounters {
    /// `WaitEnqueued` events (== `wait_enqueued`).
    pub wait_enqueued: u64,
    /// `WaitServed` events, total.
    pub wait_served: u64,
    /// `WaitServed` events with `handoff == true`.
    pub handoffs: u64,
    /// `WaitFailFast` events (== `wait_failfast`).
    pub wait_failfast: u64,
    /// Successful classic `sc.w` (== `sc_success`).
    pub sc_success: u64,
    /// Failed classic `sc.w` (== `sc_failure`).
    pub sc_failure: u64,
    /// Successful `scwait.w` (== `scwait_success`).
    pub scwait_success: u64,
    /// Failed `scwait.w` (== `scwait_failure`).
    pub scwait_failure: u64,
    /// `SuccessorUpdate` events (== `successor_updates`, Colibri).
    pub successor_updates: u64,
    /// `WakeupPromoted` events (== `wakeups`, Colibri).
    pub wakeups: u64,
    /// `ReservationBroken` events (== `reservations_broken`).
    pub reservations_broken: u64,
}

/// Order statistics over the measured handoff latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Number of measured handoffs.
    pub count: u64,
    /// Median latency in cycles.
    pub p50: u64,
    /// 99th-percentile latency in cycles.
    pub p99: u64,
    /// Worst observed latency in cycles.
    pub max: u64,
}

/// Wait-queue occupancy summary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OccupancyStats {
    /// Highest number of simultaneously enqueued cores.
    pub max: u64,
    /// Time-weighted mean occupancy over the traced window.
    pub mean: f64,
    /// Number of occupancy changes recorded.
    pub samples: u64,
}

/// The finished analysis report (see [`AnalysisSink::finish`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SyncAnalysis {
    /// Exact per-event counters (reconcile with `AdapterStats`).
    pub counters: SyncCounters,
    /// Handoff-latency distribution. `count` and `max` are exact;
    /// `p50`/`p99` are computed from the retained reservoir (exact while
    /// `count <= `[`ANALYSIS_RESERVOIR_CAP`]).
    pub handoff: HandoffStats,
    /// Retained handoff-latency samples (cycles): the full stream while it
    /// fits [`ANALYSIS_RESERVOIR_CAP`], a seeded uniform reservoir sample
    /// beyond that.
    pub handoff_samples: Vec<u64>,
    /// Wait-queue occupancy summary (exact: max, time-weighted mean and
    /// change count are tracked incrementally, not from the curve).
    pub occupancy: OccupancyStats,
    /// Retained occupancy points `(cycle, depth)`, sorted by cycle: every
    /// change while they fit [`ANALYSIS_RESERVOIR_CAP`], a seeded uniform
    /// reservoir sample beyond that.
    pub occupancy_curve: Vec<(u64, u64)>,
    /// Core park events (blocking memory operations issued).
    pub parks: u64,
    /// Core wake events caused by a memory response delivery (barrier
    /// wakes are excluded, so `wakes == parks` on completed runs).
    pub wakes: u64,
    /// Barrier arrivals observed.
    pub barrier_arrivals: u64,
    /// Network head-of-line blocking occurrences (both networks).
    pub hol_blocks: u64,
    /// Last cycle seen in the stream.
    pub last_cycle: u64,
}

impl SyncAnalysis {
    /// A compact human-readable report (used by the `trace` binary).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = &self.counters;
        let _ = writeln!(
            out,
            "handoffs: {} measured, latency p50/p99/max = {}/{}/{} cycles",
            self.handoff.count, self.handoff.p50, self.handoff.p99, self.handoff.max
        );
        let _ = writeln!(
            out,
            "wait queue: {} enqueued, {} served ({} by handoff), occupancy max {} mean {:.2}",
            c.wait_enqueued, c.wait_served, c.handoffs, self.occupancy.max, self.occupancy.mean
        );
        let _ = writeln!(
            out,
            "retry causes: {} sc failures, {} scwait failures, {} fail-fast, {} broken reservations",
            c.sc_failure, c.scwait_failure, c.wait_failfast, c.reservations_broken
        );
        let _ = writeln!(
            out,
            "colibri traffic: {} successor updates, {} wakeup promotions",
            c.successor_updates, c.wakeups
        );
        let _ = writeln!(
            out,
            "cores: {} parks, {} wakes, {} barrier arrivals; {} HoL blocks",
            self.parks, self.wakes, self.barrier_arrivals, self.hol_blocks
        );
        out
    }
}

/// Per-core pending handoff: the promoted core's wake is still in flight.
#[derive(Clone, Copy, Debug)]
struct PendingWake {
    core: u32,
    start_cycle: u64,
}

/// Per-address pending release: an `scwait` popped the queue head here.
#[derive(Clone, Copy, Debug)]
struct PendingRelease {
    addr: u32,
    cycle: u64,
}

/// Folds the event stream into a [`SyncAnalysis`] (see the module docs).
#[derive(Debug)]
pub struct AnalysisSink {
    counters: SyncCounters,
    /// `scwait` releases whose handoff has not been observed yet.
    releases: Vec<PendingRelease>,
    /// Latest Colibri promotion, linking a `WaitServed` to its release:
    /// `(addr, cycle)` of the last `WakeupPromoted` event.
    last_promotion: Option<(u32, u64)>,
    /// Promoted cores whose wake response is still in flight.
    pending_wakes: Vec<PendingWake>,
    /// Bounded sample of handoff latencies; count/max tracked exactly.
    handoff_samples: Reservoir<u64>,
    handoff_max: u64,
    depth: u64,
    /// Bounded sample of `(cycle, depth)` change points; max/mean/change
    /// count tracked exactly alongside.
    occupancy_curve: Reservoir<(u64, u64)>,
    max_depth: u64,
    depth_changes: u64,
    /// Time-weighted occupancy integral (`depth × cycles`).
    depth_integral: u128,
    depth_since: u64,
    parks: u64,
    wakes: u64,
    barrier_arrivals: u64,
    hol_blocks: u64,
    last_cycle: u64,
}

impl Default for AnalysisSink {
    fn default() -> AnalysisSink {
        AnalysisSink::new()
    }
}

impl AnalysisSink {
    /// An empty analysis sink.
    #[must_use]
    pub fn new() -> AnalysisSink {
        // Fixed, distinct seeds per reservoir: identical event streams
        // (the determinism contract across exec modes)
        // must retain identical samples.
        AnalysisSink {
            counters: SyncCounters::default(),
            releases: Vec::new(),
            last_promotion: None,
            pending_wakes: Vec::new(),
            handoff_samples: Reservoir::new(ANALYSIS_RESERVOIR_CAP, 0x9E37_79B9_7F4A_7C15),
            handoff_max: 0,
            depth: 0,
            occupancy_curve: Reservoir::new(ANALYSIS_RESERVOIR_CAP, 0xD1B5_4A32_D192_ED03),
            max_depth: 0,
            depth_changes: 0,
            depth_integral: 0,
            depth_since: 0,
            parks: 0,
            wakes: 0,
            barrier_arrivals: 0,
            hol_blocks: 0,
            last_cycle: 0,
        }
    }

    fn set_depth(&mut self, cycle: u64, depth: u64) {
        self.depth_integral += u128::from(self.depth) * u128::from(cycle - self.depth_since);
        self.depth_since = cycle;
        self.depth = depth;
        self.max_depth = self.max_depth.max(depth);
        self.depth_changes += 1;
        self.occupancy_curve.push((cycle, depth));
    }

    /// Produces the report. Pending handoffs whose wake never arrived
    /// (e.g. the run hit the watchdog) are dropped, not guessed.
    #[must_use]
    pub fn finish(&self) -> SyncAnalysis {
        let mut samples = self.handoff_samples.samples.clone();
        samples.sort_unstable();
        let pick = |q_num: u64, q_den: u64| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let rank = (samples.len() as u64 - 1) * q_num / q_den;
            samples[rank as usize]
        };
        let handoff = HandoffStats {
            count: self.handoff_samples.seen,
            p50: pick(1, 2),
            p99: pick(99, 100),
            max: self.handoff_max,
        };
        let window = self.last_cycle.max(1);
        let integral =
            self.depth_integral + u128::from(self.depth) * u128::from(window - self.depth_since);
        let occupancy = OccupancyStats {
            max: self.max_depth,
            mean: integral as f64 / window as f64,
            samples: self.depth_changes,
        };
        let mut occupancy_curve = self.occupancy_curve.samples.clone();
        occupancy_curve.sort_by_key(|&(cycle, _)| cycle);
        SyncAnalysis {
            counters: self.counters,
            handoff,
            handoff_samples: self.handoff_samples.samples.clone(),
            occupancy,
            occupancy_curve,
            parks: self.parks,
            wakes: self.wakes,
            barrier_arrivals: self.barrier_arrivals,
            hol_blocks: self.hol_blocks,
            last_cycle: self.last_cycle,
        }
    }

    fn on_sync(&mut self, cycle: u64, event: SyncEvent) {
        match event {
            SyncEvent::WaitEnqueued { .. } => {
                self.counters.wait_enqueued += 1;
                self.set_depth(cycle, self.depth + 1);
            }
            SyncEvent::WaitServed {
                core,
                addr,
                handoff,
                ..
            } => {
                self.counters.wait_served += 1;
                self.set_depth(cycle, self.depth.saturating_sub(1));
                if handoff {
                    self.counters.handoffs += 1;
                    // A remembered release pairs with this serve only when
                    // the serve is its same-cycle queue pop (centralized
                    // queue) or the promotion of its bounced WakeUp
                    // (Colibri — linked through the WakeupPromoted event
                    // this same cycle). Anything else (a monitor fire
                    // triggered by a plain store/AMO) is measured from the
                    // serving cycle, and a non-pairing leftover entry is
                    // provably stale — its release found no successor — so
                    // it is dropped rather than misattributed.
                    let promoted = self.last_promotion == Some((addr, cycle));
                    let start_cycle = match self.releases.iter().position(|r| r.addr == addr) {
                        Some(i) if promoted || self.releases[i].cycle == cycle => {
                            self.releases.swap_remove(i).cycle
                        }
                        Some(i) => {
                            self.releases.swap_remove(i);
                            cycle
                        }
                        None => cycle,
                    };
                    self.pending_wakes.push(PendingWake { core, start_cycle });
                } else if let Some(i) = self.releases.iter().position(|r| r.addr == addr) {
                    // A fresh head found the queue empty, so any remembered
                    // release for this address had no successor: drop it.
                    self.releases.swap_remove(i);
                }
            }
            SyncEvent::WaitFailFast { .. } => self.counters.wait_failfast += 1,
            SyncEvent::ScResult {
                addr,
                success,
                wait,
                ..
            } => {
                match (wait, success) {
                    (false, true) => self.counters.sc_success += 1,
                    (false, false) => self.counters.sc_failure += 1,
                    (true, true) => self.counters.scwait_success += 1,
                    (true, false) => self.counters.scwait_failure += 1,
                }
                if wait && !self.releases.iter().any(|r| r.addr == addr) {
                    // A scwait pops the queue head (either outcome) and may
                    // hand off; remember the release cycle per address.
                    // Insert-only: while an entry is pending, its pop's
                    // bounce may still be in flight, and a stale-head
                    // scwait failure in that window must not shift the
                    // measured release point.
                    self.releases.push(PendingRelease { addr, cycle });
                }
            }
            SyncEvent::SuccessorUpdate { .. } => self.counters.successor_updates += 1,
            SyncEvent::WakeupPromoted { addr, .. } => {
                self.counters.wakeups += 1;
                self.last_promotion = Some((addr, cycle));
            }
            SyncEvent::ReservationBroken { .. } => self.counters.reservations_broken += 1,
        }
    }
}

impl TraceSink for AnalysisSink {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.last_cycle = self.last_cycle.max(cycle);
        match event {
            TraceEvent::Sync { event, .. } => self.on_sync(cycle, event),
            TraceEvent::Park { .. } => self.parks += 1,
            TraceEvent::Wake { core, cause } => {
                // Barrier releases also emit Wake events; only
                // memory-response wakes count here, so `wakes` reconciles
                // 1:1 with `parks` on completed runs.
                if matches!(cause, WakeCause::Response(_)) {
                    self.wakes += 1;
                    if let Some(i) = self.pending_wakes.iter().position(|p| p.core == core) {
                        let pending = self.pending_wakes.swap_remove(i);
                        let latency = cycle.saturating_sub(pending.start_cycle);
                        self.handoff_max = self.handoff_max.max(latency);
                        self.handoff_samples.push(latency);
                    }
                }
            }
            TraceEvent::BarrierArrive { .. } => self.barrier_arrivals += 1,
            TraceEvent::Noc { event, .. } => {
                if matches!(event, lrscwait_noc::NocEvent::HolBlocked { .. }) {
                    self.hol_blocks += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetDir, OpKind, TraceEvent};
    use lrscwait_core::WaitMode;
    use lrscwait_noc::NocEvent;

    fn sync(bank: u32, event: SyncEvent) -> TraceEvent {
        TraceEvent::Sync { bank, event }
    }

    #[test]
    fn handoff_latency_measured_from_release_to_wake() {
        let mut sink = AnalysisSink::new();
        // Core 1 enqueues at cycle 10; core 0 releases at cycle 20; the
        // bank serves core 1 at 20 (centralized) and the wake response
        // reaches core 1 at cycle 26.
        sink.record(
            10,
            sync(
                0,
                SyncEvent::WaitEnqueued {
                    core: 1,
                    addr: 0x40,
                    mode: WaitMode::LrWait,
                },
            ),
        );
        sink.record(
            20,
            sync(
                0,
                SyncEvent::ScResult {
                    core: 0,
                    addr: 0x40,
                    success: true,
                    wait: true,
                },
            ),
        );
        sink.record(
            20,
            sync(
                0,
                SyncEvent::WaitServed {
                    core: 1,
                    addr: 0x40,
                    mode: WaitMode::LrWait,
                    handoff: true,
                },
            ),
        );
        sink.record(
            26,
            TraceEvent::Wake {
                core: 1,
                cause: WakeCause::Response(OpKind::LrWait),
            },
        );
        let report = sink.finish();
        assert_eq!(report.handoff.count, 1);
        assert_eq!(report.handoff_samples, vec![6]);
        assert_eq!(report.handoff.p50, 6);
        assert_eq!(report.handoff.max, 6);
        assert_eq!(report.counters.handoffs, 1);
        assert_eq!(report.counters.scwait_success, 1);
    }

    #[test]
    fn occupancy_is_time_weighted() {
        let mut sink = AnalysisSink::new();
        let enqueue = |core| SyncEvent::WaitEnqueued {
            core,
            addr: 0x40,
            mode: WaitMode::MWait,
        };
        let serve = |core| SyncEvent::WaitServed {
            core,
            addr: 0x40,
            mode: WaitMode::MWait,
            handoff: false,
        };
        sink.record(0, sync(0, enqueue(1)));
        sink.record(50, sync(0, enqueue(2)));
        sink.record(100, sync(0, serve(1)));
        sink.record(100, sync(0, serve(2)));
        let report = sink.finish();
        assert_eq!(report.occupancy.max, 2);
        assert_eq!(report.occupancy.samples, 4);
        // depth 1 for cycles 0..50, depth 2 for 50..100: mean = 1.5.
        assert!((report.occupancy.mean - 1.5).abs() < 1e-9, "{report:?}");
        assert_eq!(
            report.occupancy_curve,
            vec![(0, 1), (50, 2), (100, 1), (100, 0)]
        );
    }

    #[test]
    fn percentiles_over_many_samples() {
        let mut sink = AnalysisSink::new();
        for i in 0..100u64 {
            sink.record(
                i * 10,
                sync(
                    0,
                    SyncEvent::WaitServed {
                        core: 5,
                        addr: 0x80,
                        mode: WaitMode::LrWait,
                        handoff: true,
                    },
                ),
            );
            // Latency grows linearly: 1, 2, ..., 100 cycles.
            sink.record(
                i * 10 + i + 1,
                TraceEvent::Wake {
                    core: 5,
                    cause: WakeCause::Response(OpKind::LrWait),
                },
            );
        }
        let report = sink.finish();
        assert_eq!(report.handoff.count, 100);
        assert_eq!(report.handoff.p50, 50);
        assert_eq!(report.handoff.p99, 99);
        assert_eq!(report.handoff.max, 100);
        assert!(report.summary().contains("p50/p99/max = 50/99/100"));
    }

    #[test]
    fn reservoir_percentiles_track_exact_percentiles() {
        // Stream 20x the reservoir capacity of handoff latencies drawn
        // from a seeded generator; the reservoir-sampled p50/p99 must stay
        // within a few percent of the exact order statistics, while count
        // and max stay *exactly* right.
        let n = 20 * ANALYSIS_RESERVOIR_CAP as u64;
        let mut rng = SplitMix64::new(42);
        let mut sink = AnalysisSink::new();
        let mut exact: Vec<u64> = Vec::new();
        for i in 0..n {
            // Latencies in 1..=10_000, deliberately skewed by squaring.
            let r = rng.next_u64() % 100;
            let latency = r * r + 1;
            exact.push(latency);
            let cycle = i * 50;
            sink.record(
                cycle,
                sync(
                    0,
                    SyncEvent::WaitServed {
                        core: 7,
                        addr: 0x80,
                        mode: WaitMode::LrWait,
                        handoff: true,
                    },
                ),
            );
            sink.record(
                cycle + latency,
                TraceEvent::Wake {
                    core: 7,
                    cause: WakeCause::Response(OpKind::LrWait),
                },
            );
        }
        exact.sort_unstable();
        let exact_pick = |q_num: usize, q_den: usize| exact[(exact.len() - 1) * q_num / q_den];
        let report = sink.finish();
        assert_eq!(report.handoff.count, n, "count stays exact");
        assert_eq!(
            report.handoff.max,
            *exact.last().unwrap(),
            "max stays exact"
        );
        assert_eq!(
            report.handoff_samples.len(),
            ANALYSIS_RESERVOIR_CAP,
            "reservoir is full and bounded"
        );
        let tolerance = |measured: u64, truth: u64| {
            let diff = measured.abs_diff(truth) as f64;
            assert!(
                diff <= (truth as f64) * 0.10 + 2.0,
                "measured {measured} vs exact {truth}"
            );
        };
        tolerance(report.handoff.p50, exact_pick(1, 2));
        tolerance(report.handoff.p99, exact_pick(99, 100));
        // Occupancy stayed exact too: every WaitServed without a matching
        // enqueue clamps at zero depth, so max is 0 and changes == n.
        assert_eq!(report.occupancy.samples, n);
        assert!(report.occupancy_curve.len() <= ANALYSIS_RESERVOIR_CAP);
        assert!(
            report.occupancy_curve.windows(2).all(|w| w[0].0 <= w[1].0),
            "retained curve points stay cycle-sorted"
        );
    }

    #[test]
    fn counters_and_noc_events_accumulate() {
        let mut sink = AnalysisSink::new();
        sink.record(
            1,
            sync(
                3,
                SyncEvent::ScResult {
                    core: 0,
                    addr: 4,
                    success: false,
                    wait: false,
                },
            ),
        );
        sink.record(
            2,
            sync(
                3,
                SyncEvent::WaitFailFast {
                    core: 1,
                    addr: 4,
                    mode: WaitMode::LrWait,
                },
            ),
        );
        sink.record(3, sync(3, SyncEvent::ReservationBroken { addr: 4 }));
        sink.record(
            4,
            TraceEvent::Noc {
                net: NetDir::Request,
                event: NocEvent::HolBlocked { node: 7 },
            },
        );
        sink.record(
            5,
            TraceEvent::Park {
                core: 0,
                cause: OpKind::Load,
            },
        );
        let report = sink.finish();
        assert_eq!(report.counters.sc_failure, 1);
        assert_eq!(report.counters.wait_failfast, 1);
        assert_eq!(report.counters.reservations_broken, 1);
        assert_eq!(report.hol_blocks, 1);
        assert_eq!(report.parks, 1);
        assert_eq!(report.last_cycle, 5);
    }
}
