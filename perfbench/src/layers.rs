//! The traced run: per-crate metrics from the phase profiler, a counting
//! trace sink, standalone timings of each set-up stage and of
//! snapshot/restore, and the deterministic counts of `SimStats`.
//!
//! Everything here drives the crates through their public API; nothing is
//! instrumented inside them.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lrscwait_model::EnergyParams;
use lrscwait_sim::{Machine, PhaseProfile};
use lrscwait_telemetry::Phase;
use lrscwait_trace::{TraceEvent, TraceSink};

use crate::probe::Probe;
use crate::report::{median, ratio, Gate, Metric};
use crate::workloads::{Instrument, Rep, Spec};

/// Trace event kinds counted by [`CountingSink`], by `TraceEvent` variant.
/// `other` holds the one-off `Start` and anything without a slot.
const KINDS: [&str; 11] = [
    "sync",
    "noc",
    "req_sent",
    "park",
    "wake",
    "region_enter",
    "region_exit",
    "barrier_arrive",
    "barrier_release",
    "halt",
    "other",
];

/// Counts trace events per kind. Clones share the counters, so the
/// benchmark keeps one handle while the machine owns the other.
#[derive(Clone, Default)]
struct CountingSink(Arc<[AtomicU64; KINDS.len()]>);

impl CountingSink {
    fn counts(&self) -> [u64; KINDS.len()] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _cycle: u64, event: TraceEvent) {
        let kind = match event {
            TraceEvent::Sync { .. } => 0,
            TraceEvent::Noc { .. } => 1,
            TraceEvent::ReqSent { .. } => 2,
            TraceEvent::Park { .. } => 3,
            TraceEvent::Wake { .. } => 4,
            TraceEvent::RegionEnter { .. } => 5,
            TraceEvent::RegionExit { .. } => 6,
            TraceEvent::BarrierArrive { .. } => 7,
            TraceEvent::BarrierRelease { .. } => 8,
            TraceEvent::Halt { .. } => 9,
            _ => 10,
        };
        // A statistic read after the run: publishes no other data.
        self.0[kind].fetch_add(1, Ordering::Relaxed);
    }
}

/// Host seconds per call of `f`: the median of several batches, each
/// repeating `f` until the batch is well above timer resolution.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    const MIN_BATCH: Duration = Duration::from_millis(5);
    const BATCHES: usize = 7;
    let mut calls = 1u32;
    loop {
        let started = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        if started.elapsed() >= MIN_BATCH {
            break;
        }
        calls *= 2;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            started.elapsed().as_secs_f64() / f64::from(calls)
        })
        .collect();
    median(&batches)
}

/// Restores timed for `sim.restore_mb_per_s`, each into a fresh machine.
const RESTORES: usize = 9;

/// Snapshot throughput on the finished machine, and restore throughput
/// into fresh machines from `Spec::setup`, which are still at cycle 0.
/// Each restored machine must snapshot to the same bytes, so a restore
/// that skips part of the state fails the round trip.
fn snapshot_layers(spec: &Spec, machine: &Machine, gate: &mut Gate) -> (f64, f64) {
    let bytes = machine.snapshot();
    let mb = bytes.len() as f64 / 1e6;
    let snapshot_s = per_call(|| machine.snapshot());
    let mut restores = Vec::with_capacity(RESTORES);
    gate.attempted += 1;
    for _ in 0..RESTORES {
        let mut fresh = match spec.setup() {
            Ok((fresh, _)) => fresh,
            Err(e) => {
                gate.fail("snapshot round trip", &e);
                break;
            }
        };
        let started = Instant::now();
        let outcome = fresh.restore(&bytes);
        restores.push(started.elapsed().as_secs_f64());
        match outcome {
            Ok(()) if fresh.snapshot() == bytes => {}
            Ok(()) => {
                gate.fail(
                    "snapshot round trip",
                    "a fresh machine restored from the snapshot snapshots to other bytes",
                );
                break;
            }
            Err(e) => {
                gate.fail("snapshot round trip", &e.to_string());
                break;
            }
        }
    }
    (mb / snapshot_s, mb / median(&restores))
}

/// Runs untraced, profiled and traced repetitions in turn for `seconds`,
/// then the standalone timings, and returns the per-layer metrics.
pub fn run(spec: &Spec, seconds: f64, probe: &mut Probe, gate: &mut Gate) -> Vec<Metric> {
    // Repetition times in reference seconds, so that host drift between
    // the three kinds of repetition cancels out of the overheads.
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let mut traced = Vec::new();
    let mut profile: Option<PhaseProfile> = None;
    let mut events: Option<[u64; KINDS.len()]> = None;
    let mut finished: Option<(Rep, Machine)> = None;
    let started = Instant::now();
    while plain.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let Some(off) = gate.admit("untraced repetition", spec.run(Instrument::Off, probe)) else {
            break;
        };
        plain.push(off.0.ref_s());
        finished = Some(off);
        let outcome = spec.run(Instrument::Profiler, probe);
        let Some((rep, _)) = gate.admit("profiled repetition", outcome) else {
            break;
        };
        profiled.push(rep.ref_s());
        let p = rep.profile.expect("the profiler was enabled");
        match &mut profile {
            None => profile = Some(p),
            Some(merged) => merged.merge(&p),
        }
        let sink = CountingSink::default();
        let outcome = spec.run(Instrument::Traced(Box::new(sink.clone())), probe);
        let Some((rep, _)) = gate.admit("traced repetition", outcome) else {
            break;
        };
        traced.push(rep.ref_s());
        let counts = sink.counts();
        if events.is_some_and(|e| e != counts) {
            gate.fail(
                "traced repetition",
                "trace event counts differ between runs",
            );
            break;
        }
        events = Some(counts);
    }
    let (Some((rep, machine)), Some(profile), Some(events)) = (finished, profile, events) else {
        return Vec::new();
    };
    if !gate.ok() {
        return Vec::new();
    }
    // Standalone timings of the set-up stages, in host seconds per call.
    let program = spec.kernel.program();
    let decoded = Machine::decode(&program).expect("the program decoded in every repetition");
    let program_s = per_call(|| spec.kernel.program());
    let decode_s = per_call(|| Machine::decode(&program));
    let build_s = per_call(|| {
        let mut m = Machine::with_decoded(spec.cfg, Arc::clone(&decoded))
            .expect("the machine built in every repetition");
        spec.kernel.init(&mut m);
        m
    });
    let (snapshot_mb_s, restore_mb_s) = snapshot_layers(spec, &machine, gate);
    drop(machine);
    if !gate.ok() {
        return Vec::new();
    }

    let stats = &rep.stats;
    let mut out = vec![
        Metric::new("asm.program_us", program_s * 1e6, "us"),
        Metric::new(
            "isa.decode_ns_per_word",
            decode_s * 1e9 / program.text.len() as f64,
            "ns",
        ),
        Metric::new("sim.build_ms", build_s * 1e3, "ms"),
    ];

    // The profiler times one stepped cycle in `sample_every`, and its clock
    // reads slow the sampled cycles down; so each phase gets its sampled
    // share of the measured host time per stepped cycle.
    let reps = profiled.len() as f64;
    let stepped_per_rep = profile.stepped_cycles as f64 / reps;
    let ns_per_stepped = ratio(profile.wall_ns as f64, profile.stepped_cycles as f64);
    let phase_ns = |phase: Phase| profile.share(phase) * ns_per_stepped;
    for phase in Phase::ALL {
        out.push(Metric::new(
            format!("sim.phase.{}.ns_per_cycle", phase.name()),
            phase_ns(phase),
            "ns",
        ));
    }
    // Total host ns a phase spends in one repetition.
    let phase_total = |phase: Phase| phase_ns(phase) * stepped_per_rep;
    let instret = stats.total_instructions() as f64;
    let req = &stats.req_network;
    let resp = &stats.resp_network;
    let a = &stats.adapters;
    let buckets = (stats.total_active_cycles()
        + stats.total_stall_cycles()
        + stats.total_sleep_cycles()
        + stats.total_barrier_cycles()) as f64;
    let energy = EnergyParams::default().evaluate(stats, rep.cycles);
    let sc_attempts = (a.sc_success + a.sc_failure + a.scwait_success + a.scwait_failure) as f64;
    let total_events: u64 = events.iter().sum();
    let plain_s = median(&plain);
    let profiled_s = median(&profiled);
    let traced_s = median(&traced);
    out.extend([
        Metric::new(
            "sim.core_step.ns_per_instr",
            ratio(phase_total(Phase::CoreStep), instret),
            "ns",
        ),
        Metric::new("sim.ns_per_stepped_cycle", ns_per_stepped, "ns"),
        Metric::new(
            "sim.stepped_frac",
            stepped_per_rep / rep.cycles as f64,
            "frac",
        ),
        Metric::new("sim.snapshot_mb_per_s", snapshot_mb_s, "MB/s"),
        Metric::new("sim.restore_mb_per_s", restore_mb_s, "MB/s"),
        Metric::new(
            "noc.req.ns_per_hop",
            ratio(phase_total(Phase::ReqNetAdvance), req.hops as f64),
            "ns",
        ),
        Metric::new(
            "noc.resp.ns_per_hop",
            ratio(phase_total(Phase::RespNetAdvance), resp.hops as f64),
            "ns",
        ),
        Metric::new("noc.req.hops", req.hops as f64, "count"),
        Metric::new("noc.resp.hops", resp.hops as f64, "count"),
        Metric::new(
            "noc.hol_blocks",
            (req.hol_blocks + resp.hol_blocks) as f64,
            "count",
        ),
        Metric::new(
            "noc.inject_stalls",
            (req.inject_stalls + resp.inject_stalls) as f64,
            "count",
        ),
        Metric::new(
            "core.ns_per_request",
            ratio(phase_total(Phase::BankService), a.requests as f64),
            "ns",
        ),
        Metric::new("core.requests", a.requests as f64, "count"),
        Metric::new(
            "core.sc_success_ratio",
            ratio((a.sc_success + a.scwait_success) as f64, sc_attempts),
            "frac",
        ),
        Metric::new("core.wait_enqueued", a.wait_enqueued as f64, "count"),
        Metric::new("core.wakeups", a.wakeups as f64, "count"),
        Metric::new("core.wait_failfast", a.wait_failfast as f64, "count"),
        Metric::new("sim.instret", instret, "count"),
        Metric::new(
            "sim.active_frac",
            ratio(stats.total_active_cycles() as f64, buckets),
            "frac",
        ),
        Metric::new(
            "sim.stall_frac",
            ratio(stats.total_stall_cycles() as f64, buckets),
            "frac",
        ),
        Metric::new(
            "sim.sleep_frac",
            ratio(stats.total_sleep_cycles() as f64, buckets),
            "frac",
        ),
        Metric::new(
            "model.network_pj_frac",
            ratio(energy.network_pj, energy.total_pj),
            "frac",
        ),
        Metric::new("trace.events", total_events as f64, "count"),
        Metric::new(
            "trace.ns_per_event",
            ratio((traced_s - profiled_s) * 1e9, total_events as f64),
            "ns",
        ),
        Metric::new(
            "telemetry.profiler_overhead_frac",
            profiled_s / plain_s - 1.0,
            "frac",
        ),
        Metric::new("trace.overhead_frac", traced_s / plain_s - 1.0, "frac"),
    ]);
    for (kind, count) in KINDS.iter().zip(events) {
        out.push(Metric::new(
            format!("trace.events.{kind}"),
            count as f64,
            "count",
        ));
    }
    out
}
