//! Checkpoint/restore differential suite: running to cycle `N` must be
//! bit-identical to running to cycle `K`, snapshotting, restoring (into a
//! fresh machine) and continuing to `N` — on summaries, statistics, the
//! debug log and trace-event streams — for either execution mode on
//! *both* sides of the snapshot, and across the
//! synchronization architectures. The interrupt points are deliberately
//! chosen to land mid-wait (parked cores, armed monitors, populated
//! reservation queues) and mid-flight (flits in both networks).

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExecMode, ExitReason, Machine, SimConfig, SimError};
use lrscwait_trace::{OpKind, RecordingSink, SharedSink, TraceEvent, WakeCause};

/// Execution modes exercised on each side of a snapshot.
const MODES: [ExecMode; 2] = [ExecMode::Fast, ExecMode::Reference];

fn configured(base: SimConfig, mode: ExecMode) -> SimConfig {
    let mut cfg = base;
    cfg.exec_mode = mode;
    cfg
}

/// Asserts `run-to-end` ≡ `run-to-k + snapshot + restore + run-to-end`
/// for every mode pair on both sides of the snapshot.
fn assert_snapshot_equivalent(src: &str, base_cfg: SimConfig, k: u64, what: &str) {
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    let mut base = Machine::with_decoded(base_cfg, decoded.clone()).expect("loads");
    let base_summary = base.run().expect("uninterrupted run");
    let base_stats = base.stats();
    assert_eq!(
        base_summary.exit,
        ExitReason::AllHalted,
        "{what}: completes"
    );
    assert!(
        k < base_summary.cycles,
        "{what}: interrupt point is mid-run"
    );

    for mode_a in MODES {
        let cfg_a = configured(base_cfg, mode_a);
        let mut first = Machine::with_decoded(cfg_a, decoded.clone()).expect("loads");
        let stop = first.run_until(k).expect("run to interrupt");
        assert_eq!(
            stop.exit,
            ExitReason::TargetReached,
            "{what}: {mode_a:?} stops at the target"
        );
        assert_eq!(stop.cycles, k, "{what}: {mode_a:?} exact stop");
        let bytes = first.snapshot();

        for mode_b in MODES {
            let cfg_b = configured(base_cfg, mode_b);
            let mut second = Machine::with_decoded(cfg_b, decoded.clone()).expect("loads");
            second.restore(&bytes).expect("restore");
            assert_eq!(second.cycles(), k, "restored cycle counter");
            let summary = second.run().expect("resumed run");
            let ctx = format!("{what}: {mode_a:?} → {mode_b:?}");
            assert_eq!(base_summary, summary, "{ctx}: run summary");
            assert_eq!(base_stats, second.stats(), "{ctx}: statistics");
            assert_eq!(base.debug_log(), second.debug_log(), "{ctx}: debug log");
        }
    }
}

/// Contended `lrwait`/`scwait` increments with a final barrier — parks
/// cores in wait queues, keeps both networks busy, and prints a per-core
/// result. Wait-capable architectures only: on plain LRSC `scwait.w`
/// unconditionally fails, so the retry loop would never terminate (use
/// [`LRSC_COUNTER`] there).
const CONTENDED_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t0, 12
    again:
        lrwait.w t1, (a0)
        addi t1, t1, 1
        scwait.w t2, t1, (a0)
        bnez t2, again
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// The same contended counter written with classic `lr.w`/`sc.w` retry —
/// the only forward-progress idiom plain LRSC supports. Hartid-seeded
/// exponential backoff breaks the symmetric-retry livelock (without it the
/// deterministic cores displace each other's reservations forever). Keeps
/// the request network saturated with failed reservations at the
/// interrupt points.
const LRSC_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        rdhartid t6
        andi s10, t6, 7
        addi s10, s10, 4         # per-core initial backoff window
        li   t0, 12
    again:
        lr.w t1, (a0)
        addi t1, t1, 1
        sc.w t2, t1, (a0)
        beqz t2, ok
        mv   t5, s10
    bk:
        addi t5, t5, -1
        bnez t5, bk
        slli s10, s10, 1         # exponential growth, capped
        li   t5, 2048
        bltu s10, t5, again
        mv   s10, t5
        j    again
    ok:
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// Producer/consumer over an `mwait` mailbox: consumers park on the
/// monitor while the producer delays, so snapshots land on armed
/// monitors and sleeping cores.
const MWAIT_MAILBOX: &str = r#"
    _start:
        rdhartid t0
        la   a0, mailbox
        bnez t0, consumer
    producer:
        li   t1, 600
    work:
        addi t1, t1, -1
        bnez t1, work
        li   t2, 1
        sw   t2, (a0)
        fence
        ecall
    consumer:
    park:
        mwait.w t3, zero, (a0)
        bnez t3, done
        li   t4, 32
    backoff:
        addi t4, t4, -1
        bnez t4, backoff
        j    park
    done:
        ecall
    .data
    mailbox: .word 0
"#;

#[test]
fn contended_counter_snapshot_round_trip() {
    for arch in [
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 2 },
    ] {
        let cfg = SimConfig::small(8, arch);
        for k in [1, 40, 400] {
            assert_snapshot_equivalent(CONTENDED_COUNTER, cfg, k, &format!("counter/{arch}"));
        }
    }
    // Plain LRSC has no wait queues; its contended path is lr/sc retry.
    let cfg = SimConfig::small(8, SyncArch::Lrsc);
    for k in [1, 40, 400] {
        assert_snapshot_equivalent(LRSC_COUNTER, cfg, k, "counter/LRSC");
    }
}

#[test]
fn mwait_mailbox_snapshot_round_trip() {
    for arch in [
        SyncArch::Lrsc,
        SyncArch::LrscWaitIdeal,
        SyncArch::Colibri { queues: 2 },
    ] {
        let cfg = SimConfig::small(4, arch);
        // 300 lands mid-delay with every consumer parked on the monitor.
        for k in [10, 300] {
            assert_snapshot_equivalent(MWAIT_MAILBOX, cfg, k, &format!("mailbox/{arch}"));
        }
    }
}

#[test]
fn restored_trace_stream_is_the_suffix() {
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
    let k = 60;

    // Uninterrupted traced run.
    let full = SharedSink::new(RecordingSink::new());
    let mut base = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    base.set_tracer(Box::new(full.clone()));
    let base_summary = base.run().expect("uninterrupted run");
    let full_events = full.take().events;
    assert!(k < base_summary.cycles);

    // Snapshot from an *untraced* machine, restore into a *traced* one.
    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    first.run_until(k).expect("run to interrupt");
    let bytes = first.snapshot();

    let tail = SharedSink::new(RecordingSink::new());
    let mut second = Machine::with_decoded(cfg, decoded).expect("loads");
    second.set_tracer(Box::new(tail.clone()));
    second.restore(&bytes).expect("restore");
    let summary = second.run().expect("resumed run");
    assert_eq!(base_summary, summary);

    let tail_events = tail.take().events;
    assert!(
        matches!(tail_events[0], (0, TraceEvent::Start { .. })),
        "restored stream starts with its own Start event"
    );
    let expected: Vec<_> = full_events
        .iter()
        .filter(|(cycle, _)| *cycle > k)
        .cloned()
        .collect();
    assert_eq!(
        &tail_events[1..],
        expected.as_slice(),
        "restored stream is the uninterrupted stream's post-snapshot suffix"
    );
}

#[test]
fn injected_stores_are_mode_invariant() {
    // Host-injected mailbox writes must wake consumers identically in
    // both execution modes, and survive a snapshot taken
    // between injections.
    let src = r#"
        _start:
            la   a0, mailbox
            rdhartid t0
            slli t0, t0, 2
            add  a0, a0, t0          # my mailbox word
        park:
            mwait.w t3, zero, (a0)
            bnez t3, done
            j    park
        done:
            la   a1, results
            add  a1, a1, t0
            sw   t3, (a1)
            fence
            ecall
        .data
        .align 6
        mailbox: .word 0, 0, 0, 0
        .align 6
        results: .word 0, 0, 0, 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let mailbox = program.symbol("mailbox");
    let results = program.symbol("results");
    let base_cfg = SimConfig::small(4, SyncArch::Colibri { queues: 2 });

    let drive = |mut m: Machine, snapshot_mid: bool| {
        let mut m = {
            for (i, at) in [50u64, 120, 121, 400].iter().enumerate() {
                let stop = m.run_until(*at).expect("run to injection");
                assert_eq!(stop.exit, ExitReason::TargetReached);
                m.inject_store(mailbox + 4 * i as u32, 1 + i as u32);
                if snapshot_mid && i == 1 {
                    let bytes = m.snapshot();
                    let mut fresh =
                        Machine::with_decoded(base_cfg, decoded.clone()).expect("loads");
                    fresh.restore(&bytes).expect("restore");
                    m = fresh;
                }
            }
            m
        };
        let summary = m.run().expect("drain");
        assert_eq!(summary.exit, ExitReason::AllHalted);
        let values: Vec<u32> = (0..4).map(|i| m.read_word(results + 4 * i)).collect();
        assert_eq!(values, vec![1, 2, 3, 4], "every consumer saw its value");
        (summary, m.stats(), m.debug_log().to_vec())
    };

    let reference = drive(
        Machine::with_decoded(base_cfg, decoded.clone()).expect("loads"),
        false,
    );
    for mode in MODES {
        let cfg = configured(base_cfg, mode);
        let same = drive(
            Machine::with_decoded(cfg, decoded.clone()).expect("loads"),
            false,
        );
        assert_eq!(reference, same, "{mode:?}: injected run");
        let snapped = drive(
            Machine::with_decoded(cfg, decoded.clone()).expect("loads"),
            true,
        );
        assert_eq!(reference, snapped, "{mode:?}: snapshot mid-injection");
    }
}

#[test]
fn restore_rejects_malformed_snapshots() {
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::small(4, SyncArch::Lrsc);
    let mut m = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    m.run_until(20).expect("run");
    let good = m.snapshot();

    let bad_cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("truncated", good[..good.len() / 2].to_vec()),
        ("bad magic", {
            let mut b = good.clone();
            b[0] = b'X';
            b
        }),
        ("bad version", {
            let mut b = good.clone();
            b[4] = 0xFF;
            b
        }),
        ("trailing bytes", {
            let mut b = good.clone();
            b.push(0);
            b
        }),
    ];
    for (what, bytes) in bad_cases {
        let mut target = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
        let err = target.restore(&bytes).expect_err(what);
        assert!(
            matches!(err, SimError::BadSnapshot { .. }),
            "{what}: typed error, got {err:?}"
        );
    }

    // Wrong architecture and wrong geometry are rejected up front.
    let mut other_arch = Machine::with_decoded(
        SimConfig::small(4, SyncArch::Colibri { queues: 2 }),
        decoded.clone(),
    )
    .expect("loads");
    let err = other_arch.restore(&good).expect_err("arch mismatch");
    assert!(matches!(err, SimError::BadSnapshot { .. }));
    assert!(err.to_string().contains("architecture"), "{err}");

    let mut other_geom =
        Machine::with_decoded(SimConfig::small(8, SyncArch::Lrsc), decoded).expect("loads");
    let err = other_geom.restore(&good).expect_err("geometry mismatch");
    assert!(matches!(err, SimError::BadSnapshot { .. }));
    assert!(err.to_string().contains("geometry"), "{err}");
}

#[test]
fn restore_rejects_stale_program_image() {
    // A snapshot must never resume over a different text image: the
    // fast stepper would execute superblocks lowered from the wrong
    // program (and the interpreter would silently diverge just the same).
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::small(4, SyncArch::LrscWaitIdeal);
    let mut m = Machine::with_decoded(cfg, decoded).expect("loads");
    m.run_until(20).expect("run");
    let bytes = m.snapshot();

    // Same geometry and architecture, different program.
    let other = Assembler::new().assemble(MWAIT_MAILBOX).expect("assembles");
    let other = Machine::decode(&other).expect("decodes");
    for mode in MODES {
        let mut target =
            Machine::with_decoded(configured(cfg, mode), other.clone()).expect("loads");
        let err = target.restore(&bytes).expect_err("stale image");
        assert!(
            matches!(err, SimError::BadSnapshot { .. }),
            "{mode:?}: typed error, got {err:?}"
        );
        assert!(err.to_string().contains("program image"), "{mode:?}: {err}");
    }
}

#[test]
fn restore_reuses_cached_translation() {
    // Every fast-mode machine built from (or restored over) the same
    // decoded program must share one translation — the cache lives on the
    // `DecodedProgram`, and `restore` must not rebuild or replace it.
    let program = Assembler::new()
        .assemble(CONTENDED_COUNTER)
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = configured(
        SimConfig::small(4, SyncArch::Colibri { queues: 2 }),
        ExecMode::Fast,
    );

    let mut first = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    let original = std::sync::Arc::clone(first.translation().expect("fast mode"));
    first.run_until(40).expect("run");
    let bytes = first.snapshot();

    let mut second = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    assert!(
        std::sync::Arc::ptr_eq(second.translation().expect("fast mode"), &original),
        "clones of one DecodedProgram share one translation"
    );
    second.restore(&bytes).expect("restore");
    assert!(
        std::sync::Arc::ptr_eq(second.translation().expect("fast mode"), &original),
        "restore must keep the cached translation, not rebuild it"
    );
    let summary = second.run().expect("resumed run");
    assert_eq!(summary.exit, ExitReason::AllHalted);

    // A reference machine carries no translation at all.
    let reference =
        Machine::with_decoded(configured(cfg, ExecMode::Reference), decoded).expect("loads");
    assert!(reference.translation().is_none());
}

#[test]
fn run_until_is_transparent() {
    // Chopping a run into arbitrary run_until segments must not change
    // anything, including the fast-forward stall accounting.
    let program = Assembler::new().assemble(MWAIT_MAILBOX).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::small(4, SyncArch::LrscWaitIdeal);

    let mut base = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    let base_summary = base.run().expect("uninterrupted");

    let mut chopped = Machine::with_decoded(cfg, decoded).expect("loads");
    let mut target = 7;
    loop {
        let summary = chopped.run_until(target).expect("segment");
        if summary.exit != ExitReason::TargetReached {
            assert_eq!(base_summary, summary, "chopped run summary");
            break;
        }
        assert!(summary.cycles >= target);
        target += 13;
    }
    assert_eq!(base.stats(), chopped.stats(), "chopped run statistics");
}

/// A machine of `cfg` with a recording sink attached; returns both.
fn traced(
    cfg: SimConfig,
    decoded: &std::sync::Arc<lrscwait_sim::DecodedProgram>,
) -> (Machine, SharedSink<RecordingSink>) {
    let sink = SharedSink::new(RecordingSink::new());
    let mut m = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    m.set_tracer(Box::new(sink.clone()));
    (m, sink)
}

/// Cores inside their backoff countdown at cycle `k`: the `sc.w` that
/// failed woke them at least two cycles before `k` (so the `mv` has
/// issued and the `addi`/`bnez` loop is running), and their next `lr.w`
/// leaves at least eight cycles after `k` (the loop's fall-through and
/// the window update still lie ahead).
fn cores_in_backoff(events: &[(u64, TraceEvent)], k: u64, cores: u32) -> usize {
    (0..cores)
        .filter(|&core| {
            let last_wake = events.iter().rev().find_map(|&(cycle, ref e)| match e {
                TraceEvent::Wake {
                    core: c,
                    cause: WakeCause::Response(OpKind::Sc),
                } if *c == core && cycle + 2 <= k => Some(cycle),
                _ => None,
            });
            let Some(wake) = last_wake else {
                return false;
            };
            let next_lr = events.iter().find_map(|&(cycle, ref e)| match e {
                TraceEvent::ReqSent {
                    core: c,
                    kind: OpKind::Lr,
                    ..
                } if *c == core && cycle > wake => Some(cycle),
                _ => None,
            });
            next_lr.is_some_and(|lr| k + 8 <= lr)
        })
        .count()
}

#[test]
fn backoff_countdowns_match_reference_at_every_stop() {
    // 64 cores in LR/SC exponential backoff: most of them sit in the
    // fast path's ready-time calendar or in a closed-form countdown at
    // any moment. Every `run_until` stop below lands inside countdowns
    // (checked against the reference trace), and at every stop the
    // statistics, the snapshot bytes and the trace events since the last
    // stop must equal the reference's. Every other stop also restores
    // the snapshot into a fresh machine and carries on from there, so the
    // run ends bit-identical to the uninterrupted one only if each
    // restore resumes exactly.
    let program = Assembler::new().assemble(LRSC_COUNTER).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cores = 64;
    let base_cfg = SimConfig::small(cores, SyncArch::Lrsc);

    let (mut whole, whole_sink) = traced(configured(base_cfg, ExecMode::Reference), &decoded);
    let whole_summary = whole.run().expect("uninterrupted reference run");
    assert_eq!(whole_summary.exit, ExitReason::AllHalted);
    let whole_stats = whole.stats();
    let events = whole_sink.take().events;
    assert!(
        whole_stats.adapters.sc_failure > 0,
        "contention must back off"
    );

    let stops: Vec<u64> = (1..)
        .map(|i| i * 2_003)
        .take_while(|&k| k < whole_summary.cycles)
        .collect();
    assert!(stops.len() >= 8, "enough stops: {}", stops.len());
    for &k in &stops {
        assert!(
            cores_in_backoff(&events, k, cores as u32) > 0,
            "stop {k} lands inside some core's countdown"
        );
    }

    // Per stop: (statistics, snapshot bytes), from the first mode.
    let mut expected: Vec<(lrscwait_sim::SimStats, Vec<u8>)> = Vec::new();
    for mode in [ExecMode::Reference, ExecMode::Fast] {
        let cfg = configured(base_cfg, mode);
        let ctx = format!("{mode:?}");
        let (mut m, mut sink) = traced(cfg, &decoded);
        let mut seen = 1; // the Start event
        let mut prev = 0;
        for (i, &k) in stops.iter().enumerate() {
            let stop = m.run_until(k).expect("run to stop");
            assert_eq!(stop.exit, ExitReason::TargetReached, "{ctx}: stop {k}");
            assert_eq!(stop.cycles, k, "{ctx}: exact stop");
            let stats = m.stats();
            let bytes = m.snapshot();
            match expected.get(i) {
                Some((want_stats, want_bytes)) => {
                    assert_eq!(&stats, want_stats, "{ctx}: statistics at {k}");
                    assert!(&bytes == want_bytes, "{ctx}: snapshot bytes at {k}");
                }
                None => expected.push((stats, bytes.clone())),
            }
            let got: Vec<_> = sink.take().events.split_off(seen);
            let want: Vec<_> = events
                .iter()
                .filter(|(cycle, _)| *cycle > prev && *cycle <= k)
                .cloned()
                .collect();
            assert_eq!(got, want, "{ctx}: trace events in ({prev}, {k}]");
            prev = k;
            seen = 0;
            if i % 2 == 1 {
                let (mut fresh, fresh_sink) = traced(cfg, &decoded);
                fresh.restore(&bytes).expect("restore");
                m = fresh;
                sink = fresh_sink;
                seen = 1;
            }
        }
        let summary = m.run().expect("resumed run");
        assert_eq!(summary, whole_summary, "{ctx}: run summary");
        assert_eq!(m.stats(), whole_stats, "{ctx}: final statistics");
        let tail: Vec<_> = sink.take().events.split_off(seen);
        let want: Vec<_> = events
            .iter()
            .filter(|(cycle, _)| *cycle > prev)
            .cloned()
            .collect();
        assert_eq!(tail, want, "{ctx}: trace events after the last stop");
    }
}
