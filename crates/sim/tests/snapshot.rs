//! Checkpoint/restore differential suite: running to cycle `N` must be
//! bit-identical to running to cycle `K`, snapshotting, restoring (into a
//! fresh machine) and continuing to `N` — on summaries, statistics, the
//! debug log and trace-event streams — for every combination of execution
//! mode and shard count on *both* sides of the snapshot, and across the
//! synchronization architectures. The interrupt points are deliberately
//! chosen to land mid-wait (parked cores, armed monitors, populated
//! reservation queues) and mid-flight (flits in both networks).

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExecMode, ExitReason, Machine, SimConfig, SimError};
use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent};

/// Mode/shard combinations exercised on each side of a snapshot.
const COMBOS: [(ExecMode, usize); 4] = [
    (ExecMode::Fast, 1),
    (ExecMode::Reference, 1),
    (ExecMode::Fast, 3),
    (ExecMode::Reference, 2),
];

fn configured(base: SimConfig, mode: ExecMode, shards: usize) -> SimConfig {
    let mut cfg = base;
    cfg.exec_mode = mode;
    cfg.shards = shards;
    cfg
}

/// Asserts `run-to-end` ≡ `run-to-k + snapshot + restore + run-to-end`
/// for every (mode, shards) pair on both sides of the snapshot.
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

    for (mode_a, shards_a) in COMBOS {
        let cfg_a = configured(base_cfg, mode_a, shards_a);
        let mut first = Machine::with_decoded(cfg_a, decoded.clone()).expect("loads");
        let stop = first.run_until(k).expect("run to interrupt");
        assert_eq!(
            stop.exit,
            ExitReason::TargetReached,
            "{what}: {mode_a:?}/{shards_a} stops at the target"
        );
        assert_eq!(stop.cycles, k, "{what}: {mode_a:?}/{shards_a} exact stop");
        let bytes = first.snapshot();

        for (mode_b, shards_b) in COMBOS {
            let cfg_b = configured(base_cfg, mode_b, shards_b);
            let mut second = Machine::with_decoded(cfg_b, decoded.clone()).expect("loads");
            second.restore(&bytes).expect("restore");
            assert_eq!(second.cycles(), k, "restored cycle counter");
            let summary = second.run().expect("resumed run");
            let ctx = format!("{what}: {mode_a:?}/{shards_a} → {mode_b:?}/{shards_b}");
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
fn injected_stores_are_mode_and_shard_invariant() {
    // Host-injected mailbox writes must wake consumers identically in
    // every execution mode and shard count, and survive a snapshot taken
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
    for (mode, shards) in COMBOS {
        let cfg = configured(base_cfg, mode, shards);
        let same = drive(
            Machine::with_decoded(cfg, decoded.clone()).expect("loads"),
            false,
        );
        assert_eq!(reference, same, "{mode:?}/{shards}: injected run");
        let snapped = drive(
            Machine::with_decoded(cfg, decoded.clone()).expect("loads"),
            true,
        );
        assert_eq!(
            reference, snapped,
            "{mode:?}/{shards}: snapshot mid-injection"
        );
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
    for (mode, shards) in COMBOS {
        let mut target =
            Machine::with_decoded(configured(cfg, mode, shards), other.clone()).expect("loads");
        let err = target.restore(&bytes).expect_err("stale image");
        assert!(
            matches!(err, SimError::BadSnapshot { .. }),
            "{mode:?}/{shards}: typed error, got {err:?}"
        );
        assert!(
            err.to_string().contains("program image"),
            "{mode:?}/{shards}: {err}"
        );
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
        1,
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
        Machine::with_decoded(configured(cfg, ExecMode::Reference, 1), decoded).expect("loads");
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
