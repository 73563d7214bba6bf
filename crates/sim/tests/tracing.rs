//! Machine-level tracing tests: the emitted event stream is complete,
//! internally consistent, and — like every other observable — identical
//! across the default fast mode and the reference stepper, at every
//! shard count.

use lrscwait_asm::Assembler;
use lrscwait_core::{SyncArch, SyncEvent};
use lrscwait_sim::{ExecMode, Machine, SimConfig};
use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent};

const KERNEL: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t2, 4
    loop:
        lrwait.w t0, (a0)
        addi     t0, t0, 1
        scwait.w t1, t0, (a0)
        bnez     t1, loop
        addi     t2, t2, -1
        bnez     t2, loop
        sw   zero, 0x0C(s0)     # barrier
        ecall
    .data
    counter: .word 0
"#;

fn record_run(arch: SyncArch, mode: ExecMode, shards: usize) -> (Vec<(u64, TraceEvent)>, u64) {
    let program = Assembler::new().assemble(KERNEL).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(arch)
        .exec_mode(mode)
        .shards(shards)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");
    let sink = SharedSink::new(RecordingSink::new());
    machine.set_tracer(Box::new(sink.clone()));
    assert!(machine.tracing());
    let summary = machine.run().expect("runs");
    (sink.take().events, summary.cycles)
}

#[test]
fn trace_stream_is_identical_across_exec_modes_and_shards() {
    // Events happen in stepped cycles only, and every (mode, shard count)
    // combination is bit-identical in everything observable — so even the
    // *trace streams* must match event-for-event, cycle-for-cycle:
    // parallel phases buffer per shard and drain in shard order, which
    // reproduces the single-sharded emission order exactly.
    for arch in [SyncArch::LrscWaitIdeal, SyncArch::Colibri { queues: 2 }] {
        let (fast, fast_cycles) = record_run(arch, ExecMode::Fast, 1);
        for (mode, shards) in [
            (ExecMode::Reference, 1),
            (ExecMode::Fast, 3),
            (ExecMode::Reference, 2),
        ] {
            let (other, other_cycles) = record_run(arch, mode, shards);
            assert_eq!(fast_cycles, other_cycles);
            assert_eq!(
                fast.len(),
                other.len(),
                "{arch}: event counts diverge ({mode:?}, {shards} shards)"
            );
            for (i, (f, r)) in fast.iter().zip(&other).enumerate() {
                assert_eq!(
                    f, r,
                    "{arch}: event {i} diverges ({mode:?}, {shards} shards)"
                );
            }
        }
    }
}

#[test]
fn stream_starts_with_geometry_and_balances_parks() {
    let (events, _) = record_run(SyncArch::Colibri { queues: 2 }, ExecMode::Fast, 2);
    assert!(
        matches!(
            events.first(),
            Some((0, TraceEvent::Start { cores: 4, .. }))
        ),
        "first event must be Start: {:?}",
        events.first()
    );

    let count = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|(_, e)| pred(e)).count();
    let parks = count(&|e| matches!(e, TraceEvent::Park { .. }));
    let mem_wakes = count(&|e| {
        matches!(
            e,
            TraceEvent::Wake {
                cause: lrscwait_trace::WakeCause::Response(_),
                ..
            }
        )
    });
    // The run completed, so every blocking park saw its response.
    assert_eq!(parks, mem_wakes, "every park must wake exactly once");
    assert!(parks > 0);

    // All four cores arrive at the barrier, one release wakes the parked
    // ones, and all four halt.
    assert_eq!(count(&|e| matches!(e, TraceEvent::BarrierArrive { .. })), 4);
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::BarrierRelease { .. })),
        1
    );
    assert_eq!(count(&|e| matches!(e, TraceEvent::Halt { .. })), 4);

    // Colibri hand-offs appear as adapter events *and* the bounced
    // WakeUp requests that implement them.
    let successor_updates = count(&|e| {
        matches!(
            e,
            TraceEvent::Sync {
                event: SyncEvent::SuccessorUpdate { .. },
                ..
            }
        )
    });
    let wakeups_sent = count(&|e| {
        matches!(
            e,
            TraceEvent::ReqSent {
                kind: lrscwait_trace::OpKind::WakeUp,
                ..
            }
        )
    });
    assert!(successor_updates > 0, "contended colibri run must chain");
    assert_eq!(
        successor_updates, wakeups_sent,
        "every successor update leads to exactly one bounced WakeUp"
    );

    // Cycles are non-decreasing.
    for pair in events.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "cycle stamps must not go back");
    }
}

#[test]
#[should_panic(expected = "attach the trace sink before running")]
fn tracer_must_attach_before_first_cycle() {
    let program = Assembler::new().assemble(KERNEL).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::LrscWaitIdeal)
        .build()
        .unwrap();
    let mut machine = Machine::new(cfg, &program).unwrap();
    machine.step_cycle().unwrap();
    machine.set_tracer(Box::new(RecordingSink::new()));
}
