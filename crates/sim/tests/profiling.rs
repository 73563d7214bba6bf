//! Host-side profiler tests: enabling the phase profiler must not
//! perturb anything the simulation observes — run summaries, statistics,
//! debug logs, and the full trace stream stay bit-identical with the
//! profiler on or off, in both execution modes. The
//! profile itself must be internally consistent: phase times sum exactly
//! to the sampled time, which never exceeds wall time.

use lrscwait_asm::Assembler;
use lrscwait_core::{SyncArch, SyncEvent};
use lrscwait_sim::{ExecMode, Machine, ProfilerConfig, SimConfig, SimStats};
use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent};

const KERNEL: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t2, 6
    loop:
        lrwait.w t0, (a0)
        addi     t0, t0, 1
        scwait.w t1, t0, (a0)
        bnez     t1, loop
        addi     t2, t2, -1
        bnez     t2, loop
        sw   zero, 0x0C(s0)     # barrier
        sw   t0, 0x08(s0)       # print the count
        ecall
    .data
    counter: .word 0
"#;

struct Observed {
    cycles: u64,
    stats: SimStats,
    debug_log: Vec<(u64, u32, u32)>,
    trace: Vec<(u64, TraceEvent)>,
}

fn run_observed(mode: ExecMode, profiled: bool) -> Observed {
    let program = Assembler::new().assemble(KERNEL).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::LrscWait { slots: 2 })
        .exec_mode(mode)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");
    let sink = SharedSink::new(RecordingSink::new());
    machine.set_tracer(Box::new(sink.clone()));
    if profiled {
        // Sample every cycle so the profiler's measuring paths all run.
        machine.enable_profiler(ProfilerConfig { sample_every: 1 });
        assert!(machine.profiling());
    }
    let summary = machine.run().expect("runs");
    if profiled {
        let profile = machine.profile().expect("profiling machine has a profile");
        // Fast mode fast-forwards idle stretches; only the
        // stepped (non-skipped) cycles are profiled.
        assert!(profile.stepped_cycles > 0);
        assert!(profile.stepped_cycles <= summary.cycles);
        assert_eq!(
            profile.stepped_cycles, profile.sampled_cycles,
            "sample_every = 1 samples every stepped cycle"
        );
    } else {
        assert!(
            machine.profile().is_none(),
            "off profiler yields no profile"
        );
    }
    Observed {
        cycles: summary.cycles,
        stats: machine.stats(),
        debug_log: machine.debug_log().to_vec(),
        trace: sink.take().events,
    }
}

#[test]
fn profiler_never_perturbs_simulation() {
    for mode in [ExecMode::Fast, ExecMode::Reference] {
        let off = run_observed(mode, false);
        let on = run_observed(mode, true);
        let what = format!("{mode:?}");
        assert_eq!(off.cycles, on.cycles, "{what}: cycle count");
        assert_eq!(off.stats, on.stats, "{what}: statistics");
        assert_eq!(off.debug_log, on.debug_log, "{what}: debug log");
        assert_eq!(off.trace.len(), on.trace.len(), "{what}: trace length");
        assert_eq!(off.trace, on.trace, "{what}: trace stream");
        assert!(
            off.trace.iter().any(|(_, e)| matches!(
                e,
                TraceEvent::Sync {
                    event: SyncEvent::ScResult { success: true, .. },
                    ..
                }
            )),
            "{what}: the kernel actually exercised the sync path"
        );
    }
}

#[test]
fn profile_is_internally_consistent() {
    let program = Assembler::new().assemble(KERNEL).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::LrscWait { slots: 2 })
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");
    machine.enable_profiler(ProfilerConfig { sample_every: 2 });
    machine.run().expect("runs");
    let profile = machine.profile().expect("profile present");

    // Laps are contiguous: phase times sum *exactly* to the sampled
    // step time, which the wall clock (covering the whole run loop,
    // sampled or not) must dominate.
    let phase_sum: u64 = profile.phases.iter().map(|s| s.ns).sum();
    assert_eq!(phase_sum, profile.sampled_ns, "laps are contiguous");
    assert!(
        profile.sampled_ns <= profile.wall_ns,
        "sampled {} <= wall {}",
        profile.sampled_ns,
        profile.wall_ns
    );
    assert_eq!(profile.sample_every, 2);
    assert!(profile.sampled_cycles >= profile.stepped_cycles / 2);

    // The shares derived from a real run are well-formed.
    let share_sum: f64 = profile.phases.iter().map(|s| profile.share(s.phase)).sum();
    assert!(profile.sampled_ns == 0 || (share_sum - 1.0).abs() < 1e-9);
    assert!(profile.render().contains("core_step"));
}
