//! Chaos-engine differential suite: the determinism contract for fault
//! injection.
//!
//! Two guarantees, both load-bearing for the litmus harness:
//!
//! 1. **Chaos-off bit-identity.** A config with `chaos: None` and one
//!    carrying a *quiet* plan (all rates zero, no mutation) are
//!    indistinguishable — run summaries, statistics, debug logs and
//!    trace-event streams match byte-for-byte in both execution
//!    modes. The engine follows the `Tracer`/`Profiler`
//!    discipline: off means one predictable branch, not "small noise".
//!
//! 2. **Chaos-on determinism.** An *active* plan makes runs differ from
//!    clean ones (it must actually inject), but the injected run itself
//!    is a pure function of the seed: both execution modes under the
//!    same plan produces identical summaries, statistics and
//!    trace streams, because every injection site keys on quantities the
//!    existing determinism contract already fixes.

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{ExecMode, FaultPlan, Machine, SimConfig};
use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent};

/// Contended wait-queue counter with a barrier: parks cores, exercises
/// reservations, wakeups and both networks — every chaos injection site
/// sees candidates.
const KERNEL: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t0, 10
    again:
        lrwait.w t1, (a0)
        addi t1, t1, 1
        scwait.w t2, t1, (a0)
        bnez t2, again
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        ecall
    .data
    counter: .word 0
"#;

/// Both execution modes the determinism contract covers.
const MODES: [ExecMode; 2] = [ExecMode::Fast, ExecMode::Reference];

struct Observation {
    summary: lrscwait_sim::RunSummary,
    stats: lrscwait_sim::SimStats,
    debug_log: Vec<(u64, u32, u32)>,
    trace: Vec<(u64, TraceEvent)>,
}

fn observe(arch: SyncArch, mode: ExecMode, chaos: Option<FaultPlan>) -> Observation {
    let program = Assembler::new().assemble(KERNEL).expect("assembles");
    let mut builder = SimConfig::builder().cores(4).arch(arch).exec_mode(mode);
    if let Some(plan) = chaos {
        builder = builder.chaos(plan);
    }
    let cfg = builder.build().expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");
    let sink = SharedSink::new(RecordingSink::new());
    machine.set_tracer(Box::new(sink.clone()));
    let summary = machine.run().expect("runs");
    Observation {
        summary,
        stats: machine.stats(),
        debug_log: machine.debug_log().to_vec(),
        trace: sink.take().events,
    }
}

fn assert_observations_match(a: &Observation, b: &Observation, what: &str) {
    assert_eq!(a.summary, b.summary, "{what}: run summary");
    assert_eq!(a.stats, b.stats, "{what}: statistics");
    assert_eq!(a.debug_log, b.debug_log, "{what}: debug log");
    assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{what}: trace event counts diverge"
    );
    for (i, (ea, eb)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(ea, eb, "{what}: trace event {i}");
    }
}

fn test_archs() -> [SyncArch; 2] {
    [
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 2 },
    ]
}

#[test]
fn quiet_plan_is_bit_identical_to_chaos_off() {
    for arch in test_archs() {
        for mode in MODES {
            let off = observe(arch, mode, None);
            let quiet = observe(arch, mode, Some(FaultPlan::quiet(42)));
            assert_observations_match(&off, &quiet, &format!("{arch}: quiet vs off ({mode:?})"));
        }
    }
}

#[test]
fn active_plan_is_deterministic_across_modes() {
    for arch in test_archs() {
        let fast = observe(arch, ExecMode::Fast, Some(FaultPlan::standard(7)));
        let reference = observe(arch, ExecMode::Reference, Some(FaultPlan::standard(7)));
        assert_observations_match(&fast, &reference, &format!("{arch}: chaos-on (Reference)"));
    }
}

#[test]
fn active_plan_actually_perturbs_the_run() {
    // Sanity check on the other side of the contract: an active plan must
    // not be a no-op, or the whole litmus suite tests nothing.
    let arch = SyncArch::Colibri { queues: 2 };
    let off = observe(arch, ExecMode::Fast, None);
    let on = observe(arch, ExecMode::Fast, Some(FaultPlan::standard(7)));
    assert_ne!(
        off.summary.cycles, on.summary.cycles,
        "an active fault plan must change the run"
    );
    assert!(
        on.stats.adapters.reservations_broken >= off.stats.adapters.reservations_broken,
        "eviction injection can only add broken reservations"
    );
}

#[test]
fn different_seeds_diverge() {
    let arch = SyncArch::Colibri { queues: 2 };
    let a = observe(arch, ExecMode::Fast, Some(FaultPlan::standard(7)));
    let b = observe(arch, ExecMode::Fast, Some(FaultPlan::standard(8)));
    assert_ne!(
        (a.summary.cycles, a.stats.adapters.reservations_broken),
        (b.summary.cycles, b.stats.adapters.reservations_broken),
        "distinct seeds must explore distinct schedules"
    );
}
