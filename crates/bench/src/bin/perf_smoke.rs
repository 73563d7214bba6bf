//! perf_smoke — simulator-performance smoke test and regression guard.
//!
//! Four measurements on the paper's full 256-core MemPool geometry:
//!
//! 1. **Fast vs reference** on the mostly-sleeping Colibri queue (every
//!    core contending on one LRSCwait-owned queue, so at any instant
//!    almost the whole machine is asleep in hardware wait queues):
//!    verifies bit-identical results and measures the O(events)
//!    scheduler's wall-clock speedup.
//! 2. **Fast vs reference** on the busy-loop histogram (the 1024-bin
//!    kernel with 64 LCG compute rounds per update — every core grinding
//!    through straight-line and branchy compute between memory ops, so
//!    nearly every core is runnable and the gain is the superblock fast
//!    path's, not the scheduler's): the runs must be bit-identical and
//!    Fast must clear a **3.5x** throughput bar (`fast_busy_speedup` in
//!    `BENCH_sim.json`; enforced unless `--quick`, which is
//!    wall-clock-noise dominated).
//! 3. **Profiler overhead** on the queue scenario: the sampled phase
//!    profiler must keep throughput within 5% of the unprofiled run
//!    (enforced unless `--quick`).
//! 4. **Phase breakdown** of a busy scenario (all 256 cores hammering a
//!    1024-bin histogram, heavy per-cycle bank service): a profiled run,
//!    bit-identical to the unprofiled one, whose per-phase shares land in
//!    `BENCH_sim.json`.
//!
//! With `--baseline FILE` (CI), the measured `sim_cycles_per_sec` is
//! compared against the committed baseline and the run fails when
//! throughput drops more than 2x below it.

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, write_bench_json, BenchArgs, BenchError, Experiment, Measurement, PerfSummary,
};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("perf_smoke", run)
}

fn report(name: &str, m: &Measurement) {
    eprintln!(
        "perf_smoke: {name}: {} cycles in {:.3}s ({:.2} Mcycles/s)",
        m.cycles,
        m.host_seconds,
        m.sim_cycles_per_sec() / 1e6
    );
}

fn speedup(base: &Measurement, improved: &Measurement) -> f64 {
    if improved.host_seconds > 0.0 {
        base.host_seconds / improved.host_seconds
    } else {
        0.0
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let iters = if args.quick { 4 } else { 64 };
    let cores = 256;
    let cfg = SimConfig::builder()
        .mempool()
        .arch(SyncArch::Colibri { queues: 4 })
        .max_cycles(100_000_000)
        .build()?;
    let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, iters, cores);

    // 1. Fast vs reference on the mostly-sleeping queue.
    eprintln!("perf_smoke: {cores}-core Colibri queue, {iters} iterations/core");
    let fast = Experiment::new(&kernel, cfg).label("fast").x(cores).run()?;
    report("fast        ", &fast);
    let reference = Experiment::new(&kernel, cfg)
        .label("reference")
        .x(cores)
        .reference()
        .run()?;
    report("reference   ", &reference);

    check_claim(
        fast.cycles == reference.cycles && fast.stats == reference.stats,
        "fast and reference runs must be bit-identical",
    )?;

    let fast_speedup = speedup(&reference, &fast);
    println!("perf_smoke: fast vs reference on mostly-sleeping {cores} cores: {fast_speedup:.1}x");

    // 2. Fast vs reference on the busy-loop histogram: the 1024-bin
    // AmoAdd kernel with 64 LCG mixing rounds of straight-line compute
    // per update, so every core grinds long superblocks between memory
    // boundaries and almost none is parked.
    let busy_cfg = SimConfig::builder()
        .mempool()
        .arch(SyncArch::Lrsc)
        .build()?;
    let loop_iters = if args.quick { 16 } else { 128 };
    let loop_kernel =
        HistogramKernel::new(HistImpl::AmoAdd, 1024, loop_iters, cores).with_compute(64);
    eprintln!(
        "perf_smoke: busy-loop scenario: {cores}-core 1024-bin histogram, \
         {loop_iters} iters x 64 compute rounds"
    );
    let loop_fast = Experiment::new(&loop_kernel, busy_cfg)
        .label("busy-loop fast")
        .x(cores)
        .run()?;
    report("busy-loop fast", &loop_fast);
    let loop_reference = Experiment::new(&loop_kernel, busy_cfg)
        .label("busy-loop reference")
        .x(cores)
        .reference()
        .run()?;
    report("busy-loop reference", &loop_reference);
    check_claim(
        loop_fast.cycles == loop_reference.cycles && loop_fast.stats == loop_reference.stats,
        "fast and reference busy-loop runs must be bit-identical",
    )?;
    let fast_busy_speedup = speedup(&loop_reference, &loop_fast);
    println!("perf_smoke: fast vs reference on busy-loop {cores} cores: {fast_busy_speedup:.2}x");

    // 3. Phase-profiler overhead on the headline queue scenario: the
    // sampled profiler must keep throughput within 5% of the unprofiled
    // run (and, as always, leave the simulated results bit-identical).
    // Host wall clocks are noisy on shared runners, so the overhead
    // check takes the best of up to three profiled attempts before
    // judging — noise only ever makes the profiled run look *slower*.
    let mut queue_profiled = Experiment::new(&kernel, cfg)
        .label("queue profiled")
        .x(cores)
        .profiled()
        .run()?;
    for _ in 0..2 {
        if queue_profiled.host_seconds <= fast.host_seconds * 1.05 {
            break;
        }
        let retry = Experiment::new(&kernel, cfg)
            .label("queue profiled")
            .x(cores)
            .profiled()
            .run()?;
        if retry.host_seconds < queue_profiled.host_seconds {
            queue_profiled = retry;
        }
    }
    report("queue profiled", &queue_profiled);
    check_claim(
        fast.cycles == queue_profiled.cycles && fast.stats == queue_profiled.stats,
        "profiled and unprofiled queue runs must be bit-identical",
    )?;
    let profiler_overhead = if fast.host_seconds > 0.0 {
        queue_profiled.host_seconds / fast.host_seconds - 1.0
    } else {
        0.0
    };
    println!(
        "perf_smoke: profiler overhead on mostly-sleeping {cores} cores: \
         {:.1}% (bar: <= 5%)",
        profiler_overhead * 100.0
    );

    // 4. Busy histogram, unprofiled and profiled: per-cycle bank service
    // and core stepping dominate. The profiled run's per-phase breakdown
    // lands in BENCH_sim.json (and, with --profile, in
    // perf_smoke.profile.json); bit-identity against the unprofiled run
    // shows profiling changes nothing.
    let busy_iters = if args.quick { 32 } else { 512 };
    let busy_kernel = HistogramKernel::new(HistImpl::AmoAdd, 1024, busy_iters, cores);
    eprintln!("perf_smoke: busy scenario: {cores}-core 1024-bin histogram, {busy_iters} iters");
    let busy = Experiment::new(&busy_kernel, busy_cfg)
        .label("busy")
        .x(cores)
        .run()?;
    report("busy         ", &busy);
    let busy_profiled = Experiment::new(&busy_kernel, busy_cfg)
        .label("busy profiled")
        .x(cores)
        .profiled()
        .run()?;
    report("busy profiled", &busy_profiled);
    check_claim(
        busy.cycles == busy_profiled.cycles && busy.stats == busy_profiled.stats,
        "profiled and unprofiled busy runs must be bit-identical",
    )?;
    let busy_profile = busy_profiled
        .profile
        .clone()
        .ok_or(BenchError::MissingMeasurement {
            label: "busy profiled".to_string(),
            what: "phase profile",
        })?;
    eprintln!("{}", busy_profile.render());

    let mut summary = PerfSummary::from_measurements("perf_smoke", std::slice::from_ref(&fast))
        .with("reference_host_seconds", reference.host_seconds)
        .with(
            "reference_sim_cycles_per_sec",
            reference.sim_cycles_per_sec(),
        )
        .with("speedup_vs_reference", fast_speedup)
        .with("fast_busy_speedup", fast_busy_speedup)
        .with(
            "fast_busy_sim_cycles_per_sec",
            loop_fast.sim_cycles_per_sec(),
        )
        .with("profiler_overhead", profiler_overhead)
        .with("profile_sampled_cycles", busy_profile.sampled_cycles as f64)
        .with_meta("cores", cores.to_string())
        .with_meta("exec_modes", "fast, reference");
    // Per-phase breakdown from the profiled busy run, in the same
    // artifact CI uploads.
    for stat in &busy_profile.phases {
        summary = summary.with(
            format!("phase_share_{}", stat.phase.name()),
            busy_profile.share(stat.phase),
        );
    }
    summary.log();
    write_bench_json(&args.out, &summary)?;
    args.write_profile(
        "perf_smoke",
        &[queue_profiled.clone(), busy_profiled.clone()],
    )?;

    if !args.quick {
        // The acceptance bar: fast mode must be at least 5x faster than
        // the reference on the mostly-sleeping large-geometry scenario.
        // (--quick skips this: tiny runs are wall-clock-noise-dominated.)
        check_claim(
            fast_speedup >= 5.0,
            format!("fast speedup {fast_speedup:.1}x below the 5x acceptance bar"),
        )?;
        // And at least 3.5x faster on the busy-loop scenario (ten runs
        // on a 2-vCPU Xeon KVM host measured 3.99x-5.12x, median 4.5x).
        check_claim(
            fast_busy_speedup >= 3.5,
            format!("fast busy-loop speedup {fast_busy_speedup:.2}x below the 3.5x acceptance bar"),
        )?;
        // And the sampled phase profiler must cost at most 5% of
        // wall-clock throughput on the same headline scenario.
        check_claim(
            profiler_overhead <= 0.05,
            format!(
                "profiler overhead {:.1}% above the 5% acceptance bar",
                profiler_overhead * 100.0
            ),
        )?;
    }

    args.guard_baseline(&summary)
}
