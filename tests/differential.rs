//! Kernel-level differential equivalence: the default fast mode
//! (event-driven scheduling plus superblock run-ahead) and the naive
//! reference stepper must produce byte-identical benchmark results — cycle counts, full
//! statistics, and the rendered sweep CSV — across the kernel ×
//! architecture matrix. The machine-level suite with targeted assembly
//! lives in `crates/sim/tests/differential.rs`.

use lrscwait::core::SyncArch;
use lrscwait::kernels::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, MatmulKernel, PollerKind, QueueImpl,
    QueueKernel, RcuKernel, Workload,
};
use lrscwait::sim::{ExecMode, SimConfig};
use lrscwait::trace::{RecordingSink, SharedSink};
use lrscwait_bench::{Experiment, Measurement, Sweep};

fn assert_equivalent(kernel: &dyn Workload, cfg: SimConfig, what: &str) -> Measurement {
    let fast = Experiment::new(kernel, cfg).x(1).run().expect(what);
    let reference = Experiment::new(kernel, cfg)
        .x(1)
        .reference()
        .run()
        .expect(what);
    assert_eq!(
        fast.cycles, reference.cycles,
        "{what}: reference cycle count"
    );
    assert_eq!(fast.stats, reference.stats, "{what}: reference statistics");
    assert_eq!(
        fast.csv_row(),
        reference.csv_row(),
        "{what}: reference rendered CSV row"
    );
    fast
}

#[test]
fn histogram_matrix_is_equivalent() {
    for (impl_, arch) in [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::Lrsc, SyncArch::Lrsc),
        (HistImpl::TicketLock, SyncArch::Lrsc),
        (HistImpl::LrscWait, SyncArch::LrscWaitIdeal),
        (HistImpl::LrscWait, SyncArch::LrscWait { slots: 2 }),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
        (HistImpl::ColibriLock, SyncArch::Colibri { queues: 4 }),
    ] {
        let kernel = HistogramKernel::new(impl_, 2, 8, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&kernel, cfg, &format!("histogram {impl_:?} on {arch}"));
    }
}

#[test]
fn queue_matrix_is_equivalent() {
    for (impl_, arch) in [
        (QueueImpl::LrscWaitDirect, SyncArch::Colibri { queues: 4 }),
        (QueueImpl::LrscMs, SyncArch::Lrsc),
        (QueueImpl::TicketRing, SyncArch::Lrsc),
    ] {
        let kernel = QueueKernel::new(impl_, 6, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&kernel, cfg, &format!("queue {impl_:?} on {arch}"));
    }
}

#[test]
fn matmul_interference_is_equivalent() {
    for (kind, arch) in [
        (PollerKind::Idle, SyncArch::Lrsc),
        (PollerKind::Lrsc, SyncArch::Lrsc),
        (PollerKind::LrscWait, SyncArch::Colibri { queues: 4 }),
    ] {
        let kernel = MatmulKernel::new(8, 2, 4, kind);
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let m = assert_equivalent(&kernel, cfg, &format!("matmul {kind:?} on {arch}"));
        assert!(m.max_region_cycles(0..2).is_some());
    }
}

/// The (barrier algorithm, architecture) pairs the differential and
/// tracing suites cover: every algorithm on its native architecture plus
/// the degenerate fail-fast path of the wait-based barrier on plain LRSC.
const BARRIER_MATRIX: [(BarrierImpl, SyncArch); 6] = [
    (BarrierImpl::CentralLrsc, SyncArch::Lrsc),
    (
        BarrierImpl::CentralLrscWait,
        SyncArch::Colibri { queues: 4 },
    ),
    (BarrierImpl::CentralLrscWait, SyncArch::Lrsc),
    (BarrierImpl::TreeAmo, SyncArch::Lrsc),
    (BarrierImpl::TreeAmo, SyncArch::LrscWaitIdeal),
    (BarrierImpl::HwMmio, SyncArch::Lrsc),
];

#[test]
fn barrier_matrix_is_equivalent() {
    for (impl_, arch) in BARRIER_MATRIX {
        let kernel = BarrierKernel::new(impl_, 3, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&kernel, cfg, &format!("barrier {impl_:?} on {arch}"));
    }
}

#[test]
fn sharded_barrier_matrix_is_equivalent() {
    // The barrier kernels stress exactly the phase the sharded machine
    // serializes (the barrier-release sub-phase) — shards=1, shards=4 and
    // the sharded reference stepper must agree byte-for-byte.
    for (impl_, arch) in BARRIER_MATRIX {
        let kernel = BarrierKernel::new(impl_, 3, 8);
        let build = |shards: usize| {
            SimConfig::builder()
                .cores(8)
                .arch(arch)
                .shards(shards)
                .max_cycles(50_000_000)
                .build()
                .unwrap()
        };
        let what = format!("sharded barrier {impl_:?} on {arch}");
        let base = Experiment::new(&kernel, build(1)).x(1).run().expect(&what);
        let sharded = Experiment::new(&kernel, build(4)).x(1).run().expect(&what);
        let sharded_ref = Experiment::new(&kernel, build(4))
            .x(1)
            .reference()
            .run()
            .expect(&what);
        for (m, label) in [(&sharded, "shards=4"), (&sharded_ref, "shards=4 ref")] {
            assert_eq!(base.cycles, m.cycles, "{what}: {label} cycle count");
            assert_eq!(base.stats, m.stats, "{what}: {label} statistics");
            assert_eq!(base.csv_row(), m.csv_row(), "{what}: {label} CSV row");
        }
    }
}

#[test]
fn barrier_trace_streams_are_identical_across_modes_and_shards() {
    // Not just the aggregates: the full structured event stream of a
    // barrier run — park/wake, barrier arrive/release, adapter and NoC
    // events, cycle-stamped — must be identical for every (exec mode,
    // shard count) combination.
    let record = |impl_: BarrierImpl, arch: SyncArch, mode: ExecMode, shards: usize| {
        let kernel = BarrierKernel::new(impl_, 3, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .exec_mode(mode)
            .shards(shards)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let sink = SharedSink::new(RecordingSink::new());
        let m = Experiment::new(&kernel, cfg)
            .x(1)
            .sink(Box::new(sink.clone()))
            .run()
            .expect("traced barrier run");
        (sink.take().events, m)
    };
    for (impl_, arch) in [
        (
            BarrierImpl::CentralLrscWait,
            SyncArch::Colibri { queues: 4 },
        ),
        (BarrierImpl::TreeAmo, SyncArch::Lrsc),
        (BarrierImpl::HwMmio, SyncArch::Lrsc),
    ] {
        let (base_events, base_m) = record(impl_, arch, ExecMode::Fast, 1);
        assert!(
            !base_events.is_empty(),
            "{impl_:?}: stream must be non-empty"
        );
        for (mode, shards) in [
            (ExecMode::Reference, 1),
            (ExecMode::Fast, 4),
            (ExecMode::Reference, 2),
        ] {
            let (events, m) = record(impl_, arch, mode, shards);
            assert_eq!(
                base_m.cycles, m.cycles,
                "{impl_:?} {mode:?} shards={shards}"
            );
            assert_eq!(
                base_events, events,
                "{impl_:?} on {arch}: trace stream diverges for {mode:?} shards={shards}"
            );
        }
    }
}

/// The architectures the RCU differential and tracing suites cover: the
/// parking path on both wait architectures, the bounded-slot fail-fast
/// hybrid, and the pure software-backoff degradation on plain LRSC.
const RCU_ARCHES: [SyncArch; 4] = [
    SyncArch::Lrsc,
    SyncArch::LrscWaitIdeal,
    SyncArch::LrscWait { slots: 2 },
    SyncArch::Colibri { queues: 4 },
];

fn rcu_kernel() -> RcuKernel {
    RcuKernel::new(8, 2, 2, 8)
}

#[test]
fn rcu_matrix_is_equivalent() {
    for arch in RCU_ARCHES {
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&rcu_kernel(), cfg, &format!("rcu on {arch}"));
    }
}

#[test]
fn sharded_rcu_matrix_is_equivalent() {
    // Grace periods park the writer on reader-owned counter lines that
    // live in different banks, so the cross-shard merge sub-phase carries
    // the wakeups — shards=1, shards=4 and the sharded reference
    // stepper must agree byte-for-byte.
    for arch in RCU_ARCHES {
        let kernel = rcu_kernel();
        let build = |shards: usize| {
            SimConfig::builder()
                .cores(8)
                .arch(arch)
                .shards(shards)
                .max_cycles(50_000_000)
                .build()
                .unwrap()
        };
        let what = format!("sharded rcu on {arch}");
        let base = Experiment::new(&kernel, build(1)).x(1).run().expect(&what);
        let sharded = Experiment::new(&kernel, build(4)).x(1).run().expect(&what);
        let sharded_ref = Experiment::new(&kernel, build(4))
            .x(1)
            .reference()
            .run()
            .expect(&what);
        for (m, label) in [(&sharded, "shards=4"), (&sharded_ref, "shards=4 ref")] {
            assert_eq!(base.cycles, m.cycles, "{what}: {label} cycle count");
            assert_eq!(base.stats, m.stats, "{what}: {label} statistics");
            assert_eq!(base.csv_row(), m.csv_row(), "{what}: {label} CSV row");
        }
    }
}

#[test]
fn rcu_trace_streams_are_identical_across_modes_and_shards() {
    // The full structured event stream of an RCU run — the writer's
    // park/wake on straggling reader counters, region markers around each
    // grace period, adapter and NoC events — must be identical for every
    // (exec mode, shard count) combination.
    let record = |arch: SyncArch, mode: ExecMode, shards: usize| {
        let kernel = rcu_kernel();
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .exec_mode(mode)
            .shards(shards)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let sink = SharedSink::new(RecordingSink::new());
        let m = Experiment::new(&kernel, cfg)
            .x(1)
            .sink(Box::new(sink.clone()))
            .run()
            .expect("traced rcu run");
        (sink.take().events, m)
    };
    for arch in [SyncArch::Lrsc, SyncArch::Colibri { queues: 4 }] {
        let (base_events, base_m) = record(arch, ExecMode::Fast, 1);
        assert!(!base_events.is_empty(), "rcu on {arch}: stream non-empty");
        for (mode, shards) in [
            (ExecMode::Reference, 1),
            (ExecMode::Fast, 4),
            (ExecMode::Reference, 2),
        ] {
            let (events, m) = record(arch, mode, shards);
            assert_eq!(base_m.cycles, m.cycles, "rcu {mode:?} shards={shards}");
            assert_eq!(
                base_events, events,
                "rcu on {arch}: trace stream diverges for {mode:?} shards={shards}"
            );
        }
    }
}

#[test]
fn sharded_kernel_matrix_is_equivalent() {
    // Bank-sharded parallel simulation must be observationally identical
    // to the single-threaded walk for real kernels: the full measurement
    // (cycles, statistics, CSV row) from shards=1, shards=4, and the
    // sharded *reference* stepper must agree byte-for-byte.
    for (impl_, arch) in [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
        (HistImpl::LrscWait, SyncArch::LrscWait { slots: 2 }),
    ] {
        let kernel = HistogramKernel::new(impl_, 2, 8, 8);
        let build = |shards: usize| {
            SimConfig::builder()
                .cores(8)
                .arch(arch)
                .shards(shards)
                .max_cycles(50_000_000)
                .build()
                .unwrap()
        };
        let what = format!("sharded histogram {impl_:?} on {arch}");
        let base = Experiment::new(&kernel, build(1)).x(1).run().expect(&what);
        let sharded = Experiment::new(&kernel, build(4)).x(1).run().expect(&what);
        let sharded_ref = Experiment::new(&kernel, build(4))
            .x(1)
            .reference()
            .run()
            .expect(&what);
        for (m, label) in [(&sharded, "shards=4"), (&sharded_ref, "shards=4 ref")] {
            assert_eq!(base.cycles, m.cycles, "{what}: {label} cycle count");
            assert_eq!(base.stats, m.stats, "{what}: {label} statistics");
            assert_eq!(base.csv_row(), m.csv_row(), "{what}: {label} CSV row");
        }
    }

    // The queue kernel exercises the Colibri Qnode bounce path.
    let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, 6, 8);
    let build = |shards: usize| {
        SimConfig::builder()
            .cores(8)
            .arch(SyncArch::Colibri { queues: 4 })
            .shards(shards)
            .max_cycles(50_000_000)
            .build()
            .unwrap()
    };
    let base = Experiment::new(&kernel, build(1)).x(1).run().unwrap();
    let sharded = Experiment::new(&kernel, build(3)).x(1).run().unwrap();
    assert_eq!(base.cycles, sharded.cycles, "sharded queue cycle count");
    assert_eq!(base.stats, sharded.stats, "sharded queue statistics");
}

#[test]
fn sweep_csv_bytes_are_identical_across_modes_and_shards() {
    // A whole (impl × bins) sweep rendered to CSV text must come out
    // byte-for-byte the same from both exec modes — and from the
    // bank-sharded parallel machine.
    let points: Vec<(HistImpl, SyncArch, u32)> = [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
        (HistImpl::Lrsc, SyncArch::Lrsc),
    ]
    .into_iter()
    .flat_map(|(impl_, arch)| [1u32, 4, 16].map(move |bins| (impl_, arch, bins)))
    .collect();

    let render = |mode: ExecMode, shards: usize| -> String {
        let measurements = Sweep::new("diff-csv")
            .threads(4)
            .quiet()
            .run(points.clone(), |(impl_, arch, bins)| {
                let cfg = SimConfig::builder()
                    .cores(8)
                    .arch(arch)
                    .shards(shards)
                    .exec_mode(mode)
                    .max_cycles(50_000_000)
                    .build()?;
                let kernel = HistogramKernel::new(impl_, bins, 8, 8);
                Experiment::new(&kernel, cfg).x(bins).run()
            })
            .expect("sweep completes");
        let mut text = String::from("series,bins,updates_per_cycle,lo,hi,cycles,stalls\n");
        for m in &measurements {
            text.push_str(&m.csv_row().join(","));
            text.push('\n');
        }
        text
    };

    let baseline = render(ExecMode::Fast, 1);
    assert_eq!(
        baseline,
        render(ExecMode::Reference, 1),
        "reference CSV bytes diverge"
    );
    assert_eq!(
        baseline,
        render(ExecMode::Fast, 4),
        "sharded CSV bytes diverge"
    );
    assert_eq!(
        baseline,
        render(ExecMode::Reference, 4),
        "sharded reference CSV bytes diverge"
    );
}
