//! The three workloads and one timed repetition of a workload: set-up,
//! `Machine::run`, and the correctness checks every repetition passes.

use std::time::Instant;

use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel, Workload};
use lrscwait_sim::{ExitReason, Machine, PhaseProfile, ProfilerConfig, SimConfig, SimStats};
use lrscwait_trace::TraceSink;

use crate::probe::{self, Probe};

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["lrsc_retry", "colibri_wait", "queue_sleep"];

/// One workload: a kernel and the machine it runs on.
///
/// The machine takes every setting from `SimConfig::builder()` except
/// geometry and synchronization architecture, so the exec mode and shard
/// count are the library defaults of the commit under test.
pub struct Spec {
    pub name: &'static str,
    pub kernel: Box<dyn Workload>,
    pub cfg: SimConfig,
}

/// What is attached to a machine for one repetition.
pub enum Instrument {
    Off,
    Profiler,
    /// Phase profiler plus a trace sink.
    Traced(Box<dyn TraceSink>),
}

/// One verified repetition.
pub struct Rep {
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// Reference seconds per host second around the run (see `probe.rs`).
    pub factor: f64,
    pub cycles: u64,
    pub stats: SimStats,
    pub profile: Option<PhaseProfile>,
}

impl Rep {
    /// Reference seconds inside `Machine::run`.
    pub fn ref_s(&self) -> f64 {
        self.run_s * self.factor
    }

    /// Simulated Mcycles per reference second inside `Machine::run`.
    pub fn mcycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.ref_s() / 1e6
    }
}

impl Spec {
    /// Looks a workload up by name.
    pub fn new(name: &str) -> Result<Spec, String> {
        // Sizes give one repetition of roughly 2-3 s on a 2-CPU Xeon host,
        // long enough that a median over a run's repetitions is steady.
        let (name, kernel, cores, arch): (_, Box<dyn Workload>, _, _) = match name {
            "lrsc_retry" => (
                "lrsc_retry",
                Box::new(HistogramKernel::new(HistImpl::Lrsc, 16, 32, 1024)),
                1024,
                SyncArch::Lrsc,
            ),
            "colibri_wait" => (
                "colibri_wait",
                Box::new(HistogramKernel::new(HistImpl::LrscWait, 16, 768, 1024)),
                1024,
                SyncArch::Colibri { queues: 4 },
            ),
            "queue_sleep" => (
                "queue_sleep",
                Box::new(QueueKernel::new(QueueImpl::LrscWaitDirect, 512, 256)),
                256,
                SyncArch::Colibri { queues: 4 },
            ),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        let mut builder = SimConfig::builder().mempool_cores(cores).arch(arch);
        for (i, value) in kernel.args() {
            builder = builder.arg(i, value);
        }
        let cfg = builder.build().map_err(|e| format!("{name}: {e}"))?;
        Ok(Spec { name, kernel, cfg })
    }

    /// Builds a ready-to-run machine and returns it with the host seconds
    /// that took: `Workload::program` (the assembler), `Machine::decode`
    /// (the ISA decoder), `Machine::with_decoded` and `Workload::init`.
    pub fn setup(&self) -> Result<(Machine, f64), String> {
        let started = Instant::now();
        let program = self.kernel.program();
        let decoded = Machine::decode(&program).map_err(|e| format!("decode: {e}"))?;
        let mut machine =
            Machine::with_decoded(self.cfg, decoded).map_err(|e| format!("build: {e}"))?;
        self.kernel.init(&mut machine);
        Ok((machine, started.elapsed().as_secs_f64()))
    }

    /// Sets up, runs to completion and verifies one repetition, with a
    /// probe sample just before and just after `Machine::run`. The
    /// finished machine is returned for the snapshot timings.
    pub fn run(&self, instrument: Instrument, probe: &mut Probe) -> Result<(Rep, Machine), String> {
        let (mut machine, _) = self.setup()?;
        match instrument {
            Instrument::Off => {}
            Instrument::Profiler => machine.enable_profiler(ProfilerConfig::default()),
            Instrument::Traced(sink) => {
                machine.enable_profiler(ProfilerConfig::default());
                machine.set_tracer(sink);
            }
        }
        let before = probe.sample();
        let started = Instant::now();
        let summary = machine
            .run()
            .map_err(|e| format!("simulation error: {e}"))?;
        let run_s = started.elapsed().as_secs_f64();
        let factor = probe::factor(before, probe.sample());
        if summary.exit != ExitReason::AllHalted {
            return Err(format!(
                "watchdog: {} of {} cores still live at cycle {}",
                machine.cores() - machine.halted_cores(),
                machine.cores(),
                summary.cycles
            ));
        }
        self.kernel
            .verify(&machine)
            .map_err(|e| format!("verify: {e}"))?;
        let stats = machine.stats();
        if let Some(expected) = self.kernel.expected_ops() {
            let actual = stats.total_ops();
            if actual != expected {
                return Err(format!("op counter: expected {expected}, got {actual}"));
            }
        }
        if stats.throughput().is_none() {
            return Err("no measured region".to_string());
        }
        let rep = Rep {
            run_s,
            factor,
            cycles: summary.cycles,
            stats,
            profile: machine.profile(),
        };
        Ok((rep, machine))
    }
}
