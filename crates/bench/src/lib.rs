//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — tile area per architecture |
//! | `fig3` | Fig. 3 — histogram throughput, LRSCwait variants |
//! | `fig4` | Fig. 4 — histogram throughput, lock variants |
//! | `fig5` | Fig. 5 — matmul slowdown under atomics interference |
//! | `fig6` | Fig. 6 — queue throughput vs. core count |
//! | `table2` | Table II — power and energy per operation |
//! | `ablation` | Reservation-capacity ablation |
//! | `perf_smoke` | Simulator-performance smoke: fast-vs-reference and sharded speedups |
//! | `trace` | Perfetto trace + synchronization analysis for any kernel × arch pair |
//!
//! Every binary accepts `--quick` (reduced sweep), `--threads N` (sweep
//! parallelism), `--out DIR` (results directory, default `results/`) and
//! `--baseline FILE` (committed `BENCH_sim.json` throughput guard),
//! writes `<DIR>/<name>.csv` plus a `BENCH_sim.json` throughput summary
//! ([`PerfSummary`]) and prints a markdown rendering to stdout —
//! except `table1`, which evaluates the area model without simulating
//! and therefore reports no simulator throughput.
//!
//! # The experiment API
//!
//! A measurement is produced by running any [`Workload`] against any
//! [`SimConfig`] through an [`Experiment`]; a figure is a [`Sweep`] of
//! experiments fanned across worker threads (every [`Machine`] is
//! independent, so sweeps scale near-linearly with cores):
//!
//! ```no_run
//! use lrscwait_bench::{Experiment, Sweep};
//! use lrscwait_core::SyncArch;
//! use lrscwait_kernels::{HistImpl, HistogramKernel};
//! use lrscwait_sim::SimConfig;
//!
//! # fn main() -> Result<(), lrscwait_bench::BenchError> {
//! let points: Vec<u32> = vec![1, 16, 256];
//! let measurements = Sweep::new("example").run(points, |bins| {
//!     let arch = SyncArch::Colibri { queues: 4 };
//!     let cfg = SimConfig::builder().mempool().arch(arch).build()?;
//!     let kernel = HistogramKernel::new(HistImpl::LrscWait, bins, 16, 256);
//!     Experiment::new(&kernel, cfg).x(bins).run()
//! })?;
//! assert_eq!(measurements.len(), 3);
//! # Ok(())
//! # }
//! ```

pub mod litmus;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use lrscwait_asm::Program;
use lrscwait_kernels::{VerifyError, Workload};
use lrscwait_sim::{
    ConfigError, DecodedProgram, ExecMode, ExitReason, Machine, PhaseProfile, ProfilerConfig,
    RunSummary, SimConfig, SimError, SimStats, NUM_ARGS,
};
use lrscwait_telemetry::Heartbeat;
use lrscwait_trace::{
    AnalysisSink, FanoutSink, PerfettoSink, SharedSink, StreamingPerfettoSink, SyncAnalysis,
    TraceSink,
};

/// Everything that can go wrong while producing a benchmark number.
///
/// The harness is `Result`-based end to end: a failed experiment surfaces
/// as a typed error instead of a panic, so sweeps can report *which* point
/// failed and runners can decide what to do about it.
#[derive(Debug)]
pub enum BenchError {
    /// The simulator configuration was rejected.
    Config(ConfigError),
    /// The machine could not be built or the program could not load.
    Load(SimError),
    /// The simulation itself faulted (kernel bug).
    Run(SimError),
    /// The watchdog fired before every core halted — a DNF point.
    Watchdog {
        /// Label of the offending experiment.
        label: String,
        /// Cycle count when the watchdog fired.
        cycles: u64,
        /// Why the point did not finish: which part of the machine was
        /// still live when the budget ran out.
        reason: String,
        /// Final-cycle machine snapshot, when the experiment was
        /// configured with a checkpoint path — exactly the state worth
        /// resuming with a larger budget or post-morteming.
        snapshot: Option<PathBuf>,
    },
    /// The run completed but computed wrong results.
    Verify {
        /// Label of the offending experiment.
        label: String,
        /// What was wrong.
        source: VerifyError,
    },
    /// A required measurement point is missing from a sweep result.
    MissingPoint {
        /// Series label searched for.
        series: String,
        /// X value searched for.
        x: u32,
    },
    /// An expected measurement (region cycles, throughput) was not taken.
    MissingMeasurement {
        /// Label of the offending experiment.
        label: String,
        /// What was missing.
        what: &'static str,
    },
    /// A quantitative claim about the results did not hold.
    ClaimFailed(String),
    /// Results could not be written.
    Io {
        /// Path being written.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// Bad command-line usage.
    Usage(String),
    /// `-h`/`--help` was requested (not a failure; [`run_main`] prints the
    /// text to stdout and exits 0).
    Help,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Config(e) => write!(f, "invalid configuration: {e}"),
            BenchError::Load(e) => write!(f, "failed to load program: {e}"),
            BenchError::Run(e) => write!(f, "simulation faulted: {e}"),
            BenchError::Watchdog {
                label,
                cycles,
                reason,
                snapshot,
            } => {
                write!(
                    f,
                    "{label}: watchdog fired after {cycles} cycles ({reason})"
                )?;
                if let Some(path) = snapshot {
                    write!(f, "; final-cycle snapshot: {}", path.display())?;
                }
                Ok(())
            }
            BenchError::Verify { label, source } => {
                write!(f, "{label}: verification failed: {source}")
            }
            BenchError::MissingPoint { series, x } => {
                write!(f, "sweep produced no measurement for {series} at x={x}")
            }
            BenchError::MissingMeasurement { label, what } => {
                write!(f, "{label}: run produced no {what}")
            }
            BenchError::ClaimFailed(msg) => write!(f, "claim failed: {msg}"),
            BenchError::Io { path, source } => write!(f, "{path}: {source}"),
            BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::Help => write!(f, "{USAGE}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Config(e) => Some(e),
            BenchError::Load(e) | BenchError::Run(e) => Some(e),
            BenchError::Verify { source, .. } => Some(source),
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ConfigError> for BenchError {
    fn from(e: ConfigError) -> BenchError {
        BenchError::Config(e)
    }
}

/// Process-wide decoded-program cache.
///
/// Sweep points routinely assemble byte-identical programs (only MMIO
/// arguments differ across the x-axis), and every [`Machine`] used to
/// re-decode its own copy. The cache keys on a content fingerprint and
/// hands every worker the same [`Arc<DecodedProgram>`], so decoding and
/// the text/raw/source-line buffers are shared across the whole sweep.
/// Lookups hash the borrowed program (no allocation); the full content is
/// cloned only once, when a program is first inserted. The cache is
/// process-lifetime and unbounded, which is fine for the handful of
/// distinct kernels a bench process assembles.
fn program_fingerprint(program: &Program) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    program.text.hash(&mut hasher);
    program.source_lines.hash(&mut hasher);
    program.entry.hash(&mut hasher);
    program.data_base.hash(&mut hasher);
    program.data.hash(&mut hasher);
    program.bss_base.hash(&mut hasher);
    program.bss_size.hash(&mut hasher);
    hasher.finish()
}

fn program_matches(decoded: &DecodedProgram, program: &Program) -> bool {
    decoded.raw == program.text
        && decoded.source_lines == program.source_lines
        && decoded.entry == program.entry
        && decoded.data_base == program.data_base
        && decoded.data == program.data
        && decoded.bss_base == program.bss_base
        && decoded.bss_size == program.bss_size
}

fn decode_shared(program: &Program) -> Result<Arc<DecodedProgram>, SimError> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<DecodedProgram>>>> = OnceLock::new();
    let fingerprint = program_fingerprint(program);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(decoded) = lock_ignoring_poison(cache).get(&fingerprint) {
        if program_matches(decoded, program) {
            return Ok(Arc::clone(decoded));
        }
        // Fingerprint collision between distinct programs (vanishingly
        // rare): decode fresh without caching rather than evict.
        return Machine::decode(program);
    }
    let decoded = Machine::decode(program)?;
    Ok(Arc::clone(
        lock_ignoring_poison(cache)
            .entry(fingerprint)
            .or_insert(decoded),
    ))
}

/// A measured throughput point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Series label (legend entry).
    pub label: String,
    /// X value (bins, cores, …).
    pub x: u32,
    /// Aggregate throughput in operations per cycle (0 when the workload
    /// counts no ops).
    pub throughput: f64,
    /// Slowest per-core throughput (fairness band).
    pub lo: f64,
    /// Fastest per-core throughput (fairness band).
    pub hi: f64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Host wall-clock seconds spent inside [`Machine::run`] (simulator
    /// throughput reporting; deliberately excluded from the CSV so result
    /// files stay byte-deterministic).
    pub host_seconds: f64,
    /// Full statistics (for the energy model and diagnostics).
    pub stats: SimStats,
    /// Host-side phase profile of the run (`None` unless the experiment
    /// was [`profiled`](Experiment::profiled)). Excluded from the CSV —
    /// host timings are not deterministic.
    pub profile: Option<PhaseProfile>,
}

impl Measurement {
    /// The standard figure CSV row:
    /// `[label, x, throughput, lo, hi, cycles, stall_cycles]`.
    #[must_use]
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            self.x.to_string(),
            fmt_tp(self.throughput),
            fmt_tp(self.lo),
            fmt_tp(self.hi),
            self.cycles.to_string(),
            self.stats.total_stall_cycles().to_string(),
        ]
    }

    /// Simulated cycles per host second for this run.
    #[must_use]
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.cycles as f64 / self.host_seconds
        } else {
            0.0
        }
    }

    /// Longest measured-region length among `cores`, when every one of them
    /// wrote both region markers (e.g. the worker partition of the matmul
    /// interference workload).
    #[must_use]
    pub fn max_region_cycles(&self, cores: std::ops::Range<usize>) -> Option<u64> {
        self.stats.cores.get(cores).and_then(|slice| {
            slice
                .iter()
                .map(lrscwait_sim::CoreStats::region_cycles)
                .collect::<Option<Vec<_>>>()
                .and_then(|v| v.into_iter().max())
        })
    }
}

/// One workload run against one machine configuration.
///
/// Builder-style: construct with [`Experiment::new`], optionally attach a
/// series [`label`](Experiment::label) and [`x`](Experiment::x) value, then
/// [`run`](Experiment::run). The run loads the program, applies the
/// workload's MMIO arguments and memory initialization, simulates to
/// completion, enforces the watchdog, and functionally verifies the result
/// — no benchmark number without a correct run:
///
/// ```
/// use lrscwait_bench::Experiment;
/// use lrscwait_core::SyncArch;
/// use lrscwait_kernels::{HistImpl, HistogramKernel};
/// use lrscwait_sim::SimConfig;
///
/// # fn main() -> Result<(), lrscwait_bench::BenchError> {
/// let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 16, 4);
/// let cfg = SimConfig::builder()
///     .cores(4)
///     .arch(SyncArch::Lrsc)
///     .build()?;
/// let m = Experiment::new(&kernel, cfg).label("amoadd").x(4).run()?;
/// assert_eq!(m.label, "amoadd");
/// assert!(m.throughput > 0.0); // 64 verified increments happened
/// # Ok(())
/// # }
/// ```
pub struct Experiment<'w> {
    workload: &'w dyn Workload,
    cfg: SimConfig,
    label: Option<String>,
    x: u32,
    sink: Option<Box<dyn TraceSink>>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    profile: bool,
    heartbeat: Option<(u64, Option<PathBuf>)>,
    inspect: Option<InspectHook<'w>>,
}

/// Post-verify machine hook (see [`Experiment::inspect`]).
type InspectHook<'w> = Box<dyn FnOnce(&Machine) + 'w>;

impl<'w> Experiment<'w> {
    /// Pairs a workload with a machine configuration.
    #[must_use]
    pub fn new(workload: &'w dyn Workload, cfg: SimConfig) -> Experiment<'w> {
        Experiment {
            workload,
            cfg,
            label: None,
            x: 0,
            sink: None,
            checkpoint: None,
            resume: None,
            profile: false,
            heartbeat: None,
            inspect: None,
        }
    }

    /// Overrides the series label (default: the workload's own label).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Experiment<'w> {
        self.label = Some(label.into());
        self
    }

    /// Sets the x-axis value recorded in the measurement.
    #[must_use]
    pub fn x(mut self, x: u32) -> Experiment<'w> {
        self.x = x;
        self
    }

    /// Runs on the naive reference stepper instead of the default fast
    /// mode (differential testing and performance baselining; results
    /// are bit-identical, only slower to produce). Equivalent to building
    /// the config with `SimConfig::builder().exec_mode(ExecMode::Reference)`.
    #[must_use]
    pub fn reference(mut self) -> Experiment<'w> {
        self.cfg.exec_mode = ExecMode::Reference;
        self
    }

    /// Writes a machine snapshot (`Machine::snapshot`) to `path` when the
    /// run ends. The snapshot is written *even when the watchdog fires*,
    /// so a run that exhausted its cycle budget can be resumed with a
    /// larger one via [`resume`](Experiment::resume).
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Experiment<'w> {
        self.checkpoint = Some(path.into());
        self
    }

    /// Restores the machine from a snapshot file before running, instead
    /// of starting from reset. The snapshot must match this experiment's
    /// architecture and geometry (`Machine::restore` checks and rejects
    /// mismatches). The workload's `init` still runs first, so restored
    /// state wins over any host-side initialization.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Experiment<'w> {
        self.resume = Some(path.into());
        self
    }

    /// Enables the host-side phase profiler for this run; the
    /// [`Measurement`] then carries a [`PhaseProfile`]. Profiling is
    /// strictly host-side — results are bit-identical to an unprofiled
    /// run (the sim crate's differential suite proves it).
    #[must_use]
    pub fn profiled(mut self) -> Experiment<'w> {
        self.profile = true;
        self
    }

    /// Emits a heartbeat progress line to stderr every `secs` seconds
    /// while the run executes (and appends an NDJSON record to
    /// `ndjson` when given): cycles simulated against the watchdog
    /// budget, live Mcycles/s, ETA, and checkpoint age. Implemented by
    /// chunking the run through [`Machine::run_until`], which is
    /// transparent — results stay bit-identical to an uninterrupted run.
    #[must_use]
    pub fn heartbeat(mut self, secs: u64, ndjson: Option<PathBuf>) -> Experiment<'w> {
        self.heartbeat = Some((secs.max(1), ndjson));
        self
    }

    /// Registers a closure that receives the finished, *verified* machine
    /// just before [`run`](Experiment::run) returns. `run` consumes the
    /// machine, so this is the hook for workloads whose guest memory
    /// carries measurements beyond the standard [`Measurement`] fields —
    /// e.g. the RCU kernel's per-sync grace-period cycle stamps. The hook
    /// only observes (`&Machine`); it cannot change the result.
    #[must_use]
    pub fn inspect(mut self, hook: impl FnOnce(&Machine) + 'w) -> Experiment<'w> {
        self.inspect = Some(Box::new(hook));
        self
    }

    /// Attaches a trace sink for this run (see `lrscwait-trace`).
    /// Tracing never changes results — the measurement is bit-identical
    /// to an untraced run. Hand in a [`SharedSink`] clone to read the
    /// sink back afterwards, or use the [`analyzed`](Experiment::analyzed)
    /// / [`perfetto`](Experiment::perfetto) conveniences.
    ///
    /// Calling this more than once (directly, or implicitly through the
    /// conveniences) fans the event stream out to every attached sink —
    /// a second sink never silently replaces the first.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Experiment<'w> {
        self.sink = Some(match self.sink {
            Some(existing) => Box::new(FanoutSink::new().with(existing).with(sink)),
            None => sink,
        });
        self
    }

    /// Runs the experiment with an [`AnalysisSink`] attached and returns
    /// the measurement together with the derived synchronization
    /// analysis: lock handoff latency distribution (p50/p99/max),
    /// wait-queue occupancy over time, and SC-failure / retry-abort
    /// causes.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Experiment::run).
    pub fn analyzed(self) -> Result<(Measurement, SyncAnalysis), BenchError> {
        let shared = SharedSink::new(AnalysisSink::new());
        let measurement = self.sink(Box::new(shared.clone())).run()?;
        Ok((measurement, shared.take().finish()))
    }

    /// Runs the experiment with a [`PerfettoSink`] attached and writes
    /// the Chrome-trace/Perfetto JSON (per-core tracks plus wait-queue
    /// depth and runnable-core counter tracks) to `path`. Open the file
    /// at <https://ui.perfetto.dev>.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Experiment::run), plus [`BenchError::Io`] when the
    /// trace file cannot be written.
    pub fn perfetto(self, path: &Path) -> Result<Measurement, BenchError> {
        let shared = SharedSink::new(PerfettoSink::new());
        let measurement = self.sink(Box::new(shared.clone())).run()?;
        let json = shared.take().finish();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
                path: dir.display().to_string(),
                source,
            })?;
        }
        std::fs::write(path, json).map_err(|source| BenchError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Ok(measurement)
    }

    /// Runs the experiment with a [`StreamingPerfettoSink`] attached:
    /// the Chrome-trace/Perfetto JSON is written *incrementally* to
    /// `path` through a buffered writer, so host memory stays constant
    /// for full-scale traces (the buffered
    /// [`perfetto`](Experiment::perfetto) convenience holds every event
    /// in memory until the run ends). Output bytes are identical to the
    /// buffered sink fed the same stream.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Experiment::run), plus [`BenchError::Io`] when the
    /// trace file cannot be created or written.
    pub fn perfetto_streaming(self, path: &Path) -> Result<Measurement, BenchError> {
        let sink = StreamingPerfettoSink::create(path).map_err(|source| BenchError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let shared = SharedSink::new(sink);
        let handle = shared.clone();
        let measurement = self.sink(Box::new(handle)).run()?;
        shared
            .with(lrscwait_trace::StreamingPerfettoSink::close)
            .map_err(|source| BenchError::Io {
                path: path.display().to_string(),
                source,
            })?;
        Ok(measurement)
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// * [`BenchError::Config`] — workload arguments outside the MMIO window
    ///   or an inconsistent machine configuration;
    /// * [`BenchError::Load`] — the program image does not fit or decode;
    /// * [`BenchError::Run`] — the simulation faulted;
    /// * [`BenchError::Watchdog`] — not every core halted in time;
    /// * [`BenchError::Verify`] — the computation produced wrong results,
    ///   including a mismatched MMIO op count;
    /// * [`BenchError::Io`] — a [`resume`](Experiment::resume) snapshot
    ///   could not be read or a [`checkpoint`](Experiment::checkpoint)
    ///   snapshot could not be written;
    /// * [`BenchError::Load`] — a resume snapshot was malformed or does
    ///   not match this experiment's architecture/geometry.
    pub fn run(self) -> Result<Measurement, BenchError> {
        let label = self.label.unwrap_or_else(|| self.workload.label());
        let mut cfg = self.cfg;
        for (i, value) in self.workload.args() {
            if i >= NUM_ARGS {
                return Err(BenchError::Config(ConfigError::ArgIndexOutOfRange {
                    index: i,
                }));
            }
            cfg.args[i] = value;
        }
        let program = self.workload.program();
        let decoded = decode_shared(&program).map_err(BenchError::Load)?;
        let budget = cfg.max_cycles;
        let mut machine = Machine::with_decoded(cfg, decoded).map_err(BenchError::Load)?;
        if let Some(sink) = self.sink {
            machine.set_tracer(sink);
        }
        if self.profile {
            machine.enable_profiler(ProfilerConfig::default());
        }
        self.workload.init(&mut machine);
        if let Some(path) = &self.resume {
            let bytes = std::fs::read(path).map_err(|source| BenchError::Io {
                path: path.display().to_string(),
                source,
            })?;
            machine.restore(&bytes).map_err(BenchError::Load)?;
        }
        let started = Instant::now();
        let summary = match &self.heartbeat {
            Some((secs, ndjson)) => run_with_heartbeat(
                &mut machine,
                &label,
                *secs,
                ndjson.as_deref(),
                self.checkpoint.as_deref(),
                budget,
            )?,
            None => machine.run().map_err(BenchError::Run)?,
        };
        let host_seconds = started.elapsed().as_secs_f64();
        let profile = machine.profile();
        let mut snapshot_path = None;
        if let Some(path) = &self.checkpoint {
            // Deliberately before the watchdog check: a saturated run's
            // snapshot is exactly the one worth resuming with more budget.
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
                    path: dir.display().to_string(),
                    source,
                })?;
            }
            let bytes = machine.snapshot();
            retry_transient_io(|| std::fs::write(path, &bytes)).map_err(|source| {
                BenchError::Io {
                    path: path.display().to_string(),
                    source,
                }
            })?;
            snapshot_path = Some(path.clone());
        }
        if summary.exit != ExitReason::AllHalted {
            let live = machine.cores() - machine.halted_cores();
            return Err(BenchError::Watchdog {
                label,
                cycles: summary.cycles,
                reason: format!(
                    "{live} of {} cores never halted within the {budget}-cycle budget",
                    machine.cores()
                ),
                snapshot: snapshot_path,
            });
        }
        self.workload
            .verify(&machine)
            .map_err(|source| BenchError::Verify {
                label: label.clone(),
                source,
            })?;
        let stats = machine.stats();
        if let Some(expected) = self.workload.expected_ops() {
            let actual = stats.total_ops();
            if actual != expected {
                return Err(BenchError::Verify {
                    label,
                    source: VerifyError::Conservation {
                        what: "MMIO op counter",
                        expected,
                        actual,
                    },
                });
            }
        }
        if let Some(hook) = self.inspect {
            hook(&machine);
        }
        let (lo, hi) = stats.throughput_range().unwrap_or((0.0, 0.0));
        Ok(Measurement {
            label,
            x: self.x,
            throughput: stats.throughput().unwrap_or(0.0),
            lo,
            hi,
            cycles: summary.cycles,
            host_seconds,
            stats,
            profile,
        })
    }
}

/// Runs a machine to completion in [`Machine::run_until`] chunks,
/// emitting a heartbeat line every `secs` seconds. Chunking is
/// transparent (see `run_until`), so results are bit-identical to one
/// uninterrupted [`Machine::run`]; the chunk size adapts toward a
/// quarter of the heartbeat interval so beats land close to schedule
/// without a per-cycle clock read.
fn run_with_heartbeat(
    machine: &mut Machine,
    label: &str,
    secs: u64,
    ndjson: Option<&Path>,
    checkpoint: Option<&Path>,
    budget: u64,
) -> Result<RunSummary, BenchError> {
    let interval = Duration::from_secs(secs.max(1));
    let mut heartbeat = Heartbeat::new(label, interval, budget);
    let mut chunk: u64 = 100_000;
    loop {
        let target = machine.cycles().saturating_add(chunk);
        let chunk_started = Instant::now();
        let summary = machine.run_until(target).map_err(BenchError::Run)?;
        if summary.exit != ExitReason::TargetReached {
            return Ok(summary);
        }
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        if chunk_secs > 0.0 {
            let per_sec = chunk as f64 / chunk_secs;
            let desired = per_sec * interval.as_secs_f64() / 4.0;
            chunk = (desired as u64).clamp(10_000, 1_000_000_000);
        }
        let now = Instant::now();
        if heartbeat.due(now) {
            let checkpoint_age = checkpoint
                .and_then(|p| std::fs::metadata(p).ok())
                .and_then(|meta| meta.modified().ok())
                .and_then(|written| written.elapsed().ok());
            let line = heartbeat.beat(now, machine.cycles(), checkpoint_age);
            eprintln!("{}", line.render_text());
            if let Some(path) = ndjson {
                use std::io::Write as _;
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|source| BenchError::Io {
                        path: path.display().to_string(),
                        source,
                    })?;
                writeln!(file, "{}", line.render_ndjson()).map_err(|source| BenchError::Io {
                    path: path.display().to_string(),
                    source,
                })?;
            }
        }
    }
}

/// Default sweep parallelism: every available core, but always more than
/// one so the figure binaries exercise the parallel path.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .max(2)
}

/// Whether an I/O failure is worth one retry: interruption and
/// contention kinds that clear themselves, as opposed to a bad path or a
/// full disk.
#[must_use]
pub fn is_transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `f`, retrying exactly once when it fails with a transient I/O
/// error (see [`is_transient_io`]). Checkpoint writes at the end of a
/// multi-minute point hit these on loaded CI runners; one retry beats
/// failing the whole point.
///
/// # Errors
///
/// Returns the second error when the retry also fails, or the first
/// error when it is not transient.
pub fn retry_transient_io<T>(mut f: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    match f() {
        Err(e) if is_transient_io(&e) => f(),
        other => other,
    }
}

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fans a list of independent sweep points across worker threads.
///
/// Every simulated [`Machine`] is fully independent, so the
/// (workload × architecture × x-axis) matrix of a figure parallelizes
/// trivially; results come back **in point order** regardless of thread
/// scheduling, which keeps CSV output byte-deterministic. On the first
/// error the sweep stops handing out new points and returns that error.
pub struct Sweep {
    name: String,
    threads: usize,
    quiet: bool,
}

impl Sweep {
    /// A sweep with the default thread count (see [`default_threads`]).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            threads: default_threads(),
            quiet: false,
        }
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = threads.max(1);
        self
    }

    /// Suppresses the progress line (used by determinism tests).
    #[must_use]
    pub fn quiet(mut self) -> Sweep {
        self.quiet = true;
        self
    }

    /// Runs `f` over every point, in parallel, preserving point order in
    /// the returned vector.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed error any worker produced.
    pub fn run<P, T, F>(&self, points: Vec<P>, f: F) -> Result<Vec<T>, BenchError>
    where
        P: Send,
        T: Send,
        F: Fn(P) -> Result<T, BenchError> + Sync,
    {
        let n = points.len();
        let threads = self.threads.min(n.max(1));
        if !self.quiet {
            eprintln!("{}: sweeping {n} points on {threads} threads", self.name);
        }
        let queue = Mutex::new(points.into_iter().enumerate());
        let cells: Vec<Mutex<Option<Result<T, BenchError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let next = lock_ignoring_poison(&queue).next();
                    let Some((index, point)) = next else { break };
                    let result = f(point);
                    if result.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    *lock_ignoring_poison(&cells[index]) = Some(result);
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for cell in cells {
            match cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(Ok(value)) => out.push(value),
                Some(Err(e)) => return Err(e),
                // A later point errored first and this one was skipped;
                // surface the error found further down instead.
                None => continue,
            }
        }
        Ok(out)
    }
}

/// Aggregate simulator-throughput numbers for one sweep: how many cycles
/// were simulated, how long the host took, and the resulting
/// cycles-per-second rate — the figure that makes simulator performance
/// regressions visible across PRs via `BENCH_sim.json`.
#[derive(Clone, Debug)]
pub struct PerfSummary {
    /// Sweep / binary name.
    pub name: String,
    /// Number of experiments aggregated.
    pub experiments: usize,
    /// Total simulated cycles across experiments.
    pub total_sim_cycles: u64,
    /// Total host wall-clock seconds spent inside `Machine::run`.
    pub total_host_seconds: f64,
    /// Extra named figures to include in the JSON (e.g. the fast-mode
    /// vs. reference speedup measured by `perf_smoke`).
    pub extra: Vec<(String, f64)>,
    /// Named string metadata for the JSON (host CPU count, git revision,
    /// shard count, exec mode — run provenance for cross-machine
    /// comparisons). [`write_bench_json`] injects `host_cpus` and
    /// `git_rev` automatically when absent.
    pub meta: Vec<(String, String)>,
}

impl PerfSummary {
    /// Aggregates the perf numbers of a finished sweep. Accepts anything
    /// yielding `&Measurement` so callers holding tuples can aggregate
    /// without cloning.
    #[must_use]
    pub fn from_measurements<'a, I>(name: impl Into<String>, measurements: I) -> PerfSummary
    where
        I: IntoIterator<Item = &'a Measurement>,
    {
        let mut summary = PerfSummary {
            name: name.into(),
            experiments: 0,
            total_sim_cycles: 0,
            total_host_seconds: 0.0,
            extra: Vec::new(),
            meta: Vec::new(),
        };
        for m in measurements {
            summary.experiments += 1;
            summary.total_sim_cycles += m.cycles;
            summary.total_host_seconds += m.host_seconds;
        }
        summary
    }

    /// Adds a named figure to the JSON output.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: f64) -> PerfSummary {
        self.extra.push((key.into(), value));
        self
    }

    /// Adds a named string metadata entry to the JSON output.
    #[must_use]
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> PerfSummary {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Aggregate simulated cycles per host second.
    #[must_use]
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.total_host_seconds > 0.0 {
            self.total_sim_cycles as f64 / self.total_host_seconds
        } else {
            0.0
        }
    }

    /// Renders the summary as a small JSON object (no external
    /// dependencies; keys are fixed identifiers, values are numbers).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", self.name);
        for (key, value) in &self.meta {
            let _ = writeln!(out, "  \"{key}\": \"{value}\",");
        }
        let _ = writeln!(out, "  \"experiments\": {},", self.experiments);
        let _ = writeln!(out, "  \"total_sim_cycles\": {},", self.total_sim_cycles);
        let _ = writeln!(
            out,
            "  \"total_host_seconds\": {:.6},",
            self.total_host_seconds
        );
        for (key, value) in &self.extra {
            let _ = writeln!(out, "  \"{key}\": {value:.6},");
        }
        let _ = writeln!(
            out,
            "  \"sim_cycles_per_sec\": {:.1}",
            self.sim_cycles_per_sec()
        );
        out.push_str("}\n");
        out
    }

    /// Prints the one-line throughput report sweeps emit on stderr.
    pub fn log(&self) {
        eprintln!(
            "{}: simulated {} cycles over {} experiments in {:.2}s host time ({:.2} Mcycles/s)",
            self.name,
            self.total_sim_cycles,
            self.experiments,
            self.total_host_seconds,
            self.sim_cycles_per_sec() / 1e6,
        );
    }
}

/// Writes the aggregate simulator throughput to `<dir>/BENCH_sim.json`
/// (most recent sweep; the name CI uploads) and to the per-sweep
/// `<dir>/BENCH_sim.<name>.json` so binaries sharing a results directory
/// don't clobber each other's records.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or file cannot be
/// written.
pub fn write_bench_json(dir: &Path, summary: &PerfSummary) -> Result<PathBuf, BenchError> {
    std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    // Run provenance: every written record carries the host CPU count
    // and (when available) the git revision, so numbers from different
    // machines or commits are never compared blind.
    let mut summary = summary.clone();
    if !summary.meta.iter().any(|(k, _)| k == "host_cpus") {
        let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        summary.meta.push(("host_cpus".into(), cpus.to_string()));
    }
    if !summary.meta.iter().any(|(k, _)| k == "git_rev") {
        summary.meta.push(("git_rev".into(), git_revision()));
    }
    let json = summary.render_json();
    // `BENCH_sim.json` is the fixed name CI uploads and the baseline guard
    // reads; it holds the most recent sweep. The per-sweep copy keeps every
    // binary's throughput record when several run into the same directory.
    let named = dir.join(format!("BENCH_sim.{}.json", summary.name));
    std::fs::write(&named, &json).map_err(|source| BenchError::Io {
        path: named.display().to_string(),
        source,
    })?;
    let path = dir.join("BENCH_sim.json");
    std::fs::write(&path, json).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    eprintln!("wrote {} (and {})", path.display(), named.display());
    Ok(path)
}

/// The short git revision of the working tree, or `"unknown"` when git
/// (or a repository) is unavailable — best-effort run provenance, never
/// an error.
#[must_use]
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the figure-level profile artifact `<dir>/<fig>.profile.json`
/// (schema `lrscwait.profile-set.v1`: one entry per profiled sweep
/// point, plus the merged aggregate with its embedded Amdahl report) and
/// the Prometheus rendering of the aggregate to `<dir>/<fig>.profile.prom`.
/// Also prints the aggregate Amdahl report to stderr — the sweep's
/// sequential bottleneck named right where the numbers were produced.
///
/// Returns `Ok(None)` when no measurement carries a profile (the sweep
/// ran without `--profile`).
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or files cannot be
/// written.
pub fn write_profile_json(
    dir: &Path,
    fig: &str,
    measurements: &[Measurement],
) -> Result<Option<PathBuf>, BenchError> {
    let points: Vec<(String, u32, PhaseProfile)> = measurements
        .iter()
        .filter_map(|m| {
            m.profile
                .as_ref()
                .map(|p| (m.label.clone(), m.x, p.clone()))
        })
        .collect();
    write_profile_set(dir, fig, &points)
}

/// The lower-level sibling of [`write_profile_json`] for harnesses that
/// measure something other than a [`Measurement`] (e.g. the open-loop
/// traffic figure): writes the same `lrscwait.profile-set.v1` artifact
/// from bare `(label, x, profile)` points. Returns `Ok(None)` when
/// `points` is empty.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or files cannot be
/// written.
pub fn write_profile_set(
    dir: &Path,
    fig: &str,
    points: &[(String, u32, PhaseProfile)],
) -> Result<Option<PathBuf>, BenchError> {
    let Some((_, _, first)) = points.first() else {
        return Ok(None);
    };
    let mut aggregate = first.clone();
    for (_, _, profile) in &points[1..] {
        aggregate.merge(profile);
    }
    let mut out = String::from("{\n  \"schema\": \"lrscwait.profile-set.v1\",\n");
    let _ = writeln!(out, "  \"name\": \"{fig}\",");
    out.push_str("  \"points\": [\n");
    for (i, (label, x, profile)) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"label\": \"{label}\", \"x\": {x}, \"profile\": {}}}{sep}",
            profile.to_json().trim_end(),
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"aggregate\": {}", aggregate.to_json().trim_end());
    out.push_str("}\n");

    std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let path = dir.join(format!("{fig}.profile.json"));
    std::fs::write(&path, out).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    let prom_path = dir.join(format!("{fig}.profile.prom"));
    std::fs::write(&prom_path, aggregate.registry().to_prometheus()).map_err(|source| {
        BenchError::Io {
            path: prom_path.display().to_string(),
            source,
        }
    })?;
    eprintln!(
        "wrote {} (and {})\n{}",
        path.display(),
        prom_path.display(),
        aggregate.amdahl().render()
    );
    Ok(Some(path))
}

/// Reads one numeric field out of a `BENCH_sim.json`-style file (a flat
/// JSON object of string or numeric values — enough for the CI baseline
/// guard without a JSON dependency).
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the file cannot be read and
/// [`BenchError::ClaimFailed`] when the field is missing or not a number.
pub fn read_bench_field(path: &Path, field: &str) -> Result<f64, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    let needle = format!("\"{field}\"");
    let start = text
        .find(&needle)
        .ok_or_else(|| BenchError::ClaimFailed(format!("{}: no field {field}", path.display())))?;
    let rest = &text[start + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':').ok_or_else(|| {
        BenchError::ClaimFailed(format!("{}: malformed field {field}", path.display()))
    })?;
    let number: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    number.parse().map_err(|_| {
        BenchError::ClaimFailed(format!(
            "{}: field {field} is not a number (`{number}`)",
            path.display()
        ))
    })
}

/// Flattens every numeric leaf of a parsed JSON document into
/// `(dotted.path, value)` pairs, in document order. Array elements are
/// indexed (`points.0.x`); booleans and strings are skipped. This is how
/// `bench_diff` turns two `BENCH_sim.json` / `<fig>.profile.json` files
/// into comparable key sets without caring about their exact schema.
pub fn flatten_numeric(
    json: &lrscwait_trace::json::Json,
    prefix: &str,
    out: &mut Vec<(String, f64)>,
) {
    use lrscwait_trace::json::Json;
    match json {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_numeric(value, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, value) in items.iter().enumerate() {
                flatten_numeric(value, &format!("{prefix}.{i}"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// One row of a [`diff_table`]: a dotted key with its old/new values.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Dotted JSON path.
    pub key: String,
    /// Value in the old file (`None`: key only in the new file).
    pub old: Option<f64>,
    /// Value in the new file (`None`: key removed).
    pub new: Option<f64>,
}

impl DiffRow {
    /// Relative change new/old − 1, when both sides exist and old ≠ 0.
    #[must_use]
    pub fn relative_change(&self) -> Option<f64> {
        match (self.old, self.new) {
            (Some(old), Some(new)) if old != 0.0 => Some(new / old - 1.0),
            _ => None,
        }
    }
}

/// Pairs up two flattened numeric key sets: every key from either side,
/// old-file order first, then new-only keys in new-file order.
#[must_use]
pub fn diff_rows(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<DiffRow> {
    let new_map: HashMap<&str, f64> = new.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let old_keys: std::collections::HashSet<&str> = old.iter().map(|(k, _)| k.as_str()).collect();
    let mut rows: Vec<DiffRow> = old
        .iter()
        .map(|(key, value)| DiffRow {
            key: key.clone(),
            old: Some(*value),
            new: new_map.get(key.as_str()).copied(),
        })
        .collect();
    rows.extend(
        new.iter()
            .filter(|(key, _)| !old_keys.contains(key.as_str()))
            .map(|(key, value)| DiffRow {
                key: key.clone(),
                old: None,
                new: Some(*value),
            }),
    );
    rows
}

/// Renders a regression/improvement table for two flattened files: one
/// markdown row per key whose relative change exceeds `threshold` (or
/// that appears on only one side). Returns `None` when nothing moved.
#[must_use]
pub fn diff_table(rows: &[DiffRow], threshold: f64) -> Option<String> {
    let moved: Vec<&DiffRow> = rows
        .iter()
        .filter(|row| match row.relative_change() {
            Some(change) => change.abs() > threshold,
            // Keys on one side only are always worth showing.
            None => !(row.old.is_none() && row.new.is_none()),
        })
        .filter(|row| row.old.is_none() || row.new.is_none() || row.relative_change().is_some())
        .collect();
    if moved.is_empty() {
        return None;
    }
    let fmt_cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    let table_rows: Vec<Vec<String>> = moved
        .iter()
        .map(|row| {
            let change = row
                .relative_change()
                .map_or_else(|| "n/a".to_string(), |c| format!("{:+.1}%", c * 100.0));
            vec![
                row.key.clone(),
                fmt_cell(row.old),
                fmt_cell(row.new),
                change,
            ]
        })
        .collect();
    Some(markdown_table(
        &["key", "old", "new", "change"],
        &table_rows,
    ))
}

/// Finds the throughput of series `label` at x value `x`.
///
/// # Errors
///
/// Returns [`BenchError::MissingPoint`] when the sweep has no such point.
pub fn find_throughput(
    measurements: &[Measurement],
    label: &str,
    x: u32,
) -> Result<f64, BenchError> {
    measurements
        .iter()
        .find(|m| m.label == label && m.x == x)
        .map(|m| m.throughput)
        .ok_or_else(|| BenchError::MissingPoint {
            series: label.to_string(),
            x,
        })
}

/// Standard `main` wrapper for the figure binaries: runs `f`, prints help
/// to stdout (exit 0) and errors to stderr (exit 2).
pub fn run_main(name: &str, f: impl FnOnce() -> Result<(), BenchError>) -> std::process::ExitCode {
    match f() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(BenchError::Help) => {
            println!("{USAGE}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Turns a failed quantitative claim into a typed error (replacing
/// `assert!`-driven control flow on bench run paths).
///
/// # Errors
///
/// Returns [`BenchError::ClaimFailed`] when `condition` is false.
pub fn check_claim(condition: bool, message: impl Into<String>) -> Result<(), BenchError> {
    if condition {
        Ok(())
    } else {
        Err(BenchError::ClaimFailed(message.into()))
    }
}

/// Usage text shared by every figure binary.
pub const USAGE: &str = "\
usage: <figure binary> [--quick] [--threads N] [--out DIR] [--baseline FILE] [--trace]
                       [--enforce-sharded] [--exec MODE]
  --quick          reduced sweep for CI / smoke testing
  --threads N      sweep worker threads (default: all cores, min 2)
  --exec MODE      execution mode for every experiment: fast (default) or
                   reference — results are bit-identical, only simulator
                   speed differs
  --out DIR        results directory (default: results)
  --baseline FILE  committed BENCH_sim.json to guard simulator throughput
                   against (fails when more than 2x slower; perf_smoke)
  --trace          also attach an analysis sink per sweep point and write
                   <fig>.trace.csv (handoff latency p50/p99/max per point;
                   fig3 and fig6)
  --enforce-sharded  fail instead of skipping the >=2x sharded-speedup bar
                   when the host has fewer CPUs than shards, and hold the
                   measured busy speedup to >=2x (perf_smoke; the CI
                   bench-smoke job passes this on hosted multi-core
                   runners)
  --checkpoint FILE  write a machine snapshot to FILE when the run ends
                   (written even when the watchdog fired, so a saturated
                   run can be resumed with a larger cycle budget)
  --resume FILE    restore the machine from a snapshot written by
                   --checkpoint instead of starting from reset
  --profile        enable the host-side phase profiler: every experiment
                   collects per-phase step timings and worker utilization,
                   and the binary writes <fig>.profile.json plus a
                   Prometheus rendering and an Amdahl report (results
                   stay bit-identical; host overhead is a few percent)
  --heartbeat SECS  emit a progress line to stderr every SECS seconds
                   per experiment: cycles vs budget, live Mcycles/s,
                   ETA, checkpoint age
  --heartbeat-file FILE  also append each heartbeat as an NDJSON record
                   to FILE
  -h, --help       show this help";

/// `(flag, value placeholder, one-line help)` for every flag
/// [`BenchArgs::parse`] accepts — the single source of the unknown-flag
/// error's listing (a test pins every entry to [`USAGE`]).
pub const FLAGS: &[(&str, &str, &str)] = &[
    ("--quick", "", "reduced sweep for CI / smoke testing"),
    (
        "--threads",
        "N",
        "sweep worker threads (default: all cores, min 2)",
    ),
    (
        "--exec",
        "MODE",
        "execution mode: fast (default) or reference",
    ),
    ("--out", "DIR", "results directory (default: results)"),
    (
        "--baseline",
        "FILE",
        "committed BENCH_sim.json to guard simulator throughput against",
    ),
    (
        "--trace",
        "",
        "per-point synchronization analysis; writes <fig>.trace.csv",
    ),
    (
        "--enforce-sharded",
        "",
        "make the >=2x sharded-speedup bar mandatory (perf_smoke)",
    ),
    (
        "--checkpoint",
        "FILE",
        "write a machine snapshot to FILE when the run ends",
    ),
    (
        "--resume",
        "FILE",
        "restore the machine from a --checkpoint snapshot",
    ),
    (
        "--profile",
        "",
        "host-side phase profiler; writes <fig>.profile.json/.prom",
    ),
    (
        "--heartbeat",
        "SECS",
        "stderr progress line every SECS seconds per experiment",
    ),
    (
        "--heartbeat-file",
        "FILE",
        "also append heartbeat NDJSON records to FILE",
    ),
    ("--help", "", "show this help"),
];

/// One line per valid flag with its one-line help — what the
/// unknown-flag error prints so a typo never costs a doc lookup.
#[must_use]
pub fn flag_listing() -> String {
    let mut out = String::from("valid flags:");
    for (flag, value, help) in FLAGS {
        let head = if value.is_empty() {
            (*flag).to_string()
        } else {
            format!("{flag} {value}")
        };
        let _ = write!(out, "\n  {head:<22} {help}");
    }
    out
}

/// The closest known flag by edit distance (≤ 3), for a did-you-mean
/// hint on typos.
fn closest_flag(input: &str) -> Option<&'static str> {
    FLAGS
        .iter()
        .map(|(flag, _, _)| (*flag, edit_distance(input, flag)))
        .filter(|&(_, d)| d <= 3)
        .min_by_key(|&(_, d)| d)
        .map(|(flag, _)| flag)
}

/// Plain Levenshtein distance (flag names are short; no need for
/// anything cleverer).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row[j + 1] = substitute.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// Parsed harness CLI flags.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Reduced sweep for CI / smoke testing.
    pub quick: bool,
    /// Sweep parallelism override (`None`: [`default_threads`]).
    pub threads: Option<usize>,
    /// Results directory.
    pub out: PathBuf,
    /// Committed baseline `BENCH_sim.json` to compare against.
    pub baseline: Option<PathBuf>,
    /// Attach an [`AnalysisSink`] per sweep point and emit the
    /// figure-level `<fig>.trace.csv` artifact (fig3/fig6).
    pub trace: bool,
    /// Treat the ≥2x sharded-speedup bar as mandatory (perf_smoke): a
    /// host with fewer CPUs than shards is an error rather than a skip,
    /// and the measured busy speedup must clear 2x.
    pub enforce_sharded: bool,
    /// Write a machine snapshot here when the run ends (even on
    /// watchdog), for later `--resume`.
    pub checkpoint: Option<PathBuf>,
    /// Restore the machine from this snapshot instead of starting from
    /// reset.
    pub resume: Option<PathBuf>,
    /// Execution-mode override for every experiment the binary runs
    /// (`None`: keep each config's own mode, normally fast).
    pub exec: Option<ExecMode>,
    /// Enable the host-side phase profiler on every experiment and write
    /// the `<fig>.profile.json` / `.prom` artifacts.
    pub profile: bool,
    /// Emit a heartbeat progress line every this many seconds per
    /// experiment.
    pub heartbeat: Option<u64>,
    /// Also append heartbeat NDJSON records to this file.
    pub heartbeat_file: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> BenchArgs {
        BenchArgs {
            quick: false,
            threads: None,
            out: PathBuf::from("results"),
            baseline: None,
            trace: false,
            enforce_sharded: false,
            checkpoint: None,
            resume: None,
            exec: None,
            profile: false,
            heartbeat: None,
            heartbeat_file: None,
        }
    }
}

impl BenchArgs {
    /// Parses flags, rejecting anything unknown.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] (including the usage text) on unknown
    /// flags, missing or malformed values, and `--help`.
    pub fn parse<I>(args: I) -> Result<BenchArgs, BenchError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--threads" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--threads needs a value\n{USAGE}"))
                    })?;
                    let threads: usize = value.parse().map_err(|_| {
                        BenchError::Usage(format!("--threads: `{value}` is not a count\n{USAGE}"))
                    })?;
                    if threads == 0 {
                        return Err(BenchError::Usage(format!(
                            "--threads must be at least 1\n{USAGE}"
                        )));
                    }
                    parsed.threads = Some(threads);
                }
                "--out" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--out needs a directory\n{USAGE}"))
                    })?;
                    parsed.out = PathBuf::from(value);
                }
                "--baseline" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--baseline needs a file\n{USAGE}"))
                    })?;
                    parsed.baseline = Some(PathBuf::from(value));
                }
                "--trace" => parsed.trace = true,
                "--enforce-sharded" => parsed.enforce_sharded = true,
                "--checkpoint" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--checkpoint needs a file\n{USAGE}"))
                    })?;
                    parsed.checkpoint = Some(PathBuf::from(value));
                }
                "--resume" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--resume needs a file\n{USAGE}"))
                    })?;
                    parsed.resume = Some(PathBuf::from(value));
                }
                "--exec" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--exec needs a mode\n{USAGE}"))
                    })?;
                    parsed.exec = Some(match value.as_str() {
                        "fast" => ExecMode::Fast,
                        "reference" => ExecMode::Reference,
                        other => {
                            return Err(BenchError::Usage(format!(
                                "--exec: unknown mode `{other}` \
                                 (expected fast or reference)\n{USAGE}"
                            )));
                        }
                    });
                }
                "--profile" => parsed.profile = true,
                "--heartbeat" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--heartbeat needs a seconds value\n{USAGE}"))
                    })?;
                    let secs: u64 = value.parse().map_err(|_| {
                        BenchError::Usage(format!(
                            "--heartbeat: `{value}` is not a seconds count\n{USAGE}"
                        ))
                    })?;
                    if secs == 0 {
                        return Err(BenchError::Usage(format!(
                            "--heartbeat must be at least 1 second\n{USAGE}"
                        )));
                    }
                    parsed.heartbeat = Some(secs);
                }
                "--heartbeat-file" => {
                    let value = it.next().ok_or_else(|| {
                        BenchError::Usage(format!("--heartbeat-file needs a file\n{USAGE}"))
                    })?;
                    parsed.heartbeat_file = Some(PathBuf::from(value));
                }
                "-h" | "--help" => return Err(BenchError::Help),
                other => {
                    let hint = closest_flag(other)
                        .map(|flag| format!(" (did you mean `{flag}`?)"))
                        .unwrap_or_default();
                    return Err(BenchError::Usage(format!(
                        "unknown flag `{other}`{hint}\n{}",
                        flag_listing()
                    )));
                }
            }
        }
        Ok(parsed)
    }

    /// Reads flags from `std::env::args`.
    ///
    /// # Errors
    ///
    /// See [`BenchArgs::parse`].
    pub fn from_env() -> Result<BenchArgs, BenchError> {
        BenchArgs::parse(std::env::args().skip(1))
    }

    /// Applies the `--exec` mode override to a machine configuration
    /// (identity without the flag). Figure binaries pass every config
    /// they build through this so one flag retargets the whole sweep.
    #[must_use]
    pub fn configure(&self, mut cfg: SimConfig) -> SimConfig {
        if let Some(mode) = self.exec {
            cfg.exec_mode = mode;
        }
        cfg
    }

    /// Applies the observability flags to an experiment: `--profile`
    /// enables the phase profiler, `--heartbeat`/`--heartbeat-file`
    /// attach the periodic progress line. Figure binaries pass every
    /// experiment they build through this (like [`configure`] for
    /// configs), so the flags work uniformly across all of them.
    ///
    /// [`configure`]: BenchArgs::configure
    #[must_use]
    pub fn instrument<'w>(&self, mut exp: Experiment<'w>) -> Experiment<'w> {
        if self.profile {
            exp = exp.profiled();
        }
        if let Some(secs) = self.heartbeat {
            exp = exp.heartbeat(secs, self.heartbeat_file.clone());
        }
        exp
    }

    /// Writes `<out>/<fig>.profile.json` / `.prom` from a finished
    /// sweep's measurements when `--profile` was given (no-op
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] when the artifacts cannot be written.
    pub fn write_profile(&self, fig: &str, measurements: &[Measurement]) -> Result<(), BenchError> {
        if self.profile {
            write_profile_json(&self.out, fig, measurements)?;
        }
        Ok(())
    }

    /// A [`Sweep`] honouring the `--threads` override.
    #[must_use]
    pub fn sweep(&self, name: impl Into<String>) -> Sweep {
        let sweep = Sweep::new(name);
        match self.threads {
            Some(t) => sweep.threads(t),
            None => sweep,
        }
    }

    /// Applies the committed-baseline throughput guard when `--baseline`
    /// was given (no-op otherwise): compares the sweep's aggregate
    /// simulated-cycles-per-second against the baseline file's
    /// `sim_cycles_per_sec`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::ClaimFailed`] when throughput dropped more
    /// than 2x below the baseline, and [`BenchError::Io`] when the
    /// baseline file cannot be read.
    pub fn guard_baseline(&self, summary: &PerfSummary) -> Result<(), BenchError> {
        let Some(path) = &self.baseline else {
            return Ok(());
        };
        let committed = read_bench_field(path, "sim_cycles_per_sec")?;
        let measured = summary.sim_cycles_per_sec();
        println!(
            "{}: {measured:.0} sim cycles/s vs committed baseline {committed:.0} ({:.2}x)",
            summary.name,
            measured / committed
        );
        check_claim(
            measured * 2.0 >= committed,
            format!(
                "simulator throughput regressed more than 2x: {measured:.0} cycles/s \
                 vs baseline {committed:.0}"
            ),
        )
    }
}

/// One sweep point's trace-derived synchronization metrics — the raw
/// material of the figure-level `<fig>.trace.csv` artifact.
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Series label (legend entry).
    pub label: String,
    /// X value (bins, cores, …).
    pub x: u32,
    /// The per-point synchronization analysis.
    pub analysis: SyncAnalysis,
}

impl TracePoint {
    /// Bundles one measured point's analysis.
    #[must_use]
    pub fn new(label: impl Into<String>, x: u32, analysis: SyncAnalysis) -> TracePoint {
        TracePoint {
            label: label.into(),
            x,
            analysis,
        }
    }
}

/// Writes the figure-level trace artifact `<dir>/<fig>.trace.csv`: one
/// row per sweep point with the lock-handoff latency distribution
/// (count, p50, p99, max) and wait-queue occupancy (max, mean) derived
/// from the point's event stream — per-handoff evidence to sit next to
/// the throughput figure CSV.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or file cannot be
/// written.
pub fn write_trace_csv(
    dir: &Path,
    fig: &str,
    points: &[TracePoint],
) -> Result<PathBuf, BenchError> {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                p.x.to_string(),
                p.analysis.handoff.count.to_string(),
                p.analysis.handoff.p50.to_string(),
                p.analysis.handoff.p99.to_string(),
                p.analysis.handoff.max.to_string(),
                p.analysis.occupancy.max.to_string(),
                format!("{:.4}", p.analysis.occupancy.mean),
            ]
        })
        .collect();
    write_csv(
        dir,
        &format!("{fig}.trace"),
        &[
            "series",
            "x",
            "handoffs",
            "handoff_p50",
            "handoff_p99",
            "handoff_max",
            "occupancy_max",
            "occupancy_mean",
        ],
        &rows,
    )
}

/// Writes rows as `<dir>/<name>.csv`, creating the directory.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when the directory or file cannot be written.
pub fn write_csv(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, BenchError> {
    std::fs::create_dir_all(dir).map_err(|source| BenchError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, text).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })?;
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// Renders a markdown table.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Formats a throughput in the paper's updates-per-cycle style.
#[must_use]
pub fn fmt_tp(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_kernels::{
        HistImpl, HistogramKernel, MatmulKernel, PollerKind, QueueImpl, QueueKernel,
    };

    #[test]
    fn histogram_experiment_small() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(8).run().unwrap();
        assert!(m.throughput > 0.0);
        assert!(m.lo <= m.hi);
        assert_eq!(m.stats.total_ops(), 32);
        assert_eq!(m.label, "Atomic Add");
        assert_eq!(m.x, 8);
    }

    #[test]
    fn queue_experiment_small() {
        let arch = SyncArch::Colibri { queues: 4 };
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).run().unwrap();
        assert!(m.throughput > 0.0);
        assert_eq!(m.stats.total_ops(), 64);
    }

    #[test]
    fn matmul_experiment_small() {
        let arch = SyncArch::Lrsc;
        let kernel = MatmulKernel::new(8, 2, 4, PollerKind::Idle);
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let m = Experiment::new(&kernel, cfg).run().unwrap();
        let cycles = m.max_region_cycles(0..2).unwrap();
        assert!(cycles > 100);
        // Verification ran: the result matrix was checked against init().
    }

    #[test]
    fn experiment_label_override() {
        let cfg = SimConfig::builder().cores(2).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 4, 2);
        let m = Experiment::new(&kernel, cfg)
            .label("Roofline")
            .x(4)
            .run()
            .unwrap();
        assert_eq!(m.label, "Roofline");
    }

    #[test]
    fn watchdog_is_typed_error() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .max_cycles(50)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 64, 4);
        let err = Experiment::new(&kernel, cfg).run().unwrap_err();
        assert!(matches!(err, BenchError::Watchdog { .. }), "{err}");
    }

    #[test]
    fn markdown_rendering() {
        let md = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn args_reject_unknown_flags() {
        let err = BenchArgs::parse(vec!["--frobnicate".to_string()]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown flag"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");
    }

    #[test]
    fn unknown_flag_error_lists_every_flag_and_suggests() {
        let msg = BenchArgs::parse(vec!["--profil".to_string()])
            .unwrap_err()
            .to_string();
        assert!(msg.contains("unknown flag `--profil`"), "{msg}");
        assert!(msg.contains("did you mean `--profile`?"), "{msg}");
        for (flag, _, help) in FLAGS {
            assert!(msg.contains(flag), "listing must include {flag}:\n{msg}");
            assert!(
                msg.contains(help),
                "listing must include help for {flag}:\n{msg}"
            );
        }
        // A typo nothing like any flag gets the listing but no guess.
        let msg = BenchArgs::parse(vec!["--zzzzzzzzzzzzzzzz".to_string()])
            .unwrap_err()
            .to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("valid flags:"), "{msg}");
    }

    #[test]
    fn every_flag_is_documented_in_usage() {
        for (flag, _, _) in FLAGS {
            assert!(USAGE.contains(flag), "USAGE must document {flag}");
        }
    }

    #[test]
    fn args_parse_profile_and_heartbeat_flags() {
        let args = BenchArgs::parse(
            [
                "--profile",
                "--heartbeat",
                "30",
                "--heartbeat-file",
                "hb.ndjson",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(args.profile);
        assert_eq!(args.heartbeat, Some(30));
        assert_eq!(args.heartbeat_file, Some(PathBuf::from("hb.ndjson")));
        assert!(!BenchArgs::default().profile, "profiling is opt-in");
        assert!(BenchArgs::default().heartbeat.is_none());
        assert!(BenchArgs::parse(["--heartbeat".to_string()]).is_err());
        assert!(BenchArgs::parse(["--heartbeat", "0"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--heartbeat", "soon"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--heartbeat-file".to_string()]).is_err());
    }

    #[test]
    fn flatten_and_diff_numeric_json() {
        use lrscwait_trace::json;
        let old = json::parse(
            r#"{"a": 1, "b": {"c": 2.5}, "arr": [1, 2], "s": "text", "gone": 4, "same": 3}"#,
        )
        .unwrap();
        let new = json::parse(r#"{"a": 2, "b": {"c": 2.5}, "arr": [1, 3], "same": 3, "fresh": 7}"#)
            .unwrap();
        let mut old_flat = Vec::new();
        flatten_numeric(&old, "", &mut old_flat);
        let mut new_flat = Vec::new();
        flatten_numeric(&new, "", &mut new_flat);
        assert_eq!(
            old_flat,
            vec![
                ("a".to_string(), 1.0),
                ("b.c".to_string(), 2.5),
                ("arr.0".to_string(), 1.0),
                ("arr.1".to_string(), 2.0),
                ("gone".to_string(), 4.0),
                ("same".to_string(), 3.0),
            ],
            "strings are skipped, paths are dotted, arrays indexed"
        );

        let rows = diff_rows(&old_flat, &new_flat);
        let row = |key: &str| rows.iter().find(|r| r.key == key).unwrap();
        assert_eq!(row("a").relative_change(), Some(1.0));
        assert_eq!(row("b.c").relative_change(), Some(0.0));
        assert_eq!(row("gone").new, None);
        let fresh = row("fresh");
        assert_eq!((fresh.old, fresh.new), (None, Some(7.0)));

        let table = diff_table(&rows, 0.01).expect("a and arr.1 moved");
        assert!(table.contains("| a |"), "{table}");
        assert!(table.contains("+100.0%"), "{table}");
        assert!(table.contains("| gone |"), "one-sided keys always show");
        assert!(table.contains("| fresh |"), "{table}");
        assert!(
            !table.contains("| b.c |") && !table.contains("| same |"),
            "unmoved keys stay out:\n{table}"
        );
        // Nothing above a huge threshold except the one-sided keys.
        let rows_same = diff_rows(&old_flat, &old_flat);
        assert!(
            diff_table(&rows_same, 0.01).is_none(),
            "identical files must diff clean"
        );
    }

    #[test]
    fn profile_artifact_self_validates() {
        use lrscwait_trace::json;
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).profiled().run().unwrap();
        let profile = m.profile.as_ref().expect("profiled run carries a profile");
        let phase_sum: u64 = profile.phases.iter().map(|s| s.ns).sum();
        assert_eq!(
            phase_sum, profile.sampled_ns,
            "contiguous laps: phase times must sum to the sampled total"
        );
        assert!(
            profile.sampled_ns <= profile.wall_ns,
            "sampled time cannot exceed the run-loop wall time"
        );

        let dir = std::env::temp_dir().join(format!("lrscwait-profile-{}", std::process::id()));
        let path = write_profile_json(&dir, "unit", std::slice::from_ref(&m))
            .unwrap()
            .expect("a profiled measurement must produce the artifact");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&text).expect("profile set must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some("lrscwait.profile-set.v1")
        );
        let points = doc.get("points").and_then(json::Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        let agg = doc.get("aggregate").expect("aggregate present");
        assert_eq!(
            agg.get("schema").and_then(json::Json::as_str),
            Some("lrscwait.profile.v1")
        );
        // The embedded phase entries must re-sum to the sampled total.
        let phases = agg.get("phases").and_then(json::Json::as_arr).unwrap();
        assert_eq!(phases.len(), lrscwait_telemetry::NUM_PHASES);
        let json_sum: f64 = phases
            .iter()
            .filter_map(|p| p.get("ns").and_then(json::Json::as_f64))
            .sum();
        let sampled = agg.get("sampled_ns").and_then(json::Json::as_f64).unwrap();
        assert!((json_sum - sampled).abs() < 0.5, "{json_sum} vs {sampled}");
        assert!(agg.get("amdahl").is_some(), "Amdahl report embedded");

        let prom = std::fs::read_to_string(dir.join("unit.profile.prom")).unwrap();
        assert!(prom.contains("sim_phase_ns_total"), "{prom}");
        assert!(prom.contains("sim_amdahl_sequential_fraction"), "{prom}");

        // Un-profiled measurements produce no artifact at all.
        let plain = Experiment::new(
            &kernel,
            SimConfig::builder()
                .cores(4)
                .arch(SyncArch::Lrsc)
                .build()
                .unwrap(),
        )
        .x(4)
        .run()
        .unwrap();
        assert!(
            write_profile_json(&dir, "none", std::slice::from_ref(&plain))
                .unwrap()
                .is_none()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn args_parse_all_flags() {
        let args = BenchArgs::parse(
            [
                "--quick",
                "--threads",
                "3",
                "--out",
                "outdir",
                "--baseline",
                "b.json",
                "--trace",
                "--enforce-sharded",
                "--checkpoint",
                "ckpt.snap",
                "--resume",
                "prev.snap",
                "--exec",
                "reference",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.threads, Some(3));
        assert_eq!(args.out, PathBuf::from("outdir"));
        assert_eq!(args.baseline, Some(PathBuf::from("b.json")));
        assert!(args.trace);
        assert!(args.enforce_sharded);
        assert_eq!(args.checkpoint, Some(PathBuf::from("ckpt.snap")));
        assert_eq!(args.resume, Some(PathBuf::from("prev.snap")));
        assert_eq!(args.exec, Some(ExecMode::Reference));
        assert!(BenchArgs::parse(["--checkpoint".to_string()]).is_err());
        assert!(BenchArgs::parse(["--resume".to_string()]).is_err());
        assert!(BenchArgs::parse(["--exec".to_string()]).is_err());
        // Retired and unknown mode names are typed usage errors that list
        // the valid modes.
        for name in ["jit", "event", "translated"] {
            match BenchArgs::parse(["--exec", name].map(String::from)) {
                Err(BenchError::Usage(msg)) => assert!(
                    msg.contains(&format!("unknown mode `{name}`"))
                        && msg.contains("expected fast or reference"),
                    "{msg}"
                ),
                other => panic!("--exec {name}: expected a usage error, got {other:?}"),
            }
        }
        for (name, mode) in [("fast", ExecMode::Fast), ("reference", ExecMode::Reference)] {
            let args = BenchArgs::parse(["--exec", name].map(String::from)).unwrap();
            assert_eq!(args.exec, Some(mode));
            let cfg = args.configure(SimConfig::builder().cores(2).build().unwrap());
            assert_eq!(cfg.exec_mode, mode, "configure applies --exec {name}");
        }
        assert!(
            BenchArgs::default().exec.is_none(),
            "without --exec every config keeps its own mode"
        );
        assert!(!BenchArgs::default().trace, "trace artifacts are opt-in");
        assert!(
            !BenchArgs::default().enforce_sharded,
            "the sharded bar defaults to host-capability gating"
        );
    }

    #[test]
    fn trace_csv_has_handoff_percentiles_per_point() {
        let arch = SyncArch::Colibri { queues: 4 };
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::LrscWait, 1, 8, 4);
        let (m, analysis) = Experiment::new(&kernel, cfg).x(1).analyzed().unwrap();
        assert!(analysis.handoff.count > 0, "contended run must hand off");
        let dir = std::env::temp_dir().join(format!("lrscwait-tracecsv-{}", std::process::id()));
        let points = vec![TracePoint::new(m.label.clone(), m.x, analysis.clone())];
        let path = write_trace_csv(&dir, "figX", &points).unwrap();
        assert!(path.ends_with("figX.trace.csv"));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some(
                "series,x,handoffs,handoff_p50,handoff_p99,handoff_max,\
                 occupancy_max,occupancy_mean"
            )
        );
        let row = lines.next().expect("one data row");
        assert!(
            row.starts_with(&format!("{},1,{}", m.label, analysis.handoff.count)),
            "{row}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reference_mode_is_bit_identical() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Colibri { queues: 2 })
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::LrscWait, 2, 8, 4);
        let fast = Experiment::new(&kernel, cfg).x(2).run().unwrap();
        let reference = Experiment::new(&kernel, cfg)
            .x(2)
            .reference()
            .run()
            .unwrap();
        assert_eq!(fast.cycles, reference.cycles);
        assert_eq!(fast.stats, reference.stats);
        assert_eq!(fast.csv_row(), reference.csv_row());
    }

    #[test]
    fn checkpoint_resume_round_trip_matches_uninterrupted() {
        let dir = std::env::temp_dir().join(format!("lrscwait-ckpt-{}", std::process::id()));
        let ckpt = dir.join("mid.snap");
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 8, 4);
        let full = SimConfig::builder().cores(4).build().unwrap();
        let base = Experiment::new(&kernel, full).run().unwrap();

        // A budget-starved run still writes its snapshot before erroring.
        let starved = SimConfig::builder()
            .cores(4)
            .max_cycles(base.cycles / 2)
            .build()
            .unwrap();
        let err = Experiment::new(&kernel, starved)
            .checkpoint(&ckpt)
            .run()
            .unwrap_err();
        assert!(matches!(err, BenchError::Watchdog { .. }), "{err}");
        assert!(ckpt.exists(), "checkpoint must be written on watchdog");

        // Resuming with the full budget lands exactly where the
        // uninterrupted run did.
        let resumed = Experiment::new(&kernel, full).resume(&ckpt).run().unwrap();
        assert_eq!(resumed.cycles, base.cycles);
        assert_eq!(resumed.stats, base.stats);

        // Unreadable and malformed snapshots produce typed errors.
        let missing = Experiment::new(&kernel, full)
            .resume(dir.join("no-such.snap"))
            .run()
            .unwrap_err();
        assert!(matches!(missing, BenchError::Io { .. }), "{missing}");
        let garbage = dir.join("garbage.snap");
        std::fs::write(&garbage, b"not a snapshot").unwrap();
        let bad = Experiment::new(&kernel, full)
            .resume(&garbage)
            .run()
            .unwrap_err();
        assert!(matches!(bad, BenchError::Load(_)), "{bad}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measurement_reports_host_time_and_stalls() {
        let cfg = SimConfig::builder().cores(4).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).run().unwrap();
        assert!(m.host_seconds > 0.0, "run must be timed");
        assert!(m.sim_cycles_per_sec() > 0.0);
        let row = m.csv_row();
        assert_eq!(row.len(), 7, "stall column present");
        assert_eq!(row[6], m.stats.total_stall_cycles().to_string());
    }

    #[test]
    fn perf_summary_round_trips_through_json() {
        let dir = std::env::temp_dir().join(format!("lrscwait-bench-{}", std::process::id()));
        let summary = PerfSummary {
            name: "unit".to_string(),
            experiments: 3,
            total_sim_cycles: 1_000_000,
            total_host_seconds: 0.5,
            extra: vec![("speedup_vs_reference".to_string(), 7.25)],
            meta: vec![("exec_mode".to_string(), "fast".to_string())],
        };
        assert!((summary.sim_cycles_per_sec() - 2.0e6).abs() < 1e-9);
        let path = write_bench_json(&dir, &summary).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_sim.json");
        assert!((read_bench_field(&path, "sim_cycles_per_sec").unwrap() - 2.0e6).abs() < 1.0);
        assert!((read_bench_field(&path, "speedup_vs_reference").unwrap() - 7.25).abs() < 1e-9);
        assert!(read_bench_field(&path, "no_such_field").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn args_reject_bad_thread_counts() {
        assert!(BenchArgs::parse(["--threads".to_string()]).is_err());
        assert!(BenchArgs::parse(["--threads", "zero"].map(String::from)).is_err());
        assert!(BenchArgs::parse(["--threads", "0"].map(String::from)).is_err());
    }

    #[test]
    fn sweep_preserves_point_order() {
        let sweep = Sweep::new("order-test").threads(4).quiet();
        let results = sweep.run((0..64u32).collect(), |x| Ok(x * 2)).unwrap();
        assert_eq!(results, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_propagates_errors() {
        let sweep = Sweep::new("error-test").threads(2).quiet();
        let err = sweep
            .run(vec![1u32, 2, 3], |x| {
                if x == 2 {
                    Err(BenchError::ClaimFailed("point 2 fails".into()))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert!(matches!(err, BenchError::ClaimFailed(_)), "{err}");
    }

    #[test]
    fn default_threads_is_parallel() {
        assert!(default_threads() > 1);
    }
}
