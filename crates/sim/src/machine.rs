//! The manycore machine: cores + Qnodes + banks with synchronization
//! adapters, glued together by the two virtual networks.
//!
//! # Cycle order
//!
//! 1. Advance the request network; delivered requests are grouped by
//!    destination bank and serviced **in bank-id order** (and, within one
//!    bank, in delivery order) by the bank's [`SyncAdapter`]; responses
//!    land in the bank's outbox.
//! 2. Flush bank outboxes into the response network in **bank-id order**
//!    (FIFO per bank, so the (bank → core) ordering Colibri relies on
//!    holds).
//! 3. Advance the response network; deliveries pass through the core's
//!    [`Qnode`] (which may swallow `SuccessorUpdate`s or emit `WakeUp`s)
//!    and complete the core's in-flight operation.
//! 4. Step the cores by one instruction in **core-id order**. Barrier
//!    arrivals and halts are only *recorded* here; the barrier-release
//!    check runs once, after the walk, so its accounting never depends on
//!    visit order.
//! 5. Flush core outboxes into the request network (backpressure stalls
//!    the core), with the per-cycle rotated round-robin start.
//!
//! A machine steps on the thread that drives it. Host parallelism lives
//! one level up: a sweep runs one machine per figure point on its own
//! worker thread.
//!
//! **Determinism contract:** results are bit-identical in both
//! [`ExecMode`]s — the differential and tracing suites enforce
//! `Reference` ≡ `Fast` on summaries, statistics, CSV bytes and trace
//! streams. Two rules make this hold:
//!
//! * every worklist merge (dirty banks, dirty cores, runnable set) keeps
//!   bank-id / core-id order;
//! * the barrier release (the one genuinely order-sensitive accounting
//!   site) is deferred to a sub-phase after stepping and charges every
//!   released core the same `now − parked_at` delta, independent of visit
//!   order.
//!
//! # Fast mode: event-driven scheduling
//!
//! The paper's whole point is that LRSCwait cores *sleep* instead of
//! polling, so in the interesting regimes almost every core is parked in a
//! wait queue or at the barrier. The default execution mode
//! ([`ExecMode::Fast`]) makes the simulator's cost track *events*
//! instead of `cores × cycles`:
//!
//! * **Due cores only.** Phase 4 walks an always-sorted list of the
//!   [`CoreState::Running`] cores due this cycle. Cores leave it when they
//!   halt, park at the barrier, or block on memory, and re-enter on
//!   response delivery or barrier release — a parked core costs zero work
//!   per cycle.
//! * **Ready-time calendar.** After the Phase 4 merge, a running core
//!   whose `ready_at` lies beyond the next cycle (a branch penalty, a
//!   divide, or a superblock that ran ahead — an LR/SC backoff loop can
//!   run thousands of cycles ahead) leaves the walked list for the
//!   calendar (`crate::calendar`: a bucket ring over the next 64 cycles
//!   plus a min-heap keyed `(ready_at, core id)` beyond it). Due entries
//!   re-enter the list in ascending id order before Phase 4, through the
//!   same merge as woken cores, so a waiting core costs nothing until its
//!   cycle comes.
//! * **Lazy accounting.** Sleep/barrier cycle counters are settled as one
//!   `now − parked_at` delta on wake, and a running core's stalls as one
//!   delta past its stall watermark (`Core::charged_until`) on its next
//!   visit; [`Machine::stats`] and [`Machine::snapshot`] flush both,
//!   instead of one increment per unvisited cycle.
//! * **Cycle fast-forwarding.** Between cycles, [`Machine::run`] asks both
//!   networks for their [`next_ready_at`](Network::next_ready_at) and the
//!   calendar for its earliest `ready_at`; when no core is due, the next
//!   event is more than one cycle away and no outbox holds backpressured
//!   traffic, the cycle counter jumps straight to it without touching a
//!   core. Long all-asleep phases — the common case under LRSCwait — cost
//!   O(events), and an all-parked deadlock jumps directly to the
//!   watchdog.
//! * **Allocation-free hot loops.** Every per-cycle scratch buffer
//!   (message buffers, dirty-bank/dirty-core lists, the runnable set and
//!   its merge scratch, the calendar, the networks' scan sets) is reused;
//!   steady-state cycles perform zero heap allocations (enforced by the
//!   counting-allocator suite).
//!
//! # Fast mode: superblock execution
//!
//! [`ExecMode::Fast`] also swaps the per-instruction interpreter
//! dispatch for superblock execution:
//! the program image is pre-lowered into micro-ops (once per
//! [`DecodedProgram`], shared across machines and restores), and a
//! runnable core executes a whole straight-line-plus-branches run in one
//! tight loop (`crate::translate::run_block`), re-entering the
//! interpreter at every load/store/AMO/CSR/fence/ecall boundary — i.e.
//! exactly where the NoC, the adapters, or the timing model must observe
//! the core. Superblocks run *ahead* of the machine clock up to the run
//! loop's horizon (watchdog/target, so both stay cycle-exact); the last
//! cycle already charged is the core's stall watermark
//! (`Core::charged_until`), so later visits never double-count. Countdown
//! loops (`addi r, r, -1; bnez r`, the backoff and delay idiom) are
//! recognised when the image is lowered, and their taken iterations
//! retire arithmetically up to the horizon. Internal micro-ops are
//! trace-silent in both modes, so trace streams are unchanged.
//!
//! # Equivalence guarantee
//!
//! Event-driven scheduling and superblock execution are *optimizations,
//! not model changes*: cycle counts, every statistic, and therefore every
//! benchmark CSV byte are identical to the naive reference stepper
//! ([`ExecMode::Reference`]), which visits all cores every cycle with
//! eager per-cycle accounting. The differential test suite
//! (`crates/sim/tests/differential.rs` and the workspace-level
//! `tests/differential.rs`) runs both modes across the kernel ×
//! architecture matrix and asserts bit-identical
//! [`RunSummary`]/[`SimStats`] and byte-identical sweep CSVs.
//! Barrier-release accounting is visit-order-free by construction: the
//! release happens in a sub-phase after stepping, charging each released
//! core `now − parked_at` barrier cycles (which is exactly what the
//! reference's eager one-per-visit counting adds up to).
//!
//! # Tracing
//!
//! [`Machine::set_tracer`] attaches a `lrscwait-trace` sink that observes
//! the run as structured events: core park/wake with cause, barrier
//! arrivals and releases, measured-region markers, request issue, the
//! bank adapters' synchronization events and the networks' transport
//! events. Tracing is an *observer, never a steering input*: results are
//! bit-identical with and without a sink, and the event stream itself is
//! identical across execution modes (enforced by
//! `crates/sim/tests/tracing.rs`). With no sink attached — the default —
//! the phase bodies are monomorphized over a no-op trace context, so
//! untraced runs pay no per-step tracing branch at all.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lrscwait_asm::Program;
use lrscwait_chaos::Chaos;
use lrscwait_core::{
    AdapterStats, MemRequest, MemResponse, Qnode, StateError, StateReader, StateWriter, SyncAdapter,
};
use lrscwait_isa::{MemWidth, Reg};
use lrscwait_noc::{MempoolTopology, Network, NetworkStats, Route};
use lrscwait_telemetry::{Phase, PhaseProfile, Profiler, ProfilerConfig};

use lrscwait_trace::{NetDir, OpKind, TraceEvent, TraceSink, Tracer, WakeCause};

use crate::calendar::Calendar;
use crate::config::{ConfigError, ExecMode, SimConfig, ROM_BASE};
use crate::cpu::{Core, CoreState, DecodedProgram, PendingKind, PendingMem};
use crate::phases::{BankPhase, BankView, CorePhase, NoTrace, ReqMsg, RespMsg, SinkTrace};
use crate::stats::{CoreStats, ExitReason, RunSummary, SimStats};
use crate::translate::Translation;

/// Fatal simulation error (software bug in a kernel or harness misuse).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Core fetched outside the program image.
    IllegalPc {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
    },
    /// `ebreak` executed.
    Breakpoint {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
        /// 1-based source line, when known.
        line: Option<u32>,
    },
    /// Misaligned access.
    Misaligned {
        /// Offending core.
        core: u32,
        /// Program counter value.
        pc: u32,
        /// Accessed address.
        addr: u32,
        /// 1-based source line, when known.
        line: Option<u32>,
    },
    /// Access to an unmapped or illegal address.
    Fault {
        /// Offending core.
        core: u32,
        /// Accessed address.
        addr: u32,
        /// What went wrong.
        what: &'static str,
    },
    /// The program text does not decode (corrupt image).
    BadProgram {
        /// Word index within the text segment.
        index: usize,
    },
    /// The program's data segment does not fit the configured SPM.
    ProgramTooLarge {
        /// Bytes of initialized data + bss the program needs.
        footprint: u32,
        /// Configured SPM size in bytes.
        spm_bytes: u32,
    },
    /// The configuration itself is inconsistent.
    Config(ConfigError),
    /// A machine checkpoint could not be restored (truncated or corrupt
    /// buffer, or a snapshot taken on an incompatible machine).
    BadSnapshot {
        /// What was wrong with the snapshot.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::IllegalPc { core, pc } => {
                write!(f, "core {core}: illegal pc {pc:#010x}")
            }
            SimError::Breakpoint { core, pc, line } => {
                write!(f, "core {core}: ebreak at {pc:#010x} (line {line:?})")
            }
            SimError::Misaligned {
                core,
                pc,
                addr,
                line,
            } => write!(
                f,
                "core {core}: misaligned access to {addr:#010x} at pc {pc:#010x} (line {line:?})"
            ),
            SimError::Fault { core, addr, what } => {
                write!(f, "core {core}: {what} at {addr:#010x}")
            }
            SimError::BadProgram { index } => {
                write!(f, "text word {index} does not decode")
            }
            SimError::ProgramTooLarge {
                footprint,
                spm_bytes,
            } => {
                write!(
                    f,
                    "program data ({footprint} B) exceeds SPM ({spm_bytes} B)"
                )
            }
            SimError::Config(ref e) => write!(f, "invalid configuration: {e}"),
            SimError::BadSnapshot { ref what } => {
                write!(f, "cannot restore snapshot: {what}")
            }
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// The simulated manycore system.
pub struct Machine {
    cfg: SimConfig,
    topo: MempoolTopology,
    program: Arc<DecodedProgram>,
    cores: Vec<Core>,
    qnodes: Vec<Qnode>,
    adapters: Vec<Box<dyn SyncAdapter>>,
    banks: Vec<Vec<u32>>,
    req_net: Network<ReqMsg>,
    resp_net: Network<RespMsg>,
    core_outbox: Vec<VecDeque<ReqMsg>>,
    bank_outbox: Vec<VecDeque<RespMsg>>,
    /// Banks with a non-empty response outbox, sorted ascending.
    dirty_banks: Vec<u32>,
    cycle: u64,
    halted: usize,
    barrier_waiting: usize,
    debug_log: Vec<(u64, u32, u32)>,
    /// Tracing switch: [`Tracer::Off`] by default (tracing observes, it
    /// never steers).
    tracer: Tracer,
    /// Per-core blocking-operation kind; gives [`TraceEvent::Wake`] its
    /// cause. Maintained unconditionally (not just while tracing) so the
    /// field is part of canonical machine state and survives snapshots
    /// taken from untraced machines.
    park_kind: Vec<OpKind>,
    /// Host-side phase profiler: [`Profiler::Off`] by default, following
    /// the same discipline as `tracer` — off is one predictable branch
    /// per site, and profiling never perturbs simulated results (it only
    /// reads host clocks between phases).
    profiler: Profiler,
    /// Chaos fault-injection engine, built from [`SimConfig::chaos`] at
    /// construction. [`Chaos::Off`] (the default) follows the
    /// `tracer`/`profiler` discipline: one predictable branch per
    /// injection site, results bit-identical to a build without the
    /// engine. Injection happens outside the phase bodies (eviction
    /// pre-pass, bank-outbox flush, core-outbox drain, arbitration
    /// start), keyed on quantities the determinism contract already
    /// fixes — so chaos-on runs are equally deterministic across exec
    /// modes. Mutation candidate counters (the only
    /// stateful part) are not captured by snapshots: combining mutations
    /// with mid-run checkpoint/restore is unsupported.
    chaos: Chaos,
    /// `Running` cores due to be walked next cycle (`ready_at <= now +
    /// 1`), sorted ascending (event-driven Phase 4).
    runnable: Vec<u32>,
    /// Ready-time calendar: every other `Running` core, keyed by
    /// `ready_at`. Due entries re-enter `runnable` through `pending_wake`
    /// before Phase 4; its minimum is the cores' next event for
    /// `fast_forward`. Pre-sized to the core count, so filing and popping
    /// never allocate.
    calendar: Calendar,
    /// Cores that became `Running` outside the Phase 4 walk (response
    /// deliveries, barrier releases) or came due in the calendar, merged
    /// into `runnable` next walk.
    pending_wake: Vec<u32>,
    /// Cores with a non-empty request outbox, sorted ascending
    /// (event-driven Phase 5).
    dirty_cores: Vec<u32>,
    // Scratch buffers (allocation-free steady state).
    req_buf: Vec<ReqMsg>,
    resp_buf: Vec<RespMsg>,
    /// Delivered requests of this cycle as (bank, delivery index), sorted —
    /// the bank-id-ordered service schedule.
    req_order: Vec<(u32, u32)>,
    /// Response buffer handed to `SyncAdapter::handle`.
    adapter_out: Vec<(u32, MemResponse)>,
    /// Banks whose outbox went empty → non-empty in this cycle's service
    /// phase (ascending), merged into `dirty_banks`.
    new_dirty_banks: Vec<u32>,
    /// Runnable cores still `Running` after this cycle's walk
    /// (ascending), filed into `runnable` or the calendar.
    kept_runnable: Vec<u32>,
    /// Cores whose outbox went empty → non-empty in this cycle's walk
    /// (ascending), merged into `dirty_cores`.
    new_dirty_cores: Vec<u32>,
    bank_scratch: Vec<u32>,
    core_scratch: Vec<u32>,
    merge_scratch: Vec<u32>,
    /// Superblock translation of the program image, built at
    /// construction in [`ExecMode::Fast`] (`None` in
    /// [`ExecMode::Reference`]; phase 4 dispatches on it) and shared with
    /// the `DecodedProgram`'s cache — sweeps and snapshot restores reuse
    /// it, never rebuild it.
    translation: Option<Arc<Translation>>,
    /// Cycle horizon superblocks may run ahead to. Set by
    /// [`Machine::run_until`] for the duration of the run loop (clamped
    /// to the watchdog and the target) and reset to 0 on exit, so direct
    /// [`Machine::step_cycle`] callers execute exactly one instruction
    /// per core per visit in both modes.
    step_limit: u64,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("banks", &self.banks.len())
            .field("cycle", &self.cycle)
            .field("halted", &self.halted)
            .finish()
    }
}

impl Machine {
    /// Builds a machine and loads `program` (text into ROM, data into SPM).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] when a text word does not decode,
    /// [`SimError::ProgramTooLarge`] when the data image exceeds the SPM,
    /// and [`SimError::Config`] when the configuration is inconsistent
    /// (see [`SimConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics when the program's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn new(cfg: SimConfig, program: &Program) -> Result<Machine, SimError> {
        Machine::with_decoded(cfg, Machine::decode(program)?)
    }

    /// Decodes a program into an image shareable across machines.
    ///
    /// Sweep runners decode each distinct program once and hand the same
    /// [`Arc`] to every worker via [`Machine::with_decoded`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] when a text word does not decode.
    ///
    /// # Panics
    ///
    /// Panics when the program's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn decode(program: &Program) -> Result<Arc<DecodedProgram>, SimError> {
        assert_eq!(
            program.text_base, ROM_BASE,
            "assemble kernels with the default text base"
        );
        DecodedProgram::from_program(program)
            .map(Arc::new)
            .map_err(|index| SimError::BadProgram { index })
    }

    /// Builds a machine around an already-decoded (possibly shared)
    /// program image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProgramTooLarge`] when the data image exceeds
    /// the SPM and [`SimError::Config`] when the configuration is
    /// inconsistent (see [`SimConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics when the image's text base does not match [`ROM_BASE`]
    /// (a harness bug, not an input error).
    pub fn with_decoded(cfg: SimConfig, program: Arc<DecodedProgram>) -> Result<Machine, SimError> {
        assert_eq!(
            program.base, ROM_BASE,
            "assemble kernels with the default text base"
        );
        cfg.validate()?;
        let topo = MempoolTopology::new(cfg.topology);
        let num_cores = cfg.topology.num_cores;
        let num_banks = cfg.topology.num_banks();
        let words_per_bank = cfg.words_per_bank();
        let footprint = program.bss_base + program.bss_size;
        if footprint > cfg.spm_bytes {
            return Err(SimError::ProgramTooLarge {
                footprint,
                spm_bytes: cfg.spm_bytes,
            });
        }

        let entry = program.entry;
        // Translate at construction (not lazily in the run loop) so the
        // steady-state cycle stays allocation-free and sweep workers
        // sharing the image behind an `Arc` translate exactly once.
        let translation =
            (cfg.exec_mode == ExecMode::Fast).then(|| Arc::clone(program.translation()));
        let mut machine = Machine {
            topo,
            program: Arc::clone(&program),
            cores: (0..num_cores as u32)
                .map(|id| Core::new(id, entry))
                .collect(),
            qnodes: vec![Qnode::new(); num_cores],
            adapters: (0..num_banks).map(|_| cfg.arch.build(num_cores)).collect(),
            banks: vec![vec![0u32; words_per_bank]; num_banks],
            req_net: MempoolTopology::new(cfg.topology).build_request_network(),
            resp_net: MempoolTopology::new(cfg.topology).build_response_network(),
            core_outbox: vec![VecDeque::new(); num_cores],
            bank_outbox: vec![VecDeque::new(); num_banks],
            dirty_banks: Vec::new(),
            cycle: 0,
            halted: 0,
            barrier_waiting: 0,
            debug_log: Vec::new(),
            tracer: Tracer::Off,
            profiler: Profiler::Off,
            chaos: Chaos::from_plan(cfg.chaos),
            park_kind: vec![OpKind::Load; num_cores],
            runnable: (0..num_cores as u32).collect(),
            calendar: Calendar::new(num_cores),
            pending_wake: Vec::with_capacity(num_cores),
            dirty_cores: Vec::with_capacity(num_cores),
            req_buf: Vec::new(),
            resp_buf: Vec::new(),
            req_order: Vec::new(),
            adapter_out: Vec::new(),
            new_dirty_banks: Vec::with_capacity(num_banks),
            kept_runnable: Vec::with_capacity(num_cores),
            new_dirty_cores: Vec::with_capacity(num_cores),
            bank_scratch: Vec::with_capacity(num_banks),
            core_scratch: Vec::with_capacity(num_cores),
            merge_scratch: Vec::with_capacity(num_cores),
            translation,
            step_limit: 0,
            cfg,
        };

        // Load the initialized data image.
        for (i, chunk) in program.data.chunks(4).enumerate() {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            machine.write_word(program.data_base + 4 * i as u32, u32::from_le_bytes(word));
        }
        Ok(machine)
    }

    /// The active execution mode, fixed at construction by
    /// [`SimConfig::exec_mode`] (select it through
    /// [`crate::SimConfigBuilder::exec_mode`]).
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.cfg.exec_mode
    }

    /// The superblock translation this machine executes with — `Some`
    /// exactly in [`ExecMode::Fast`]. The `Arc` is shared with the
    /// program image's cache (`DecodedProgram::translation`), so two
    /// machines on the same image — or one machine across a
    /// [`Machine::restore`] — return pointer-identical translations.
    #[must_use]
    pub fn translation(&self) -> Option<&Arc<Translation>> {
        self.translation.as_ref()
    }

    /// Attaches a trace sink. Must be called before the first cycle so
    /// the sink observes a complete run. Emits
    /// [`TraceEvent::Start`] immediately with the machine geometry.
    ///
    /// Tracing never perturbs simulation: cycle counts, statistics and
    /// memory contents are bit-identical with and without a sink (the
    /// sink only observes), and the event stream itself is identical in
    /// both execution modes. With no sink attached (the
    /// default) the phase bodies are monomorphized over a no-op context —
    /// the differential and counting-allocator suites run untraced and
    /// prove the hot path unchanged.
    ///
    /// To read results back after [`Machine::run`], hand in a
    /// [`lrscwait_trace::SharedSink`] clone and keep the other handle.
    ///
    /// # Panics
    ///
    /// Panics when the machine has already been stepped.
    pub fn set_tracer(&mut self, sink: Box<dyn TraceSink>) {
        assert_eq!(self.cycle, 0, "attach the trace sink before running");
        self.tracer = Tracer::sink(sink);
        let cores = self.cores.len() as u32;
        let banks = self.banks.len() as u32;
        self.tracer.emit(0, || TraceEvent::Start { cores, banks });
    }

    /// Whether a trace sink is attached.
    #[must_use]
    pub fn tracing(&self) -> bool {
        !self.tracer.is_off()
    }

    /// Enables the host-side phase profiler (off by default).
    ///
    /// Profiling is strictly host-side: it reads monotonic clocks between
    /// `step_cycle` sub-phases and never touches simulated state, so
    /// cycle counts, statistics, memory contents and trace streams are
    /// bit-identical with the profiler on or off (the differential suite
    /// proves it). When off, each instrumentation site costs one
    /// predictable branch, mirroring the [`Tracer`] discipline.
    pub fn enable_profiler(&mut self, cfg: ProfilerConfig) {
        self.profiler = Profiler::enabled(cfg);
    }

    /// Whether the phase profiler is collecting.
    #[must_use]
    pub fn profiling(&self) -> bool {
        !self.profiler.is_off()
    }

    /// Snapshot of the phase profile collected so far (`None` when the
    /// profiler is off). Callable mid-run and after; snapshots are
    /// cumulative.
    #[must_use]
    pub fn profile(&self) -> Option<PhaseProfile> {
        self.profiler.snapshot()
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Values written to the MMIO PRINT register: `(cycle, core, value)`.
    #[must_use]
    pub fn debug_log(&self) -> &[(u64, u32, u32)] {
        &self.debug_log
    }

    /// Cores that have halted (executed `ecall` or wrote the EXIT
    /// register) so far — `cores() - halted_cores()` live cores remain.
    #[must_use]
    pub fn halted_cores(&self) -> usize {
        self.halted
    }

    /// Total cores in the machine.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Bank holding the word at `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> u32 {
        (addr / 4) % self.banks.len() as u32
    }

    /// Host read of an SPM word.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM.
    #[must_use]
    pub fn read_word(&self, addr: u32) -> u32 {
        assert!(addr < self.cfg.spm_bytes, "host read outside SPM");
        let w = addr / 4;
        let nb = self.banks.len() as u32;
        self.banks[(w % nb) as usize][(w / nb) as usize]
    }

    /// Host write of an SPM word.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        assert!(addr < self.cfg.spm_bytes, "host write outside SPM");
        let w = addr / 4;
        let nb = self.banks.len() as u32;
        self.banks[(w % nb) as usize][(w / nb) as usize] = value;
    }

    /// Host-side store injection between cycles — the write primitive
    /// behind the open-loop traffic harness's guest-visible injection
    /// mailbox (`lrscwait-traffic`).
    ///
    /// Unlike [`Machine::write_word`], the store goes through the owning
    /// bank's synchronization adapter exactly as a core's store would: it
    /// fires armed `mwait` monitors, breaks LR reservations and counts in
    /// the adapter statistics. Wake responses the adapter produces are
    /// queued on the bank's outbox and travel the response network with
    /// ordinary latency from the next cycle on. The host itself is not a
    /// core: its store applies instantly (no request-network round trip)
    /// and its acknowledgement is discarded.
    ///
    /// Injections are machine state like any other event: runs performing
    /// the same injections at the same cycles stay bit-identical across
    /// execution modes and tracing.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is outside the SPM or not word-aligned.
    pub fn inject_store(&mut self, addr: u32, value: u32) {
        assert!(addr < self.cfg.spm_bytes, "host store outside SPM");
        assert_eq!(addr % 4, 0, "host stores are word-aligned");
        let now = self.cycle;
        let bank = self.bank_of(addr);
        let num_banks = self.banks.len() as u32;
        self.tracer.emit(now, || TraceEvent::Inject { addr, value });
        let req = MemRequest::Store {
            addr,
            value,
            mask: !0,
        };
        let mut out = Vec::new();
        {
            let mut view = BankView {
                words: &mut self.banks[bank as usize],
                num_banks,
                bank,
            };
            let adapter = &mut self.adapters[bank as usize];
            if self.tracer.is_off() {
                adapter.handle(HOST_CORE, &req, &mut view, &mut out);
            } else {
                let tracer = &mut self.tracer;
                adapter.handle_traced(HOST_CORE, &req, &mut view, &mut out, &mut |event| {
                    tracer.emit(now, || TraceEvent::Sync { bank, event });
                });
            }
        }
        let was_empty = self.bank_outbox[bank as usize].is_empty();
        let mut queued = false;
        for (core, resp) in out {
            if core == HOST_CORE {
                debug_assert_eq!(resp, MemResponse::StoreAck);
                continue;
            }
            self.bank_outbox[bank as usize].push_back(RespMsg { core, resp });
            queued = true;
        }
        if was_empty && queued {
            if let Err(pos) = self.dirty_banks.binary_search(&bank) {
                self.dirty_banks.insert(pos, bank);
            }
        }
    }

    /// Gathers current statistics.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut adapters = AdapterStats::default();
        for a in &self.adapters {
            let s = a.stats();
            adapters.requests += s.requests;
            adapters.loads += s.loads;
            adapters.stores += s.stores;
            adapters.amos += s.amos;
            adapters.sc_success += s.sc_success;
            adapters.sc_failure += s.sc_failure;
            adapters.wait_enqueued += s.wait_enqueued;
            adapters.wait_failfast += s.wait_failfast;
            adapters.scwait_success += s.scwait_success;
            adapters.scwait_failure += s.scwait_failure;
            adapters.successor_updates += s.successor_updates;
            adapters.wakeups += s.wakeups;
            adapters.reservations_broken += s.reservations_broken;
        }
        let lazy = self.cfg.exec_mode == ExecMode::Fast;
        SimStats {
            cores: self
                .cores
                .iter()
                .map(|c| {
                    let mut stats = c.stats;
                    if lazy {
                        flush_lazy(&mut stats, c, self.cycle);
                    }
                    stats
                })
                .collect(),
            req_network: self.req_net.stats(),
            resp_network: self.resp_net.stats(),
            adapters,
        }
    }

    /// Runs until every core halts or the watchdog fires.
    ///
    /// In [`ExecMode::Fast`], cycles in which provably nothing can happen
    /// — every runnable core is pipeline-stalled or has run ahead in a
    /// superblock, the outboxes are drained, and no network flit becomes
    /// movable — are skipped by jumping the cycle counter straight to the
    /// next event (or to the watchdog limit, whichever comes first).
    /// Skipped stall cycles are credited in bulk so statistics stay
    /// bit-identical to stepping.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs (illegal pc, misalignment,
    /// breakpoints, faults).
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        self.run_until(u64::MAX)
    }

    /// Runs until every core halts, the watchdog fires, or the cycle
    /// counter reaches `target` — whichever comes first.
    ///
    /// Stopping at `target` is *transparent*: continuing afterwards (with
    /// another `run_until` or [`Machine::run`]) produces exactly the
    /// machine an uninterrupted run would have — fast-forward jumps are
    /// clamped at the target and their bulk stall credit splits exactly
    /// across the stop. This is the hook open-loop harnesses use to
    /// interleave host work ([`Machine::inject_store`],
    /// [`Machine::snapshot`]) with simulation at precise cycles.
    ///
    /// Returns [`ExitReason::TargetReached`] with `cycles >= target` only
    /// when the machine is still live at the target; halt and watchdog
    /// take precedence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs (illegal pc, misalignment,
    /// breakpoints, faults).
    pub fn run_until(&mut self, target: u64) -> Result<RunSummary, SimError> {
        // Open the superblock horizon for the duration of the run loop:
        // the fast path may execute ahead of the cycle counter, but never
        // past the watchdog or the stop target, so both stay cycle-exact.
        // Reset on every exit so direct `step_cycle` callers get
        // single-instruction horizons (and the per-cycle differential
        // tests can compare both modes step by step).
        self.step_limit = self.cfg.max_cycles.min(target);
        let wall_start = (!self.profiler.is_off()).then(std::time::Instant::now);
        let result = self.run_inner(target);
        if let Some(started) = wall_start {
            self.profiler
                .add_wall_ns(started.elapsed().as_nanos() as u64);
        }
        self.step_limit = 0;
        result
    }

    fn run_inner(&mut self, target: u64) -> Result<RunSummary, SimError> {
        while self.halted < self.cores.len() {
            if self.cfg.exec_mode == ExecMode::Fast {
                self.fast_forward(self.cfg.max_cycles.min(target));
            }
            if self.cycle >= self.cfg.max_cycles {
                return Ok(RunSummary {
                    cycles: self.cycle,
                    exit: ExitReason::Watchdog,
                });
            }
            if self.cycle >= target {
                return Ok(RunSummary {
                    cycles: self.cycle,
                    exit: ExitReason::TargetReached,
                });
            }
            self.step_cycle()?;
        }
        Ok(RunSummary {
            cycles: self.cycle,
            exit: ExitReason::AllHalted,
        })
    }

    /// Jumps `cycle` to just before the next event when the machine is
    /// provably idle until then.
    ///
    /// A cycle can only be skipped when stepping it would change nothing:
    /// no outbox holds traffic (pending injections touch network
    /// statistics every cycle), no core is due (the walked list is empty
    /// and the calendar's earliest `ready_at` lies beyond the next
    /// cycle), and no flit in either network becomes movable. The cores'
    /// next event is the calendar minimum, so the jump neither scans nor
    /// touches a core: the stall cycles it skips stay uncharged below
    /// each core's watermark (`Core::charged_until`) until its next
    /// visit, or until [`Machine::stats`] / [`Machine::snapshot`] flush
    /// them.
    ///
    /// `limit` clamps the jump (watchdog, or a [`Machine::run_until`]
    /// target). Clamping is loss-free for the statistics: the watermark
    /// accounting charges a skipped cycle exactly once whether it was
    /// skipped in one jump or two.
    fn fast_forward(&mut self, limit: u64) {
        if !self.runnable.is_empty() || !self.dirty_banks.is_empty() || !self.dirty_cores.is_empty()
        {
            return;
        }
        let now = self.cycle;
        let horizon = now + 1;
        let mut next = self.calendar.next(now).unwrap_or(u64::MAX);
        if next <= horizon {
            return;
        }
        if let Some(t) = self.req_net.next_ready_at() {
            if t <= horizon {
                return;
            }
            next = next.min(t);
        }
        if let Some(t) = self.resp_net.next_ready_at() {
            if t <= horizon {
                return;
            }
            next = next.min(t);
        }
        // `next == u64::MAX` means no event can ever occur (all-parked
        // deadlock): jump straight to the limit (normally the watchdog).
        let target = (next - 1).min(limit);
        if target > now {
            self.cycle = target;
        }
    }

    /// Advances the machine by exactly one cycle (see the module docs for
    /// the phase structure and the determinism contract).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on kernel bugs. Stepping stops at the faulting
    /// core (the lowest core id to fault this cycle); the cycle's
    /// bookkeeping still completes, so the machine can be inspected
    /// post mortem.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        let now = self.cycle;
        let tracing = !self.tracer.is_off();
        let num_banks = self.banks.len() as u32;
        // Owned clock so the laps below don't borrow `self.profiler`
        // across the `&mut self` phase bodies; committed at the end.
        let mut clock = self.profiler.begin_cycle();

        // Phase 1a: advance the request network.
        let mut req_buf = std::mem::take(&mut self.req_buf);
        req_buf.clear();
        if tracing {
            let tracer = &mut self.tracer;
            self.req_net
                .advance_traced(now, &mut req_buf, &mut |event| {
                    tracer.emit(now, || TraceEvent::Noc {
                        net: NetDir::Request,
                        event,
                    });
                });
        } else {
            self.req_net.advance(now, &mut req_buf);
        }
        clock.lap(Phase::ReqNetAdvance);

        // Phase 1b: service the delivered requests, grouped by destination
        // bank and processed in (bank id, delivery index) order. Within a
        // bank, delivery order is preserved (the per-(core, bank) FIFO
        // Colibri relies on).
        self.req_order.clear();
        self.req_order
            .extend(req_buf.iter().enumerate().map(|(i, m)| (m.bank, i as u32)));
        self.req_order.sort_unstable();
        // Chaos eviction pre-pass (before the bank service): walk the
        // service schedule and spuriously evict
        // reservations immediately before their requests are serviced.
        // A spurious `sc`/`scwait` failure *is* such an eviction — the
        // adapters' own fail paths then advance their queues exactly as
        // for a reservation lost to an intervening write, so all protocol
        // state stays consistent by construction. Decisions are stateless
        // hashes of (seed, cycle, bank, delivery index) — identical in
        // both exec modes.
        if let Chaos::On(state) = self.chaos {
            let plan = state.plan;
            if plan.evict_per_mille > 0 || plan.sc_fail_per_mille > 0 {
                let order = std::mem::take(&mut self.req_order);
                let adapters = &mut self.adapters;
                let tracer = &mut self.tracer;
                for &(bank, idx) in &order {
                    let req = &req_buf[idx as usize].req;
                    let is_sc = matches!(req, MemRequest::Sc { .. } | MemRequest::ScWait { .. });
                    let evict = if is_sc {
                        plan.fail_sc(now, bank, idx)
                    } else {
                        plan.evict_request(now, bank, idx)
                    };
                    if evict {
                        adapters[bank as usize].chaos_evict(req.addr(), &mut |event| {
                            tracer.emit(now, || TraceEvent::Sync { bank, event });
                        });
                    }
                }
                self.req_order = order;
            }
        }
        let mut bank_phase = BankPhase {
            banks: &mut self.banks,
            adapters: &mut self.adapters,
            bank_outbox: &mut self.bank_outbox,
            num_banks,
            adapter_out: &mut self.adapter_out,
            new_dirty_banks: &mut self.new_dirty_banks,
        };
        match &mut self.tracer {
            Tracer::Off => bank_phase.service(&req_buf, &self.req_order, &mut NoTrace),
            Tracer::On(sink) => bank_phase.service(
                &req_buf,
                &self.req_order,
                &mut SinkTrace {
                    sink: sink.as_mut(),
                    now,
                },
            ),
        }
        self.req_buf = req_buf;
        clock.lap(Phase::BankService);
        merge_sorted(
            &mut self.dirty_banks,
            &self.new_dirty_banks,
            &mut self.bank_scratch,
        );
        self.new_dirty_banks.clear();
        clock.lap(Phase::CrossShardMerge);

        // Phase 2: flush bank outboxes into the response network, in bank
        // id order.
        if !self.dirty_banks.is_empty() {
            let mut still_dirty = std::mem::take(&mut self.bank_scratch);
            still_dirty.clear();
            let dirty = std::mem::take(&mut self.dirty_banks);
            for &bank in &dirty {
                while let Some(&msg) = self.bank_outbox[bank as usize].front() {
                    // Chaos: mutations rewrite/drop the response and wake
                    // delay / jitter add injection latency. Mutation
                    // counters are committed only when the message actually
                    // leaves the outbox, so network backpressure cannot
                    // double-count a candidate.
                    let (send, extra, staged) = match &self.chaos {
                        Chaos::Off => (Some(msg), 0, None),
                        Chaos::On(state) => {
                            let mut staged = *state;
                            let send = staged.mutate_response(msg.resp).map(|resp| RespMsg {
                                core: msg.core,
                                resp,
                            });
                            let extra = state.plan.response_delay(now, bank, msg.core, &msg.resp);
                            (send, extra, Some(staged))
                        }
                    };
                    let Some(send) = send else {
                        // Mutation dropped the response on the floor.
                        self.bank_outbox[bank as usize].pop_front();
                        self.chaos = Chaos::On(staged.expect("drop implies chaos on"));
                        continue;
                    };
                    let route = self.topo.response_route(bank as usize, send.core as usize);
                    match self.resp_try_send(route, send, now, extra) {
                        Ok(()) => {
                            self.bank_outbox[bank as usize].pop_front();
                            if let Some(staged) = staged {
                                self.chaos = Chaos::On(staged);
                            }
                        }
                        Err(_) => break,
                    }
                }
                if !self.bank_outbox[bank as usize].is_empty() {
                    still_dirty.push(bank);
                }
            }
            self.dirty_banks = still_dirty;
            self.bank_scratch = dirty;
        }
        clock.lap(Phase::BankFlush);

        // Phase 3: responses reach cores (through their Qnodes).
        let mut resp_buf = std::mem::take(&mut self.resp_buf);
        resp_buf.clear();
        if tracing {
            let tracer = &mut self.tracer;
            self.resp_net
                .advance_traced(now, &mut resp_buf, &mut |event| {
                    tracer.emit(now, || TraceEvent::Noc {
                        net: NetDir::Response,
                        event,
                    });
                });
        } else {
            self.resp_net.advance(now, &mut resp_buf);
        }
        clock.lap(Phase::RespNetAdvance);
        for msg in &resp_buf {
            let c = msg.core as usize;
            let output = self.qnodes[c].on_response(msg.resp);
            if let Some(delivered) = output.deliver {
                self.complete_response(c, delivered, now);
            }
            if let Some(wakeup) = output.wakeup {
                let bank = self.bank_of(wakeup.addr());
                self.tracer.emit(now, || TraceEvent::ReqSent {
                    core: msg.core,
                    bank,
                    kind: OpKind::WakeUp,
                });
                self.push_outbox(
                    c,
                    ReqMsg {
                        src: msg.core,
                        bank,
                        req: wakeup,
                    },
                );
            }
        }
        self.resp_buf = resp_buf;
        clock.lap(Phase::RespDelivery);

        // Phase 4: step the cores (fast: due cores + superblock run-
        // ahead; reference: every core with eager parked accounting).
        let fast = self.cfg.exec_mode == ExecMode::Fast;
        if fast {
            self.calendar.pop_due(now, &mut self.pending_wake);
            self.merge_pending_wakes();
        }
        // Superblocks may run ahead to the run loop's horizon; outside
        // `run`/`run_until` the horizon collapses to `now` (exactly one
        // instruction per visit, like the reference stepper).
        let horizon = self.step_limit.max(now);
        let mut core_phase = CorePhase {
            cores: &mut self.cores,
            qnodes: &mut self.qnodes,
            core_outbox: &mut self.core_outbox,
            park_kind: &mut self.park_kind,
            program: &self.program,
            cfg: &self.cfg,
            num_banks,
            new_dirty_cores: &mut self.new_dirty_cores,
            track_dirty: fast,
            debug_log: &mut self.debug_log,
            halted: &mut self.halted,
            barrier_waiting: &mut self.barrier_waiting,
        };
        let (runnable, kept) = (&self.runnable, &mut self.kept_runnable);
        let stepped = match (&mut self.tracer, self.translation.as_deref()) {
            (Tracer::Off, Some(t)) => {
                core_phase.step_runnable(t, runnable, now, horizon, kept, &mut NoTrace)
            }
            (Tracer::On(sink), Some(t)) => core_phase.step_runnable(
                t,
                runnable,
                now,
                horizon,
                kept,
                &mut SinkTrace {
                    sink: sink.as_mut(),
                    now,
                },
            ),
            (Tracer::Off, None) => core_phase.step_all(now, &mut NoTrace),
            (Tracer::On(sink), None) => core_phase.step_all(
                now,
                &mut SinkTrace {
                    sink: sink.as_mut(),
                    now,
                },
            ),
        };
        clock.lap(Phase::CoreStep);
        if fast {
            self.merge_core_phase(now);
        }
        clock.lap(Phase::CrossShardMerge);
        stepped?;

        // Barrier release, deferred here so the accounting is independent
        // of the stepping order.
        self.release_barrier_if_ready(now);
        clock.lap(Phase::BarrierRelease);

        // Phase 5: flush core outboxes into the request network. The start
        // index rotates each cycle so no core gets static injection
        // priority (round-robin arbitration, as in the real fabric).
        if fast {
            if !self.dirty_cores.is_empty() {
                let n = self.cores.len();
                let start = match &self.chaos {
                    Chaos::On(state) if state.plan.perturb_arbitration => {
                        state.plan.arbitration_start(now, n as u64) as u32
                    }
                    _ => (now % n as u64) as u32,
                };
                let dirty = std::mem::take(&mut self.dirty_cores);
                let split = dirty.partition_point(|&c| c < start);
                for &c in dirty[split..].iter().chain(dirty[..split].iter()) {
                    self.drain_core_outbox(c as usize, now);
                }
                let mut keep = std::mem::take(&mut self.core_scratch);
                keep.clear();
                keep.extend(
                    dirty
                        .iter()
                        .copied()
                        .filter(|&c| !self.core_outbox[c as usize].is_empty()),
                );
                self.dirty_cores = keep;
                self.core_scratch = dirty;
            }

            // Barrier releases become runnable next cycle; merge now
            // so `fast_forward` sees their `ready_at`.
            self.merge_pending_wakes();
        } else {
            let n = self.cores.len();
            let start = match &self.chaos {
                Chaos::On(state) if state.plan.perturb_arbitration => {
                    state.plan.arbitration_start(now, n as u64) as usize
                }
                _ => (now as usize) % n,
            };
            for i in 0..n {
                let c = (start + i) % n;
                self.drain_core_outbox(c, now);
            }
        }
        clock.lap(Phase::CoreFlush);
        self.profiler.commit(&clock);
        Ok(())
    }

    /// Folds the fast-mode walk's outputs into the worklists: cores that
    /// stay `Running` refill the runnable set when due next cycle and go
    /// to the ready-time calendar otherwise, and the walk's newly dirty
    /// cores merge into the dirty-core list.
    fn merge_core_phase(&mut self, now: u64) {
        self.merge_scratch.clear();
        for &c in &self.kept_runnable {
            let ready_at = self.cores[c as usize].ready_at;
            file_running(
                &mut self.calendar,
                &mut self.merge_scratch,
                c,
                ready_at,
                now,
            );
        }
        self.kept_runnable.clear();
        std::mem::swap(&mut self.runnable, &mut self.merge_scratch);
        merge_sorted(
            &mut self.dirty_cores,
            &self.new_dirty_cores,
            &mut self.bank_scratch,
        );
        self.new_dirty_cores.clear();
    }

    /// Injects a core's queued requests until the network backpressures.
    fn drain_core_outbox(&mut self, c: usize, now: u64) {
        // Ordinal of the request within this core's drain this cycle —
        // the chaos request-jitter key (identical across exec modes: the
        // drain order is fixed by the arbitration start).
        let mut ordinal = 0u32;
        while let Some(&msg) = self.core_outbox[c].front() {
            let extra = match &self.chaos {
                Chaos::Off => 0,
                Chaos::On(state) => state.plan.request_jitter(now, c as u32, ordinal),
            };
            let route = self.topo.request_route(c, msg.bank as usize);
            match self.req_try_send(route, msg, now, extra) {
                Ok(()) => {
                    self.core_outbox[c].pop_front();
                    ordinal += 1;
                }
                Err(_) => break,
            }
        }
    }

    /// Request-network injection with the tracing hook applied when a
    /// sink is attached (identical behaviour either way) and `extra`
    /// cycles of chaos-injected latency (0 outside chaos runs).
    fn req_try_send(
        &mut self,
        route: lrscwait_noc::Route,
        msg: ReqMsg,
        now: u64,
        extra: u32,
    ) -> Result<(), ReqMsg> {
        if self.tracer.is_off() {
            self.req_net
                .try_send_extra_traced(route, msg, now, extra, &mut |_| {})
        } else {
            let tracer = &mut self.tracer;
            self.req_net
                .try_send_extra_traced(route, msg, now, extra, &mut |event| {
                    tracer.emit(now, || TraceEvent::Noc {
                        net: NetDir::Request,
                        event,
                    });
                })
        }
    }

    /// Response-network injection with the tracing hook applied when a
    /// sink is attached (identical behaviour either way) and `extra`
    /// cycles of chaos-injected latency (0 outside chaos runs).
    fn resp_try_send(
        &mut self,
        route: lrscwait_noc::Route,
        msg: RespMsg,
        now: u64,
        extra: u32,
    ) -> Result<(), RespMsg> {
        if self.tracer.is_off() {
            self.resp_net
                .try_send_extra_traced(route, msg, now, extra, &mut |_| {})
        } else {
            let tracer = &mut self.tracer;
            self.resp_net
                .try_send_extra_traced(route, msg, now, extra, &mut |event| {
                    tracer.emit(now, || TraceEvent::Noc {
                        net: NetDir::Response,
                        event,
                    });
                })
        }
    }

    /// Queues a request on a core's outbox (Phase 3 path),
    /// tracking outbox dirtiness for the event-driven Phase 5.
    fn push_outbox(&mut self, c: usize, msg: ReqMsg) {
        self.core_outbox[c].push_back(msg);
        let id = c as u32;
        if let Err(pos) = self.dirty_cores.binary_search(&id) {
            self.dirty_cores.insert(pos, id);
        }
    }

    /// Merges cores woken outside the Phase 4 walk (or due in the
    /// calendar) into the sorted runnable set.
    fn merge_pending_wakes(&mut self) {
        if self.pending_wake.is_empty() {
            return;
        }
        self.pending_wake.sort_unstable();
        let mut merged = std::mem::take(&mut self.merge_scratch);
        merged.clear();
        let (a, b) = (&self.runnable, &self.pending_wake);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                debug_assert_ne!(a[i], b[j], "core woken while already runnable");
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.pending_wake.clear();
        self.merge_scratch = std::mem::replace(&mut self.runnable, merged);
    }

    fn complete_response(&mut self, c: usize, resp: MemResponse, now: u64) {
        match resp {
            MemResponse::StoreAck => {
                debug_assert!(self.cores[c].outstanding_stores > 0);
                self.cores[c].outstanding_stores -= 1;
            }
            MemResponse::Load { value }
            | MemResponse::Amo { old: value }
            | MemResponse::Lr { value }
            | MemResponse::Wait { value, .. } => {
                self.cores[c].complete(value, now);
                self.emit_wake(c, now);
                self.wake_from_sleep(c, now);
            }
            MemResponse::Sc { success } | MemResponse::ScWait { success } => {
                self.cores[c].complete(u32::from(!success), now);
                self.emit_wake(c, now);
                self.wake_from_sleep(c, now);
            }
            MemResponse::SuccessorUpdate { .. } => {
                unreachable!("SuccessorUpdate must be consumed by the Qnode")
            }
        }
    }

    /// Emits the [`TraceEvent::Wake`] for a blocking-response delivery,
    /// with the operation the core parked on as the cause.
    fn emit_wake(&mut self, c: usize, now: u64) {
        if !self.tracer.is_off() {
            let cause = WakeCause::Response(self.park_kind[c]);
            self.tracer.emit(now, || TraceEvent::Wake {
                core: c as u32,
                cause,
            });
        }
    }

    /// Event-driven bookkeeping after a blocking response delivery at
    /// `now`: settle the lazy sleep-cycle delta (the reference counts a
    /// sleep cycle per Phase 4 visit, i.e. for cycles `parked_at+1 ..
    /// now-1`; the core runs again in this cycle's Phase 4), move the
    /// stall watermark to `now - 1` and queue the core for the runnable
    /// set.
    fn wake_from_sleep(&mut self, c: usize, now: u64) {
        if self.cfg.exec_mode == ExecMode::Fast {
            let core = &mut self.cores[c];
            core.stats.sleep_cycles += now - 1 - core.parked_at;
            core.charged_until = now - 1;
            self.pending_wake.push(c as u32);
        }
    }

    /// Releases the barrier when every still-running core has arrived.
    ///
    /// Runs once per cycle, *after* the stepping phase — never inside it —
    /// so the accounting is independent of the order cores were visited
    /// in: every
    /// released core is charged `now − parked_at` barrier cycles, exactly
    /// what the reference's eager one-per-Phase-4-visit counting adds up
    /// to, and re-enters the runnable set with `ready_at = now + 1` and its
    /// stall watermark at `now`.
    fn release_barrier_if_ready(&mut self, now: u64) {
        let running = self.cores.len() - self.halted;
        if running > 0 && self.barrier_waiting == running {
            let fast = self.cfg.exec_mode == ExecMode::Fast;
            let waiting = self.barrier_waiting as u32;
            self.tracer
                .emit(now, || TraceEvent::BarrierRelease { waiting });
            for (x, core) in self.cores.iter_mut().enumerate() {
                if core.state == CoreState::Barrier {
                    core.state = CoreState::Running;
                    core.ready_at = now + 1;
                    self.tracer.emit(now, || TraceEvent::Wake {
                        core: x as u32,
                        cause: WakeCause::Barrier,
                    });
                    if fast {
                        core.stats.barrier_cycles += now - core.parked_at;
                        core.charged_until = now;
                        self.pending_wake.push(x as u32);
                    }
                }
            }
            self.barrier_waiting = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

/// Snapshot file magic.
const SNAP_MAGIC: [u8; 4] = *b"LRSW";
/// Snapshot format version this build writes and reads.
/// Version history: 1 = PR 6 initial format; 2 = adds the program-image
/// fingerprint (text length, entry, FNV-1a hash) after the geometry
/// header, so a restore can never resume — or execute translated
/// superblocks — against a different program than the snapshot ran.
const SNAP_VERSION: u32 = 2;
/// Pseudo core id for host-injected requests ([`Machine::inject_store`]);
/// responses addressed to it are consumed by the host, never routed.
const HOST_CORE: u32 = u32::MAX;

impl Machine {
    /// Serializes the complete machine state — cores (registers, pipeline
    /// and scheduling state, statistics), Qnodes, bank adapters, memory,
    /// both networks' in-flight flits and statistics, the outboxes and the
    /// debug log — into a self-describing buffer (see the `README`'s
    /// checkpoint section for the format and its versioning caveat).
    ///
    /// Restoring the buffer with [`Machine::restore`] and continuing is
    /// bit-identical to never having stopped: summaries, statistics,
    /// benchmark CSV bytes and trace-event suffixes all match, across
    /// execution modes (the snapshot holds no mode-dependent state:
    /// lazily-accounted parked cycles are settled
    /// into the statistics at snapshot time, and the runnable/dirty
    /// worklists are recomputed on restore).
    ///
    /// Call between cycles (before [`Machine::run`], or after `run` /
    /// [`Machine::run_until`] returned), never from inside a stepping
    /// phase.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        debug_assert!(
            self.pending_wake.is_empty(),
            "snapshot must be taken between cycles"
        );
        let mut out = StateWriter::new();
        for b in SNAP_MAGIC {
            out.put_u8(b);
        }
        out.put_u32(SNAP_VERSION);
        let label = self.adapters[0].label();
        out.put_u32(label.len() as u32);
        for b in label.bytes() {
            out.put_u8(b);
        }
        out.put_u32(self.cores.len() as u32);
        out.put_u32(self.banks.len() as u32);
        out.put_u32(self.cfg.words_per_bank() as u32);
        // Program-image fingerprint: a snapshot resumes mid-program, so
        // restoring it onto a machine running different code would be
        // silently wrong in either mode — and would execute stale
        // superblocks in `ExecMode::Fast`. Mode-independent, so
        // snapshot bytes stay identical across modes.
        out.put_u32(self.program.raw.len() as u32);
        out.put_u32(self.program.entry);
        out.put_u64(program_fingerprint(&self.program));
        out.put_u64(self.cycle);

        let lazy = self.cfg.exec_mode == ExecMode::Fast;
        for core in &self.cores {
            for r in core.regs {
                out.put_u32(r);
            }
            out.put_u32(core.pc);
            out.put_u8(core_state_code(core.state));
            out.put_u64(core.ready_at);
            // Canonical park time: parked-cycle deltas up to now are
            // settled into the statistics below, so the restored core's
            // charging starts at the snapshot cycle. (For running/halted
            // cores the field is dead — rewritten on the next park.)
            out.put_u64(self.cycle);
            match core.pending {
                Some(p) => {
                    out.put_bool(true);
                    out.put_u8(p.rd.index());
                    out.put_u32(p.addr);
                    match p.kind {
                        PendingKind::Load { width, signed } => {
                            out.put_u8(0);
                            out.put_u8(mem_width_code(width));
                            out.put_bool(signed);
                        }
                        PendingKind::Value => out.put_u8(1),
                        PendingKind::Flag => out.put_u8(2),
                    }
                }
                None => out.put_bool(false),
            }
            out.put_u32(core.outstanding_stores);
            let mut stats = core.stats;
            if lazy {
                // Same flush as `Machine::stats`, so the serialized
                // statistics are identical in both execution modes.
                flush_lazy(&mut stats, core, self.cycle);
            }
            out.put_u64(stats.instret);
            out.put_u64(stats.active_cycles);
            out.put_u64(stats.stall_cycles);
            out.put_u64(stats.sleep_cycles);
            out.put_u64(stats.barrier_cycles);
            out.put_u64(stats.ops);
            out.put_opt_u64(stats.region_start);
            out.put_opt_u64(stats.region_end);
        }
        for q in &self.qnodes {
            q.save_state(&mut out);
        }
        for &k in &self.park_kind {
            out.put_u8(op_kind_code(k));
        }
        for a in &self.adapters {
            a.save_state(&mut out);
        }
        for bank in &self.banks {
            for &w in bank {
                out.put_u32(w);
            }
        }
        save_net(&mut out, &self.req_net, save_req);
        save_net(&mut out, &self.resp_net, save_resp);
        for q in &self.core_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_req(&mut out, m);
            }
        }
        for q in &self.bank_outbox {
            out.put_u32(q.len() as u32);
            for m in q {
                save_resp(&mut out, m);
            }
        }
        out.put_u32(self.debug_log.len() as u32);
        for &(cycle, core, value) in &self.debug_log {
            out.put_u64(cycle);
            out.put_u32(core);
            out.put_u32(value);
        }
        out.finish()
    }

    /// Replaces the machine's entire state with a [`Machine::snapshot`].
    ///
    /// The machine must have been built with the same geometry (cores,
    /// banks, SPM size) and synchronization architecture the snapshot was
    /// taken with; execution mode and tracing may both differ —
    /// continuing from the restored state is bit-identical to the
    /// uninterrupted run in any combination. A tracing machine emits the
    /// uninterrupted stream's suffix (after its own `Start` event).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadSnapshot`] when the buffer is truncated,
    /// corrupt, from an incompatible format version, or taken on a
    /// machine with different geometry or architecture. On error the
    /// machine state is unspecified — discard it.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        let mut src = StateReader::new(bytes);
        self.restore_inner(&mut src)
            .map_err(|RestoreFail(what)| SimError::BadSnapshot { what })
    }

    fn restore_inner(&mut self, src: &mut StateReader<'_>) -> Result<(), RestoreFail> {
        for expect in SNAP_MAGIC {
            if src.take_u8()? != expect {
                return Err(RestoreFail("not a machine snapshot (bad magic)".into()));
            }
        }
        let version = src.take_u32()?;
        if version != SNAP_VERSION {
            return Err(RestoreFail(format!(
                "unsupported snapshot version {version} (this build reads version {SNAP_VERSION})"
            )));
        }
        let label_len = src.take_u32()? as usize;
        if label_len > 256 {
            return Err(RestoreFail("implausible architecture label".into()));
        }
        let mut label = Vec::with_capacity(label_len);
        for _ in 0..label_len {
            label.push(src.take_u8()?);
        }
        let label = String::from_utf8(label)
            .map_err(|_| RestoreFail("architecture label is not UTF-8".into()))?;
        let own = self.adapters[0].label();
        if label != own {
            return Err(RestoreFail(format!(
                "snapshot is for architecture {label:?}, this machine is {own:?}"
            )));
        }
        let nc = src.take_u32()?;
        let nb = src.take_u32()?;
        let wpb = src.take_u32()?;
        if nc as usize != self.cores.len()
            || nb as usize != self.banks.len()
            || wpb as usize != self.cfg.words_per_bank()
        {
            return Err(RestoreFail(format!(
                "snapshot geometry ({nc} cores, {nb} banks, {wpb} words/bank) does not match \
                 machine ({} cores, {} banks, {} words/bank)",
                self.cores.len(),
                self.banks.len(),
                self.cfg.words_per_bank()
            )));
        }
        let text_len = src.take_u32()?;
        let entry = src.take_u32()?;
        let hash = src.take_u64()?;
        if text_len as usize != self.program.raw.len()
            || entry != self.program.entry
            || hash != program_fingerprint(&self.program)
        {
            return Err(RestoreFail(
                "snapshot was taken with a different program image".into(),
            ));
        }
        self.cycle = src.take_u64()?;
        for core in &mut self.cores {
            load_core(src, core, self.cycle)?;
        }
        for q in &mut self.qnodes {
            q.load_state(src)?;
        }
        for k in &mut self.park_kind {
            *k = op_kind_from(src.take_u8()?)?;
        }
        for a in &mut self.adapters {
            a.load_state(src)?;
        }
        for bank in &mut self.banks {
            for w in bank.iter_mut() {
                *w = src.take_u32()?;
            }
        }
        let num_cores = self.cores.len() as u32;
        let num_banks = self.banks.len() as u32;
        load_net(src, &mut self.req_net, |s| {
            load_req(s, num_cores, num_banks)
        })?;
        load_net(src, &mut self.resp_net, |s| load_resp(s, num_cores))?;
        for q in &mut self.core_outbox {
            q.clear();
            let len = src.take_u32()?;
            for _ in 0..len {
                q.push_back(load_req(src, num_cores, num_banks)?);
            }
        }
        for q in &mut self.bank_outbox {
            q.clear();
            let len = src.take_u32()?;
            for _ in 0..len {
                q.push_back(load_resp(src, num_cores)?);
            }
        }
        self.debug_log.clear();
        let len = src.take_u32()?;
        for _ in 0..len {
            let cycle = src.take_u64()?;
            let core = src.take_u32()?;
            let value = src.take_u32()?;
            self.debug_log.push((cycle, core, value));
        }
        if src.remaining() != 0 {
            return Err(RestoreFail("trailing bytes after snapshot".into()));
        }

        // Derived state. At a cycle boundary the worklists are functions
        // of the serialized state: the `Running` cores due next cycle form
        // the runnable set and the rest the calendar (pending wakes are
        // always merged before the cycle ends), and a bank/core is dirty
        // iff its outbox is non-empty.
        self.halted = self
            .cores
            .iter()
            .filter(|c| c.state == CoreState::Halted)
            .count();
        self.barrier_waiting = self
            .cores
            .iter()
            .filter(|c| c.state == CoreState::Barrier)
            .count();
        self.pending_wake.clear();
        self.runnable.clear();
        self.calendar.clear();
        for (i, core) in self.cores.iter().enumerate() {
            if core.state == CoreState::Running {
                let (calendar, due) = (&mut self.calendar, &mut self.runnable);
                file_running(calendar, due, i as u32, core.ready_at, self.cycle);
            }
        }
        self.dirty_banks.clear();
        self.dirty_banks.extend(
            self.bank_outbox
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(i, _)| i as u32),
        );
        self.dirty_cores.clear();
        self.dirty_cores.extend(
            self.core_outbox
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(i, _)| i as u32),
        );
        Ok(())
    }
}

/// FNV-1a-64 over the program identity (text base, entry point, raw text
/// words as little-endian bytes). A fixed, explicit algorithm — not the
/// standard library's unstable `DefaultHasher` — so snapshots stay
/// portable across toolchain versions and builds.
fn program_fingerprint(program: &DecodedProgram) -> u64 {
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
    }
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &program.base.to_le_bytes());
    h = fnv1a(h, &program.entry.to_le_bytes());
    for &word in &program.raw {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h
}

/// Restore failure message; converted to [`SimError::BadSnapshot`] at the
/// public boundary.
struct RestoreFail(String);

impl From<StateError> for RestoreFail {
    fn from(e: StateError) -> RestoreFail {
        RestoreFail(e.to_string())
    }
}

fn core_state_code(s: CoreState) -> u8 {
    match s {
        CoreState::Running => 0,
        CoreState::WaitingMem => 1,
        CoreState::Barrier => 2,
        CoreState::Halted => 3,
    }
}

fn core_state_from(code: u8) -> Result<CoreState, StateError> {
    Ok(match code {
        0 => CoreState::Running,
        1 => CoreState::WaitingMem,
        2 => CoreState::Barrier,
        3 => CoreState::Halted,
        _ => return Err(StateError::Invalid("core state")),
    })
}

fn op_kind_code(k: OpKind) -> u8 {
    match k {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::Amo => 2,
        OpKind::Lr => 3,
        OpKind::Sc => 4,
        OpKind::LrWait => 5,
        OpKind::ScWait => 6,
        OpKind::MWait => 7,
        OpKind::WakeUp => 8,
    }
}

fn op_kind_from(code: u8) -> Result<OpKind, StateError> {
    Ok(match code {
        0 => OpKind::Load,
        1 => OpKind::Store,
        2 => OpKind::Amo,
        3 => OpKind::Lr,
        4 => OpKind::Sc,
        5 => OpKind::LrWait,
        6 => OpKind::ScWait,
        7 => OpKind::MWait,
        8 => OpKind::WakeUp,
        _ => return Err(StateError::Invalid("park kind")),
    })
}

fn mem_width_code(w: MemWidth) -> u8 {
    match w {
        MemWidth::Byte => 0,
        MemWidth::Half => 1,
        MemWidth::Word => 2,
    }
}

fn mem_width_from(code: u8) -> Result<MemWidth, StateError> {
    Ok(match code {
        0 => MemWidth::Byte,
        1 => MemWidth::Half,
        2 => MemWidth::Word,
        _ => return Err(StateError::Invalid("load width")),
    })
}

fn load_core(src: &mut StateReader<'_>, core: &mut Core, cycle: u64) -> Result<(), StateError> {
    for r in core.regs.iter_mut() {
        *r = src.take_u32()?;
    }
    core.regs[0] = 0; // x0 is architectural zero whatever the buffer says
    core.pc = src.take_u32()?;
    core.state = core_state_from(src.take_u8()?)?;
    core.ready_at = src.take_u64()?;
    // Transient fast-path state, never serialized: the snapshot's
    // statistics are flushed up to its cycle, so that is the watermark.
    core.charged_until = cycle;
    core.parked_at = src.take_u64()?;
    core.pending = if src.take_bool()? {
        let rd = Reg::try_new(u32::from(src.take_u8()?))
            .ok_or(StateError::Invalid("pending destination register"))?;
        let addr = src.take_u32()?;
        let kind = match src.take_u8()? {
            0 => PendingKind::Load {
                width: mem_width_from(src.take_u8()?)?,
                signed: src.take_bool()?,
            },
            1 => PendingKind::Value,
            2 => PendingKind::Flag,
            _ => return Err(StateError::Invalid("pending operation kind")),
        };
        Some(PendingMem { rd, addr, kind })
    } else {
        None
    };
    core.outstanding_stores = src.take_u32()?;
    core.stats.instret = src.take_u64()?;
    core.stats.active_cycles = src.take_u64()?;
    core.stats.stall_cycles = src.take_u64()?;
    core.stats.sleep_cycles = src.take_u64()?;
    core.stats.barrier_cycles = src.take_u64()?;
    core.stats.ops = src.take_u64()?;
    core.stats.region_start = src.take_opt_u64()?;
    core.stats.region_end = src.take_opt_u64()?;
    Ok(())
}

fn save_req(out: &mut StateWriter, m: &ReqMsg) {
    out.put_u32(m.src);
    out.put_u32(m.bank);
    m.req.save(out);
}

fn load_req(
    src: &mut StateReader<'_>,
    num_cores: u32,
    num_banks: u32,
) -> Result<ReqMsg, StateError> {
    let src_core = src.take_u32()?;
    if src_core != HOST_CORE && src_core >= num_cores {
        return Err(StateError::Invalid("request source core"));
    }
    let bank = src.take_u32()?;
    if bank >= num_banks {
        return Err(StateError::Invalid("request destination bank"));
    }
    Ok(ReqMsg {
        src: src_core,
        bank,
        req: MemRequest::load(src)?,
    })
}

fn save_resp(out: &mut StateWriter, m: &RespMsg) {
    out.put_u32(m.core);
    m.resp.save(out);
}

fn load_resp(src: &mut StateReader<'_>, num_cores: u32) -> Result<RespMsg, StateError> {
    let core = src.take_u32()?;
    if core >= num_cores {
        return Err(StateError::Invalid("response destination core"));
    }
    Ok(RespMsg {
        core,
        resp: MemResponse::load(src)?,
    })
}

/// Serializes a network: statistics, then every in-flight flit in the
/// canonical (node id, queue position) order [`Network::for_each_flit`]
/// visits in — the same order [`Network::push_flit`] replays them in, so a
/// restored network is behaviourally identical.
fn save_net<P>(out: &mut StateWriter, net: &Network<P>, save: fn(&mut StateWriter, &P)) {
    let stats = net.stats();
    out.put_u64(stats.injected);
    out.put_u64(stats.inject_stalls);
    out.put_u64(stats.hops);
    out.put_u64(stats.delivered);
    out.put_u64(stats.hol_blocks);
    let mut count: u32 = 0;
    net.for_each_flit(|_, _, _, _| count += 1);
    out.put_u32(count);
    net.for_each_flit(|payload, route, hop, ready_at| {
        out.put_u8(route.len() as u8);
        for &h in route.hops() {
            out.put_u32(h);
        }
        out.put_u8(hop);
        out.put_u64(ready_at);
        save(out, payload);
    });
}

fn load_net<P>(
    src: &mut StateReader<'_>,
    net: &mut Network<P>,
    load: impl Fn(&mut StateReader<'_>) -> Result<P, StateError>,
) -> Result<(), StateError> {
    let stats = NetworkStats {
        injected: src.take_u64()?,
        inject_stalls: src.take_u64()?,
        hops: src.take_u64()?,
        delivered: src.take_u64()?,
        hol_blocks: src.take_u64()?,
    };
    net.clear_in_flight();
    net.set_stats(stats);
    let count = src.take_u32()?;
    for _ in 0..count {
        let len = usize::from(src.take_u8()?);
        if len == 0 || len > Route::MAX_HOPS {
            return Err(StateError::Invalid("flit route length"));
        }
        let mut hops = [0u32; Route::MAX_HOPS];
        for h in hops.iter_mut().take(len) {
            *h = src.take_u32()?;
            if *h as usize >= net.num_nodes() {
                return Err(StateError::Invalid("flit node id"));
            }
        }
        let hop = src.take_u8()?;
        if usize::from(hop) >= len {
            return Err(StateError::Invalid("flit hop index"));
        }
        let ready_at = src.take_u64()?;
        let payload = load(src)?;
        net.push_flit(Route::new(&hops[..len]), hop, ready_at, payload);
    }
    Ok(())
}

/// Files running core `c` at the end of cycle `now`: into `due` (the
/// walked list) when it may issue next cycle, otherwise into the
/// ready-time calendar until its `ready_at`.
fn file_running(calendar: &mut Calendar, due: &mut Vec<u32>, c: u32, ready_at: u64, now: u64) {
    if ready_at > now + 1 {
        calendar.push(ready_at, c, now);
    } else {
        due.push(c);
    }
}

/// Adds the cycles a fast-mode core has lived through but not yet been
/// charged for, as of `cycle`: the parked delta since `parked_at` for a
/// sleeping or barrier-waiting core, and the stalls past the watermark
/// (`charged_until`) for a running one — exactly what the reference's
/// eager one-per-visit counting has added by then.
fn flush_lazy(stats: &mut CoreStats, core: &Core, cycle: u64) {
    match core.state {
        CoreState::WaitingMem => stats.sleep_cycles += cycle - core.parked_at,
        CoreState::Barrier => stats.barrier_cycles += cycle - core.parked_at,
        CoreState::Running => stats.stall_cycles += cycle.saturating_sub(core.charged_until),
        CoreState::Halted => {}
    }
}

/// Merges the sorted, disjoint `add` list into the sorted `dst` list,
/// using `scratch` as the reusable merge buffer (allocation-free once
/// capacities are warm).
fn merge_sorted(dst: &mut Vec<u32>, add: &[u32], scratch: &mut Vec<u32>) {
    if add.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(add);
        return;
    }
    scratch.clear();
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < add.len() {
        if dst[i] <= add[j] {
            debug_assert_ne!(dst[i], add[j], "merge lists must be disjoint");
            scratch.push(dst[i]);
            i += 1;
        } else {
            scratch.push(add[j]);
            j += 1;
        }
    }
    scratch.extend_from_slice(&dst[i..]);
    scratch.extend_from_slice(&add[j..]);
    std::mem::swap(dst, scratch);
}
