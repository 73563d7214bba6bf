//! The bodies of `Machine::step_cycle`'s two data-parallel phases —
//! per-bank request service and per-core stepping — extracted so they can
//! run either inline (one shard, the default) or on the persistent worker
//! pool (`crate::shard`), over a *contiguous range* of banks or cores.
//!
//! # Why ranges make parallelism deterministic
//!
//! Within one cycle, all cross-bank and cross-core work is commutative:
//! a bank adapter touches only its own words, queue state and outbox, and
//! a stepping core touches only its own registers, Qnode and request
//! outbox. The only ordering-sensitive artifacts a parallel phase produces
//! are *merge lists* — which banks became ready to flush, which cores
//! became runnable or dirty, which trace events and debug prints occurred.
//! Each shard accumulates those into its own [`ShardScratch`] in ascending
//! id order; because shard ranges are contiguous and themselves ordered,
//! concatenating the shard scratches in shard order reproduces exactly the
//! global ascending-id order a single-sharded walk produces. Every merge
//! the coordinator performs is therefore a deterministic, bank-id- (or
//! core-id-) ordered merge — the machine's determinism contract.
//!
//! # Tracing without branches
//!
//! Both phase bodies are generic over a [`TraceCtx`]: the untraced
//! instantiation ([`NoTrace`]) compiles every emit site to nothing — the
//! per-step `is_off()` branch the previous implementation paid is gone
//! entirely from the hot loop (one branch per *phase* per cycle selects
//! the instantiation). The traced instantiation ([`BufTrace`]) appends to
//! a per-shard buffer that the coordinator drains in shard order, so the
//! observed event stream is identical for any shard count.

use std::collections::VecDeque;

use lrscwait_core::{MemRequest, MemResponse, Qnode, SyncAdapter, WordStorage};
use lrscwait_isa::AmoOp;
use lrscwait_trace::{OpKind, TraceEvent};

use crate::config::{mmio_reg, SimConfig, MMIO_BASE, MMIO_SIZE, NUM_ARGS, ROM_BASE};
use crate::cpu::{
    amo_op_kind, extract, store_lanes, Action, Core, CoreState, DecodedProgram, ExecError,
    MemIntent, PendingKind, PendingMem,
};
use crate::machine::SimError;
use crate::translate::{run_block, Translation};

/// Request-network payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReqMsg {
    pub src: u32,
    pub bank: u32,
    pub req: MemRequest,
}

/// Response-network payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RespMsg {
    pub core: u32,
    pub resp: MemResponse,
}

/// Adapter-facing view of one bank's storage with global addressing.
pub(crate) struct BankView<'a> {
    pub words: &'a mut [u32],
    pub num_banks: u32,
    pub bank: u32,
}

impl WordStorage for BankView<'_> {
    fn read_word(&self, addr: u32) -> u32 {
        let w = addr / 4;
        debug_assert_eq!(
            w % self.num_banks,
            self.bank,
            "address routed to wrong bank"
        );
        self.words[(w / self.num_banks) as usize]
    }

    fn write_word(&mut self, addr: u32, value: u32) {
        let w = addr / 4;
        debug_assert_eq!(
            w % self.num_banks,
            self.bank,
            "address routed to wrong bank"
        );
        self.words[(w / self.num_banks) as usize] = value;
    }
}

/// Trace-emission context a phase body is monomorphized over.
///
/// [`NoTrace`] (untraced runs) compiles every emit site away; [`BufTrace`]
/// appends to a per-shard buffer the coordinator later drains in shard
/// order. Either way the phase body itself contains no per-event
/// `is_off()` branch.
pub(crate) trait TraceCtx {
    /// Whether events are recorded (drives the few sites that maintain
    /// trace-only side state, e.g. the park-cause table).
    const ENABLED: bool;
    /// Emits one event; the constructor is never evaluated when disabled.
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent);
}

/// The zero-cost untraced context.
pub(crate) struct NoTrace;

impl TraceCtx for NoTrace {
    const ENABLED: bool = false;
    #[inline(always)]
    fn emit(&mut self, _event: impl FnOnce() -> TraceEvent) {}
}

/// Buffering trace context: events land in the shard's scratch buffer in
/// emission order (ascending bank/core id within the shard).
pub(crate) struct BufTrace<'a>(pub &'a mut Vec<TraceEvent>);

impl TraceCtx for BufTrace<'_> {
    const ENABLED: bool = true;
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        self.0.push(event());
    }
}

/// Per-shard accumulation state. One instance per shard lives in the
/// `Machine`; all vectors reach a steady-state capacity and are reused,
/// so sharded cycles stay allocation-free.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// Reusable response buffer handed to `SyncAdapter::handle`.
    pub adapter_out: Vec<(u32, MemResponse)>,
    /// Banks whose outbox went empty → non-empty this cycle (ascending).
    pub new_dirty_banks: Vec<u32>,
    /// Runnable cores that stay runnable after stepping (ascending).
    pub kept_runnable: Vec<u32>,
    /// Cores whose request outbox went empty → non-empty (ascending).
    pub new_dirty_cores: Vec<u32>,
    /// MMIO debug prints this cycle: `(core, value)` (ascending core).
    pub prints: Vec<(u32, u32)>,
    /// Cores that halted during this phase.
    pub newly_halted: u32,
    /// Cores that arrived at the barrier during this phase.
    pub newly_barrier: u32,
    /// First fatal error in this shard (lowest core id within the shard).
    pub error: Option<SimError>,
    /// Core id the error occurred on (for cross-shard arbitration).
    pub error_core: u32,
    /// Buffered trace events (only populated when a sink is attached).
    pub trace: Vec<TraceEvent>,
}

impl ShardScratch {
    /// Clears all per-cycle accumulators (capacity is retained).
    pub fn reset(&mut self) {
        self.new_dirty_banks.clear();
        self.kept_runnable.clear();
        self.new_dirty_cores.clear();
        self.prints.clear();
        self.newly_halted = 0;
        self.newly_barrier = 0;
        self.error = None;
        self.error_core = 0;
        debug_assert!(self.trace.is_empty(), "trace buffer drained every cycle");
    }
}

/// Services every delivered request whose destination bank lies in
/// `[bank_lo, bank_lo + banks.len())`, in bank-id order (and, within one
/// bank, in delivery order): the adapter performs its side effects on the
/// bank words and appends responses to the bank's outbox.
///
/// `order` is the cycle's full delivery list sorted by `(bank, delivery
/// index)`; the caller has already narrowed it to this shard's banks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn service_banks(
    bank_lo: u32,
    banks: &mut [Vec<u32>],
    adapters: &mut [Box<dyn SyncAdapter>],
    bank_outbox: &mut [VecDeque<RespMsg>],
    num_banks: u32,
    reqs: &[ReqMsg],
    order: &[(u32, u32)],
    scratch: &mut ShardScratch,
    tracing: bool,
) {
    let ShardScratch {
        adapter_out,
        new_dirty_banks,
        trace,
        ..
    } = scratch;
    if tracing {
        service_banks_inner(
            bank_lo,
            banks,
            adapters,
            bank_outbox,
            num_banks,
            reqs,
            order,
            adapter_out,
            new_dirty_banks,
            &mut BufTrace(trace),
        );
    } else {
        service_banks_inner(
            bank_lo,
            banks,
            adapters,
            bank_outbox,
            num_banks,
            reqs,
            order,
            adapter_out,
            new_dirty_banks,
            &mut NoTrace,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn service_banks_inner<T: TraceCtx>(
    bank_lo: u32,
    banks: &mut [Vec<u32>],
    adapters: &mut [Box<dyn SyncAdapter>],
    bank_outbox: &mut [VecDeque<RespMsg>],
    num_banks: u32,
    reqs: &[ReqMsg],
    order: &[(u32, u32)],
    adapter_out: &mut Vec<(u32, MemResponse)>,
    new_dirty_banks: &mut Vec<u32>,
    trace: &mut T,
) {
    for &(bank, idx) in order {
        let msg = &reqs[idx as usize];
        debug_assert_eq!(msg.bank, bank);
        let local = (bank - bank_lo) as usize;
        let mut view = BankView {
            words: &mut banks[local],
            num_banks,
            bank,
        };
        adapter_out.clear();
        if T::ENABLED {
            adapters[local].handle_traced(
                msg.src,
                &msg.req,
                &mut view,
                adapter_out,
                &mut |event| {
                    trace.emit(|| TraceEvent::Sync { bank, event });
                },
            );
        } else {
            adapters[local].handle(msg.src, &msg.req, &mut view, adapter_out);
        }
        let outbox = &mut bank_outbox[local];
        if outbox.is_empty() && !adapter_out.is_empty() {
            new_dirty_banks.push(bank);
        }
        for (core, resp) in adapter_out.drain(..) {
            outbox.push_back(RespMsg { core, resp });
        }
    }
}

/// The per-core stepping phase over one contiguous shard of cores.
///
/// Owns mutable access to the shard's cores, Qnodes, request outboxes and
/// park-cause table, plus the shared read-only program and configuration.
/// All ordering-sensitive side effects (halt/barrier counts, debug prints,
/// newly-dirty cores, trace events) go to the [`ShardScratch`]; barrier
/// *release* is deferred to the machine's sequential sub-phase, which is
/// what makes stepping shardable in the first place.
pub(crate) struct CorePhase<'a> {
    /// First global core id of this shard.
    pub core_lo: u32,
    pub cores: &'a mut [Core],
    pub qnodes: &'a mut [Qnode],
    pub core_outbox: &'a mut [VecDeque<ReqMsg>],
    pub park_kind: &'a mut [OpKind],
    pub program: &'a DecodedProgram,
    pub cfg: &'a SimConfig,
    pub num_banks: u32,
}

/// Steps this shard's slice of the runnable set ([`ExecMode::Fast`]),
/// compacting cores that stay `Running` into `scratch.kept_runnable`. A
/// runnable core whose pc enters a superblock executes the whole block
/// (up to `horizon`) in one call instead of one instruction.
///
/// `runnable` must be the ascending sub-slice of the global runnable set
/// that falls inside this shard's core range. On a fatal error the
/// unstepped tail is preserved in the kept list (post-mortem state), the
/// error recorded in the scratch, and stepping stops.
///
/// [`ExecMode::Fast`]: crate::ExecMode::Fast
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_translated_cores(
    ctx: &mut CorePhase<'_>,
    translation: &Translation,
    runnable: &[u32],
    now: u64,
    horizon: u64,
    scratch: &mut ShardScratch,
    tracing: bool,
) {
    let ShardScratch {
        kept_runnable,
        new_dirty_cores,
        prints,
        newly_halted,
        newly_barrier,
        error,
        error_core,
        trace,
        ..
    } = scratch;
    let mut out = StepOut {
        new_dirty_cores,
        prints,
        newly_halted,
        newly_barrier,
        track_dirty: true,
    };
    if tracing {
        walk_translated(
            ctx,
            translation,
            runnable,
            now,
            horizon,
            kept_runnable,
            &mut out,
            error,
            error_core,
            &mut BufTrace(trace),
        );
    } else {
        walk_translated(
            ctx,
            translation,
            runnable,
            now,
            horizon,
            kept_runnable,
            &mut out,
            error,
            error_core,
            &mut NoTrace,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_translated<T: TraceCtx>(
    ctx: &mut CorePhase<'_>,
    translation: &Translation,
    runnable: &[u32],
    now: u64,
    horizon: u64,
    kept_runnable: &mut Vec<u32>,
    out: &mut StepOut<'_>,
    error: &mut Option<SimError>,
    error_core: &mut u32,
    trace: &mut T,
) {
    for (i, &c) in runnable.iter().enumerate() {
        let result = ctx.step_core_translated(c, translation, now, horizon, out, trace);
        // The keep check runs even for a faulting core: a core that is
        // still `Running` after its fatal error (e.g. a breakpoint)
        // stays in the set, like every other observable of the
        // post-mortem state.
        if ctx.cores[(c - ctx.core_lo) as usize].state == CoreState::Running {
            kept_runnable.push(c);
        }
        if let Err(e) = result {
            *error = Some(e);
            *error_core = c;
            // Preserve the unstepped tail so the machine state stays
            // consistent for post-mortem inspection.
            kept_runnable.extend_from_slice(&runnable[i + 1..]);
            return;
        }
    }
}

/// Visits every core of this shard (reference mode): eager accounting for
/// parked states, then the shared running-core step.
pub(crate) fn step_all_cores(
    ctx: &mut CorePhase<'_>,
    now: u64,
    scratch: &mut ShardScratch,
    tracing: bool,
) {
    let ShardScratch {
        new_dirty_cores,
        prints,
        newly_halted,
        newly_barrier,
        error,
        error_core,
        trace,
        ..
    } = scratch;
    let mut out = StepOut {
        new_dirty_cores,
        prints,
        newly_halted,
        newly_barrier,
        // The reference stepper drains every outbox each cycle and never
        // reads the dirty set; recording it would only grow the merge.
        track_dirty: false,
    };
    if tracing {
        walk_all(ctx, now, &mut out, error, error_core, &mut BufTrace(trace));
    } else {
        walk_all(ctx, now, &mut out, error, error_core, &mut NoTrace);
    }
}

fn walk_all<T: TraceCtx>(
    ctx: &mut CorePhase<'_>,
    now: u64,
    out: &mut StepOut<'_>,
    error: &mut Option<SimError>,
    error_core: &mut u32,
    trace: &mut T,
) {
    let n = ctx.cores.len() as u32;
    for c in ctx.core_lo..ctx.core_lo + n {
        let local = (c - ctx.core_lo) as usize;
        match ctx.cores[local].state {
            CoreState::Halted => continue,
            CoreState::Barrier => {
                ctx.cores[local].stats.barrier_cycles += 1;
                continue;
            }
            CoreState::WaitingMem => {
                ctx.cores[local].stats.sleep_cycles += 1;
                continue;
            }
            CoreState::Running => {}
        }
        if let Err(e) = ctx.step_running_core(c, now, out, trace) {
            *error = Some(e);
            *error_core = c;
            return;
        }
    }
}

/// The ordering-sensitive outputs of a stepping walk (a borrowed-apart
/// view of the shard scratch).
pub(crate) struct StepOut<'a> {
    new_dirty_cores: &'a mut Vec<u32>,
    prints: &'a mut Vec<(u32, u32)>,
    newly_halted: &'a mut u32,
    newly_barrier: &'a mut u32,
    track_dirty: bool,
}

impl CorePhase<'_> {
    fn local(&self, c: u32) -> usize {
        (c - self.core_lo) as usize
    }

    /// Bank holding the word at `addr`.
    fn bank_of(&self, addr: u32) -> u32 {
        (addr / 4) % self.num_banks
    }

    fn line_of(&self, pc: u32) -> Option<u32> {
        self.program
            .index_of(pc)
            .and_then(|i| self.program.source_lines.get(i).copied())
    }

    /// Steps one core known to be in [`CoreState::Running`] through the
    /// interpreter (reference mode).
    fn step_running_core<T: TraceCtx>(
        &mut self,
        c: u32,
        now: u64,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = self.local(c);
        if now < self.cores[i].ready_at || self.core_outbox[i].len() >= 4 {
            self.cores[i].stats.stall_cycles += 1;
            return Ok(());
        }
        self.cores[i].stats.active_cycles += 1;
        self.interp_step(c, now, out, trace)
    }

    /// Steps one runnable core in fast mode. Scheduling guards are
    /// identical to [`Self::step_running_core`]; the accounting differs
    /// only in *when* stalls are charged. `Core::charged_until` is the
    /// core's stall watermark: every cycle after it that this visit
    /// reaches uncharged was a stall the core was not visited for (it sat
    /// in the machine's ready-time calendar), so the visit credits them
    /// in bulk, and cycles a superblock already charged (up to the
    /// watermark) are never re-charged. A pc with a superblock entry runs
    /// the block; boundary instructions (and out-of-text pcs, which must
    /// fault exactly like the interpreter) take the interpreter path.
    fn step_core_translated<T: TraceCtx>(
        &mut self,
        c: u32,
        translation: &Translation,
        now: u64,
        horizon: u64,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = self.local(c);
        let core = &mut self.cores[i];
        if now < core.ready_at || self.core_outbox[i].len() >= 4 {
            if now > core.charged_until {
                core.stats.stall_cycles += now - core.charged_until;
                core.charged_until = now;
            }
            return Ok(());
        }
        // Ready at `now`: a core is ready only past its watermark.
        debug_assert!(core.charged_until < now, "ready core already charged");
        core.stats.stall_cycles += now - 1 - core.charged_until;
        core.charged_until = now;
        if let Some(entry) = translation.entry(core.pc) {
            run_block(core, translation, entry, now, horizon, &self.cfg.timing);
            return Ok(());
        }
        core.stats.active_cycles += 1;
        self.interp_step(c, now, out, trace)
    }

    /// Executes exactly one instruction on core `c` through the decoded-
    /// instruction interpreter and applies its action. Shared tail of
    /// [`Self::step_running_core`] and [`Self::step_core_translated`].
    fn interp_step<T: TraceCtx>(
        &mut self,
        c: u32,
        now: u64,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = self.local(c);
        let action = {
            let program = self.program;
            let timing = self.cfg.timing;
            self.cores[i].execute(program, now, &timing)
        };
        let action = match action {
            Ok(a) => a,
            Err(ExecError::IllegalPc(pc)) => return Err(SimError::IllegalPc { core: c, pc }),
            Err(ExecError::Breakpoint(pc)) => {
                return Err(SimError::Breakpoint {
                    core: c,
                    pc,
                    line: self.line_of(pc),
                })
            }
            Err(ExecError::Misaligned { pc, addr }) => {
                return Err(SimError::Misaligned {
                    core: c,
                    pc,
                    addr,
                    line: self.line_of(pc),
                })
            }
        };
        match action {
            Action::Done => Ok(()),
            Action::Halt => {
                self.halt_core(c, out, trace);
                Ok(())
            }
            Action::Mem(intent) => self.apply_intent(c, intent, now, out, trace),
        }
    }

    /// Marks a core halted. The barrier-release check this may enable runs
    /// in the machine's sequential sub-phase after the stepping walk.
    fn halt_core<T: TraceCtx>(&mut self, c: u32, out: &mut StepOut<'_>, trace: &mut T) {
        let i = self.local(c);
        if self.cores[i].state != CoreState::Halted {
            self.cores[i].state = CoreState::Halted;
            *out.newly_halted += 1;
            trace.emit(|| TraceEvent::Halt { core: c });
        }
    }

    fn apply_intent<T: TraceCtx>(
        &mut self,
        c: u32,
        intent: MemIntent,
        now: u64,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = self.local(c);
        match intent {
            MemIntent::Fence => {
                if self.cores[i].outstanding_stores == 0 && self.core_outbox[i].is_empty() {
                    self.cores[i].pc += 4;
                }
                // Otherwise: retry next cycle (fence stalls the pipeline).
                Ok(())
            }
            MemIntent::Load {
                addr,
                rd,
                width,
                signed,
            } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    let value = self.mmio_read(c, addr - MMIO_BASE, now);
                    self.cores[i].set_reg(rd, extract(value, addr, width, signed));
                    self.cores[i].pc += 4;
                    return Ok(());
                }
                if addr >= ROM_BASE {
                    let idx = ((addr - ROM_BASE) / 4) as usize;
                    let Some(&word) = self.program.raw.get(idx) else {
                        return Err(SimError::Fault {
                            core: c,
                            addr,
                            what: "load beyond ROM",
                        });
                    };
                    self.cores[i].set_reg(rd, extract(word, addr, width, signed));
                    self.cores[i].pc += 4;
                    return Ok(());
                }
                if addr >= self.cfg.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "load outside SPM",
                    });
                }
                self.cores[i].pending = Some(PendingMem {
                    rd,
                    addr,
                    kind: PendingKind::Load { width, signed },
                });
                self.cores[i].state = CoreState::WaitingMem;
                self.cores[i].parked_at = now;
                self.cores[i].pc += 4;
                self.emit_park(c, OpKind::Load, trace);
                self.push_request(c, MemRequest::Load { addr: addr & !3 }, out, trace);
                Ok(())
            }
            MemIntent::Store { addr, value, width } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    self.cores[i].pc += 4;
                    self.mmio_write(c, addr - MMIO_BASE, value, now, out, trace);
                    return Ok(());
                }
                if addr >= self.cfg.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "store outside SPM (ROM is read-only)",
                    });
                }
                if self.cores[i].outstanding_stores >= self.cfg.timing.store_buffer {
                    return Ok(()); // buffer full: stall, retry next cycle
                }
                let (aligned, lane_value, mask) = store_lanes(addr, value, width);
                self.cores[i].outstanding_stores += 1;
                self.cores[i].pc += 4;
                self.push_request(
                    c,
                    MemRequest::Store {
                        addr: aligned,
                        value: lane_value,
                        mask,
                    },
                    out,
                    trace,
                );
                Ok(())
            }
            MemIntent::Atomic {
                addr,
                rd,
                op,
                operand,
            } => {
                if addr >= self.cfg.spm_bytes {
                    return Err(SimError::Fault {
                        core: c,
                        addr,
                        what: "atomic outside SPM",
                    });
                }
                let (req, kind) = match op {
                    AmoOp::Lr => (MemRequest::Lr { addr }, PendingKind::Value),
                    AmoOp::Sc => (
                        MemRequest::Sc {
                            addr,
                            value: operand,
                        },
                        PendingKind::Flag,
                    ),
                    AmoOp::LrWait => (MemRequest::LrWait { addr }, PendingKind::Value),
                    AmoOp::ScWait => (
                        MemRequest::ScWait {
                            addr,
                            value: operand,
                        },
                        PendingKind::Flag,
                    ),
                    AmoOp::MWait => (
                        MemRequest::MWait {
                            addr,
                            expected: operand,
                        },
                        PendingKind::Value,
                    ),
                    rmw => (
                        MemRequest::Amo {
                            addr,
                            op: map_rmw(rmw),
                            operand,
                        },
                        PendingKind::Value,
                    ),
                };
                self.cores[i].pending = Some(PendingMem { rd, addr, kind });
                self.cores[i].state = CoreState::WaitingMem;
                self.cores[i].parked_at = now;
                self.cores[i].pc += 4;
                self.emit_park(c, amo_op_kind(op), trace);
                self.push_request(c, req, out, trace);
                Ok(())
            }
        }
    }

    /// Marks a core parked on a blocking operation, remembering the cause
    /// for the later wake event. The cause is recorded unconditionally so
    /// that machine state (and hence snapshots) does not depend on whether
    /// tracing is enabled; only the event emission is gated.
    fn emit_park<T: TraceCtx>(&mut self, c: u32, kind: OpKind, trace: &mut T) {
        self.park_kind[self.local(c)] = kind;
        if T::ENABLED {
            trace.emit(|| TraceEvent::Park {
                core: c,
                cause: kind,
            });
        }
    }

    fn push_request<T: TraceCtx>(
        &mut self,
        c: u32,
        req: MemRequest,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) {
        let wakeup = self.qnodes[self.local(c)].on_core_request(&req);
        let bank = self.bank_of(req.addr());
        trace.emit(|| TraceEvent::ReqSent {
            core: c,
            bank,
            kind: req_kind(&req),
        });
        self.push_outbox(c, ReqMsg { src: c, bank, req }, out);
        if let Some(wk) = wakeup {
            let wk_bank = self.bank_of(wk.addr());
            trace.emit(|| TraceEvent::ReqSent {
                core: c,
                bank: wk_bank,
                kind: OpKind::WakeUp,
            });
            self.push_outbox(
                c,
                ReqMsg {
                    src: c,
                    bank: wk_bank,
                    req: wk,
                },
                out,
            );
        }
    }

    /// Queues a request on the core's own outbox, recording the empty →
    /// non-empty transition for the fast-mode Phase 5 merge.
    fn push_outbox(&mut self, c: u32, msg: ReqMsg, out: &mut StepOut<'_>) {
        let i = self.local(c);
        if out.track_dirty && self.core_outbox[i].is_empty() {
            out.new_dirty_cores.push(c);
        }
        self.core_outbox[i].push_back(msg);
    }

    fn mmio_read(&self, c: u32, offset: u32, now: u64) -> u32 {
        match offset {
            mmio_reg::HARTID => c,
            mmio_reg::NUM_CORES => self.cfg.topology.num_cores as u32,
            mmio_reg::CYCLE => now as u32,
            o if (mmio_reg::ARG0..mmio_reg::ARG0 + 4 * NUM_ARGS as u32).contains(&o)
                && o % 4 == 0 =>
            {
                self.cfg.args[((o - mmio_reg::ARG0) / 4) as usize]
            }
            _ => 0,
        }
    }

    fn mmio_write<T: TraceCtx>(
        &mut self,
        c: u32,
        offset: u32,
        value: u32,
        now: u64,
        out: &mut StepOut<'_>,
        trace: &mut T,
    ) {
        let i = self.local(c);
        match offset {
            mmio_reg::EXIT => self.halt_core(c, out, trace),
            mmio_reg::OP_COUNT => self.cores[i].stats.ops += u64::from(value),
            mmio_reg::REGION => {
                if value != 0 {
                    if self.cores[i].stats.region_start.is_none() {
                        self.cores[i].stats.region_start = Some(now);
                    }
                    trace.emit(|| TraceEvent::RegionEnter { core: c });
                } else {
                    self.cores[i].stats.region_end = Some(now);
                    trace.emit(|| TraceEvent::RegionExit { core: c });
                }
            }
            mmio_reg::BARRIER => {
                // Arrival only: the release check (and its accounting) runs
                // once per cycle in the machine's sequential sub-phase, so
                // it never races across shards and charges every released
                // core identically regardless of visit order.
                self.cores[i].state = CoreState::Barrier;
                self.cores[i].parked_at = now;
                *out.newly_barrier += 1;
                trace.emit(|| TraceEvent::BarrierArrive { core: c });
            }
            mmio_reg::PRINT => out.prints.push((c, value)),
            _ => {}
        }
    }
}

/// Trace [`OpKind`] of a request (what a core sent towards memory).
pub(crate) fn req_kind(req: &MemRequest) -> OpKind {
    match req {
        MemRequest::Load { .. } => OpKind::Load,
        MemRequest::Store { .. } => OpKind::Store,
        MemRequest::Amo { .. } => OpKind::Amo,
        MemRequest::Lr { .. } => OpKind::Lr,
        MemRequest::Sc { .. } => OpKind::Sc,
        MemRequest::LrWait { .. } => OpKind::LrWait,
        MemRequest::ScWait { .. } => OpKind::ScWait,
        MemRequest::MWait { .. } => OpKind::MWait,
        MemRequest::WakeUp { .. } => OpKind::WakeUp,
    }
}

pub(crate) fn map_rmw(op: AmoOp) -> lrscwait_core::RmwOp {
    use lrscwait_core::RmwOp;
    match op {
        AmoOp::Swap => RmwOp::Swap,
        AmoOp::Add => RmwOp::Add,
        AmoOp::Xor => RmwOp::Xor,
        AmoOp::And => RmwOp::And,
        AmoOp::Or => RmwOp::Or,
        AmoOp::Min => RmwOp::Min,
        AmoOp::Max => RmwOp::Max,
        AmoOp::Minu => RmwOp::Minu,
        AmoOp::Maxu => RmwOp::Maxu,
        other => unreachable!("{other:?} is not an RMW AMO"),
    }
}
