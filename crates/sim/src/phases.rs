//! The bodies of `Machine::step_cycle`'s per-bank and per-core phases —
//! request service and core stepping — kept apart from the machine so
//! each can be monomorphized over its trace context.
//!
//! Both walks run in ascending id order (bank id, then delivery index;
//! core id), so the lists they produce for the machine's sorted-list
//! merges — banks whose outbox became non-empty, cores that stay runnable
//! or gained outgoing requests — come out sorted.
//!
//! # Tracing without branches
//!
//! Both phase bodies are generic over a [`TraceCtx`]: the untraced
//! instantiation ([`NoTrace`]) compiles every emit site to nothing, so
//! the hot loop carries no per-step `is_off()` branch (one branch per
//! *phase* per cycle selects the instantiation). The traced
//! instantiation ([`SinkTrace`]) records straight into the attached sink,
//! stamped with the current cycle.

use std::collections::VecDeque;

use lrscwait_core::{MemRequest, MemResponse, Qnode, SyncAdapter, WordStorage};
use lrscwait_isa::AmoOp;
use lrscwait_trace::{OpKind, TraceEvent, TraceSink};

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
/// [`NoTrace`] (untraced runs) compiles every emit site away;
/// [`SinkTrace`] records into the attached sink. Either way the phase
/// body itself contains no per-event `is_off()` branch.
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

/// Traced context: every event goes to the sink, stamped `now`.
pub(crate) struct SinkTrace<'a> {
    pub sink: &'a mut dyn TraceSink,
    pub now: u64,
}

impl TraceCtx for SinkTrace<'_> {
    const ENABLED: bool = true;
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        self.sink.record(self.now, event());
    }
}

/// The per-bank request-service phase: mutable access to every bank's
/// words, adapter and response outbox.
pub(crate) struct BankPhase<'a> {
    pub banks: &'a mut [Vec<u32>],
    pub adapters: &'a mut [Box<dyn SyncAdapter>],
    pub bank_outbox: &'a mut [VecDeque<RespMsg>],
    pub num_banks: u32,
    /// Reusable response buffer handed to `SyncAdapter::handle`.
    pub adapter_out: &'a mut Vec<(u32, MemResponse)>,
    /// Banks whose outbox went empty → non-empty (ascending).
    pub new_dirty_banks: &'a mut Vec<u32>,
}

impl BankPhase<'_> {
    /// Services the cycle's delivered requests `reqs` in `order` — the
    /// delivery list sorted by `(bank, delivery index)`: the adapter
    /// performs its side effects on the bank words and appends responses
    /// to the bank's outbox.
    pub(crate) fn service<T: TraceCtx>(
        &mut self,
        reqs: &[ReqMsg],
        order: &[(u32, u32)],
        trace: &mut T,
    ) {
        for &(bank, idx) in order {
            let msg = &reqs[idx as usize];
            debug_assert_eq!(msg.bank, bank);
            let b = bank as usize;
            let mut view = BankView {
                words: &mut self.banks[b],
                num_banks: self.num_banks,
                bank,
            };
            self.adapter_out.clear();
            if T::ENABLED {
                self.adapters[b].handle_traced(
                    msg.src,
                    &msg.req,
                    &mut view,
                    self.adapter_out,
                    &mut |event| {
                        trace.emit(|| TraceEvent::Sync { bank, event });
                    },
                );
            } else {
                self.adapters[b].handle(msg.src, &msg.req, &mut view, self.adapter_out);
            }
            let outbox = &mut self.bank_outbox[b];
            if outbox.is_empty() && !self.adapter_out.is_empty() {
                self.new_dirty_banks.push(bank);
            }
            for (core, resp) in self.adapter_out.drain(..) {
                outbox.push_back(RespMsg { core, resp });
            }
        }
    }
}

/// The per-core stepping phase.
///
/// Owns mutable access to the cores, Qnodes, request outboxes and
/// park-cause table, plus the shared read-only program and configuration.
/// Halts, barrier arrivals and debug prints are recorded straight into the
/// machine's counters and log; barrier *release* is deferred to the
/// machine's sub-phase after the walk, so its accounting never depends on
/// visit order.
pub(crate) struct CorePhase<'a> {
    pub cores: &'a mut [Core],
    pub qnodes: &'a mut [Qnode],
    pub core_outbox: &'a mut [VecDeque<ReqMsg>],
    pub park_kind: &'a mut [OpKind],
    pub program: &'a DecodedProgram,
    pub cfg: &'a SimConfig,
    pub num_banks: u32,
    /// Cores whose request outbox went empty → non-empty (ascending).
    pub new_dirty_cores: &'a mut Vec<u32>,
    /// Whether to record `new_dirty_cores`: the reference stepper drains
    /// every outbox each cycle and never reads the dirty set.
    pub track_dirty: bool,
    /// MMIO debug prints: `(cycle, core, value)`.
    pub debug_log: &'a mut Vec<(u64, u32, u32)>,
    /// The machine's halted-core count.
    pub halted: &'a mut usize,
    /// The machine's count of cores waiting at the barrier.
    pub barrier_waiting: &'a mut usize,
}

impl CorePhase<'_> {
    /// Steps the runnable set ([`ExecMode::Fast`]), collecting cores that
    /// stay `Running` into `kept_runnable`. A runnable core whose pc
    /// enters a superblock executes the whole block (up to `horizon`) in
    /// one call instead of one instruction.
    ///
    /// `runnable` must be ascending. On a fatal error the unstepped tail
    /// is preserved in the kept list (post-mortem state) and stepping
    /// stops.
    ///
    /// [`ExecMode::Fast`]: crate::ExecMode::Fast
    pub(crate) fn step_runnable<T: TraceCtx>(
        &mut self,
        translation: &Translation,
        runnable: &[u32],
        now: u64,
        horizon: u64,
        kept_runnable: &mut Vec<u32>,
        trace: &mut T,
    ) -> Result<(), SimError> {
        for (i, &c) in runnable.iter().enumerate() {
            let result = self.step_core_translated(c, translation, now, horizon, trace);
            // The keep check runs even for a faulting core: a core that is
            // still `Running` after its fatal error (e.g. a breakpoint)
            // stays in the set, like every other observable of the
            // post-mortem state.
            if self.cores[c as usize].state == CoreState::Running {
                kept_runnable.push(c);
            }
            if result.is_err() {
                // Preserve the unstepped tail so the machine state stays
                // consistent for post-mortem inspection.
                kept_runnable.extend_from_slice(&runnable[i + 1..]);
                return result;
            }
        }
        Ok(())
    }

    /// Visits every core (reference mode): eager accounting for parked
    /// states, then the shared running-core step. Stops at the first
    /// fatal error.
    pub(crate) fn step_all<T: TraceCtx>(
        &mut self,
        now: u64,
        trace: &mut T,
    ) -> Result<(), SimError> {
        for c in 0..self.cores.len() as u32 {
            let core = &mut self.cores[c as usize];
            match core.state {
                CoreState::Halted => {}
                CoreState::Barrier => core.stats.barrier_cycles += 1,
                CoreState::WaitingMem => core.stats.sleep_cycles += 1,
                CoreState::Running => self.step_running_core(c, now, trace)?,
            }
        }
        Ok(())
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
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = c as usize;
        if now < self.cores[i].ready_at || self.core_outbox[i].len() >= 4 {
            self.cores[i].stats.stall_cycles += 1;
            return Ok(());
        }
        self.cores[i].stats.active_cycles += 1;
        self.interp_step(c, now, trace)
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
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = c as usize;
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
        self.interp_step(c, now, trace)
    }

    /// Executes exactly one instruction on core `c` through the decoded-
    /// instruction interpreter and applies its action. Shared tail of
    /// [`Self::step_running_core`] and [`Self::step_core_translated`].
    fn interp_step<T: TraceCtx>(
        &mut self,
        c: u32,
        now: u64,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = c as usize;
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
                self.halt_core(c, trace);
                Ok(())
            }
            Action::Mem(intent) => self.apply_intent(c, intent, now, trace),
        }
    }

    /// Marks a core halted. The barrier-release check this may enable runs
    /// in the machine's sub-phase after the stepping walk.
    fn halt_core<T: TraceCtx>(&mut self, c: u32, trace: &mut T) {
        let i = c as usize;
        if self.cores[i].state != CoreState::Halted {
            self.cores[i].state = CoreState::Halted;
            *self.halted += 1;
            trace.emit(|| TraceEvent::Halt { core: c });
        }
    }

    fn apply_intent<T: TraceCtx>(
        &mut self,
        c: u32,
        intent: MemIntent,
        now: u64,
        trace: &mut T,
    ) -> Result<(), SimError> {
        let i = c as usize;
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
                self.push_request(c, MemRequest::Load { addr: addr & !3 }, trace);
                Ok(())
            }
            MemIntent::Store { addr, value, width } => {
                if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
                    self.cores[i].pc += 4;
                    self.mmio_write(c, addr - MMIO_BASE, value, now, trace);
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
                self.push_request(c, req, trace);
                Ok(())
            }
        }
    }

    /// Marks a core parked on a blocking operation, remembering the cause
    /// for the later wake event. The cause is recorded unconditionally so
    /// that machine state (and hence snapshots) does not depend on whether
    /// tracing is enabled; only the event emission is gated.
    fn emit_park<T: TraceCtx>(&mut self, c: u32, kind: OpKind, trace: &mut T) {
        self.park_kind[c as usize] = kind;
        if T::ENABLED {
            trace.emit(|| TraceEvent::Park {
                core: c,
                cause: kind,
            });
        }
    }

    fn push_request<T: TraceCtx>(&mut self, c: u32, req: MemRequest, trace: &mut T) {
        let wakeup = self.qnodes[c as usize].on_core_request(&req);
        let bank = self.bank_of(req.addr());
        trace.emit(|| TraceEvent::ReqSent {
            core: c,
            bank,
            kind: req_kind(&req),
        });
        self.push_outbox(c, ReqMsg { src: c, bank, req });
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
            );
        }
    }

    /// Queues a request on the core's own outbox, recording the empty →
    /// non-empty transition for the fast-mode Phase 5 merge.
    fn push_outbox(&mut self, c: u32, msg: ReqMsg) {
        let i = c as usize;
        if self.track_dirty && self.core_outbox[i].is_empty() {
            self.new_dirty_cores.push(c);
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
        trace: &mut T,
    ) {
        let i = c as usize;
        match offset {
            mmio_reg::EXIT => self.halt_core(c, trace),
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
                // once per cycle in the machine's sub-phase after the walk,
                // so it charges every released core identically regardless
                // of visit order.
                self.cores[i].state = CoreState::Barrier;
                self.cores[i].parked_at = now;
                *self.barrier_waiting += 1;
                trace.emit(|| TraceEvent::BarrierArrive { core: c });
            }
            mmio_reg::PRINT => self.debug_log.push((now, c, value)),
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
