//! The phase profiler: monotonic scoped timers around the simulator's
//! per-cycle sub-phases.
//!
//! The design copies the `Tracer` discipline from `crates/trace`: the
//! simulator holds a [`Profiler`] that is [`Profiler::Off`] by default,
//! every instrumentation site is a single predictable branch when off,
//! and the phase bodies themselves stay monomorphized — profiling wraps
//! them, it never specializes them. All state is host-side: simulated
//! results are bit-identical with profiling on or off.
//!
//! Timing is *sampled*: one cycle in [`ProfilerConfig::sample_every`] is
//! measured end-to-end with a timestamp laced between consecutive phases
//! (a [`CycleClock`]), so a sampled cycle pays `NUM_PHASES + 1` monotonic
//! clock reads and every other cycle pays a countdown decrement. Phase
//! *shares* converge quickly under sampling (tens of thousands of
//! sampled cycles per second at simulator speed) while keeping the
//! profiled run within a few percent of the unprofiled one.

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// Number of distinct [`Phase`]s.
pub const NUM_PHASES: usize = 9;

/// One sub-phase of `Machine::step_cycle`, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Phase 1a: `Network::advance` on the request network.
    ReqNetAdvance,
    /// Phase 1b: banks service delivered requests.
    BankService,
    /// Worklist merges after the bank service and core stepping phases:
    /// newly dirty banks into the dirty-bank list, and the walk's
    /// still-running cores and newly dirty cores into the runnable set,
    /// the ready-time calendar and the dirty-core list. (The name
    /// predates the single-threaded machine and is kept as a stable
    /// metric key.)
    CrossShardMerge,
    /// Phase 2: bank outboxes flush into the response network.
    BankFlush,
    /// Phase 3a: `Network::advance` on the response network.
    RespNetAdvance,
    /// Phase 3b: response delivery to cores through their Qnodes.
    RespDelivery,
    /// Phase 4: core stepping.
    CoreStep,
    /// Sub-phase after stepping: barrier release accounting.
    BarrierRelease,
    /// Phase 5: core outboxes flush into the request network.
    CoreFlush,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::ReqNetAdvance,
        Phase::BankService,
        Phase::CrossShardMerge,
        Phase::BankFlush,
        Phase::RespNetAdvance,
        Phase::RespDelivery,
        Phase::CoreStep,
        Phase::BarrierRelease,
        Phase::CoreFlush,
    ];

    /// Stable snake_case identifier (JSON field / Prometheus label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::ReqNetAdvance => "req_net_advance",
            Phase::BankService => "bank_service",
            Phase::CrossShardMerge => "cross_shard_merge",
            Phase::BankFlush => "bank_flush",
            Phase::RespNetAdvance => "resp_net_advance",
            Phase::RespDelivery => "resp_delivery",
            Phase::CoreStep => "core_step",
            Phase::BarrierRelease => "barrier_release",
            Phase::CoreFlush => "core_flush",
        }
    }

    /// Human-readable description naming the simulator code involved.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Phase::ReqNetAdvance => "Network::advance (request NoC)",
            Phase::BankService => "bank request service",
            Phase::CrossShardMerge => "runnable, calendar and dirty-list merges",
            Phase::BankFlush => "bank outbox flush",
            Phase::RespNetAdvance => "Network::advance (response NoC)",
            Phase::RespDelivery => "response delivery",
            Phase::CoreStep => "core stepping",
            Phase::BarrierRelease => "barrier release",
            Phase::CoreFlush => "core outbox flush",
        }
    }

    /// Looks a phase up by its [`Phase::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Profiler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerConfig {
    /// Measure one cycle in this many (1 = every cycle). The default
    /// keeps the profiled hot loop within a few percent of unprofiled
    /// throughput while still collecting tens of thousands of samples
    /// per host second.
    pub sample_every: u32,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig { sample_every: 128 }
    }
}

/// Per-cycle timestamp lace. Obtained from [`Profiler::begin_cycle`];
/// *armed* only on sampled cycles. Each [`CycleClock::lap`] attributes
/// the time since the previous timestamp to one phase, so consecutive
/// phases share a single monotonic clock read.
#[derive(Clone, Copy, Debug)]
pub struct CycleClock {
    last: Option<Instant>,
    ns: [u64; NUM_PHASES],
}

impl CycleClock {
    /// A disarmed clock: every [`lap`](CycleClock::lap) is one branch.
    #[must_use]
    pub fn idle() -> CycleClock {
        CycleClock {
            last: None,
            ns: [0; NUM_PHASES],
        }
    }

    fn armed() -> CycleClock {
        CycleClock {
            last: Some(Instant::now()),
            ns: [0; NUM_PHASES],
        }
    }

    /// Whether this cycle is being measured.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.last.is_some()
    }

    /// Attributes the time since the previous timestamp to `phase` and
    /// restarts the lap timer. One predictable branch when disarmed.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            self.ns[phase as usize] += now.duration_since(prev).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// Accumulated profiling state (the `On` payload of [`Profiler`]).
#[derive(Clone, Debug)]
pub struct ProfilerCore {
    sample_every: u32,
    countdown: u32,
    stepped_cycles: u64,
    sampled_cycles: u64,
    phase_ns: [u64; NUM_PHASES],
    sampled_ns: u64,
    wall_ns: u64,
}

/// The profiling switch the simulator holds, following the `Tracer`
/// pattern: [`Profiler::Off`] (the default) keeps every instrumentation
/// site a single predictable branch; `On` laces timestamps through
/// sampled cycles.
#[derive(Clone, Debug, Default)]
pub enum Profiler {
    /// No profiling: zero clock reads, one branch per site.
    #[default]
    Off,
    /// Profiling with the boxed accumulator state.
    On(Box<ProfilerCore>),
}

impl Profiler {
    /// An enabled profiler.
    #[must_use]
    pub fn enabled(cfg: ProfilerConfig) -> Profiler {
        let sample_every = cfg.sample_every.max(1);
        Profiler::On(Box::new(ProfilerCore {
            sample_every,
            // Sample the very first cycle so short runs still profile.
            countdown: 0,
            stepped_cycles: 0,
            sampled_cycles: 0,
            phase_ns: [0; NUM_PHASES],
            sampled_ns: 0,
            wall_ns: 0,
        }))
    }

    /// Whether profiling is off.
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self, Profiler::Off)
    }

    /// Starts a cycle: counts it and returns an armed [`CycleClock`] on
    /// sampled cycles, a disarmed one otherwise. One branch when off.
    #[inline]
    pub fn begin_cycle(&mut self) -> CycleClock {
        match self {
            Profiler::Off => CycleClock::idle(),
            Profiler::On(core) => {
                core.stepped_cycles += 1;
                if core.countdown == 0 {
                    core.countdown = core.sample_every - 1;
                    CycleClock::armed()
                } else {
                    core.countdown -= 1;
                    CycleClock::idle()
                }
            }
        }
    }

    /// Folds a finished cycle's laps into the accumulators. One branch
    /// when the clock is disarmed (and always when off).
    #[inline]
    pub fn commit(&mut self, clock: &CycleClock) {
        if clock.last.is_none() {
            return;
        }
        if let Profiler::On(core) = self {
            core.sampled_cycles += 1;
            for (total, lap) in core.phase_ns.iter_mut().zip(clock.ns.iter()) {
                *total += lap;
            }
            core.sampled_ns += clock.ns.iter().sum::<u64>();
        }
    }

    /// Adds run-loop wall time (the simulator's `run_until` charges the
    /// whole loop, so fast-forward and loop overhead are covered too).
    pub fn add_wall_ns(&mut self, ns: u64) {
        if let Profiler::On(core) = self {
            core.wall_ns += ns;
        }
    }

    /// Snapshots the accumulated profile (`None` when off).
    #[must_use]
    pub fn snapshot(&self) -> Option<PhaseProfile> {
        match self {
            Profiler::Off => None,
            Profiler::On(core) => Some(PhaseProfile {
                wall_ns: core.wall_ns,
                stepped_cycles: core.stepped_cycles,
                sampled_cycles: core.sampled_cycles,
                sample_every: core.sample_every,
                sampled_ns: core.sampled_ns,
                phases: Phase::ALL
                    .into_iter()
                    .map(|phase| PhaseStat {
                        phase,
                        ns: core.phase_ns[phase as usize],
                    })
                    .collect(),
            }),
        }
    }
}

/// One phase's accumulated sampled nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Nanoseconds spent in the phase across all sampled cycles.
    pub ns: u64,
}

/// A finished run's profile: sampled per-phase time and run-loop wall
/// time.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// Wall-clock nanoseconds inside the simulator's run loop
    /// (`Machine::run` / `run_until`), fast-forward included.
    pub wall_ns: u64,
    /// Cycles actually stepped (`step_cycle` invocations; fast-forward
    /// skips don't step).
    pub stepped_cycles: u64,
    /// Cycles measured end-to-end.
    pub sampled_cycles: u64,
    /// Sampling interval the profile was taken with.
    pub sample_every: u32,
    /// Total nanoseconds across all phases of all sampled cycles. Phase
    /// laps are contiguous, so per-phase times sum to exactly this.
    pub sampled_ns: u64,
    /// Per-phase sampled nanoseconds, in execution order.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// A phase's share of sampled step time (0 when nothing sampled).
    #[must_use]
    pub fn share(&self, phase: Phase) -> f64 {
        if self.sampled_ns == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0.0, |s| s.ns as f64 / self.sampled_ns as f64)
    }

    /// Multi-line human-readable breakdown: every phase's share of
    /// sampled step time, in execution order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Phase profile ({} sampled of {} stepped cycles):\n",
            self.sampled_cycles, self.stepped_cycles
        );
        for stat in &self.phases {
            out.push_str(&format!(
                "    {:>5.1}%  {:<17} — {}\n",
                self.share(stat.phase) * 100.0,
                stat.phase.name(),
                stat.phase.describe(),
            ));
        }
        out
    }

    /// Folds another profile into this one (profile aggregation across a
    /// sweep).
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.wall_ns += other.wall_ns;
        self.stepped_cycles += other.stepped_cycles;
        self.sampled_cycles += other.sampled_cycles;
        self.sampled_ns += other.sampled_ns;
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            debug_assert_eq!(mine.phase, theirs.phase);
            mine.ns += theirs.ns;
        }
    }

    /// Renders the profile as a deterministic-schema JSON object
    /// (`lrscwait.profile.v2`): fixed key order, phases in execution
    /// order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"lrscwait.profile.v2\",\n");
        push_kv(&mut out, 2, "wall_ns", &self.wall_ns.to_string(), true);
        push_kv(
            &mut out,
            2,
            "stepped_cycles",
            &self.stepped_cycles.to_string(),
            true,
        );
        push_kv(
            &mut out,
            2,
            "sampled_cycles",
            &self.sampled_cycles.to_string(),
            true,
        );
        push_kv(
            &mut out,
            2,
            "sample_every",
            &self.sample_every.to_string(),
            true,
        );
        push_kv(
            &mut out,
            2,
            "sampled_ns",
            &self.sampled_ns.to_string(),
            true,
        );
        out.push_str("  \"phases\": [\n");
        for (i, stat) in self.phases.iter().enumerate() {
            let sep = if i + 1 == self.phases.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"ns\": {}, \"share\": {:.6}}}{sep}\n",
                stat.phase.name(),
                stat.ns,
                self.share(stat.phase),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Exports the profile into a [`MetricsRegistry`] (counters for raw
    /// nanoseconds and cycles, gauges for shares) for Prometheus text
    /// exposition.
    #[must_use]
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("sim_run_wall_ns_total", self.wall_ns);
        reg.counter("sim_stepped_cycles_total", self.stepped_cycles);
        reg.counter("sim_sampled_cycles_total", self.sampled_cycles);
        reg.counter("sim_phase_sampled_ns_total", self.sampled_ns);
        reg.gauge("sim_profile_sample_every", f64::from(self.sample_every));
        for stat in &self.phases {
            let labels = &[("phase", stat.phase.name())];
            reg.counter_labeled("sim_phase_ns_total", labels, stat.ns);
            reg.gauge_labeled("sim_phase_share", labels, self.share(stat.phase));
        }
        reg
    }
}

fn push_kv(out: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    let pad = " ".repeat(indent);
    let sep = if comma { "," } else { "" };
    out.push_str(&format!("{pad}\"{key}\": {value}{sep}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> PhaseProfile {
        let mut profiler = Profiler::enabled(ProfilerConfig { sample_every: 1 });
        for _ in 0..4 {
            let mut clock = profiler.begin_cycle();
            assert!(clock.is_armed());
            for phase in Phase::ALL {
                clock.lap(phase);
            }
            profiler.commit(&clock);
        }
        profiler.add_wall_ns(1_000_000);
        profiler.snapshot().expect("profiler is on")
    }

    #[test]
    fn off_profiler_commits_nothing() {
        let mut profiler = Profiler::Off;
        let mut clock = profiler.begin_cycle();
        assert!(!clock.is_armed());
        clock.lap(Phase::CoreStep);
        profiler.commit(&clock);
        assert!(profiler.snapshot().is_none());
    }

    #[test]
    fn sampling_skips_cycles() {
        let mut profiler = Profiler::enabled(ProfilerConfig { sample_every: 4 });
        let mut armed = 0;
        for _ in 0..8 {
            let clock = profiler.begin_cycle();
            armed += usize::from(clock.is_armed());
            profiler.commit(&clock);
        }
        let profile = profiler.snapshot().expect("on");
        assert_eq!(profile.stepped_cycles, 8);
        assert_eq!(profile.sampled_cycles, 2);
        assert_eq!(armed, 2);
    }

    #[test]
    fn phase_laps_sum_to_sampled_ns() {
        let profile = sample_profile();
        let total: u64 = profile.phases.iter().map(|s| s.ns).sum();
        assert_eq!(total, profile.sampled_ns);
        assert_eq!(profile.sampled_cycles, 4);
        let share_sum: f64 = Phase::ALL.iter().map(|&p| profile.share(p)).sum();
        assert!(profile.sampled_ns == 0 || (share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_profile();
        let b = sample_profile();
        let cycles = a.sampled_cycles + b.sampled_cycles;
        a.merge(&b);
        assert_eq!(a.sampled_cycles, cycles);
    }

    #[test]
    fn json_has_schema_and_all_phases() {
        let json = sample_profile().to_json();
        assert!(json.contains("\"schema\": \"lrscwait.profile.v2\""));
        for phase in Phase::ALL {
            assert!(json.contains(phase.name()), "missing {}", phase.name());
        }
    }

    #[test]
    fn render_lists_every_phase() {
        let rendered = sample_profile().render();
        assert!(
            rendered.contains("4 sampled of 4 stepped cycles"),
            "{rendered}"
        );
        for phase in Phase::ALL {
            assert!(rendered.contains(phase.describe()), "{rendered}");
        }
    }

    #[test]
    fn phase_name_round_trips() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
