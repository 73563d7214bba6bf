//! The correctness gate, metric records, provenance and the JSON lines
//! the benchmark prints.

use std::fmt::Write as _;
use std::process::Command;

use lrscwait_sim::{Machine, SimConfig, SimStats};

use crate::workloads::Rep;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Counts attempted and failed repetitions, and holds every repetition
/// to the first one's cycle count and full `SimStats`.
#[derive(Default)]
pub struct Gate {
    reference: Option<(u64, SimStats)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Admits a repetition that verified and matches the reference; counts
    /// and reports anything else as a failure.
    pub fn admit(
        &mut self,
        what: &str,
        outcome: Result<(Rep, Machine), String>,
    ) -> Option<(Rep, Machine)> {
        self.attempted += 1;
        let error = match outcome {
            Ok((rep, machine)) => match &self.reference {
                None => {
                    self.reference = Some((rep.cycles, rep.stats.clone()));
                    return Some((rep, machine));
                }
                Some((cycles, stats)) if *cycles == rep.cycles && *stats == rep.stats => {
                    return Some((rep, machine));
                }
                Some((cycles, _)) => format!(
                    "result differs from the first repetition ({} vs {cycles} cycles, or SimStats)",
                    rep.cycles
                ),
            },
            Err(e) => e,
        };
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {error}");
        None
    }

    /// Counts a failed check that is not a repetition of its own.
    pub fn fail(&mut self, what: &str, error: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {error}");
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints each metric as a readable line on stdout.
pub fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload:>12}  {:<40} {:>18} {}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.ok(),
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

fn command_line(program: &str, args: &[&str], env: &[(&str, String)]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result was produced, as one JSON object. The exec
/// mode and shard count are the ones `SimConfig::builder()` resolved.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, cfg: &SimConfig) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"], &[]).unwrap_or_else(|| "unknown".to_string());
    // Look for a repository in the working directory only, never above it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let commit = command_line(
        "git",
        &["rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", ceiling)],
    )
    .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \
         \"profile\": {}, \"exec_mode\": {}, \"shards\": {}}}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        json_str(profile),
        json_str(&format!("{:?}", cfg.exec_mode)),
        cfg.shards
    )
}
