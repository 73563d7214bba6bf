//! The repository's benchmark of record.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lrsc_retry --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (see `workloads.rs` and `README.md`) in closed batch:
//! one simulation at a time, repeated until `--seconds` have passed. With
//! `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-crate metrics of a profiled and traced run. Every repetition is
//! verified and must reproduce the first one's cycles and `SimStats`
//! exactly. Host time is converted to reference seconds (`probe.rs`), so
//! that runs made while the host is busy stay comparable. Readable lines
//! go to stdout, then a provenance record, then the result as one JSON
//! line; the exit code is non-zero when any check failed.

mod layers;
mod probe;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use lrscwait_model::EnergyParams;

use probe::Probe;
use report::{median, Gate, Metric};
use workloads::{Instrument, Spec, NAMES};

/// Set-ups timed after each repetition for `setup_s`, the median of all.
const SETUPS_PER_REP: usize = 8;

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required ({})", NAMES.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end metrics: untraced repetitions for `seconds`, then one
/// traced repetition that must reproduce them.
fn end_to_end(spec: &Spec, seconds: f64, probe: &mut Probe, gate: &mut Gate) -> Vec<Metric> {
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let Some((rep, _)) = gate.admit("repetition", spec.run(Instrument::Off, probe)) else {
            return Vec::new();
        };
        rates.push(rep.mcycles_per_s());
        // Set-ups run back to back, each on the caches the last one left,
        // and take the repetition's conversion to reference seconds.
        // Spreading them over the run samples the host as it drifts.
        for _ in 0..SETUPS_PER_REP {
            match spec.setup() {
                Ok((_, host_s)) => setups.push(host_s * rep.factor),
                Err(e) => {
                    gate.attempted += 1;
                    gate.fail("set-up", &e);
                    return Vec::new();
                }
            }
        }
        last = Some(rep);
    }
    let traced = spec.run(
        Instrument::Traced(Box::new(lrscwait_trace::NullSink)),
        probe,
    );
    if gate.admit("traced repetition", traced).is_none() {
        return Vec::new();
    }
    let rep = last.expect("at least one repetition ran");
    let ops_per_cycle = rep.stats.throughput().expect("checked in Spec::run");
    let energy = EnergyParams::default().evaluate(&rep.stats, rep.cycles);
    eprintln!(
        "perfbench: {}: {} repetitions of {} cycles, {} ops",
        spec.name,
        rates.len(),
        rep.cycles,
        rep.stats.total_ops()
    );
    vec![
        Metric::new("sim_mcycles_per_s", median(&rates), "Mcycles/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", report::peak_rss_mb() - probe::TABLE_MB, "MB"),
        Metric::new("guest_ops_per_kcycle", ops_per_cycle * 1e3, "ops/kcycle"),
        Metric::new("guest_pj_per_op", energy.pj_per_op, "pJ/op"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::new(&args.workload) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The kernels seed their generators from hart ids and take no seed,
    // so the seed only labels the record (see README.md).
    let provenance = report::provenance(spec.name, args.seed, args.seconds, args.trace, &spec.cfg);
    let mut gate = Gate::default();
    let mut probe = Probe::new();
    let seconds = args.seconds as f64;
    let metrics = if args.trace {
        layers::run(&spec, seconds, &mut probe, &mut gate)
    } else {
        end_to_end(&spec, seconds, &mut probe, &mut gate)
    };
    report::print_table(spec.name, &metrics);
    println!(
        "{:>12}  {:<40} {:>18} frac",
        spec.name,
        "failed_frac",
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    println!("{provenance}");
    println!("{}", report::result_line(&gate, &metrics));
    if gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
