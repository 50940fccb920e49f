//! End-to-end and per-layer benchmark of the ccAI reproduction.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <model_load|interactive|fleet_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; every op's output is checked.
//! The run prints a human-readable report, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set (host wall-clock
//! figures measured with tracing off, next to virtual-time figures that
//! repeat exactly for a seed); with `--trace 1` they are the per-layer
//! set from a traced run (see [`trace`]). The gated host
//! figures are calibrated against a reference kernel timed between ops,
//! so they follow the program rather than the shared machine's speed
//! (see [`calib`]); raw wall times are printed next to them.
//!
//! The benchmark itself runs on one thread. The Adaptor seals transfers
//! of 256 KiB and more on its own scoped crypto lanes, as the program
//! does in production.

mod calib;
mod datapath;
mod fleet;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads (`BENCHMARK.json` records why each exists).
pub const WORKLOADS: [&str; 3] = ["model_load", "interactive", "fleet_sweep"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back for the final JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed (or that returned an error).
    pub failed: u64,
    /// Run-level checks (no SC alert, no quarantine, request
    /// conservation, same-seed determinism).
    pub checks_passed: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Appends one metric; every metric is a finite number the program
    /// produced.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} = {value} is not a finite figure");
        self.metrics.push((name, value, unit));
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Groups the set-up estimate is the median over.
pub const SETUP_GROUPS: usize = 5;

/// The run's set-up time from set-up samples taken across the whole
/// run, in time order: sample `i` joins group `i % SETUP_GROUPS`, and the
/// estimate is the median of the group means. Each group then spans the
/// run, so the estimate follows the run's mix of fast and slow machine
/// periods smoothly instead of jumping to whichever period a cluster of
/// set-ups happened to land in.
pub fn setup_estimate(samples: &[f64]) -> f64 {
    let means: Vec<f64> = (0..SETUP_GROUPS.min(samples.len()))
        .map(|g| {
            let group: Vec<f64> = samples
                .iter()
                .skip(g)
                .step_by(SETUP_GROUPS)
                .copied()
                .collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

/// Times `f` `reps` times and returns the median wall time in seconds,
/// plus the value of the last call.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("reps > 0"))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the span log of a traced run goes: under the build directory,
/// which stays inside the checkout and out of version control.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("perfbench/target"));
    base.join("perfbench-traces")
        .join(format!("{}-seed{}.csv", args.workload, args.seed))
}

fn json_line(outcome: &Outcome) -> String {
    let correct = outcome.checks_passed && outcome.failed == 0 && outcome.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "model_load" => datapath::model_load(&args),
        "interactive" => datapath::interactive(&args),
        "fleet_sweep" => fleet::fleet_sweep(&args),
        _ => unreachable!("parse_args validated the workload"),
    };
    if args.trace {
        let path = trace_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::span_log_csv()));
        match written {
            Ok(()) => println!("span log: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write the span log: {e}"),
        }
    }
    let failed_pct = if outcome.attempted == 0 {
        100.0
    } else {
        100.0 * outcome.failed as f64 / outcome.attempted as f64
    };
    println!(
        "failed_pct = {failed_pct} % ({} of {} ops; run-level checks {})",
        outcome.failed,
        outcome.attempted,
        if outcome.checks_passed {
            "passed"
        } else {
            "FAILED"
        }
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", json_line(&outcome));
    if outcome.attempted == 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
