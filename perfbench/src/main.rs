//! Whole-decomposition benchmark for the paper's Theorem 1 and Theorem 3.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload thm1_grid_150x150 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One run builds one workload from its input seed, then times whole
//! decompositions — the centralized reference and the message-passing run
//! on every engine — until `--seconds` have passed, checking each
//! distributed outcome against the centralized one. Its times are CPU
//! seconds scaled to a reference speed (see `measure`). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` is a separate run that splits the time
//! across the `graph`, `core`, `sim` and transport layers by timing calls
//! into their public functions, and writes its spans as JSONL under
//! `perfbench/out/`. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; the lines before it are
//! the run's configuration record and a readable table.

mod affinity;
mod candle;
mod layers;
mod measure;
#[cfg(test)]
mod selftest;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use workload::Workload;

/// The input seed every run uses unless `--input-seed` overrides it.
const INPUT_SEED: u64 = 1;
/// The held-out input seed, for confirming a claimed gain on inputs the
/// change was not tuned on.
const HELD_OUT_INPUT_SEED: u64 = 2;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    input_seed: u64,
    seconds: Duration,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--input-seed N] [--seconds S] [--trace 0|1]\n\
         --input-seed defaults to {INPUT_SEED}; {HELD_OUT_INPUT_SEED} is the held-out input seed",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut input_seed = INPUT_SEED;
    let mut seconds = 50u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--input-seed" => {
                input_seed = value
                    .parse()
                    .map_err(|_| format!("bad input seed {value}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        input_seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Removes every `NETDECOMP_*` variable, so no engine, frame format,
/// schedule, trace ring or timeout is chosen by the environment. Returns
/// the names removed. Runs before any thread is spawned.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NETDECOMP_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = std::fs::read_to_string(format!("{root}/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!("{root}/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown (not a git checkout)".to_owned(),
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Decompositions attempted.
    pub attempted: u64,
    /// Decompositions that errored or broke a check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

/// Renders an `f64` as JSON (non-finite values become `null`).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics
    )
}

fn main() -> ExitCode {
    let cleared = pin_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"config\": {{\"workload\": \"{}\", \"seed\": {}, \"input_seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"threads\": {}, \"shards\": {}, \
         \"frame_version\": {}, \"frame_cover_payload\": {}, \"framed_overlap\": true, \
         \"netdecomp_env_cleared\": {:?}, \"commit\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.input_seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        parallelism,
        workload::THREADS,
        workload::SHARDS,
        netdecomp_sim::FrameConfig::from_env().version,
        netdecomp_sim::FrameConfig::from_env().cover_payload,
        cleared,
        commit(),
    );
    let outcome = if args.trace {
        layers::run(args.workload, args.input_seed, args.seconds)
    } else {
        measure::run(args.workload, args.input_seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// CPU time this process has used so far, all its threads together, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). Time the machine gives to other
/// work while this process waits for a CPU does not count.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Sets this process's peak resident set size (`VmHWM`) back to its
/// current size. Where the kernel refuses, the peak keeps counting from
/// the start of the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
