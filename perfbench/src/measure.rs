//! The untraced run: end-to-end metrics, with tracing off.
//!
//! Every call is timed by the wall clock and by the CPU time of the whole
//! process (all threads). The reported times are CPU times, each scaled by
//! the reference computation of [`crate::candle`] timed on the same CPUs
//! just before and just after the call: on a shared 2-vCPU machine a
//! threaded engine's wall-clock time mostly measures when the scheduler
//! hands back the second vCPU, and every time moves with the machine's
//! speed, which changes over seconds. Wall-clock and unscaled medians are
//! printed in the table above the result line.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netdecomp_core::distributed::DistributedRun;
use netdecomp_core::{DecompError, DecompositionOutcome};
use netdecomp_sim::RunStats;

use crate::affinity;
use crate::candle::{Candle, REFERENCE_S};
use crate::workload::{EngineKind, Instance, Workload, THREADS};
use crate::{median, peak_rss_mb, process_cpu_s, reset_peak_rss, Metric, Outcome};

/// A run times at least this many iterations, however long they take.
pub const MIN_ITERS: usize = 3;
/// Set-up is repeated at least this many times...
const SETUP_MIN_REPS: usize = 9;
/// ...and for at least this long, after one untimed warm-up build.
const SETUP_MIN_S: f64 = 1.0;
/// Seconds of set-up between two timings of the reference computation.
const SETUP_BATCH_S: f64 = 0.1;
/// The centralized reference is repeated within an iteration until its
/// timed calls add up to this long.
const CENTRAL_MIN_S: f64 = 0.3;
/// The TopTwo CONGEST budget: two 14-byte entries per edge per round.
pub const CONGEST_BUDGET: usize = 28;

/// Builds the instance repeatedly in batches of about [`SETUP_BATCH_S`]
/// between timings of the reference; returns the last instance and the
/// builds' timing.
fn setup(workload: Workload, seed: u64, meter: &mut Meter) -> (Instance, Timing) {
    drop(black_box(workload.instance(seed)));
    let mut timing = Timing::default();
    let mut batch = Vec::new();
    let start = Instant::now();
    loop {
        let before = meter.before(On::One);
        let batch_start = Instant::now();
        let instance = loop {
            let (instance, sample) = timed(|| {
                let instance = workload.instance(seed);
                black_box((instance.bounds(), instance.beta()));
                instance
            });
            batch.push(sample);
            if batch_start.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break instance;
            }
        };
        timing.record(&batch, before, meter.after(On::One));
        batch.clear();
        if timing.cpu.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return (instance, timing);
        }
    }
}

/// The exact counts a decomposition produces; equal on every engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// Simulator rounds over all phases.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Payload bytes delivered.
    pub payload_bytes: usize,
    /// Largest per-edge load in any round, in bytes.
    pub max_edge_bytes: usize,
    /// Rounds in which at least one message was delivered.
    pub active_rounds: usize,
    /// Blocks (colours).
    pub colors: usize,
    /// Clusters.
    pub clusters: usize,
    /// Phases the phase loop ran.
    pub phases: usize,
    /// Sum over phases of the vertices alive when the phase began.
    pub alive_vertex_phases: usize,
}

impl Counts {
    pub fn of(central: &DecompositionOutcome, comm: &RunStats) -> Counts {
        Counts {
            rounds: comm.rounds,
            messages: comm.total_messages,
            payload_bytes: comm.total_bytes,
            max_edge_bytes: comm.max_edge_bytes,
            active_rounds: comm.per_round.iter().filter(|r| r.messages > 0).count(),
            colors: central.decomposition().block_count(),
            clusters: central.decomposition().cluster_count(),
            phases: central.phases_used(),
            alive_vertex_phases: central.trace().iter().map(|t| t.alive_before).sum(),
        }
    }
}

/// Checks one distributed run against the centralized outcome and, when
/// given, the communication bill of the first engine.
fn check(
    central: &DecompositionOutcome,
    run: &DistributedRun,
    first: Option<&RunStats>,
) -> Result<(), String> {
    if &run.outcome != central {
        return Err("outcome differs from the centralized reference".into());
    }
    if let Some(first) = first {
        if &run.comm != first {
            return Err("communication bill differs between engines".into());
        }
    }
    if !central.decomposition().partition().is_complete() {
        return Err("partition is incomplete".into());
    }
    if run.comm.max_edge_bytes > CONGEST_BUDGET {
        return Err(format!(
            "max_edge_bytes {} exceeds the {CONGEST_BUDGET}-byte budget",
            run.comm.max_edge_bytes
        ));
    }
    Ok(())
}

/// Checks one engine's result of an iteration. The first engine's bill
/// becomes the iteration's reference (`first`), and its counts must equal
/// every earlier iteration's (`counts`).
pub fn accept(
    central: &DecompositionOutcome,
    result: Result<DistributedRun, DecompError>,
    first: &mut Option<RunStats>,
    counts: &mut Option<Counts>,
) -> Result<(), String> {
    let run = result.map_err(|e| e.to_string())?;
    check(central, &run, first.as_ref())?;
    if first.is_none() {
        let c = Counts::of(central, &run.comm);
        if counts.as_ref().is_some_and(|old| old != &c) {
            return Err("counts changed between iterations".into());
        }
        *counts = Some(c);
        *first = Some(run.comm);
    }
    Ok(())
}

/// Tallies attempts and failures, logging each failure to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Decompositions attempted.
    pub attempted: u64,
    /// Decompositions that errored or broke a check.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed: {what}: {e}");
                false
            }
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of the whole process, all threads together.
    pub cpu: f64,
}

/// Where a timed call runs, and so where the reference is timed around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum On {
    /// The first allowed CPU: the single-threaded calls.
    One,
    /// The first two allowed CPUs: the threaded engines.
    Pair,
}

/// Pins the calling thread for each timed call and times the reference
/// computation on the same CPUs around it.
///
/// The vCPUs of a shared virtual machine do not run at the same speed, so
/// the single-threaded calls run pinned to one CPU, and a threaded
/// engine's reference is the mean of a timing on each CPU of the pair.
#[derive(Debug)]
struct Meter {
    candle: Candle,
    all: Vec<usize>,
    one: Vec<usize>,
    other: Vec<usize>,
    pair: Vec<usize>,
    /// The last reference timing and where it was taken; the thread is
    /// still pinned there.
    last: Option<(On, f64)>,
    /// Every reference timing on a single CPU, in CPU seconds.
    timings: Vec<f64>,
}

impl Meter {
    fn new() -> Meter {
        let all = affinity::allowed();
        let pair = all[..all.len().min(THREADS)].to_vec();
        let (one, other) = (vec![pair[0]], vec![pair[pair.len() - 1]]);
        affinity::pin(&one);
        Meter {
            candle: Candle::new(),
            all,
            one,
            other,
            pair,
            last: None,
            timings: Vec::new(),
        }
    }

    /// Times the reference where calls `on` run and leaves the thread
    /// pinned for them.
    fn after(&mut self, on: On) -> f64 {
        affinity::pin(&self.one);
        let mut secs = self.candle.time();
        self.timings.push(secs);
        if on == On::Pair {
            affinity::pin(&self.other);
            let other = self.candle.time();
            self.timings.push(other);
            secs = (secs + other) / 2.0;
            affinity::pin(&self.pair);
        }
        self.last = Some((on, secs));
        secs
    }

    /// The reference timing just before a call `on`: the last one when it
    /// was taken there, else a fresh one.
    fn before(&mut self, on: On) -> f64 {
        match self.last {
            Some((last, secs)) if last == on => secs,
            _ => self.after(on),
        }
    }

    /// Lets the thread run on every CPU it was allowed at the start.
    fn release(&self) {
        affinity::pin(&self.all);
    }
}

/// The calls of one metric: wall-clock and CPU seconds as measured, and
/// CPU seconds scaled to a machine on which the reference takes
/// [`REFERENCE_S`].
#[derive(Debug, Default)]
struct Timing {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timing {
    /// Records calls made between reference timings `before` and `after`.
    fn record(&mut self, samples: &[Sample], before: f64, after: f64) {
        let speed = REFERENCE_S / ((before + after) / 2.0);
        for s in samples {
            self.wall.push(s.wall);
            self.cpu.push(s.cpu);
            self.scaled.push(s.cpu * speed);
        }
    }
}

/// Runs `f`, timing it by the wall clock and by process CPU time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu = process_cpu_s();
    let wall = Instant::now();
    let out = f();
    let wall = wall.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu;
    (out, Sample { wall, cpu })
}

/// Times the centralized reference until its calls add up to
/// [`CENTRAL_MIN_S`]; returns the last outcome. The first call only warms
/// the caches the engines' calls left cold: it is counted, not timed.
pub fn time_central(
    instance: &Instance,
    tally: &mut Tally,
    samples: &mut Vec<Sample>,
) -> Option<DecompositionOutcome> {
    let mut spent = 0.0;
    let mut last = None;
    while spent < CENTRAL_MIN_S {
        let (result, sample) = timed(|| instance.central());
        match result {
            Ok(outcome) => {
                tally.record("central", Ok(()));
                if last.is_some() {
                    spent += sample.wall;
                    samples.push(sample);
                }
                last = Some(outcome);
            }
            Err(e) => {
                tally.record("central", Err(e.to_string()));
                return None;
            }
        }
    }
    last
}

/// Prints a timing's sample count, median and range.
pub fn describe(name: &str, samples: &[f64]) {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    print!(
        "  {name:<28} n={:<4} median={:.6} min={lo:.6} max={hi:.6}",
        samples.len(),
        median(samples)
    );
    if samples.len() <= 16 {
        let all: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        print!(" samples=[{}]", all.join(" "));
    }
    println!();
}

/// Runs the end-to-end measurement.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let mut meter = Meter::new();
    let (instance, setup) = setup(workload, seed, &mut meter);
    let mut tally = Tally::default();
    let mut central = Timing::default();
    let mut engines: [Timing; 4] = Default::default();
    let mut batch = Vec::new();
    let mut counts: Option<Counts> = None;
    let start = Instant::now();
    let mut iters = 0;
    let mut peak_rss = Vec::new();
    loop {
        let iter_start = Instant::now();
        reset_peak_rss();
        let before = meter.before(On::One);
        let Some(outcome) = time_central(&instance, &mut tally, &mut batch) else {
            return Err("the centralized reference failed".into());
        };
        central.record(&batch, before, meter.after(On::One));
        batch.clear();
        let mut first: Option<RunStats> = None;
        for (kind, timing) in EngineKind::ALL.into_iter().zip(engines.iter_mut()) {
            let on = match kind {
                EngineKind::Seq => On::One,
                _ => On::Pair,
            };
            let before = meter.before(on);
            let (result, sample) = timed(|| instance.distributed(&kind.config()));
            let after = meter.after(on);
            if tally.record(
                kind.name(),
                accept(&outcome, result, &mut first, &mut counts),
            ) {
                timing.record(&[sample], before, after);
            }
        }
        peak_rss.push(peak_rss_mb());
        iters += 1;
        let last_iter = iter_start.elapsed();
        if iters >= MIN_ITERS && start.elapsed() + last_iter > seconds {
            break;
        }
    }
    meter.release();
    let counts = counts.ok_or("no engine produced a checked decomposition")?;
    let bounds = instance.bounds();
    println!(
        "{}: n={} iterations={iters} phases={} rounds={} (bound {}) colors={} (bound {}) \
         clusters={} diameter_bound={} radius_cap={}",
        workload.name(),
        instance.graph.vertex_count(),
        counts.phases,
        counts.rounds,
        bounds.rounds,
        counts.colors,
        bounds.colors,
        counts.clusters,
        bounds.diameter,
        bounds.radius_cap,
    );
    describe("reference_cpu_s", &meter.timings);
    let [seq, parallel, framed, socket] = &engines;
    let timings = [
        ("setup_s", &setup),
        ("central_cpu_s", &central),
        ("seq_cpu_s", seq),
        ("parallel_cpu_s", parallel),
        ("framed_cpu_s", framed),
        ("socket_cpu_s", socket),
    ];
    let mut metrics = Vec::new();
    for (name, timing) in timings {
        describe(&format!("{name} wall"), &timing.wall);
        describe(&format!("{name} unscaled"), &timing.cpu);
        describe(name, &timing.scaled);
        metrics.push(Metric::new(name, median(&timing.scaled), "s"));
    }
    metrics.extend([
        Metric::new("rounds", counts.rounds as f64, "count"),
        Metric::new("messages", counts.messages as f64, "count"),
        Metric::new("payload_bytes", counts.payload_bytes as f64, "B"),
        Metric::new("max_edge_bytes", counts.max_edge_bytes as f64, "B"),
        Metric::new("colors", counts.colors as f64, "count"),
        Metric::new("clusters", counts.clusters as f64, "count"),
        Metric::new("peak_rss_mb", median(&peak_rss), "MiB"),
    ]);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
