//! The traced run: per-layer metrics, measured by timing calls into each
//! layer's public functions from outside the program.
//!
//! Layers and the spans that time them:
//!
//! - `graph`: `graph.generate` (workload set-up), `graph.cut_edges`.
//! - `core`: `core.central` (the centralized reference), `core.shift` (one
//!   phase of `ShiftSource::shift` over all vertices), `core.carve_phase0`
//!   (`carve::carve_phase` on the full graph).
//! - `sim`: `sim.plan` (`ShardPlan` + `RouteIndex`), `sim.build.<engine>`
//!   (`Simulator::new(..).with_engine(..)` with an idle protocol),
//!   `decompose.<engine>` (a whole distributed decomposition).
//! - transport: under `decompose.framed` and `decompose.socket`, one
//!   `phase` span per `TransportFactory::build` call, each with a
//!   `transport.build` child; `send`/`collect` are counted and timed by the
//!   wrapper, not spanned.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netdecomp_core::carve;
use netdecomp_core::distributed::DistributedConfig;
use netdecomp_core::shift::ShiftSource;
use netdecomp_graph::{Graph, VertexSet};
use netdecomp_sim::frame::LoopbackTransport;
use netdecomp_sim::{
    Ctx, Inbox, Outbox, Protocol, RouteIndex, RunStats, ShardPlan, Simulator, SocketTransport,
    Transport,
};

use crate::measure::{accept, time_central, Counts, Tally};
use crate::spans::{traced_factory, MakeTransport, Recorder, TransportTally};
use crate::workload::{EngineKind, Workload, SHARDS};
use crate::{median, Metric, Outcome};

/// Repetitions of each short layer call (shift, carve, plan, build).
const LAYER_REPS: usize = 5;

/// A protocol that never sends: prices simulator construction alone.
#[derive(Debug)]
struct Idle;

impl Protocol for Idle {
    fn start(&mut self, _: &Ctx<'_>, _: &mut Outbox) {}
    fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox) {}
}

/// Edges whose endpoints fall in different shards of the 2-shard
/// degree-balanced plan.
fn cut_edges(graph: &Graph) -> usize {
    let plan = ShardPlan::degree_balanced(graph, SHARDS);
    (0..graph.vertex_count())
        .map(|u| {
            graph
                .neighbors(u)
                .iter()
                .filter(|&&v| u < v && plan.shard_of(u) != plan.shard_of(v))
                .count()
        })
        .sum()
}

/// Median seconds of `LAYER_REPS` spans named `name` around `f`.
fn repeat<T>(rec: &Recorder, name: &str, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let (out, secs) = rec.span(name, None, |_| f());
            drop(out);
            secs
        })
        .collect();
    median(&times)
}

fn loopback(shards: usize) -> Box<dyn Transport> {
    Box::new(LoopbackTransport::new(shards))
}

fn unix_mesh(shards: usize) -> Box<dyn Transport> {
    Box::new(SocketTransport::unix_mesh(shards))
}

/// Runs the traced measurement.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let rec = Recorder::new();
    let (instance, _) = rec.span("graph.generate", None, |_| workload.instance(seed));
    let graph = &instance.graph;
    let n = graph.vertex_count();
    let (cut, _) = rec.span("graph.cut_edges", None, |_| cut_edges(graph));

    let source =
        ShiftSource::new(instance.algo_seed, instance.beta()).map_err(|e| e.to_string())?;
    let shifts: Vec<f64> = (0..n).map(|v| source.shift(0, v)).collect();
    let shift_s = repeat(&rec, "core.shift", || {
        (0..n).map(|v| source.shift(0, v)).collect::<Vec<f64>>()
    });
    let full = VertexSet::full(n);
    let cap = instance.bounds().radius_cap;
    let carve_s = repeat(&rec, "core.carve_phase0", || {
        carve::carve_phase(graph, &full, &shifts, cap)
    });
    let plan_s = repeat(&rec, "sim.plan", || {
        RouteIndex::new(graph, &ShardPlan::degree_balanced(graph, SHARDS))
    });
    let build_s: Vec<f64> = EngineKind::ALL
        .iter()
        .map(|kind| {
            let name = format!("sim.build.{}", kind.name());
            repeat(&rec, &name, || {
                Simulator::new(graph, |_, _| Idle).with_engine(kind.engine())
            })
        })
        .collect();

    let tallies = [
        Arc::new(TransportTally::default()),
        Arc::new(TransportTally::default()),
    ];
    let mut tally = Tally::default();
    let mut central_times = Vec::new();
    let mut traced_times: [Vec<f64>; 4] = Default::default();
    let mut untraced_framed = Vec::new();
    let mut counts: Option<Counts> = None;
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        let iter_start = Instant::now();
        let (central, _) = rec.span("core.central", None, |_| {
            time_central(&instance, &mut tally, &mut central_times)
        });
        let central = central.ok_or("the centralized reference failed")?;
        let mut first: Option<RunStats> = None;
        for (kind, times) in EngineKind::ALL.into_iter().zip(traced_times.iter_mut()) {
            let name = format!("decompose.{}", kind.name());
            let (result, secs) = rec.span(&name, None, |id| {
                let (make, tally): (MakeTransport, _) = match kind {
                    EngineKind::Seq | EngineKind::Parallel => {
                        return instance.distributed(&kind.config());
                    }
                    EngineKind::Framed => (loopback, &tallies[0]),
                    EngineKind::Socket => (unix_mesh, &tallies[1]),
                };
                let (factory, finish) = traced_factory(&rec, id, tally, make);
                // The socket transport comes from the factory, so the
                // engine's own (discarded) transport is the cheap loopback.
                let config = DistributedConfig {
                    engine: EngineKind::Framed.engine(),
                    transport: Some(factory),
                    ..DistributedConfig::default()
                };
                let result = instance.distributed(&config);
                finish();
                result
            });
            if tally.record(&name, accept(&central, result, &mut first, &mut counts)) {
                times.push(secs);
            }
        }
        let t = Instant::now();
        let result = instance.distributed(&EngineKind::Framed.config());
        let secs = t.elapsed().as_secs_f64();
        if tally.record(
            "untraced framed",
            accept(&central, result, &mut first, &mut counts),
        ) {
            untraced_framed.push(secs);
        }
        iters += 1;
        if start.elapsed() + iter_start.elapsed() > seconds {
            break;
        }
    }
    let counts = counts.ok_or("no engine produced a checked decomposition")?;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(path).map_err(|e| format!("{path}: {e}"))?;
    let file = format!("{path}/trace-{}-seed{seed}.jsonl", workload.name());
    std::fs::write(&file, rec.to_jsonl()).map_err(|e| format!("{file}: {e}"))?;
    println!("spans: {file}");

    let central_wall: Vec<f64> = central_times.iter().map(|s| s.wall).collect();
    let phases = counts.phases as f64;
    let rounds = counts.rounds as f64;
    let engine_s: Vec<f64> = traced_times.iter().map(|t| median(t)).collect();
    let mut metrics = vec![
        Metric::new("graph.cut_edges", cut as f64, "count"),
        Metric::new("core.phases", phases, "count"),
        Metric::new(
            "core.alive_vertex_phases",
            counts.alive_vertex_phases as f64,
            "count",
        ),
        Metric::new(
            "core.central_ms_per_phase",
            median(&central_wall) * 1e3 / phases,
            "ms",
        ),
        Metric::new("core.shift_ms", shift_s * 1e3, "ms"),
        Metric::new("core.carve_phase0_ms", carve_s * 1e3, "ms"),
        Metric::new("sim.plan_ms", plan_s * 1e3, "ms"),
    ];
    for (kind, b) in EngineKind::ALL.iter().zip(&build_s) {
        metrics.push(Metric::new(
            format!("sim.build_ms.{}", kind.name()),
            b * 1e3,
            "ms",
        ));
    }
    for (kind, (b, e)) in EngineKind::ALL.iter().zip(build_s.iter().zip(&engine_s)) {
        if *kind != EngineKind::Seq {
            metrics.push(Metric::new(
                format!("sim.build_share.{}", kind.name()),
                phases * b / e,
                "ratio",
            ));
        }
    }
    for (kind, (b, e)) in EngineKind::ALL.iter().zip(build_s.iter().zip(&engine_s)) {
        metrics.push(Metric::new(
            format!("sim.round_us.{}", kind.name()),
            (e - phases * b) / rounds * 1e6,
            "us",
        ));
    }
    metrics.push(Metric::new(
        "sim.active_rounds",
        counts.active_rounds as f64,
        "count",
    ));
    let per_run = f64::from(iters);
    let totals = tallies.each_ref().map(|t| t.totals());
    for (name, t) in ["framed", "socket"].iter().zip(&totals) {
        metrics.extend([
            Metric::new(
                format!("transport.frames.{name}"),
                t.frames as f64 / per_run,
                "count",
            ),
            Metric::new(
                format!("transport.frame_bytes.{name}"),
                t.frame_bytes as f64 / per_run,
                "B",
            ),
            Metric::new(format!("transport.send_s.{name}"), t.send_s / per_run, "s"),
            Metric::new(
                format!("transport.collect_s.{name}"),
                t.collect_s / per_run,
                "s",
            ),
        ]);
    }
    metrics.push(Metric::new(
        "transport.build_ms.socket",
        totals[1].build_s * 1e3 / totals[1].builds.max(1) as f64,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.overhead",
        engine_s[2] / median(&untraced_framed),
        "ratio",
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
