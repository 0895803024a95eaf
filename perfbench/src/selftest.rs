//! The benchmark's self-test: `verify::verify` on scaled-down copies of
//! the three workloads (too slow on the full sizes to run per run), plus
//! checks on the measuring machinery itself.

use std::sync::Arc;

use netdecomp_core::distributed::DistributedConfig;
use netdecomp_core::verify;
use netdecomp_sim::frame::LoopbackTransport;
use netdecomp_sim::Transport;

use crate::measure::{accept, CONGEST_BUDGET};
use crate::spans::{traced_factory, Recorder, TransportTally};
use crate::workload::{EngineKind, Workload, SHARDS};
use crate::{result_line, Metric, Outcome, INPUT_SEED};

/// Every side of the full-size workloads divided by this.
const SHRINK: usize = 10;

#[test]
fn scaled_workloads_meet_the_theorems_on_every_engine() {
    for workload in Workload::ALL {
        let instance = workload.scaled(INPUT_SEED, SHRINK);
        let central = instance.central().expect("centralized run");
        let (mut first, mut counts) = (None, None);
        for kind in EngineKind::ALL {
            let result = instance.distributed(&kind.config());
            accept(&central, result, &mut first, &mut counts)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name(), kind.name()));
        }
        let counts = counts.expect("four engines ran");
        assert!(counts.max_edge_bytes <= CONGEST_BUDGET);
        let bounds = instance.bounds();
        let report = verify::verify(&instance.graph, central.decomposition()).expect("verify");
        println!(
            "{}/{SHRINK}: n={} strong_diameter={:?} (bound {}) colors={} (bound {}) \
             rounds={} (bound {}) clean={}",
            workload.name(),
            instance.graph.vertex_count(),
            report.max_strong_diameter,
            bounds.diameter,
            report.color_count,
            bounds.colors,
            counts.rounds,
            bounds.rounds,
            central.events().clean(),
        );
        assert!(report.complete, "{}", workload.name());
        assert!(report.clusters_connected, "{}", workload.name());
        assert!(report.supergraph_properly_colored, "{}", workload.name());
        if central.events().clean() {
            assert!(
                report.is_valid_strong(bounds.diameter),
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn inputs_depend_only_on_the_input_seed() {
    let a = Workload::Thm1Reg8.scaled(INPUT_SEED, SHRINK);
    let b = Workload::Thm1Reg8.scaled(INPUT_SEED, SHRINK);
    let c = Workload::Thm1Reg8.scaled(INPUT_SEED + 1, SHRINK);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.algo_seed, b.algo_seed);
    assert_ne!(a.graph, c.graph);
    assert_ne!(a.algo_seed, c.algo_seed);
}

#[test]
fn traced_factory_spans_every_phase_and_counts_every_frame() {
    fn loopback(shards: usize) -> Box<dyn Transport> {
        Box::new(LoopbackTransport::new(shards))
    }
    let instance = Workload::Thm1Grid.scaled(INPUT_SEED, SHRINK);
    let rec = Recorder::new();
    let tally = Arc::new(TransportTally::default());
    let (run, _) = rec.span("decompose.framed", None, |id| {
        let (factory, finish) = traced_factory(&rec, id, &tally, loopback);
        let config = DistributedConfig {
            engine: EngineKind::Framed.engine(),
            transport: Some(factory),
            ..DistributedConfig::default()
        };
        let run = instance.distributed(&config).expect("traced run");
        finish();
        run
    });
    let totals = tally.totals();
    let phases = run.outcome.phases_used();
    assert_eq!(totals.builds as usize, phases);
    assert_eq!(totals.frames as usize, run.comm.rounds * SHARDS * SHARDS);
    // Every frame carries at least the 32-byte v2 header.
    assert!(totals.frame_bytes >= 32 * totals.frames);
    let jsonl = rec.to_jsonl();
    let count = |name: &str| jsonl.matches(&format!("\"name\":\"{name}\"")).count();
    assert_eq!(count("phase"), phases);
    assert_eq!(count("transport.build"), phases);
    assert_eq!(count("decompose.framed"), 1);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let outcome = Outcome {
        attempted: 5,
        failed: 0,
        metrics: vec![
            Metric::new("seq_cpu_s", 1.25, "s"),
            Metric::new("rounds", 338.0, "count"),
        ],
    };
    assert_eq!(
        result_line(&outcome),
        "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
         {\"seq_cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
         \"rounds\": {\"value\": 338.0, \"unit\": \"count\"}}}"
    );
}
