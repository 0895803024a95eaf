//! The three workloads: a named graph, the theorem run on it, and every
//! engine the decomposition is timed on.

use netdecomp_core::distributed::{
    decompose_distributed, decompose_distributed_high_radius, DistributedConfig, DistributedRun,
};
use netdecomp_core::params::{DecompositionParams, HighRadiusParams};
use netdecomp_core::{basic, high_radius, DecompError, DecompositionOutcome};
use netdecomp_graph::{generators, Graph};
use netdecomp_sim::{Engine, FrameTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker threads and delivery shards of every parallel engine, passed
/// explicitly so no `0` ever resolves through the environment.
pub const THREADS: usize = 2;
/// See [`THREADS`].
pub const SHARDS: usize = 2;

/// Side of both grid workloads' `grid2d`.
pub const GRID_SIDE: usize = 150;

/// Theorem 3's colour budget λ on `thm3_grid_150x150`.
const LAMBDA: usize = 4;
/// Theorem 3's confidence parameter `c` (Theorem 1's `for_graph_size`
/// uses the same value).
const C: f64 = 4.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1 on `grid2d(150, 150)`: many short phases.
    Thm1Grid,
    /// Theorem 1 on `random_regular(50000, 8)`: half the edges cross shards.
    Thm1Reg8,
    /// Theorem 3 (λ = 4) on `grid2d(150, 150)`: few long phases.
    Thm3Grid,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Thm1Grid, Workload::Thm1Reg8, Workload::Thm3Grid];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm1Grid => "thm1_grid_150x150",
            Workload::Thm1Reg8 => "thm1_reg8_50k",
            Workload::Thm3Grid => "thm3_grid_150x150",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's instance at full size.
    pub fn instance(self, seed: u64) -> Instance {
        self.scaled(seed, 1)
    }

    /// Builds the instance with every side divided by `shrink` (the
    /// self-test's small copies; `1` is the benchmarked size).
    pub fn scaled(self, seed: u64, shrink: usize) -> Instance {
        let seeds = Seeds::derive(seed);
        let graph = match self {
            Workload::Thm1Grid | Workload::Thm3Grid => {
                generators::grid2d(GRID_SIDE / shrink, GRID_SIDE / shrink)
            }
            Workload::Thm1Reg8 => {
                let mut rng = StdRng::seed_from_u64(seeds.graph);
                generators::random_regular(50_000 / (shrink * shrink), 8, &mut rng)
                    .expect("8-regular graphs on this many vertices always repair")
            }
        };
        let n = graph.vertex_count();
        let theorem = match self {
            Workload::Thm1Grid | Workload::Thm1Reg8 => {
                Theorem::One(DecompositionParams::for_graph_size(n))
            }
            Workload::Thm3Grid => {
                Theorem::Three(HighRadiusParams::new(LAMBDA, C).expect("lambda >= 1 and c > 3"))
            }
        };
        Instance {
            graph,
            theorem,
            algo_seed: seeds.algo,
        }
    }
}

/// The graph and algorithm seeds, both derived from the input seed.
struct Seeds {
    graph: u64,
    algo: u64,
}

impl Seeds {
    fn derive(seed: u64) -> Seeds {
        Seeds {
            graph: splitmix64(seed ^ 0x6772_6170_6800_0000),
            algo: splitmix64(seed ^ 0x616c_676f_0000_0000),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which theorem a workload runs, with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Theorem {
    /// Theorem 1, `k = ⌈ln n⌉`.
    One(DecompositionParams),
    /// Theorem 3, colour budget λ.
    Three(HighRadiusParams),
}

/// The bounds the theorem promises on an `n`-vertex graph.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Theorem 1/3 round bound.
    pub rounds: usize,
    /// Colour bound: `(cn)^{1/k}·ln(cn)` (Theorem 1) or λ (Theorem 3).
    pub colors: usize,
    /// Strong-diameter bound.
    pub diameter: usize,
    /// Per-phase broadcast radius cap.
    pub radius_cap: usize,
}

/// A generated graph plus everything needed to decompose it.
#[derive(Debug)]
pub struct Instance {
    /// The generated graph.
    pub graph: Graph,
    /// The theorem and its parameters.
    pub theorem: Theorem,
    /// The algorithm seed.
    pub algo_seed: u64,
}

impl Instance {
    /// The centralized reference decomposition.
    pub fn central(&self) -> Result<DecompositionOutcome, DecompError> {
        match self.theorem {
            Theorem::One(p) => basic::decompose(&self.graph, &p, self.algo_seed),
            Theorem::Three(p) => high_radius::decompose(&self.graph, &p, self.algo_seed),
        }
    }

    /// The message-passing decomposition under `config`.
    pub fn distributed(&self, config: &DistributedConfig) -> Result<DistributedRun, DecompError> {
        match self.theorem {
            Theorem::One(p) => decompose_distributed(&self.graph, &p, self.algo_seed, config),
            Theorem::Three(p) => {
                decompose_distributed_high_radius(&self.graph, &p, self.algo_seed, config)
            }
        }
    }

    /// The theorem's bounds for this graph.
    pub fn bounds(&self) -> Bounds {
        let n = self.graph.vertex_count();
        match self.theorem {
            Theorem::One(p) => Bounds {
                rounds: p.round_bound(n),
                colors: p.color_bound(n),
                diameter: p.diameter_bound(),
                radius_cap: p.radius_cap(),
            },
            Theorem::Three(p) => Bounds {
                rounds: p.round_bound(n),
                colors: p.lambda(),
                diameter: p.diameter_bound(n),
                radius_cap: p.radius_cap(n),
            },
        }
    }

    /// The per-phase exponential rate β.
    pub fn beta(&self) -> f64 {
        let n = self.graph.vertex_count();
        match self.theorem {
            Theorem::One(p) => p.beta(n),
            Theorem::Three(p) => p.beta(n),
        }
    }
}

/// The four distributed engines, each timed on every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `Engine::Sequential`.
    Seq,
    /// `Engine::Parallel{2,2}`.
    Parallel,
    /// `Engine::Framed{2,2,Loopback}`.
    Framed,
    /// `Engine::Framed{2,2,Socket}`.
    Socket,
}

impl EngineKind {
    /// Every engine, in timing order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Seq,
        EngineKind::Parallel,
        EngineKind::Framed,
        EngineKind::Socket,
    ];

    /// The suffix its metrics carry (`seq_cpu_s`, `sim.build_ms.seq`, ...).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Seq => "seq",
            EngineKind::Parallel => "parallel",
            EngineKind::Framed => "framed",
            EngineKind::Socket => "socket",
        }
    }

    /// The engine with every count explicit.
    pub fn engine(self) -> Engine {
        match self {
            EngineKind::Seq => Engine::Sequential,
            EngineKind::Parallel => Engine::Parallel {
                threads: THREADS,
                shards: SHARDS,
            },
            EngineKind::Framed => Engine::Framed {
                threads: THREADS,
                shards: SHARDS,
                transport: FrameTransport::Loopback,
            },
            EngineKind::Socket => Engine::Framed {
                threads: THREADS,
                shards: SHARDS,
                transport: FrameTransport::Socket,
            },
        }
    }

    /// An untraced distributed configuration on this engine.
    pub fn config(self) -> DistributedConfig {
        DistributedConfig {
            engine: self.engine(),
            ..DistributedConfig::default()
        }
    }
}
