//! The reference computation: a fixed piece of work, written in this
//! package, that is timed just before and just after every measured call
//! so a run can state how fast the machine ran during the call.
//!
//! On a shared virtual machine the same code runs at a speed that moves by
//! ±10 % over seconds and by up to a third between runs, single-threaded
//! code included. A call's time divided by the reference's time around it
//! keeps the program's own speed and drops most of the machine's. The
//! reference is shaped like the program's work (message passing on the
//! workloads' grid), because a pointer chase reacted to the machine
//! differently from the decompositions. Nothing here calls the
//! repository's crates, so a change to them cannot move the reference.

use std::hint::black_box;

use crate::process_cpu_s;

/// Side of the reference grid: the workloads' grid, so the reference
/// touches memory on the same scale as the decompositions.
const SIDE: usize = crate::workload::GRID_SIDE;
/// Message-passing rounds in one timing.
const ROUNDS: usize = 12;
/// CPU seconds one timing took, as a median, on the 2-vCPU machine the
/// benchmark was tuned on. Scaled times read as CPU seconds on a machine
/// running at that speed.
pub const REFERENCE_S: f64 = 0.05;

/// One message: a value travelling to `to`, naming the vertex it started
/// from.
#[derive(Debug, Clone, Copy)]
struct Msg {
    to: u32,
    source: u32,
    value: f64,
}

/// The reference's state: a grid's adjacency arrays.
#[derive(Debug)]
pub struct Candle {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Candle {
    /// Builds the reference and runs it once, untimed.
    pub fn new() -> Candle {
        let n = SIDE * SIDE;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(4 * n);
        offsets.push(0);
        for r in 0..SIDE {
            for c in 0..SIDE {
                let v = r * SIDE + c;
                if r > 0 {
                    targets.push((v - SIDE) as u32);
                }
                if c > 0 {
                    targets.push((v - 1) as u32);
                }
                if c + 1 < SIDE {
                    targets.push((v + 1) as u32);
                }
                if r + 1 < SIDE {
                    targets.push((v + SIDE) as u32);
                }
                offsets.push(targets.len() as u32);
            }
        }
        let candle = Candle { offsets, targets };
        candle.time();
        candle
    }

    /// A small message-passing computation shaped like one carving phase:
    /// every vertex draws a value, and for [`ROUNDS`] rounds each vertex
    /// whose best two (value − distance) entries changed sends them to its
    /// neighbours; messages are bucketed by target and each vertex sorts
    /// what it knows. The values come from a fixed seed, so every call
    /// does the same work. Returns a checksum.
    fn once(&self) -> f64 {
        let n = SIDE * SIDE;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut known: Vec<Vec<(f64, u32)>> = (0..n)
            .map(|v| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let uniform = (x >> 11) as f64 / (1u64 << 53) as f64;
                vec![(-(1.0 - uniform).ln() * 4.0, v as u32)]
            })
            .collect();
        let mut changed = vec![true; n];
        for _ in 0..ROUNDS {
            let mut sent = Vec::new();
            for v in 0..n {
                if !changed[v] {
                    continue;
                }
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                for &w in &self.targets[lo..hi] {
                    for &(value, source) in &known[v] {
                        sent.push(Msg {
                            to: w,
                            source,
                            value: value - 1.0,
                        });
                    }
                }
            }
            let mut starts = vec![0usize; n + 1];
            for m in &sent {
                starts[m.to as usize + 1] += 1;
            }
            for v in 0..n {
                starts[v + 1] += starts[v];
            }
            let mut fill = starts.clone();
            let mut inbox = vec![
                Msg {
                    to: 0,
                    source: 0,
                    value: 0.0,
                };
                sent.len()
            ];
            for m in sent {
                inbox[fill[m.to as usize]] = m;
                fill[m.to as usize] += 1;
            }
            for v in 0..n {
                let before = known[v].clone();
                for m in &inbox[starts[v]..starts[v + 1]] {
                    if !known[v].iter().any(|&(_, s)| s == m.source) {
                        known[v].push((m.value, m.source));
                    }
                }
                known[v].sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                known[v].truncate(2);
                changed[v] = known[v] != before;
            }
        }
        known.iter().map(|k| k[0].0).sum()
    }

    /// Runs the reference once; returns its CPU seconds.
    pub fn time(&self) -> f64 {
        let start = process_cpu_s();
        black_box(self.once());
        process_cpu_s() - start
    }
}
