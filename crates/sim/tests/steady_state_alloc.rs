//! Steady-state rounds must not allocate: outboxes, the per-shard
//! slab-backed inboxes — the compact slot vector, the payload slab, and
//! the payload-handle table it recycles — counters, and cursor tables are
//! all reused in place. Registering a payload in a warm slab is a push
//! within capacity; scattering a copy is a plain 8-byte slot write. This
//! pins the "inbox slot reuse" guarantee with a counting global allocator
//! rather than by inspection, for every delivery backend.
//!
//! The counter is process-global, so a measured window is honest only if
//! nothing else in the process runs during it. libtest runs separate
//! `#[test]`s on parallel threads (and its harness thread allocates as
//! tests finish), so every case below runs from the one `#[test]` at the
//! bottom of the file, one after another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use netdecomp_graph::generators;
use netdecomp_sim::{Ctx, Engine, FrameTransport, Inbox, Outbox, Protocol, Simulator};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// System allocator that counts every allocation (including reallocs).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Constant-volume workload: every node broadcasts the same preencoded
/// payload each round (a reference-count bump, not an allocation) and
/// reads everything it hears.
#[derive(Debug, Clone)]
struct SteadyBroadcast {
    payload: Bytes,
    heard: usize,
}

impl Protocol for SteadyBroadcast {
    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox) {
        out.broadcast(self.payload.clone());
    }

    fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox) {
        self.heard += incoming.len();
        out.broadcast(self.payload.clone());
    }
}

/// Warm the simulator past every buffer's high-water mark (including the
/// engine's amortized per-round stats vector), then require a window of
/// further rounds to allocate nothing at all. `overlap` pins the framed
/// round schedule (fused single-barrier vs phase-separated) explicitly,
/// so both stay zero-alloc regardless of the environment default; it is
/// a no-op for shared-memory engines.
fn assert_steady_state_is_allocation_free(engine: Engine, overlap: bool) {
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyBroadcast {
        payload: Bytes::from(vec![id as u8; 8]),
        heard: 0,
    })
    .with_engine(engine)
    .with_overlap(overlap);
    // 300 rounds leave the per-round stats vector with capacity >= 512,
    // so the 100 measured rounds cannot trigger its amortized growth.
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "steady-state rounds allocated {during} times under {engine:?}"
    );
    assert!(sim.nodes().iter().all(|n| n.heard > 0));
    // The slab registers payloads per *message*, never per copy: every
    // broadcast lands one segment ref — and therefore one registration —
    // per destination shard it touches, while each of the 2m copies is
    // only an 8-byte slot write.
    let work = sim.delivery_work();
    assert_eq!(work.payload_registrations, work.refs_scanned);
    assert_eq!(work.copies_delivered, 2 * g.edge_count());
    assert!(work.payload_registrations < work.copies_delivered);
    assert_eq!(work.inbox_slot_bytes, 8 * work.copies_delivered);
}

fn sequential_steady_state_rounds_do_not_allocate() {
    assert_steady_state_is_allocation_free(Engine::Sequential, true);
}

fn sharded_steady_state_rounds_do_not_allocate() {
    // Single worker thread (no per-round thread spawns — the vendored
    // rayon shim's scoped threads are the one remaining per-round
    // allocation under multi-threaded engines, see ROADMAP), but the full
    // sharded delivery path — sender-side routing included — with several
    // shards.
    assert_steady_state_is_allocation_free(
        Engine::Parallel {
            threads: 1,
            shards: 4,
        },
        true,
    );
}

fn framed_loopback_overlapped_steady_state_rounds_do_not_allocate() {
    // The whole frame seam — encode (with checksum), loopback handoff,
    // decode, zero-copy payload slicing — must recycle every buffer:
    // builders keep their scratch, senders reclaim frame buffers through
    // the two-round ring, and receivers reuse their gather/decode tables.
    // Under the (default) overlapped schedule, shipping from inside the
    // fused compute phase must not add so much as a counter allocation.
    assert_steady_state_is_allocation_free(
        Engine::Framed {
            threads: 1,
            shards: 4,
            transport: FrameTransport::Loopback,
        },
        true,
    );
}

fn framed_loopback_phase_separated_steady_state_rounds_do_not_allocate() {
    // Same guarantee with the overlap disabled (the pre-v2 schedule,
    // still selectable via NETDECOMP_FRAME_OVERLAP=0).
    assert_steady_state_is_allocation_free(
        Engine::Framed {
            threads: 1,
            shards: 4,
            transport: FrameTransport::Loopback,
        },
        false,
    );
}

fn traced_framed_steady_state_rounds_do_not_allocate() {
    // The trace plane must be free in steady state too: rings are
    // preallocated at construction and commits overwrite slots in place,
    // so enabling per-round phase timing adds clock reads but not a
    // single allocation per round.
    const WINDOW: usize = 32;
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyBroadcast {
        payload: Bytes::from(vec![id as u8; 8]),
        heard: 0,
    })
    .with_engine(Engine::Framed {
        threads: 1,
        shards: 4,
        transport: FrameTransport::Loopback,
    })
    .with_overlap(true)
    .with_trace(WINDOW);
    assert!(sim.trace_enabled());
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "traced steady-state rounds allocated {during} times"
    );
    // Snapshotting allocates, so inspect the rings only after the
    // measured window: every shard retains its last WINDOW rounds with
    // nonzero phase timings.
    let traces = sim.flight_traces();
    assert_eq!(traces.len(), 4, "every shard ring must be enabled");
    for (shard, records) in traces {
        assert_eq!(records.len(), WINDOW, "shard {shard} ring must be full");
        let last = records.last().expect("ring is full");
        assert_eq!(last.round, 399, "shard {shard} must hold the last round");
        assert!(
            records.iter().all(|r| r.busy_ns() > 0),
            "shard {shard} records must carry phase timings"
        );
        assert!(
            records.windows(2).all(|w| w[0].round + 1 == w[1].round),
            "shard {shard} records must be chronological"
        );
    }
}

/// Unicast workload rotating through each node's neighbors: exercises the
/// router's flat vertex→shard path with per-round-varying bucket sizes
/// (the rotation cycles within the warmup, so every bucket's high-water
/// mark is reached before measuring).
#[derive(Debug, Clone)]
struct SteadyUnicast {
    payload: Bytes,
    tick: usize,
}

impl Protocol for SteadyUnicast {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox) {
        out.unicast(ctx.neighbors()[0], self.payload.clone());
    }

    fn round(&mut self, ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox) {
        self.tick += 1;
        out.unicast(
            ctx.neighbors()[self.tick % ctx.degree()],
            self.payload.clone(),
        );
    }
}

fn assert_unicast_steady_state_is_allocation_free(engine: Engine, overlap: bool) {
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyUnicast {
        payload: Bytes::from(vec![id as u8; 8]),
        tick: id,
    })
    .with_engine(engine)
    .with_overlap(overlap);
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "unicast steady-state rounds allocated {during} times under {engine:?}"
    );
    // One unicast per node per round: refs, registrations, copies, and
    // slots all sit at exactly n.
    let work = sim.delivery_work();
    let n = g.vertex_count();
    assert_eq!(work.payload_registrations, n);
    assert_eq!(work.refs_scanned, n);
    assert_eq!(work.copies_delivered, n);
    assert_eq!(work.inbox_slot_bytes, 8 * n);
}

fn sharded_unicast_steady_state_rounds_do_not_allocate() {
    assert_unicast_steady_state_is_allocation_free(
        Engine::Parallel {
            threads: 1,
            shards: 8,
        },
        true,
    );
}

fn framed_loopback_unicast_steady_state_rounds_do_not_allocate() {
    // Per-round-varying bucket (and therefore frame) sizes: the rotation
    // cycles within the warmup, so every frame buffer's high-water size
    // is reached before measuring — under both round schedules.
    for overlap in [true, false] {
        assert_unicast_steady_state_is_allocation_free(
            Engine::Framed {
                threads: 1,
                shards: 8,
                transport: FrameTransport::Loopback,
            },
            overlap,
        );
    }
}

fn framed_channel_allocations_are_bounded_per_round() {
    // The channel backend's mpsc mailboxes allocate queue nodes per send,
    // so it cannot be zero-alloc — but its per-round allocation count
    // must be bounded by the shard topology (shards^2 sends per round),
    // NOT by traffic volume: frame buffers, builder scratch, and inbox
    // slots are all still recycled.
    const SHARDS: usize = 4;
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyBroadcast {
        payload: Bytes::from(vec![id as u8; 8]),
        heard: 0,
    })
    .with_engine(Engine::Framed {
        threads: 1,
        shards: SHARDS,
        transport: FrameTransport::Channel,
    });
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    const ROUNDS: usize = 100;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        sim.step().expect("no limits configured");
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    // Ceiling: a small constant per (sender, destination) pair per round.
    // The grid workload delivers ~550 copies per round, so a leak that
    // scaled with traffic would blow far past this.
    let ceiling = ROUNDS * (4 * SHARDS * SHARDS);
    assert!(
        during <= ceiling,
        "channel rounds allocated {during} times (ceiling {ceiling})"
    );
    assert!(sim.nodes().iter().all(|n| n.heard > 0));
}

/// Sparse workload: `TOKENS` tokens circulate around a cycle, each
/// forwarded one hop per round. Every node reports itself halted — a
/// node without mail has nothing to do — so only the `TOKENS` vertices
/// holding a token are stepped each round, out of `n`.
#[derive(Debug, Clone)]
struct TokenRelay {
    payload: Bytes,
    relayed: usize,
}

const RELAY_N: usize = 400;
const TOKENS: usize = 4;

impl TokenRelay {
    fn next(ctx: &Ctx<'_>) -> usize {
        (ctx.id + 1) % ctx.n
    }
}

impl Protocol for TokenRelay {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox) {
        if ctx.id.is_multiple_of(RELAY_N / TOKENS) {
            out.unicast(Self::next(ctx), self.payload.clone());
        }
    }

    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox) {
        // Each token goes on as the node's own preencoded payload. (A
        // forwarded inbox payload would be a view into the sender
        // shard's frame buffer under the framed backends, and holding it
        // in an outbox keeps that buffer from being recycled.)
        for _ in incoming.iter() {
            self.relayed += 1;
            out.unicast(Self::next(ctx), self.payload.clone());
        }
    }

    fn is_halted(&self) -> bool {
        true
    }
}

/// Sparse rounds are allocation-free too: the mail, awake, and sender
/// lists, the recipient-only prefix sums, and the sorted mail list all
/// recycle their buffers, and exactly `TOKENS` vertices step per round.
fn sparse_relay_rounds_do_not_allocate(engine: Engine, overlap: bool) {
    let g = generators::cycle(RELAY_N);
    let mut sim = Simulator::new(&g, |_, _| TokenRelay {
        payload: Bytes::from_static(b"token"),
        relayed: 0,
    })
    .with_engine(engine)
    .with_overlap(overlap);
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        during, 0,
        "sparse relay rounds allocated {during} times under {engine:?} (overlap {overlap})"
    );
    for _ in 0..RELAY_N {
        sim.step().expect("no limits configured");
        let work = sim.delivery_work();
        assert_eq!(work.vertices_stepped, TOKENS, "{engine:?}");
        assert_eq!(work.copies_delivered, TOKENS, "{engine:?}");
    }
    // After a whole lap every vertex has relayed each token once more.
    assert!(sim.nodes().iter().all(|n| n.relayed >= TOKENS));
}

fn sequential_sparse_relay_rounds_do_not_allocate() {
    sparse_relay_rounds_do_not_allocate(Engine::Sequential, true);
}

fn sharded_sparse_relay_rounds_do_not_allocate() {
    sparse_relay_rounds_do_not_allocate(
        Engine::Parallel {
            threads: 1,
            shards: 4,
        },
        true,
    );
}

fn framed_loopback_sparse_relay_rounds_do_not_allocate() {
    for overlap in [true, false] {
        sparse_relay_rounds_do_not_allocate(
            Engine::Framed {
                threads: 1,
                shards: 4,
                transport: FrameTransport::Loopback,
            },
            overlap,
        );
    }
}

/// Every case, one at a time on this test's thread: no other test runs
/// while a window is measured. A failing case is reported by name and
/// the remaining cases still run.
#[test]
fn steady_state_rounds_do_not_allocate() {
    let cases: [(&str, fn()); 11] = [
        (
            "sequential_steady_state_rounds_do_not_allocate",
            sequential_steady_state_rounds_do_not_allocate,
        ),
        (
            "sharded_steady_state_rounds_do_not_allocate",
            sharded_steady_state_rounds_do_not_allocate,
        ),
        (
            "framed_loopback_overlapped_steady_state_rounds_do_not_allocate",
            framed_loopback_overlapped_steady_state_rounds_do_not_allocate,
        ),
        (
            "framed_loopback_phase_separated_steady_state_rounds_do_not_allocate",
            framed_loopback_phase_separated_steady_state_rounds_do_not_allocate,
        ),
        (
            "traced_framed_steady_state_rounds_do_not_allocate",
            traced_framed_steady_state_rounds_do_not_allocate,
        ),
        (
            "sharded_unicast_steady_state_rounds_do_not_allocate",
            sharded_unicast_steady_state_rounds_do_not_allocate,
        ),
        (
            "framed_loopback_unicast_steady_state_rounds_do_not_allocate",
            framed_loopback_unicast_steady_state_rounds_do_not_allocate,
        ),
        (
            "framed_channel_allocations_are_bounded_per_round",
            framed_channel_allocations_are_bounded_per_round,
        ),
        (
            "sequential_sparse_relay_rounds_do_not_allocate",
            sequential_sparse_relay_rounds_do_not_allocate,
        ),
        (
            "sharded_sparse_relay_rounds_do_not_allocate",
            sharded_sparse_relay_rounds_do_not_allocate,
        ),
        (
            "framed_loopback_sparse_relay_rounds_do_not_allocate",
            framed_loopback_sparse_relay_rounds_do_not_allocate,
        ),
    ];
    let failed: Vec<&str> = cases
        .into_iter()
        .filter(|(_, case)| catch_unwind(AssertUnwindSafe(case)).is_err())
        .map(|(name, _)| name)
        .collect();
    assert!(failed.is_empty(), "failing cases: {failed:?}");
}
