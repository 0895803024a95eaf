//! Spans recorded from outside the program, and a timing `Transport`
//! wrapper that counts what crosses the frame seam.
//!
//! Every span is kept in memory and written as JSONL when the traced run
//! ends: `{"id","parent","name","start_ns","end_ns"}`, times relative to
//! the recorder's creation.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use netdecomp_sim::{Transport, TransportError, TransportFactory, TransportHealth};

/// Identifier of a recorded span.
pub type SpanId = u64;

/// Builds the transport a traced factory wraps, for a shard count.
pub type MakeTransport = fn(usize) -> Box<dyn Transport>;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves an id for a span that starts now and is closed later by
    /// [`Recorder::close`].
    fn open(&self) -> (SpanId, u64) {
        (self.next.fetch_add(1, Ordering::Relaxed), self.now_ns())
    }

    /// Stores a span opened by [`Recorder::open`], ending now.
    fn close(&self, id: SpanId, start_ns: u64, parent: Option<SpanId>, name: &str) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let (id, start) = self.open();
        let t = Instant::now();
        let out = f(id);
        let secs = t.elapsed().as_secs_f64();
        self.close(id, start, parent, name);
        (out, secs)
    }

    /// The spans as JSONL, ordered by start time.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Counts and times every call through a [`TimedTransport`].
#[derive(Debug, Default)]
pub struct TransportTally {
    frames: AtomicU64,
    frame_bytes: AtomicU64,
    send_ns: AtomicU64,
    collect_ns: AtomicU64,
    builds: AtomicU64,
    build_ns: AtomicU64,
}

/// Totals read from a [`TransportTally`].
#[derive(Debug, Clone, Copy)]
pub struct TransportTotals {
    /// Frames sent.
    pub frames: u64,
    /// Bytes in those frames.
    pub frame_bytes: u64,
    /// Seconds spent inside `send`, summed over threads.
    pub send_s: f64,
    /// Seconds spent inside `collect`, summed over threads.
    pub collect_s: f64,
    /// Transports built (one per phase).
    pub builds: u64,
    /// Seconds spent building them.
    pub build_s: f64,
}

impl TransportTally {
    /// The totals so far.
    pub fn totals(&self) -> TransportTotals {
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
        TransportTotals {
            frames: self.frames.load(Ordering::Relaxed),
            frame_bytes: self.frame_bytes.load(Ordering::Relaxed),
            send_s: secs(&self.send_ns),
            collect_s: secs(&self.collect_ns),
            builds: self.builds.load(Ordering::Relaxed),
            build_s: secs(&self.build_ns),
        }
    }
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// A [`Transport`] that forwards to `inner` and records every call.
#[derive(Debug)]
struct TimedTransport {
    inner: Box<dyn Transport>,
    tally: Arc<TransportTally>,
}

impl Transport for TimedTransport {
    fn send(&self, from: usize, to: usize, frame: Bytes) {
        let t = Instant::now();
        let len = frame.len() as u64;
        self.inner.send(from, to, frame);
        add_elapsed(&self.tally.send_ns, t);
        self.tally.frames.fetch_add(1, Ordering::Relaxed);
        self.tally.frame_bytes.fetch_add(len, Ordering::Relaxed);
    }

    fn collect(&self, to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        let t = Instant::now();
        let out = self.inner.collect(to, into);
        add_elapsed(&self.tally.collect_ns, t);
        out
    }

    fn health(&self) -> TransportHealth {
        self.inner.health()
    }
}

/// The phase span currently open under one traced decomposition.
#[derive(Debug)]
struct PhaseCursor {
    recorder: Arc<Recorder>,
    parent: SpanId,
    open: Mutex<Option<(SpanId, u64)>>,
}

impl PhaseCursor {
    /// Closes the open phase span (if any) and opens the next one.
    fn next_phase(&self) -> SpanId {
        let mut open = self.open.lock().expect("phase cursor poisoned");
        if let Some((id, start)) = open.take() {
            self.recorder.close(id, start, Some(self.parent), "phase");
        }
        let (id, start) = self.recorder.open();
        *open = Some((id, start));
        id
    }

    fn finish(&self) {
        if let Some((id, start)) = self.open.lock().expect("phase cursor poisoned").take() {
            self.recorder.close(id, start, Some(self.parent), "phase");
        }
    }
}

/// A factory whose every build opens a phase span under `parent`, times
/// the build of `make(shards)` as a `transport.build` span, and wraps the
/// result in a [`TimedTransport`] feeding `tally`. Call the returned
/// closer once the decomposition ends, to close its last phase span.
pub fn traced_factory(
    recorder: &Arc<Recorder>,
    parent: SpanId,
    tally: &Arc<TransportTally>,
    make: MakeTransport,
) -> (TransportFactory, impl FnOnce()) {
    let cursor = Arc::new(PhaseCursor {
        recorder: Arc::clone(recorder),
        parent,
        open: Mutex::new(None),
    });
    let (rec, tal, cur) = (Arc::clone(recorder), Arc::clone(tally), Arc::clone(&cursor));
    let factory = TransportFactory::new(move |shards| {
        let phase = cur.next_phase();
        let t = Instant::now();
        let (inner, _) = rec.span("transport.build", Some(phase), |_| make(shards));
        add_elapsed(&tal.build_ns, t);
        tal.builds.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedTransport {
            inner,
            tally: Arc::clone(&tal),
        }) as Box<dyn Transport>
    });
    (factory, move || cursor.finish())
}
