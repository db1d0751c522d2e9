//! Spans at the benchmark's own layer boundaries, and per-layer self time.
//!
//! Every call the benchmark makes into a crate runs inside
//! [`Tracer::span`], which always measures the call (the timed run's
//! metrics come from these durations) and, on a recording tracer, also
//! keeps a [`Span`] in memory. Spans are written out only when the run
//! ends; nothing inside the engine is instrumented.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.run`.
    pub name: &'static str,
    /// Unique within one tracer.
    pub id: u64,
    /// The span that made this call (`None` for the root).
    pub parent: Option<u64>,
    /// Index of the simulation point the call belongs to, if any.
    pub point: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when recording, keeps their spans. Shared by reference
/// across the worker pool's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    record: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now. With `record` off it only measures.
    pub fn new(record: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            record,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as span `name` and returns its result with the elapsed
    /// seconds. `f` receives the span's id so it can parent its own calls.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        point: Option<u32>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        // The id only has to be unique; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.record {
            let span = Span {
                name,
                id,
                parent,
                point,
                start_ns: nanos_between(self.epoch, start),
                end_ns: nanos_between(self.epoch, end),
            };
            self.spans
                .lock()
                .expect("span buffer poisoned: a thread panicked while pushing a span")
                .push(span);
        }
        (out, (end - start).as_secs_f64())
    }

    /// The recorded spans, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span buffer poisoned: a thread panicked while pushing a span");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

fn nanos_between(epoch: Instant, at: Instant) -> u64 {
    u64::try_from((at - epoch).as_nanos()).expect("a run lasts less than 584 years")
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of its interval that its children cover. Children that overlap
/// (pool jobs on different threads) are covered once, so a parent's self
/// time never goes negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *out.entry(s.name).or_insert(0) += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}
