//! Lightweight structured tracing: per-request span records in a bounded
//! ring buffer, stitched into **trace trees** that can cross daemons.
//!
//! A request id is minted once where the request enters the process (the
//! server's line framing, or the engine itself for in-process use) and
//! propagated through a thread-local ([`with_request`]) — the server
//! dispatches to the engine synchronously on the connection's thread, so
//! the thread-local is exactly as wide as the request.  Layers
//! record named spans against the current context; the ring keeps the
//! most recent spans and drops the oldest (counted in
//! [`Tracer::dropped_spans`]), so tracing is always on and never grows
//! without bound.
//!
//! On top of the flat ring, spans carry three tree-building fields:
//!
//! - a **trace id**, minted once per causal story ([`mint_trace_id`],
//!   seeded per process so ids from different daemons do not collide) and
//!   forwarded across the wire, so every hop of a request — peer fetch,
//!   the remote daemon's own serving — lands in the same tree;
//! - a **span id** minted per span; and
//! - a **parent** span id: [`Tracer::start`] publishes its freshly minted
//!   span id as the thread-local parent for its scope, so nested
//!   [`SpanTimer`]s parent naturally and a remote callee can parent its
//!   root under the caller's in-flight span.
//!
//! Spans fetched back from another daemon are [`Tracer::adopt`]ed into
//! the local ring with their `origin` (the remote daemon's listen
//! address) preserved, so one dump renders the whole cross-daemon tree.
//! Requests slower than a configured threshold can be
//! [`Tracer::capture_slow`]ed into a dedicated bounded buffer that the
//! main ring's churn never evicts.

use crate::clock::ticks;
use crate::metrics::RawMetrics;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The per-thread trace context: which request this thread is serving,
/// which trace (if any) it belongs to, and the span id new spans should
/// parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The daemon-local request id; 0 never occurs in a live context.
    pub request: u64,
    /// The cluster-wide trace id; 0 means "untraced" (no tree).
    pub trace: u64,
    /// The span id new spans parent under; 0 means "root".
    pub parent: u64,
}

/// One completed span: a named interval attributed to a request, with
/// optional tree coordinates.  Timestamps are process ticks
/// (microseconds, see [`crate::ticks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to; 0 means "no request context".
    pub request: u64,
    /// Span name (`parse`, `fixpoint`, `encode`, ...).  Borrowed for
    /// locally recorded spans; owned for spans adopted off the wire.
    pub name: Cow<'static, str>,
    pub start_us: u64,
    pub end_us: u64,
    /// The trace this span belongs to; 0 means untraced.
    pub trace: u64,
    /// This span's own id (unique per process seed; 0 never occurs for
    /// spans recorded through this module).
    pub span_id: u64,
    /// The parent span id; 0 means this span is a root of its trace.
    pub parent: u64,
    /// Which daemon recorded the span.  `None` means "this tracer" and is
    /// resolved to the tracer's origin on snapshot; `Some` is preserved
    /// verbatim for spans adopted from a remote daemon.
    pub origin: Option<Arc<str>>,
}

impl SpanRecord {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Run `f` with `id` as the current request id on this thread (untraced),
/// restoring the previous context (supporting nesting) on exit.
pub fn with_request<R>(id: u64, f: impl FnOnce() -> R) -> R {
    with_context(
        TraceContext {
            request: id,
            trace: 0,
            parent: 0,
        },
        f,
    )
}

/// Run `f` under `ctx` on this thread, restoring the previous context
/// (supporting nesting) on exit.
pub fn with_context<R>(ctx: TraceContext, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|current| current.replace(Some(ctx)));
    let result = f();
    CURRENT.with(|current| current.set(previous));
    result
}

/// [`with_context`] when the context may be absent — the shape needed to
/// forward a captured context into a scoped worker thread.
pub fn with_context_opt<R>(ctx: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some(ctx) => with_context(ctx, f),
        None => f(),
    }
}

/// The context set by the innermost [`with_context`] on this thread.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// The request id set by the innermost [`with_request`]/[`with_context`]
/// on this thread.
pub fn current_request() -> Option<u64> {
    current_context().map(|ctx| ctx.request)
}

/// How many span ids a thread takes from the process counter at a time.
const ID_BLOCK: u64 = 4096;

/// Mint a process-unique span id.  The counter is seeded from the pid and
/// the wall clock so two daemons' id ranges are disjoint in practice —
/// a trace assembled from several daemons never sees a collision.  Each
/// thread takes ids from the counter a block at a time, so minting does
/// not bounce the counter's cache line between cores on every span.
pub fn mint_span_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    thread_local! {
        static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    BLOCK.with(|block| next_id(block, NEXT.get_or_init(|| AtomicU64::new(seed()))))
}

/// The next id of the `[next, end)` block in `block`, taking a fresh block
/// from `counter` when it is used up.  Blocks are disjoint ranges of the
/// counter (modulo 2^64), and the one id that is 0 is skipped.
fn next_id(block: &Cell<(u64, u64)>, counter: &AtomicU64) -> u64 {
    loop {
        let (mut next, mut end) = block.get();
        if next == end {
            next = counter.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = next.wrapping_add(ID_BLOCK);
        }
        block.set((next.wrapping_add(1), end));
        if next != 0 {
            return next;
        }
    }
}

/// Mint a cluster-unique trace id (same id space as span ids).
pub fn mint_trace_id() -> u64 {
    mint_span_id()
}

/// splitmix64 of (pid, now): a well-spread 64-bit starting point.
fn seed() -> u64 {
    let pid = std::process::id() as u64;
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = pid.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ now;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many slow-request captures the dedicated buffer retains.
const SLOW_CAPTURES: usize = 32;

/// One position of the ring: a span and its `n` (see [`Tracer`]).
type Slot = Mutex<Option<(u64, SpanRecord)>>;

/// A bounded ring of [`SpanRecord`]s plus the request-id mint, a
/// dedicated buffer of slow-request captures, and eviction counters.
#[derive(Debug)]
pub struct Tracer {
    /// Span `n` (counting from 0) sits in slot `n % capacity`, tagged with
    /// `n`, until span `n + capacity` takes its place.  Every slot has its
    /// own lock, so the threads of a daemon recording at once share only
    /// the `recorded` counter, never a lock.
    slots: Box<[Slot]>,
    /// Spans recorded so far: the next span's `n`.
    recorded: AtomicU64,
    slow: Mutex<VecDeque<Vec<SpanRecord>>>,
    next_id: AtomicU64,
    slow_captures: AtomicU64,
    origin: OnceLock<Arc<str>>,
}

/// A daemon keeps one tracer, so its one ring holds every layer's spans:
/// the socket's, the engine's, the disk tier's and the adopted remote ones.
impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(8192)
    }
}

impl Tracer {
    /// A tracer keeping at most `capacity` (at least 1) recent spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            recorded: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            slow_captures: AtomicU64::new(0),
            origin: OnceLock::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Name this tracer's daemon (its listen address).  First call wins;
    /// before any call the origin is `"in-process"`.
    pub fn set_origin(&self, origin: &str) {
        let _ = self.origin.set(Arc::from(origin));
    }

    /// The identity stamped on this tracer's own spans.
    pub fn origin(&self) -> Arc<str> {
        self.origin.get_or_init(|| Arc::from("in-process")).clone()
    }

    /// Mint a fresh request id (1, 2, 3, ... — never 0).
    pub fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Spans evicted from the ring to make room — the count behind the
    /// `trace.dropped_spans` metric.
    pub fn dropped_spans(&self) -> u64 {
        let capacity = self.slots.len() as u64;
        self.recorded
            .load(Ordering::Relaxed)
            .saturating_sub(capacity)
    }

    /// Slow requests captured into the dedicated buffer.
    pub fn slow_captures(&self) -> u64 {
        self.slow_captures.load(Ordering::Relaxed)
    }

    /// Export this tracer's eviction counters into a raw metrics read.
    pub fn export_metrics(&self, raw: &mut RawMetrics) {
        raw.push_counter("trace.dropped_spans", self.dropped_spans());
        raw.push_counter("trace.slow_captures", self.slow_captures());
    }

    /// Record a completed span, evicting (and counting) the oldest record
    /// when full.
    pub fn record_span(&self, span: SpanRecord) {
        let n = self.recorded.fetch_add(1, Ordering::Relaxed);
        let capacity = self.slots.len() as u64;
        let mut slot = self.slots[(n % capacity) as usize].lock().unwrap();
        // The span a whole ring later may have got here first; it stays.
        if slot.as_ref().is_none_or(|(held, _)| *held < n) {
            *slot = Some((n, span));
        }
    }

    /// Visit the retained spans oldest first.  A span whose slot was taken
    /// over while the walk ran is skipped (it is one of the dropped), as is
    /// one still being written.
    fn for_each_retained(&self, mut visit: impl FnMut(&SpanRecord)) {
        let end = self.recorded.load(Ordering::Relaxed);
        let capacity = self.slots.len() as u64;
        for n in end.saturating_sub(capacity)..end {
            if let Some((held, span)) = &*self.slots[(n % capacity) as usize].lock().unwrap() {
                if *held == n {
                    visit(span);
                }
            }
        }
    }

    /// Start a span attributed to the current context (or request 0); it
    /// records itself when the returned guard drops.  For the guard's
    /// lifetime the thread-local parent is this span's id, so nested
    /// spans — including spans recorded by a *remote* daemon the thread
    /// calls into — become its children.
    pub fn start(&self, name: &'static str) -> SpanTimer<'_> {
        let ctx = current_context();
        let span_id = mint_span_id();
        if let Some(ctx) = ctx {
            CURRENT.with(|current| {
                current.set(Some(TraceContext {
                    parent: span_id,
                    ..ctx
                }))
            });
        }
        SpanTimer {
            tracer: self,
            name,
            ctx,
            span_id,
            start_us: ticks(),
        }
    }

    /// Copy `spans` (a slow request's tree) into
    /// the dedicated slow buffer, which holds the 32 most recent captures
    /// regardless of main-ring churn.
    pub fn capture_slow(&self, spans: Vec<SpanRecord>) {
        if spans.is_empty() {
            return;
        }
        let mut slow = self.slow.lock().unwrap();
        if slow.len() == SLOW_CAPTURES {
            slow.pop_front();
        }
        slow.push_back(spans);
        self.slow_captures.fetch_add(1, Ordering::Relaxed);
    }

    /// Adopt spans fetched from another daemon: records with an ill-formed
    /// name or origin are dropped, and span ids already present are
    /// skipped so re-fetching a hop never duplicates its subtree.
    pub fn adopt(&self, spans: Vec<SpanRecord>) {
        let mut seen = HashSet::new();
        self.for_each_retained(|span| {
            seen.insert(span.span_id);
        });
        for span in spans {
            if span.span_id == 0 || !seen.insert(span.span_id) {
                continue;
            }
            if !wire_safe(&span.name) || !span.origin.as_deref().is_some_and(wire_safe) {
                continue;
            }
            self.record_span(span);
        }
    }

    /// The retained ring spans, oldest first, origins resolved.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let origin = self.origin();
        let mut spans = Vec::new();
        self.for_each_retained(|span| spans.push(resolve(span, &origin)));
        spans
    }

    /// Ring spans plus slow captures, deduplicated by span id — the view
    /// a trace dump serves, where a captured slow request outlives its
    /// ring eviction.
    pub fn snapshot_all(&self) -> Vec<SpanRecord> {
        let mut spans = self.snapshot();
        let mut seen: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let origin = self.origin();
        let slow = self.slow.lock().unwrap();
        for capture in slow.iter() {
            for span in capture {
                if seen.insert(span.span_id) {
                    spans.push(resolve(span, &origin));
                }
            }
        }
        spans
    }

    /// Every retained span belonging to `trace`, plus untraced spans
    /// attributed to `request` (the server's `decode` of the request line
    /// runs before the wire header is known, so it links by request id
    /// only).  Origins resolved — this is the shape piggybacked to a
    /// remote caller.
    pub fn spans_for(&self, trace: u64, request: u64) -> Vec<SpanRecord> {
        let origin = self.origin();
        let mut spans = Vec::new();
        self.for_each_retained(|span| {
            if (trace != 0 && span.trace == trace) || (span.trace == 0 && span.request == request) {
                spans.push(resolve(span, &origin));
            }
        });
        spans
    }
}

fn resolve(span: &SpanRecord, origin: &Arc<str>) -> SpanRecord {
    let mut span = span.clone();
    if span.origin.is_none() {
        span.origin = Some(origin.clone());
    }
    span
}

/// Safe to embed unescaped in JSON and ndjson: span names (`peer-fetch`)
/// and daemon addresses (`unix:/tmp/a.sock`, `127.0.0.1:4400`).
fn wire_safe(text: &str) -> bool {
    !text.is_empty()
        && text.len() <= 128
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | '/'))
}

/// Drop guard returned by [`Tracer::start`]; records the span on drop and
/// restores the thread-local parent it displaced.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    ctx: Option<TraceContext>,
    span_id: u64,
    start_us: u64,
}

impl SpanTimer<'_> {
    /// This span's id — what a cross-daemon callee's root will name as
    /// its parent.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        let end_us = ticks();
        let (request, trace, parent) = match self.ctx {
            Some(ctx) => {
                CURRENT.with(|current| current.set(Some(ctx)));
                (ctx.request, ctx.trace, ctx.parent)
            }
            None => (0, 0, 0),
        };
        self.tracer.record_span(SpanRecord {
            request,
            name: Cow::Borrowed(self.name),
            start_us: self.start_us,
            end_us,
            trace,
            span_id: self.span_id,
            parent,
            origin: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tracer {
        /// Record a completed span with no tree coordinates.
        fn record(&self, request: u64, name: &'static str, start_us: u64, end_us: u64) {
            self.record_span(SpanRecord {
                request,
                name: Cow::Borrowed(name),
                start_us,
                end_us,
                trace: 0,
                span_id: mint_span_id(),
                parent: 0,
                origin: None,
            });
        }
    }

    #[test]
    fn span_ids_from_many_threads_are_distinct_and_nonzero() {
        let minted: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..10_000).map(|_| mint_span_id()).collect()))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let all: HashSet<u64> = minted.iter().flatten().copied().collect();
        assert_eq!(all.len(), 8 * 10_000);
        assert!(!all.contains(&0));
    }

    #[test]
    fn an_id_block_that_wraps_skips_zero() {
        let counter = AtomicU64::new(u64::MAX - 2);
        let block = Cell::new((0, 0));
        let ids: Vec<u64> = (0..5).map(|_| next_id(&block, &counter)).collect();
        assert_eq!(ids, [u64::MAX - 2, u64::MAX - 1, u64::MAX, 1, 2]);
        assert_eq!(counter.load(Ordering::Relaxed), ID_BLOCK - 3);
    }

    #[test]
    fn mint_never_returns_zero_and_increments() {
        let tracer = Tracer::new(8);
        assert_eq!(tracer.mint(), 1);
        assert_eq!(tracer.mint(), 2);
        assert_eq!(tracer.mint(), 3);
    }

    #[test]
    fn ring_is_bounded_and_counts_dropped_spans() {
        let tracer = Tracer::new(3);
        for i in 0..5u64 {
            tracer.record(i, "parse", i * 10, i * 10 + 1);
        }
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.request).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(tracer.dropped_spans(), 2);
        let mut raw = RawMetrics::new();
        tracer.export_metrics(&mut raw);
        let snap = raw.summarize();
        assert_eq!(snap.counter("trace.dropped_spans"), Some(2));
        assert_eq!(snap.counter("trace.slow_captures"), Some(0));
    }

    #[test]
    fn concurrent_recorders_keep_the_newest_spans_each_once() {
        let tracer = Tracer::new(64);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let tracer = &tracer;
                scope.spawn(move || {
                    for i in 0..1000 {
                        tracer.record(thread, "parse", i, i + 1);
                    }
                });
            }
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 64);
        assert_eq!(tracer.dropped_spans(), 4000 - 64);
        let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        assert_eq!(ids.len(), 64);
        // Each thread's spans come out in the order it recorded them.
        for thread in 0..4u64 {
            let starts: Vec<u64> = spans
                .iter()
                .filter(|s| s.request == thread)
                .map(|s| s.start_us)
                .collect();
            assert!(starts.windows(2).all(|pair| pair[0] < pair[1]));
        }
    }

    #[test]
    fn request_context_nests_and_restores() {
        assert_eq!(current_request(), None);
        let inner = with_request(7, || {
            let outer = current_request();
            let nested = with_request(9, current_request);
            (outer, nested, current_request())
        });
        assert_eq!(inner, (Some(7), Some(9), Some(7)));
        assert_eq!(current_request(), None);
    }

    #[test]
    fn span_timer_records_on_drop_with_context() {
        let tracer = Tracer::new(8);
        with_request(42, || {
            let _span = tracer.start("fixpoint");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request, 42);
        assert_eq!(spans[0].name, "fixpoint");
        assert!(spans[0].end_us >= spans[0].start_us);
    }

    #[test]
    fn nested_timers_parent_under_the_enclosing_span() {
        let tracer = Tracer::new(8);
        let ctx = TraceContext {
            request: 1,
            trace: mint_trace_id(),
            parent: 0,
        };
        with_context(ctx, || {
            let outer = tracer.start("serve");
            let outer_id = outer.span_id();
            {
                let inner = tracer.start("fixpoint");
                assert_eq!(current_context().unwrap().parent, inner.span_id());
            }
            // Dropping the inner timer restores the outer span as parent.
            assert_eq!(current_context().unwrap().parent, outer_id);
            drop(outer);
            assert_eq!(current_context().unwrap().parent, 0);
        });
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "fixpoint").unwrap();
        let outer = spans.iter().find(|s| s.name == "serve").unwrap();
        assert_eq!(inner.parent, outer.span_id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.trace, ctx.trace);
    }

    #[test]
    fn slow_captures_survive_ring_eviction() {
        let tracer = Tracer::new(2);
        tracer.record(1, "fixpoint", 0, 9000);
        let capture = tracer.spans_for(0, 1);
        assert_eq!(capture.len(), 1);
        tracer.capture_slow(capture);
        assert_eq!(tracer.slow_captures(), 1);
        // Churn the ring until the original span is gone.
        for i in 0..4u64 {
            tracer.record(50 + i, "parse", 0, 1);
        }
        assert!(tracer.snapshot().iter().all(|s| s.name != "fixpoint"));
        let all = tracer.snapshot_all();
        assert!(all.iter().any(|s| s.name == "fixpoint"));
        // No duplicates when the span is still in the ring.
        tracer.record(9, "encode", 0, 1);
        tracer.capture_slow(tracer.spans_for(0, 9));
        let all = tracer.snapshot_all();
        assert_eq!(all.iter().filter(|s| s.name == "encode").count(), 1);
    }

    #[test]
    fn adopt_skips_duplicates_and_unsafe_records() {
        let tracer = Tracer::new(8);
        let span = SpanRecord {
            request: 3,
            name: Cow::Owned("peer-serve".to_string()),
            start_us: 5,
            end_us: 9,
            trace: 7,
            span_id: 11,
            parent: 2,
            origin: Some(Arc::from("unix:/tmp/peer.sock")),
        };
        tracer.adopt(vec![span.clone(), span.clone()]);
        assert_eq!(tracer.snapshot().len(), 1);
        tracer.adopt(vec![span.clone()]);
        assert_eq!(tracer.snapshot().len(), 1, "re-adoption must dedup");
        let hostile = SpanRecord {
            name: Cow::Owned("bad\"name".to_string()),
            span_id: 12,
            ..span.clone()
        };
        let unoriginated = SpanRecord {
            origin: None,
            span_id: 13,
            ..span
        };
        tracer.adopt(vec![hostile, unoriginated]);
        assert_eq!(tracer.snapshot().len(), 1);
    }
}
