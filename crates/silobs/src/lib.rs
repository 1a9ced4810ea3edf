//! Dependency-free observability for the SIL analysis service.
//!
//! Three pieces, all safe to call from hot paths:
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`ShardedHistogram`]): named atomic instruments.  Histograms are
//!   log-bucketed (HDR-style: power-of-two major buckets subdivided into
//!   [`hist::SUB_BUCKETS`] linear sub-buckets) so any `u64` value is
//!   recorded lock-free with bounded relative error, and per-thread shards
//!   merge into one distribution for quantile extraction
//!   (p50/p90/p99/p999).
//! - **Tracing** ([`Tracer`], [`SpanRecord`]): per-request ids minted at
//!   accept, span records captured into a bounded ring buffer with
//!   tick-based timestamps (microseconds since process start, see
//!   [`ticks`]); the service layer renders them as ndjson.  The current
//!   request context — its id plus a propagated trace id and parent span
//!   id — travels through a thread-local ([`with_context`] /
//!   [`current_context`]) so layers that never see the wire can still
//!   stamp their spans, and spans adopted from other daemons assemble
//!   into one cross-daemon trace tree.
//! - **Snapshots** ([`RawMetrics`], [`MetricsSnapshot`]): a registry
//!   collects into raw (full-bucket) form; summarizing produces the compact
//!   name→value / name→quantile shape that crosses the wire.
//! - **Flight recorder** ([`FlightRecorder`], [`HistorySample`]): a
//!   bounded ring of periodic metrics samples — cumulative counters and
//!   gauges plus per-interval histogram quantiles — giving every consumer
//!   rates and "p99 of the last tick" instead of lifetime aggregates.
//!
//! The crate deliberately has no dependencies — it is linked into every
//! layer from the fixpoint engine to the event loop, and must never drag
//! I/O or allocation policy into either.

#![forbid(unsafe_code)]

mod clock;
pub mod hist;
mod metrics;
mod recorder;
mod trace;

pub use clock::ticks;
pub use hist::{Histogram, HistogramSnapshot, ShardedHistogram};
pub use metrics::{Counter, Gauge, HistogramSummary, MetricsSnapshot, RawMetrics, Registry};
pub use recorder::{FlightRecorder, HistorySample};
pub use trace::{
    current_context, current_request, mint_span_id, mint_trace_id, with_context, with_context_opt,
    with_request, SpanRecord, SpanTimer, TraceContext, Tracer,
};
