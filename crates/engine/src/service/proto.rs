//! The versioned, transport-agnostic wire protocol: typed [`Request`] and
//! [`Response`] values and the description of every document they carry.
//!
//! Every message is one JSON object: `protocol_version` and `type` first,
//! then the members of that `type`, then — only when present — the one
//! optional trailing member (`trace` on requests, `trace_spans` on
//! responses).  On the wire (see [`super::remote`] and [`super::server`])
//! messages are newline-delimited.
//!
//! Nothing in this file writes or reads a member by hand.  Each struct is a
//! `record!` naming its keys once, in wire order; the two enums are
//! `message!` tables; [`super::wire`] turns either into both directions.
//! The codecs are total inverses — `decode(encode(m)) == m` for every
//! message, and encoding the decoded message reproduces the bytes — which
//! is what lets a remote client reconstruct a [`ProgramReport`]
//! bit-for-bit and render output byte-identical to an in-process run.
//!
//! **Adding a member** is one line in the record that owns it.  Mark it
//! `[or <default>]` (or `[opt]` for an `Option`) and the version stays at
//! 2: an older peer ignores the key and this build fills the default when
//! an older peer omits it.  A new *required* member, or a change to what an
//! existing one means, is a version bump.
//!
//! Version negotiation is deliberately simple: a server answers a request
//! whose `protocol_version` it does not speak with
//! [`ErrorKind::Protocol`], and every response carries the server's own
//! version, so a client learns the supported version from any error.

use super::json::{escape, Json};
use super::wire::{message, names, record, Hex, Named, Wire};
use crate::report::{ProcessOptions, ProgramReport};
use crate::store::{DiskStats, NamespaceStats, PeerStats, StoreStats};
use crate::{CacheStats, EngineError, EngineStats};
use silobs::{HistogramSummary, HistorySample, MetricsSnapshot, SpanRecord};

/// The one protocol version this build speaks.
///
/// v2: the `stats` response restructured — per-engine entries became pure
/// view counters (the `*_entries` fields moved out) and a required
/// `store` member carries the shared store's per-namespace/per-stripe
/// counters.  A v1 peer cannot parse a v2 stats
/// response (and vice versa), so the version negotiation must reject the
/// skew rather than fail with a misleading `malformed` error.
///
/// Still v2: the `stats` response later gained an *optional* `server`
/// member ([`ServerStats`] — connection counts and uptime, attached only
/// when a daemon answers).  Optional additions are compatible in both
/// directions (an older peer ignores the key, a newer peer tolerates its
/// absence), so they do not bump the version.
///
/// Still v2 again: the additive `metrics` and `trace_dump` request kinds
/// (answered with `metrics`/`trace` responses).  New *kinds* are optional
/// both ways by construction — a client that never sends them never sees
/// them, and a server that does not know them answers `malformed` like any
/// unknown type — so observability rides along without a version bump.
///
/// Still v2 once more: the additive `peer_inventory` and `peer_fetch`
/// request kinds (answered with `peer_inventory`/`peer_entry` responses)
/// that back program-cache peering, and the *optional* `peer` member on
/// the `stats` response.  A daemon without the feature answers the new
/// kinds `malformed`, which a peering client treats as "feature absent"
/// rather than a fault, so mixed-version clusters keep working.
///
/// Still v2, observability round two: an *optional* `trace` member
/// ([`TraceHeader`]) on the work-carrying requests (`analyze`, `process`,
/// `batch`, `peer_fetch`) propagates a cluster-wide trace id and parent
/// span id; the matching responses grow an *optional* `trace_spans`
/// member piggybacking the callee's spans for that trace back to the
/// origin daemon.  Both are absent unless the caller opted into tracing,
/// so untraced wire bytes are unchanged.  The additive `metrics_history`
/// request kind (answered with a `metrics_history` response) serves the
/// flight recorder's ring of periodic samples.  Same doctrine as above:
/// optional members and new kinds ride along without a version bump.
///
/// Still v2, product namespace: the `stats` store payload gained an
/// additive `products` member (the parallelization-product namespace's
/// counters).  An older peer ignores it; a reply without it decodes with
/// an empty, zero-capacity namespace.
///
/// Still v2, one eviction rule: each namespace of the `stats` store payload
/// lost the four members that described its eviction policy (the README's
/// wire-protocol section names them) when the store stopped choosing
/// between policies.  This build ignores them in an older daemon's reply
/// like any unknown member; an older build requires them and cannot read
/// this build's reply, which — `silp --connect` handshakes with a `stats`
/// ping — keeps an older `silp` from connecting to this build's daemon.
/// Every other message is unchanged in both directions.
pub const PROTOCOL_VERSION: u32 = 2;

/// The optional trace coordinates a traced request carries: the
/// cluster-wide trace `id` every resulting span joins, and the caller's
/// in-flight span `parent` (0 when the caller is the trace root) that the
/// callee's own root span parents under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    pub id: u64,
    pub parent: u64,
}

record!(TraceHeader { "id" => id as Hex, "parent" => parent as Hex });

/// A request to the analysis service.  Every variant carries the
/// `protocol_version` the client speaks; the [`Request::analyze`]-style
/// constructors fill in [`PROTOCOL_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse, type check, and analyze one program (no parallelization or
    /// execution).
    Analyze {
        version: u32,
        source: String,
        trace: Option<TraceHeader>,
    },
    /// Run the full pipeline over one program per the options.
    Process {
        version: u32,
        source: String,
        options: ProcessOptions,
        trace: Option<TraceHeader>,
    },
    /// [`Request::Process`] over many programs; results keep input order.
    Batch {
        version: u32,
        sources: Vec<String>,
        options: ProcessOptions,
        trace: Option<TraceHeader>,
    },
    /// Cache counters: the engine's view and the store's own.
    Stats { version: u32 },
    /// The observability registry: counters, gauges, and latency-histogram
    /// summaries from every layer (additive, still v2).
    Metrics { version: u32 },
    /// The retained trace spans from the service's ring buffer (additive,
    /// still v2).
    TraceDump { version: u32 },
    /// Drop every cached entry.
    ClearCaches { version: u32 },
    /// Ask a daemon to exit after responding.
    Shutdown { version: u32 },
    /// Ask a peering daemon for its compact digest inventory: the store
    /// generation plus every program/summary fingerprint it holds
    /// (additive, still v2).
    PeerInventory { version: u32 },
    /// Fetch one cached entry by namespace and fingerprint from a peering
    /// daemon (additive, still v2).  A daemon answers from its own store
    /// only — it never recomputes and never re-forwards to *its* peers, so
    /// fetch chains cannot loop.
    PeerFetch {
        version: u32,
        namespace: PeerNamespace,
        key: u64,
        trace: Option<TraceHeader>,
    },
    /// The flight recorder's retained metrics samples, oldest first
    /// (additive, still v2).  Only a daemon hosts a recorder; the
    /// in-process service answers with an error.
    MetricsHistory { version: u32 },
}

// The optional trace member rides last so every untraced request encodes
// byte-identically to its pre-tracing form.
message!(Request: |request| {
    "analyze" => Analyze { "source" => source } trace,
    "process" => Process { "source" => source, "options" => options } trace,
    "batch" => Batch { "sources" => sources, "options" => options } trace,
    "stats" => Stats {},
    "metrics" => Metrics {},
    "trace_dump" => TraceDump {},
    "clear_caches" => ClearCaches {},
    "shutdown" => Shutdown {},
    "peer_inventory" => PeerInventory {},
    "peer_fetch" => PeerFetch { "namespace" => namespace, "key" => key as Hex } trace,
    "metrics_history" => MetricsHistory {},
} "trace" => request.trace_header().as_ref());

impl Request {
    pub fn analyze(source: impl Into<String>) -> Request {
        Request::Analyze {
            version: PROTOCOL_VERSION,
            source: source.into(),
            trace: None,
        }
    }

    pub fn process(source: impl Into<String>, options: ProcessOptions) -> Request {
        Request::Process {
            version: PROTOCOL_VERSION,
            source: source.into(),
            options,
            trace: None,
        }
    }

    pub fn batch(sources: Vec<String>, options: ProcessOptions) -> Request {
        Request::Batch {
            version: PROTOCOL_VERSION,
            sources,
            options,
            trace: None,
        }
    }

    pub fn stats() -> Request {
        Request::Stats {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn metrics() -> Request {
        Request::Metrics {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn trace_dump() -> Request {
        Request::TraceDump {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn clear_caches() -> Request {
        Request::ClearCaches {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn shutdown() -> Request {
        Request::Shutdown {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn peer_inventory() -> Request {
        Request::PeerInventory {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn peer_fetch(namespace: PeerNamespace, key: u64) -> Request {
        Request::PeerFetch {
            version: PROTOCOL_VERSION,
            namespace,
            key,
            trace: None,
        }
    }

    pub fn metrics_history() -> Request {
        Request::MetricsHistory {
            version: PROTOCOL_VERSION,
        }
    }

    /// The trace coordinates this request carries, if it is traced and
    /// its kind can carry them.
    pub fn trace_header(&self) -> Option<TraceHeader> {
        match self {
            Request::Analyze { trace, .. }
            | Request::Process { trace, .. }
            | Request::Batch { trace, .. }
            | Request::PeerFetch { trace, .. } => *trace,
            _ => None,
        }
    }

    /// The same request carrying trace coordinates (a no-op on kinds that
    /// cannot carry them — control requests are never traced).
    pub fn with_trace(mut self, header: TraceHeader) -> Request {
        if let Request::Analyze { trace, .. }
        | Request::Process { trace, .. }
        | Request::Batch { trace, .. }
        | Request::PeerFetch { trace, .. } = &mut self
        {
            *trace = Some(header);
        }
        self
    }

    /// One-line wire encoding (contains no raw newlines: the JSON encoder
    /// escapes every control character).
    pub fn encode(&self) -> String {
        super::wire::encode(self)
    }

    pub fn decode(line: &str) -> Result<Request, ServiceError> {
        let value = Json::parse(line)
            .map_err(|e| ServiceError::malformed(format!("unparseable request: {e}")))?;
        Request::from_json(&value).map_err(ServiceError::malformed)
    }
}

/// Which store namespace a [`Request::PeerFetch`] addresses.  Only
/// `Programs` is ever fetched or served.  `Summaries` stays on the wire
/// for daemons from before PR 23, which served tables too: it still
/// encodes and decodes, its inventory list is always empty, and a fetch
/// for it is answered as an evicted key is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerNamespace {
    Programs,
    Summaries,
}

names!(PeerNamespace { Programs => "programs", Summaries => "summaries" });

/// What the analysis-only [`Request::Analyze`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeSummary {
    /// Content fingerprint of the normalized program (the cache key).
    pub fingerprint: u64,
    /// Whether the program cache served the request.
    pub cache_hit: bool,
    /// Structural classification at `main`'s exit.
    pub structure: String,
    pub preserves_tree: bool,
    /// Structure warnings, rendered.
    pub warnings: Vec<String>,
    /// Rounds the interprocedural analysis needed.
    pub rounds: usize,
    /// Stable digest of the full analysis result.
    pub analysis_digest: u64,
}

record!(AnalyzeSummary {
    "fingerprint" => fingerprint as Hex,
    "cache_hit" => cache_hit,
    "structure" => structure,
    "preserves_tree" => preserves_tree,
    "warnings" => warnings,
    "rounds" => rounds,
    "analysis_digest" => analysis_digest as Hex,
});

/// Daemon-side counters attached to a [`Response::Stats`] by the serving
/// `sild` process (absent when the service answers in process — there is
/// no server to count connections then).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Which server is answering.  There is one — a thread per
    /// connection — so this always reads `"threaded"`; the member stays
    /// because clients built when there were two require it in a `stats`
    /// reply.
    pub kind: String,
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Whole seconds since the server started serving.
    pub uptime_ticks: u64,
}

record!(ServerStats {
    "kind" => kind,
    "accepted" => accepted,
    "active" => active,
    "uptime_ticks" => uptime_ticks,
});

/// One trace span on the wire: a named interval attributed to a request
/// id, timestamped in process ticks (microseconds — see `silobs::ticks`),
/// carrying its trace-tree coordinates (`trace`/`span_id`/`parent`, all 0
/// for untraced spans) and the address of the daemon that recorded it.
/// The in-memory `silobs::SpanRecord` keeps a `&'static str` name; the
/// wire form owns its strings so a remote client can decode spans whose
/// names and origins it has never seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    pub request: u64,
    pub span: String,
    pub start_us: u64,
    pub end_us: u64,
    /// The trace this span belongs to; 0 means untraced.
    pub trace: u64,
    /// This span's own id; 0 only on spans decoded from a pre-tracing
    /// peer.
    pub span_id: u64,
    /// The parent span id; 0 means this span roots its trace.
    pub parent: u64,
    /// Listen address of the daemon that recorded the span, or
    /// `"in-process"`.
    pub origin: String,
}

// The tree members default so spans from a pre-tracing peer still decode
// (as untraced, locally recorded ones).
record!(TraceSpan: |it| {
    "request" => request = &it.request,
    "span" => span = &it.span,
    "start_us" => start_us = &it.start_us,
    "end_us" => end_us = &it.end_us,
    "duration_us" => _duration_us [derived] = &it.duration_us(),
    "trace" => trace as Hex [or 0] = &it.trace,
    "span_id" => span_id as Hex [or 0] = &it.span_id,
    "parent" => parent as Hex [or 0] = &it.parent,
    "origin" => origin [or "in-process".to_string()] = &it.origin,
} => TraceSpan { request, span, start_us, end_us, trace, span_id, parent, origin });

impl TraceSpan {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Render spans as ndjson, one object per line (trailing newline
    /// included when nonempty): tree coordinates appear (as unpadded hex)
    /// only when the span is traced, `origin` always.  The two strings are
    /// escaped — a span decoded from a remote reply carries whatever name
    /// and origin that daemon sent.
    pub fn to_ndjson(spans: &[TraceSpan]) -> String {
        let mut out = String::new();
        for span in spans {
            out.push_str(&format!(
                "{{\"request\":{},\"span\":\"{}\",\"start_us\":{},\"end_us\":{},\"duration_us\":{}",
                span.request,
                escape(&span.span),
                span.start_us,
                span.end_us,
                span.duration_us()
            ));
            if span.trace != 0 {
                out.push_str(&format!(
                    ",\"trace\":\"{:x}\",\"span_id\":\"{:x}\",\"parent\":\"{:x}\"",
                    span.trace, span.span_id, span.parent
                ));
            }
            out.push_str(&format!(",\"origin\":\"{}\"}}\n", escape(&span.origin)));
        }
        out
    }

    /// The in-memory form of a wire span, origin preserved — what a
    /// daemon adopts into its own ring when a peer piggybacks spans back.
    pub fn to_record(&self) -> SpanRecord {
        SpanRecord {
            request: self.request,
            name: std::borrow::Cow::Owned(self.span.clone()),
            start_us: self.start_us,
            end_us: self.end_us,
            trace: self.trace,
            span_id: self.span_id,
            parent: self.parent,
            origin: Some(std::sync::Arc::from(self.origin.as_str())),
        }
    }
}

impl From<&SpanRecord> for TraceSpan {
    fn from(record: &SpanRecord) -> TraceSpan {
        TraceSpan {
            request: record.request,
            span: record.name.to_string(),
            start_us: record.start_us,
            end_us: record.end_us,
            trace: record.trace,
            span_id: record.span_id,
            parent: record.parent,
            origin: record.origin.as_deref().unwrap_or("in-process").to_string(),
        }
    }
}

record!(HistogramSummary {
    "count" => count,
    "sum" => sum,
    "min" => min,
    "max" => max,
    "p50" => p50,
    "p90" => p90,
    "p99" => p99,
    "p999" => p999,
});

// Three name → value maps, histograms as quantile summaries.
record!(MetricsSnapshot {
    "counters" => counters as Named,
    "gauges" => gauges as Named,
    "histograms" => histograms as Named,
});

record!(HistorySample { "at_us" => at_us, "metrics" => metrics });

/// A response from the analysis service.  Every variant carries the
/// responder's protocol version — on a version mismatch the client reads
/// the supported version out of the [`Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Analyze`].
    Analyzed {
        version: u32,
        summary: AnalyzeSummary,
        /// The answering daemon's spans for the request's trace, empty
        /// unless the request carried a [`TraceHeader`] — the piggyback
        /// that lets the origin daemon assemble a cross-daemon tree.
        trace_spans: Vec<TraceSpan>,
    },
    /// Answer to [`Request::Process`].
    Report {
        version: u32,
        report: ProgramReport,
        /// See [`Response::Analyzed::trace_spans`].
        trace_spans: Vec<TraceSpan>,
    },
    /// Answer to [`Request::Batch`]: per-input report or error, in input
    /// order.
    Batch {
        version: u32,
        items: Vec<Result<ProgramReport, ServiceError>>,
        /// See [`Response::Analyzed::trace_spans`].
        trace_spans: Vec<TraceSpan>,
    },
    /// Answer to [`Request::Stats`]: the engine's view counters as `total`
    /// (and once more as the single element of `shards`, which daemons
    /// that hosted several engines filled with one entry each — the
    /// member is required, so it stays for older clients), the store's own
    /// per-namespace and per-stripe counters, and — when a daemon answers
    /// — the server's connection counters.
    Stats {
        version: u32,
        shards: Vec<EngineStats>,
        total: EngineStats,
        store: Box<StoreStats>,
        server: Option<ServerStats>,
    },
    /// Answer to [`Request::Metrics`]: the observability registry of the
    /// answering service — engine/store instruments, plus the server
    /// layer's own (`server.*`) when a daemon answers.
    Metrics {
        version: u32,
        metrics: MetricsSnapshot,
    },
    /// Answer to [`Request::TraceDump`]: the retained trace spans, oldest
    /// first, merged with the server layer's own spans when a daemon
    /// answers.
    Trace { version: u32, spans: Vec<TraceSpan> },
    /// Answer to [`Request::ClearCaches`].
    Cleared { version: u32 },
    /// Answer to [`Request::Shutdown`]; the daemon exits after sending it.
    ShuttingDown { version: u32 },
    /// Answer to [`Request::PeerInventory`]: the answering store's
    /// generation (bumped on every cache clear, so a gossiper can discard
    /// a stale key set wholesale) and the program fingerprints it
    /// currently holds, sorted.  `summaries` is always empty from this
    /// build and ignored when an older one fills it.
    PeerInventory {
        version: u32,
        generation: u64,
        programs: Vec<u64>,
        summaries: Vec<u64>,
    },
    /// Answer to [`Request::PeerFetch`]: the entry document when the
    /// answering store holds the key (`body` is the same verifiable
    /// document the durable tier persists — see `store/entry.rs`),
    /// or `None` for a clean miss: the member is left out, and a `null`
    /// from another implementation reads the same.  The store generation
    /// rides along so a fetcher can tell a miss caused by eviction
    /// (generation unchanged since the last inventory) from one caused by
    /// a clear — in the latter case every key that store advertised
    /// belongs to a dead snapshot.
    PeerEntry {
        version: u32,
        namespace: PeerNamespace,
        key: u64,
        generation: u64,
        body: Option<Json>,
        /// See [`Response::Analyzed::trace_spans`].
        trace_spans: Vec<TraceSpan>,
    },
    /// Answer to [`Request::MetricsHistory`]: the flight recorder's
    /// retained samples, oldest first — cumulative counters and gauges,
    /// per-interval histogram quantiles.
    MetricsHistory {
        version: u32,
        samples: Vec<HistorySample>,
    },
    /// The request failed as a whole.
    Error { version: u32, error: ServiceError },
}

// Piggybacked spans ride last, and only when there are any, so every
// untraced response encodes byte-identically to its pre-tracing form.
message!(Response: |response| {
    "analyzed" => Analyzed { "summary" => summary } trace_spans,
    "report" => Report { "report" => report } trace_spans,
    "batch" => Batch { "items" => items } trace_spans,
    "stats" => Stats {
        "shards" => shards,
        "total" => total,
        "store" => store,
        "server" => server [opt],
    },
    "metrics" => Metrics { "metrics" => metrics },
    "trace" => Trace { "spans" => spans },
    "cleared" => Cleared {},
    "shutting_down" => ShuttingDown {},
    "peer_inventory" => PeerInventory {
        "generation" => generation,
        "programs" => programs as Hex,
        "summaries" => summaries as Hex,
    },
    "peer_entry" => PeerEntry {
        "namespace" => namespace,
        "key" => key as Hex,
        "generation" => generation,
        "body" => body [opt],
    } trace_spans,
    "metrics_history" => MetricsHistory { "samples" => samples },
    "error" => Error { "error" => error },
} "trace_spans" => Some(response.trace_spans()).filter(|spans| !spans.is_empty()));

// One batch item: the report, or why there is none.
record!(Result<ProgramReport, ServiceError>: |item| {
    "report" => report [opt] = item.as_ref().ok(),
    "error" => error [opt] = item.as_ref().err(),
} => match (report, error) {
    (Some(report), _) => Ok(report),
    (None, Some(error)) => Err(error),
    (None, None) => return Err("a batch item carries neither \"report\" nor \"error\"".into()),
});

impl Response {
    pub fn analyzed(summary: AnalyzeSummary) -> Response {
        Response::Analyzed {
            version: PROTOCOL_VERSION,
            summary,
            trace_spans: Vec::new(),
        }
    }

    pub fn report(report: ProgramReport) -> Response {
        Response::Report {
            version: PROTOCOL_VERSION,
            report,
            trace_spans: Vec::new(),
        }
    }

    pub fn batch(items: Vec<Result<ProgramReport, ServiceError>>) -> Response {
        Response::Batch {
            version: PROTOCOL_VERSION,
            items,
            trace_spans: Vec::new(),
        }
    }

    pub fn stats(shards: Vec<EngineStats>, store: StoreStats) -> Response {
        let mut total = EngineStats::default();
        for shard in &shards {
            total.absorb(shard);
        }
        Response::Stats {
            version: PROTOCOL_VERSION,
            shards,
            total,
            store: Box::new(store),
            server: None,
        }
    }

    /// Attach daemon-side server counters to a [`Response::Stats`] (the
    /// serving `sild` process does this on the way out; other responses
    /// pass through unchanged).
    pub fn with_server_stats(mut self, stats: ServerStats) -> Response {
        if let Response::Stats { server, .. } = &mut self {
            *server = Some(stats);
        }
        self
    }

    pub fn metrics(metrics: MetricsSnapshot) -> Response {
        Response::Metrics {
            version: PROTOCOL_VERSION,
            metrics,
        }
    }

    pub fn trace(spans: Vec<TraceSpan>) -> Response {
        Response::Trace {
            version: PROTOCOL_VERSION,
            spans,
        }
    }

    pub fn cleared() -> Response {
        Response::Cleared {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn shutting_down() -> Response {
        Response::ShuttingDown {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn peer_inventory(generation: u64, programs: Vec<u64>, summaries: Vec<u64>) -> Response {
        Response::PeerInventory {
            version: PROTOCOL_VERSION,
            generation,
            programs,
            summaries,
        }
    }

    pub fn peer_entry(
        namespace: PeerNamespace,
        key: u64,
        generation: u64,
        body: Option<Json>,
    ) -> Response {
        Response::PeerEntry {
            version: PROTOCOL_VERSION,
            namespace,
            key,
            generation,
            body,
            trace_spans: Vec::new(),
        }
    }

    pub fn metrics_history(samples: Vec<HistorySample>) -> Response {
        Response::MetricsHistory {
            version: PROTOCOL_VERSION,
            samples,
        }
    }

    /// The piggyback slot of the kinds that have one — only work-carrying
    /// responses do.
    fn spans_mut(&mut self) -> Option<&mut Vec<TraceSpan>> {
        match self {
            Response::Analyzed { trace_spans, .. }
            | Response::Report { trace_spans, .. }
            | Response::Batch { trace_spans, .. }
            | Response::PeerEntry { trace_spans, .. } => Some(trace_spans),
            _ => None,
        }
    }

    /// The piggybacked callee spans this response carries (empty on kinds
    /// that cannot carry them).
    pub fn trace_spans(&self) -> &[TraceSpan] {
        match self {
            Response::Analyzed { trace_spans, .. }
            | Response::Report { trace_spans, .. }
            | Response::Batch { trace_spans, .. }
            | Response::PeerEntry { trace_spans, .. } => trace_spans,
            _ => &[],
        }
    }

    /// Take the piggybacked spans out for adoption into a local tracer,
    /// leaving the response otherwise intact.
    pub fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        self.spans_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Attach the answering daemon's spans for the request's trace (a
    /// no-op on kinds that cannot carry them).
    pub fn with_trace_spans(mut self, spans: Vec<TraceSpan>) -> Response {
        if let Some(slot) = self.spans_mut() {
            *slot = spans;
        }
        self
    }

    pub fn error(error: ServiceError) -> Response {
        Response::Error {
            version: PROTOCOL_VERSION,
            error,
        }
    }

    /// One-line wire encoding.
    pub fn encode(&self) -> String {
        super::wire::encode(self)
    }

    pub fn decode(line: &str) -> Result<Response, ServiceError> {
        let value = Json::parse(line)
            .map_err(|e| ServiceError::malformed(format!("unparseable response: {e}")))?;
        Response::from_json(&value).map_err(ServiceError::malformed)
    }
}

/// What went wrong, coarsely classified for the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The source did not parse or type check.
    Frontend,
    /// Execution was requested and the interpreter rejected the program.
    Runtime,
    /// The request spoke an unsupported protocol version.
    Protocol,
    /// The transport failed (connect, read, or write).
    Transport,
    /// The message was not a well-formed protocol message.
    Malformed,
}

names!(local ErrorKind {
    Frontend => "frontend",
    Runtime => "runtime",
    Protocol => "protocol",
    Transport => "transport",
    Malformed => "malformed",
});

/// A service-level failure that travels over the wire.
///
/// Renders exactly like [`EngineError`] for the frontend/runtime kinds
/// (`frontend: …` / `runtime: …`), so a remote client's error output is
/// byte-identical to an in-process run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    pub kind: ErrorKind,
    pub message: String,
}

record!(ServiceError { "kind" => kind, "message" => message });

impl ServiceError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServiceError {
        ServiceError {
            kind,
            message: message.into(),
        }
    }

    pub fn malformed(message: impl Into<String>) -> ServiceError {
        ServiceError::new(ErrorKind::Malformed, message)
    }

    pub fn transport(message: impl Into<String>) -> ServiceError {
        ServiceError::new(ErrorKind::Transport, message)
    }

    /// The error a service answers when a request speaks a version it does
    /// not support.
    pub fn version_mismatch(got: u32) -> ServiceError {
        ServiceError::new(
            ErrorKind::Protocol,
            format!(
                "protocol version {got} is not supported; this service speaks {PROTOCOL_VERSION}"
            ),
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.wire_name(), self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<&EngineError> for ServiceError {
    fn from(e: &EngineError) -> ServiceError {
        match e {
            EngineError::Frontend(e) => ServiceError::new(ErrorKind::Frontend, e.to_string()),
            EngineError::Runtime(e) => ServiceError::new(ErrorKind::Runtime, e.clone()),
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> ServiceError {
        ServiceError::from(&e)
    }
}

// One cache, stripe, or view.
record!(CacheStats {
    "hits" => hits,
    "misses" => misses,
    "insertions" => insertions,
    "evictions" => evictions,
});

// One engine's per-namespace view counters (`summaries` always zero, kept
// for protocol v2 like the store's).
record!(EngineStats { "programs" => programs, "summaries" => summaries, "walks" => walks });

// One store namespace's counters.  (A reply from a daemon that still chose
// between eviction policies carries four more members describing the
// choice; they decode as any unknown member does: ignored.)
record!(NamespaceStats {
    "totals" => totals,
    "entries" => entries,
    "capacity" => capacity,
    "stripes" => stripes,
});

record!(DiskStats {
    "hits" => hits,
    "misses" => misses,
    "read_bytes" => read_bytes,
    "written_bytes" => written_bytes,
    "entries" => entries,
    "live_bytes" => live_bytes,
    "segments" => segments,
    "flushes" => flushes,
    "compactions" => compactions,
    "evictions" => evictions,
    "recovered_entries" => recovered_entries,
    "dropped_bytes" => dropped_bytes,
});

record!(PeerStats {
    "peers" => peers,
    "quarantined" => quarantined,
    "hits" => hits,
    "misses" => misses,
    "gossip_rounds" => gossip_rounds,
    "quarantines" => quarantines,
    "bytes_in" => bytes_in,
    "bytes_out" => bytes_out,
    "serves" => serves,
    "known_keys" => known_keys,
});

// The whole store snapshot.  `summaries` is always empty, with capacity 0:
// no table is memoized, and the member stays until protocol v3 because
// older clients require it.  A reply without `products` (a daemon that
// predates the namespace) decodes with an empty, zero-capacity one; `disk`
// is there when a disk tier is configured, `peer` when a ring is attached
// or this daemon has served peers.
record!(StoreStats {
    "programs" => programs,
    "summaries" => summaries,
    "walks" => walks,
    "products" => products [or NamespaceStats::default()],
    "disk" => disk [opt],
    "peer" => peer [opt],
});

#[cfg(test)]
mod tests {
    use super::super::wire::mutation;
    use super::*;

    fn sample_store_stats() -> StoreStats {
        let namespace = |entries: usize, capacity: usize| NamespaceStats {
            totals: CacheStats {
                hits: 7,
                misses: 3,
                insertions: 3,
                evictions: 1,
            },
            entries,
            capacity,
            stripes: vec![
                CacheStats {
                    hits: 7,
                    misses: 1,
                    insertions: 1,
                    evictions: 1,
                },
                CacheStats {
                    hits: 0,
                    misses: 2,
                    insertions: 2,
                    evictions: 0,
                },
            ],
        };
        StoreStats {
            programs: namespace(2, 256),
            summaries: namespace(5, 1024),
            walks: namespace(3, 512),
            products: namespace(1, 256),
            disk: Some(DiskStats {
                hits: 4,
                misses: 2,
                read_bytes: 4096,
                written_bytes: 8192,
                entries: 6,
                live_bytes: 8000,
                segments: 2,
                flushes: 3,
                compactions: 1,
                evictions: 1,
                recovered_entries: 5,
                dropped_bytes: 17,
            }),
            peer: Some(PeerStats {
                peers: 2,
                quarantined: 1,
                hits: 9,
                misses: 4,
                gossip_rounds: 31,
                quarantines: 1,
                bytes_in: 2048,
                bytes_out: 512,
                serves: 6,
                known_keys: 11,
            }),
        }
    }

    /// What a reader assumes for a member the document lacks.
    enum Assumed {
        /// `None`: the member stays out when the value is written back.
        Nothing,
        /// This value, written back in the member's place.
        Value(&'static str),
        /// Whatever the other members imply; never read.
        Derived,
    }
    use Assumed::{Derived, Nothing, Value};

    const NO_ID: Assumed = Value("\"0000000000000000\"");
    const NO_NAMESPACE: Assumed = Value(concat!(
        r#"{"totals":{"hits":0,"misses":0,"insertions":0,"evictions":0},"entries":0,"#,
        r#""capacity":0,"stripes":[]}"#
    ));

    /// Every member a message may lack, as `(enclosing member, member,
    /// what is assumed)`.  Anything not listed is required: the mutation
    /// pass below fails if deleting it still decodes, so a required member
    /// can never quietly become optional.
    const OPTIONAL: &[(&str, &str, Assumed)] = &[
        ("", "trace", Nothing),
        ("", "trace_spans", Nothing),
        ("", "server", Nothing),
        ("", "body", Nothing),
        ("store", "disk", Nothing),
        ("store", "peer", Nothing),
        ("store", "products", NO_NAMESPACE),
        ("report", "incremental", Nothing),
        ("report", "transforms", Nothing),
        ("report", "parallel_source", Nothing),
        ("report", "sequential_execution", Nothing),
        ("report", "parallel_execution", Nothing),
        ("spans", "duration_us", Derived),
        ("spans", "trace", NO_ID),
        ("spans", "span_id", NO_ID),
        ("spans", "parent", NO_ID),
        ("spans", "origin", Value("\"in-process\"")),
        ("trace_spans", "duration_us", Derived),
        ("trace_spans", "trace", NO_ID),
        ("trace_spans", "span_id", NO_ID),
        ("trace_spans", "parent", NO_ID),
        ("trace_spans", "origin", Value("\"in-process\"")),
    ];

    /// The two members any JSON value is accepted for: `body` is an opaque
    /// document (only the entry codec looks inside), `duration_us` is
    /// derived and ignored on input.
    const UNTYPED: &[&str] = &["body", "duration_us"];

    /// Damage every member of `line` in turn (see [`mutation::mutants`]):
    /// no mutant may panic, a member of the wrong type is malformed, and
    /// so is a missing one unless [`OPTIONAL`] lists it — in which case
    /// the message decodes to the sample with that member as assumed.
    fn mutate<M: std::fmt::Debug>(
        line: &str,
        decode: impl Fn(&str) -> Result<M, ServiceError>,
        encode: impl Fn(&M) -> String,
    ) {
        let sample = Json::parse(line).unwrap();
        let keyed = ["counters", "gauges", "histograms"];
        for mutant in mutation::mutants(&sample, &["body"], &keyed) {
            let decoded = decode(&mutant.document.encode());
            let (within, key) = mutant.member();
            let optional = OPTIONAL
                .iter()
                .find(|(outer, member, _)| (*outer, *member) == (within, key));
            match (mutant.deleted, optional) {
                (false, _) if UNTYPED.contains(&key) => {
                    decoded.unwrap_or_else(|e| panic!("{}: {e}", mutant.path()));
                }
                (false, _) | (true, None) => match decoded {
                    Err(error) => assert_eq!(error.kind, ErrorKind::Malformed, "{}", mutant.path()),
                    Ok(message) => panic!("{} still decodes: {message:?}", mutant.path()),
                },
                (true, Some((_, _, assumed))) => {
                    let expected = match assumed {
                        Nothing => mutant.document.clone(),
                        Value(json) => mutant.sample_with(&sample, Json::parse(json).unwrap()),
                        Derived => sample.clone(),
                    };
                    let message = decoded.unwrap_or_else(|e| panic!("{}: {e}", mutant.path()));
                    assert_eq!(encode(&message), expected.encode(), "{}", mutant.path());
                }
            }
        }
    }

    /// The streaming encoder writes exactly what the tree serializer
    /// writes for the document it encoded.
    fn assert_tree_agrees(line: &str) {
        assert_eq!(Json::parse(line).unwrap().encode(), line);
    }

    fn round_trip_request(request: Request) {
        let line = request.encode();
        assert!(!line.contains('\n'), "wire lines must be newline-free");
        assert_tree_agrees(&line);
        let back = Request::decode(&line).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.encode(), line);
        mutate(&line, Request::decode, Request::encode);
    }

    fn round_trip_response(response: Response) {
        let line = response.encode();
        assert!(!line.contains('\n'));
        assert_tree_agrees(&line);
        let back = Response::decode(&line).unwrap();
        assert_eq!(back, response);
        assert_eq!(back.encode(), line);
        mutate(&line, Response::decode, Response::encode);
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_request(Request::analyze("program p\nmain() {}\n"));
        round_trip_request(Request::process(
            "src with \"quotes\" and \u{1}",
            ProcessOptions {
                execute: true,
                store_capacity: 77,
                ..ProcessOptions::default()
            },
        ));
        round_trip_request(Request::batch(
            vec!["a".into(), "b\nb".into()],
            ProcessOptions::default(),
        ));
        round_trip_request(Request::stats());
        round_trip_request(Request::metrics());
        round_trip_request(Request::trace_dump());
        round_trip_request(Request::clear_caches());
        round_trip_request(Request::shutdown());
        round_trip_request(Request::peer_inventory());
        round_trip_request(Request::peer_fetch(PeerNamespace::Programs, 0xdead_beef));
        round_trip_request(Request::peer_fetch(PeerNamespace::Summaries, u64::MAX));
        round_trip_request(Request::metrics_history());
    }

    #[test]
    fn trace_header_is_optional_and_round_trips() {
        let header = TraceHeader {
            id: 0xabc,
            parent: 0x17,
        };
        for traced in [
            Request::analyze("program p\nmain() {}\n").with_trace(header),
            Request::process("x", ProcessOptions::default()).with_trace(header),
            Request::batch(vec!["a".into()], ProcessOptions::default()).with_trace(header),
            Request::peer_fetch(PeerNamespace::Summaries, 9).with_trace(header),
        ] {
            assert_eq!(traced.trace_header(), Some(header));
            round_trip_request(traced);
        }
        // Untraced requests stay bitwise free of the optional member, and
        // control requests never grow one.
        assert!(!Request::analyze("x").encode().contains("\"trace\""));
        assert_eq!(Request::stats().with_trace(header).trace_header(), None);
    }

    #[test]
    fn peer_responses_round_trip() {
        round_trip_response(Response::peer_inventory(
            3,
            vec![1, 0xabc, u64::MAX],
            vec![],
        ));
        round_trip_response(Response::peer_inventory(0, Vec::new(), Vec::new()));
        // A hit carries the codec document verbatim; a miss omits the key
        // entirely so old-style strict decoders never see a null.
        let body = Json::obj(vec![
            ("v", Json::Int(1)),
            ("fingerprint", super::super::json::hex64(0xfeed)),
        ]);
        round_trip_response(Response::peer_entry(
            PeerNamespace::Programs,
            0xfeed,
            2,
            Some(body),
        ));
        let miss = Response::peer_entry(PeerNamespace::Summaries, 7, 0, None);
        assert!(!miss.encode().contains("\"body\""));
        // …and a null from an implementation that writes one is the same
        // miss, not a body to verify.
        let null = miss.encode().replace('}', ",\"body\":null}");
        assert_eq!(Response::decode(&null), Ok(miss.clone()));
        round_trip_response(miss);
    }

    fn sample_metrics() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("engine.programs.hits".to_string(), 12),
                ("engine.programs.misses".to_string(), 3),
            ],
            gauges: vec![("server.queue_depth".to_string(), -1)],
            histograms: vec![(
                "server.serve_us".to_string(),
                HistogramSummary {
                    count: 100,
                    sum: 54_321,
                    min: 80,
                    max: 9_001,
                    p50: 420,
                    p90: 1_500,
                    p99: 7_777,
                    p999: 9_001,
                },
            )],
        }
    }

    /// An untraced local span, the shape the pre-tracing protocol carried.
    fn flat_span(request: u64, name: &str, start_us: u64, end_us: u64) -> TraceSpan {
        TraceSpan {
            request,
            span: name.into(),
            start_us,
            end_us,
            trace: 0,
            span_id: 0,
            parent: 0,
            origin: "in-process".into(),
        }
    }

    /// A traced span with tree coordinates and a daemon origin.
    fn tree_span(request: u64, name: &str, trace: u64, span_id: u64, parent: u64) -> TraceSpan {
        TraceSpan {
            request,
            span: name.into(),
            start_us: span_id * 10,
            end_us: span_id * 10 + 5,
            trace,
            span_id,
            parent,
            origin: "unix:/tmp/a.sock".into(),
        }
    }

    #[test]
    fn metrics_and_trace_responses_round_trip() {
        round_trip_response(Response::metrics(sample_metrics()));
        round_trip_response(Response::metrics(MetricsSnapshot::default()));
        round_trip_response(Response::trace(vec![
            flat_span(1, "parse", 10, 25),
            flat_span(1, "fixpoint", 26, 900),
            tree_span(2, "serve", 0x2a, 0x1f, 0x10),
        ]));
        round_trip_response(Response::trace(Vec::new()));
    }

    #[test]
    fn metrics_history_round_trips() {
        round_trip_request(Request::metrics_history());
        round_trip_response(Response::metrics_history(vec![
            HistorySample {
                at_us: 1_000_000,
                metrics: sample_metrics(),
            },
            HistorySample {
                at_us: 2_000_000,
                metrics: MetricsSnapshot::default(),
            },
        ]));
        round_trip_response(Response::metrics_history(Vec::new()));
    }

    #[test]
    fn trace_span_piggyback_rides_on_work_responses() {
        let spans = vec![tree_span(3, "serve", 0x2a, 0x1f, 0x10)];
        round_trip_response(
            Response::peer_entry(PeerNamespace::Summaries, 7, 1, None)
                .with_trace_spans(spans.clone()),
        );
        round_trip_response(
            Response::batch(vec![Err(ServiceError::new(ErrorKind::Frontend, "nope"))])
                .with_trace_spans(spans.clone()),
        );
        // Absent unless attached — untraced responses keep their exact
        // pre-tracing bytes — and a no-op on kinds that cannot carry it.
        assert!(!Response::cleared()
            .with_trace_spans(spans.clone())
            .encode()
            .contains("\"trace_spans\""));
        assert!(!Response::peer_entry(PeerNamespace::Summaries, 7, 1, None)
            .encode()
            .contains("\"trace_spans\""));
        let mut carried = Response::peer_entry(PeerNamespace::Programs, 1, 1, None)
            .with_trace_spans(spans.clone());
        assert_eq!(carried.trace_spans(), &spans[..]);
        assert_eq!(carried.take_trace_spans(), spans);
        assert_eq!(carried.trace_spans(), &[] as &[TraceSpan]);
    }

    #[test]
    fn wire_spans_adopt_back_into_records() {
        let span = tree_span(3, "peer-serve", 0x2a, 0x1f, 0x10);
        let record = span.to_record();
        assert_eq!(record.origin.as_deref(), Some("unix:/tmp/a.sock"));
        assert_eq!(record.trace, 0x2a);
        assert_eq!(TraceSpan::from(&record), span);
    }

    #[test]
    fn ndjson_is_one_object_per_line() {
        let spans = vec![
            flat_span(1, "parse", 10, 25),
            flat_span(1, "fixpoint", 26, 100),
        ];
        let dump = TraceSpan::to_ndjson(&spans);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"request\":1,\"span\":\"parse\",\"start_us\":10,\"end_us\":25,\
             \"duration_us\":15,\"origin\":\"in-process\"}"
        );
        assert!(lines[1].contains("\"span\":\"fixpoint\""));
    }

    #[test]
    fn ndjson_traced_spans_carry_tree_coordinates_and_origin() {
        let tracer = silobs::Tracer::new(8);
        tracer.set_origin("unix:/tmp/a.sock");
        tracer.record_span(SpanRecord {
            request: 2,
            name: "serve".into(),
            start_us: 4,
            end_us: 10,
            trace: 0x2a,
            span_id: 0x1f,
            parent: 0x10,
            origin: None,
        });
        let spans: Vec<TraceSpan> = tracer.snapshot().iter().map(TraceSpan::from).collect();
        assert_eq!(
            TraceSpan::to_ndjson(&spans),
            "{\"request\":2,\"span\":\"serve\",\"start_us\":4,\"end_us\":10,\
             \"duration_us\":6,\"trace\":\"2a\",\"span_id\":\"1f\",\"parent\":\"10\",\
             \"origin\":\"unix:/tmp/a.sock\"}\n"
        );
    }

    /// A span decoded from a remote `trace` reply carries whatever strings
    /// that daemon sent; the dump still prints one JSON object per line.
    #[test]
    fn ndjson_escapes_what_a_remote_daemon_named_its_spans() {
        let hostile = TraceSpan {
            span: "bad\"name\nsecond line".into(),
            origin: "unix:/tmp/\"quoted\".sock".into(),
            ..tree_span(5, "x", 0x2a, 0x20, 0x1f)
        };
        let reply = Response::trace(vec![flat_span(1, "parse", 10, 25), hostile.clone()]);
        let Response::Trace { spans, .. } = Response::decode(&reply.encode()).unwrap() else {
            panic!("a trace line decodes to a trace response");
        };
        let dump = TraceSpan::to_ndjson(&spans);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "{dump}");
        let parsed = Json::parse(lines[1]).expect("each line is one JSON object");
        assert_eq!(
            parsed.get("span").unwrap().as_str(),
            Some(hostile.span.as_str())
        );
        assert_eq!(
            parsed.get("origin").unwrap().as_str(),
            Some(hostile.origin.as_str())
        );
        assert_eq!(
            lines[0],
            "{\"request\":1,\"span\":\"parse\",\"start_us\":10,\"end_us\":25,\
             \"duration_us\":15,\"origin\":\"in-process\"}",
            "ordinary spans render the bytes they always have"
        );
    }

    #[test]
    fn every_simple_response_variant_round_trips() {
        round_trip_response(Response::analyzed(AnalyzeSummary {
            fingerprint: 0xfeed,
            cache_hit: true,
            structure: "TREE".into(),
            preserves_tree: true,
            warnings: vec!["w\n1".into()],
            rounds: 3,
            analysis_digest: 0xbeef,
        }));
        round_trip_response(Response::stats(
            vec![
                EngineStats::default(),
                EngineStats {
                    programs: CacheStats {
                        hits: 4,
                        misses: 2,
                        insertions: 2,
                        evictions: 0,
                    },
                    ..EngineStats::default()
                },
            ],
            sample_store_stats(),
        ));
        // The server-decorated form round-trips too, and the undecorated
        // form stays bitwise free of the optional key.
        round_trip_response(
            Response::stats(vec![EngineStats::default()], sample_store_stats()).with_server_stats(
                ServerStats {
                    kind: "async".into(),
                    accepted: 41,
                    active: 3,
                    uptime_ticks: 17,
                },
            ),
        );
        assert!(
            !Response::stats(vec![], sample_store_stats())
                .encode()
                .contains("\"server\""),
            "no daemon, no server member"
        );
        round_trip_response(Response::cleared());
        round_trip_response(Response::shutting_down());
        round_trip_response(Response::error(ServiceError::version_mismatch(99)));
        round_trip_response(Response::batch(vec![Err(ServiceError::new(
            ErrorKind::Frontend,
            "parse error at line 1",
        ))]));
        round_trip_response(Response::report(sample_report()));
        round_trip_response(Response::batch(vec![Ok(sample_report())]));
    }

    /// A report with every optional member present.
    fn sample_report() -> ProgramReport {
        let execution = crate::ExecutionReport {
            work: 10,
            span: 5,
            parallelism: 2.0,
            allocated_nodes: 7,
        };
        ProgramReport {
            name: "t".into(),
            fingerprint: 0xabcd,
            cache_hit: false,
            structure: "TREE".into(),
            preserves_tree: true,
            warnings: vec!["w".into()],
            rounds: 2,
            analysis_digest: 1,
            incremental: Some(crate::IncrementalReport {
                procedures_reused: 3,
                procedures_stale: 1,
                walks_performed: 2,
                walks_reused: 6,
            }),
            transforms: Some(3),
            violations: vec!["v".into()],
            parallel_source: Some("program t\n".into()),
            sequential_execution: Some(execution.clone()),
            parallel_execution: Some(execution),
        }
    }

    #[test]
    fn stats_total_aggregates_shard_views() {
        let a = EngineStats {
            programs: CacheStats {
                hits: 2,
                misses: 1,
                insertions: 1,
                evictions: 0,
            },
            ..EngineStats::default()
        };
        let b = EngineStats {
            programs: CacheStats {
                hits: 3,
                misses: 4,
                insertions: 4,
                evictions: 0,
            },
            ..EngineStats::default()
        };
        match Response::stats(vec![a, b], sample_store_stats()) {
            Response::Stats {
                total,
                shards,
                store,
                server,
                ..
            } => {
                assert_eq!(shards.len(), 2);
                assert_eq!(total.programs.hits, 5);
                assert_eq!(total.programs.misses, 5);
                assert_eq!(store.programs.entries, 2);
                assert_eq!(store.walks.capacity, 512);
                assert_eq!(server, None, "in-process stats carry no server");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Compatibility both ways across the optional `server` member: a
    /// stats line missing it decodes to `None`, and a stats line carrying
    /// unknown extra keys (a future peer) still decodes.
    #[test]
    fn optional_server_member_is_compatible_in_both_directions() {
        let bare = Response::stats(vec![EngineStats::default()], sample_store_stats());
        let decoded = Response::decode(&bare.encode()).unwrap();
        match &decoded {
            Response::Stats { server, .. } => assert_eq!(*server, None),
            other => panic!("{other:?}"),
        }

        let decorated = bare
            .clone()
            .with_server_stats(ServerStats {
                kind: "threaded".into(),
                accepted: 7,
                active: 1,
                uptime_ticks: 0,
            })
            .encode();
        match Response::decode(&decorated).unwrap() {
            Response::Stats { server, .. } => {
                let server = server.expect("decorated form carries the server");
                assert_eq!(server.kind, "threaded");
                assert_eq!(server.accepted, 7);
            }
            other => panic!("{other:?}"),
        }

        // A malformed server member is a decode error, not a silent None.
        let broken = decorated.replace("\"accepted\":7", "\"accepted\":\"x\"");
        assert!(Response::decode(&broken).is_err());
    }

    /// Same compatibility story for the optional `peer` member: absent on
    /// an unpeered store, present (and round-tripping) on a peered one.
    #[test]
    fn optional_peer_member_is_compatible_in_both_directions() {
        let mut stats = sample_store_stats();
        stats.peer = None;
        let bare = Response::stats(vec![EngineStats::default()], stats);
        assert!(
            !bare.encode().contains("\"peer\""),
            "no ring, no peer member"
        );
        match Response::decode(&bare.encode()).unwrap() {
            Response::Stats { store, .. } => assert_eq!(store.peer, None),
            other => panic!("{other:?}"),
        }

        let peered = Response::stats(vec![EngineStats::default()], sample_store_stats());
        match Response::decode(&peered.encode()).unwrap() {
            Response::Stats { store, .. } => {
                let peer = store.peer.expect("peered form carries the member");
                assert_eq!(peer.hits, 9);
                assert_eq!(peer.known_keys, 11);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The additive `products` member: carried (and round-tripping) by
    /// this version, and a v2 reply from a daemon that predates the
    /// namespace — no such member — still decodes.
    #[test]
    fn optional_products_member_is_compatible_in_both_directions() {
        let current = Response::stats(vec![EngineStats::default()], sample_store_stats());
        match Response::decode(&current.encode()).unwrap() {
            Response::Stats { store, .. } => {
                assert_eq!(store.products, sample_store_stats().products);
            }
            other => panic!("{other:?}"),
        }

        let Json::Obj(mut members) = Json::parse(&current.encode()).unwrap() else {
            panic!("a response line is an object");
        };
        for (key, value) in &mut members {
            if let ("store", Json::Obj(store)) = (key.as_str(), value) {
                store.retain(|(key, _)| key != "products");
            }
        }
        let older = Json::Obj(members).encode();
        assert!(!older.contains("\"products\""), "{older}");
        match Response::decode(&older).unwrap() {
            Response::Stats { store, .. } => {
                assert_eq!(store.programs, sample_store_stats().programs);
                assert_eq!(store.products.capacity, 0);
                assert_eq!(store.products.totals, CacheStats::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn version_travels_and_can_be_overridden() {
        let request = Request::stats().with_version(99);
        assert_eq!(request.version(), 99);
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded.version(), 99);
        assert_eq!(Response::cleared().version(), PROTOCOL_VERSION);
    }

    #[test]
    fn mismatch_error_names_the_supported_version() {
        let error = ServiceError::version_mismatch(7);
        assert_eq!(error.kind, ErrorKind::Protocol);
        assert!(error.message.contains("version 7"));
        assert!(error.message.contains(&PROTOCOL_VERSION.to_string()));
    }

    #[test]
    fn service_error_renders_like_engine_error() {
        let engine_err = EngineError::Runtime("store exhausted".into());
        let service_err = ServiceError::from(&engine_err);
        assert_eq!(service_err.to_string(), engine_err.to_string());
    }

    #[test]
    fn malformed_wire_data_is_rejected_not_panicked() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"protocol_version":1}"#,
            r#"{"protocol_version":1,"type":"warp"}"#,
            r#"{"type":"stats"}"#,
            r#"{"protocol_version":1,"type":"process","source":"x"}"#,
        ] {
            let err = Request::decode(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{line:?}");
        }
    }
}
