//! The versioned, transport-agnostic wire protocol: typed [`Request`] and
//! [`Response`] values with exact JSON codecs.
//!
//! Every message is one JSON object carrying a `protocol_version` and a
//! `type` discriminator; on the wire (see [`super::remote`] and
//! [`super::server`]) messages are newline-delimited.  The codecs are total
//! inverses: `decode(encode(m)) == m` for every message, which is what lets
//! a remote client reconstruct a [`ProgramReport`] bit-for-bit and render
//! output byte-identical to an in-process run.
//!
//! Version negotiation is deliberately simple: a server answers a request
//! whose `protocol_version` it does not speak with
//! [`ErrorKind::Protocol`], and every response carries the server's own
//! version, so a client learns the supported version from any error.

use super::json::{hex64, parse_hex64, Json};
use crate::report::{field, string_list, ProcessOptions, ProgramReport};
use crate::store::{
    DiskStats, EvictionPolicy, NamespaceStats, PeerStats, PolicyChoice, StoreStats,
};
use crate::{CacheStats, EngineError, EngineStats};
use silobs::{HistogramSummary, HistorySample, MetricsSnapshot, SpanRecord};
use std::collections::HashSet;

/// The one protocol version this build speaks.
///
/// v2: the `stats` response restructured — per-shard entries became pure
/// view counters (the `*_entries` fields moved out) and a required
/// `store` member carries the shared store's per-namespace/per-stripe
/// counters and live policy state.  A v1 peer cannot parse a v2 stats
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
/// that back summary-cache peering, and the *optional* `peer` member on
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

impl TraceHeader {
    fn to_json_value(self) -> Json {
        Json::obj(vec![("id", hex64(self.id)), ("parent", hex64(self.parent))])
    }

    fn from_json_value(value: &Json) -> Result<TraceHeader, String> {
        Ok(TraceHeader {
            id: parse_hex64(field(value, "id")?)?,
            parent: parse_hex64(field(value, "parent")?)?,
        })
    }
}

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
    /// Cache counters, per shard and aggregated.
    Stats { version: u32 },
    /// The observability registry: counters, gauges, and latency-histogram
    /// summaries from every layer (additive, still v2).
    Metrics { version: u32 },
    /// The retained trace spans from the service's ring buffer (additive,
    /// still v2).
    TraceDump { version: u32 },
    /// Drop every cached entry on every shard.
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

    /// The protocol version the request claims to speak.
    pub fn version(&self) -> u32 {
        match self {
            Request::Analyze { version, .. }
            | Request::Process { version, .. }
            | Request::Batch { version, .. }
            | Request::Stats { version }
            | Request::Metrics { version }
            | Request::TraceDump { version }
            | Request::ClearCaches { version }
            | Request::Shutdown { version }
            | Request::PeerInventory { version }
            | Request::PeerFetch { version, .. }
            | Request::MetricsHistory { version } => *version,
        }
    }

    /// The same request claiming a different protocol version (negotiation
    /// tests).
    pub fn with_version(mut self, v: u32) -> Request {
        match &mut self {
            Request::Analyze { version, .. }
            | Request::Process { version, .. }
            | Request::Batch { version, .. }
            | Request::Stats { version }
            | Request::Metrics { version }
            | Request::TraceDump { version }
            | Request::ClearCaches { version }
            | Request::Shutdown { version }
            | Request::PeerInventory { version }
            | Request::PeerFetch { version, .. }
            | Request::MetricsHistory { version } => *version = v,
        }
        self
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

    pub fn to_json_value(&self) -> Json {
        let (kind, mut fields): (&str, Vec<(&str, Json)>) = match self {
            Request::Analyze { source, .. } => {
                ("analyze", vec![("source", Json::Str(source.clone()))])
            }
            Request::Process {
                source, options, ..
            } => (
                "process",
                vec![
                    ("source", Json::Str(source.clone())),
                    ("options", options.to_json_value()),
                ],
            ),
            Request::Batch {
                sources, options, ..
            } => (
                "batch",
                vec![
                    (
                        "sources",
                        Json::Arr(sources.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    ("options", options.to_json_value()),
                ],
            ),
            Request::Stats { .. } => ("stats", vec![]),
            Request::Metrics { .. } => ("metrics", vec![]),
            Request::TraceDump { .. } => ("trace_dump", vec![]),
            Request::ClearCaches { .. } => ("clear_caches", vec![]),
            Request::Shutdown { .. } => ("shutdown", vec![]),
            Request::PeerInventory { .. } => ("peer_inventory", vec![]),
            Request::PeerFetch { namespace, key, .. } => (
                "peer_fetch",
                vec![
                    ("namespace", Json::Str(namespace.wire_name().to_string())),
                    ("key", hex64(*key)),
                ],
            ),
            Request::MetricsHistory { .. } => ("metrics_history", vec![]),
        };
        let mut all = vec![
            ("protocol_version", Json::Int(self.version() as i64)),
            ("type", Json::Str(kind.to_string())),
        ];
        all.append(&mut fields);
        // The optional trace member rides last so every untraced request
        // encodes byte-identically to its pre-tracing form.
        if let Some(header) = self.trace_header() {
            all.push(("trace", header.to_json_value()));
        }
        Json::obj(all)
    }

    /// One-line wire encoding (contains no raw newlines: the JSON encoder
    /// escapes every control character).
    pub fn encode(&self) -> String {
        self.to_json_value().encode()
    }

    pub fn from_json_value(value: &Json) -> Result<Request, ServiceError> {
        let version = field_version(value)?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::malformed("request is missing \"type\""))?;
        let source = |value: &Json| -> Result<String, ServiceError> {
            Ok(value
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| ServiceError::malformed("request is missing \"source\""))?
                .to_string())
        };
        let options = |value: &Json| -> Result<ProcessOptions, ServiceError> {
            let raw = value
                .get("options")
                .ok_or_else(|| ServiceError::malformed("request is missing \"options\""))?;
            ProcessOptions::from_json_value(raw).map_err(ServiceError::malformed)
        };
        let trace = |value: &Json| -> Result<Option<TraceHeader>, ServiceError> {
            value
                .get("trace")
                .map(TraceHeader::from_json_value)
                .transpose()
                .map_err(ServiceError::malformed)
        };
        match kind {
            "analyze" => Ok(Request::Analyze {
                version,
                source: source(value)?,
                trace: trace(value)?,
            }),
            "process" => Ok(Request::Process {
                version,
                source: source(value)?,
                options: options(value)?,
                trace: trace(value)?,
            }),
            "batch" => {
                let sources = value
                    .get("sources")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServiceError::malformed("request is missing \"sources\""))?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ServiceError::malformed("non-string batch source"))
                    })
                    .collect::<Result<Vec<String>, ServiceError>>()?;
                Ok(Request::Batch {
                    version,
                    sources,
                    options: options(value)?,
                    trace: trace(value)?,
                })
            }
            "stats" => Ok(Request::Stats { version }),
            "metrics" => Ok(Request::Metrics { version }),
            "trace_dump" => Ok(Request::TraceDump { version }),
            "clear_caches" => Ok(Request::ClearCaches { version }),
            "shutdown" => Ok(Request::Shutdown { version }),
            "peer_inventory" => Ok(Request::PeerInventory { version }),
            "peer_fetch" => Ok(Request::PeerFetch {
                version,
                namespace: peer_namespace(value)?,
                key: parse_hex64(field(value, "key").map_err(ServiceError::malformed)?)
                    .map_err(ServiceError::malformed)?,
                trace: trace(value)?,
            }),
            "metrics_history" => Ok(Request::MetricsHistory { version }),
            other => Err(ServiceError::malformed(format!(
                "unknown request type {other:?}"
            ))),
        }
    }

    pub fn decode(line: &str) -> Result<Request, ServiceError> {
        let value = Json::parse(line)
            .map_err(|e| ServiceError::malformed(format!("unparseable request: {e}")))?;
        Request::from_json_value(&value)
    }
}

/// Which store namespace a [`Request::PeerFetch`] addresses.  Only the
/// two durable namespaces are fetchable — walk records are derived data
/// that every daemon can rebuild from a fetched program, so shipping them
/// would spend bytes on nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerNamespace {
    Programs,
    Summaries,
}

impl PeerNamespace {
    pub fn wire_name(self) -> &'static str {
        match self {
            PeerNamespace::Programs => "programs",
            PeerNamespace::Summaries => "summaries",
        }
    }

    pub fn from_wire_name(name: &str) -> Option<PeerNamespace> {
        Some(match name {
            "programs" => PeerNamespace::Programs,
            "summaries" => PeerNamespace::Summaries,
            _ => return None,
        })
    }
}

fn peer_namespace(value: &Json) -> Result<PeerNamespace, ServiceError> {
    value
        .get("namespace")
        .and_then(Json::as_str)
        .and_then(PeerNamespace::from_wire_name)
        .ok_or_else(|| {
            ServiceError::malformed("\"namespace\" must be \"programs\" or \"summaries\"")
        })
}

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

impl AnalyzeSummary {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("fingerprint", hex64(self.fingerprint)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("structure", Json::Str(self.structure.clone())),
            ("preserves_tree", Json::Bool(self.preserves_tree)),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
            ("rounds", Json::Int(self.rounds as i64)),
            ("analysis_digest", hex64(self.analysis_digest)),
        ])
    }

    fn from_json_value(value: &Json) -> Result<AnalyzeSummary, String> {
        Ok(AnalyzeSummary {
            fingerprint: parse_hex64(field(value, "fingerprint")?)?,
            cache_hit: field(value, "cache_hit")?
                .as_bool()
                .ok_or("cache_hit must be a bool")?,
            structure: field(value, "structure")?
                .as_str()
                .ok_or("structure must be a string")?
                .to_string(),
            preserves_tree: field(value, "preserves_tree")?
                .as_bool()
                .ok_or("preserves_tree must be a bool")?,
            warnings: string_list(field(value, "warnings")?)?,
            rounds: field(value, "rounds")?
                .as_u64()
                .ok_or("rounds must be a count")? as usize,
            analysis_digest: parse_hex64(field(value, "analysis_digest")?)?,
        })
    }
}

/// Daemon-side counters attached to a [`Response::Stats`] by the serving
/// `sild` process (absent when the service answers in process — there is
/// no server to count connections then).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Which server is answering: `"threaded"` (one thread per
    /// connection) or `"async"` (the silio event loop).
    pub kind: String,
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Whole seconds since the server started serving.
    pub uptime_ticks: u64,
}

impl ServerStats {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.clone())),
            ("accepted", Json::Int(self.accepted as i64)),
            ("active", Json::Int(self.active as i64)),
            ("uptime_ticks", Json::Int(self.uptime_ticks as i64)),
        ])
    }

    fn from_json_value(value: &Json) -> Result<ServerStats, String> {
        let count = |key: &str| -> Result<u64, String> {
            field(value, key)?
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" must be a count"))
        };
        Ok(ServerStats {
            kind: field(value, "kind")?
                .as_str()
                .ok_or("\"kind\" must be a string")?
                .to_string(),
            accepted: count("accepted")?,
            active: count("active")?,
            uptime_ticks: count("uptime_ticks")?,
        })
    }
}

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

impl TraceSpan {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Render spans as ndjson, one object per line, byte-identical to
    /// `silobs::Tracer::to_ndjson` for the same spans: tree coordinates
    /// appear (as unpadded hex) only when the span is traced, `origin`
    /// always.
    pub fn to_ndjson(spans: &[TraceSpan]) -> String {
        let mut out = String::new();
        for span in spans {
            out.push_str(&format!(
                "{{\"request\":{},\"span\":\"{}\",\"start_us\":{},\"end_us\":{},\"duration_us\":{}",
                span.request,
                span.span,
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
            out.push_str(&format!(",\"origin\":\"{}\"}}\n", span.origin));
        }
        out
    }

    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("request", Json::Int(self.request as i64)),
            ("span", Json::Str(self.span.clone())),
            ("start_us", Json::Int(self.start_us as i64)),
            ("end_us", Json::Int(self.end_us as i64)),
            ("duration_us", Json::Int(self.duration_us() as i64)),
            ("trace", hex64(self.trace)),
            ("span_id", hex64(self.span_id)),
            ("parent", hex64(self.parent)),
            ("origin", Json::Str(self.origin.clone())),
        ])
    }

    fn from_json_value(value: &Json) -> Result<TraceSpan, String> {
        let count = |key: &str| -> Result<u64, String> {
            field(value, key)?
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" must be a count"))
        };
        // The tree fields are optional so spans from a pre-tracing peer
        // still decode (as untraced, locally recorded ones).
        let id = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .map(parse_hex64)
                .transpose()
                .map(|v| v.unwrap_or(0))
        };
        Ok(TraceSpan {
            request: count("request")?,
            span: field(value, "span")?
                .as_str()
                .ok_or("\"span\" must be a string")?
                .to_string(),
            start_us: count("start_us")?,
            end_us: count("end_us")?,
            trace: id("trace")?,
            span_id: id("span_id")?,
            parent: id("parent")?,
            origin: match value.get("origin") {
                Some(raw) => raw
                    .as_str()
                    .ok_or("\"origin\" must be a string")?
                    .to_string(),
                None => "in-process".to_string(),
            },
        })
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

/// Encode a [`MetricsSnapshot`] for the wire: three name→value maps, with
/// histograms as quantile-summary objects.
pub fn metrics_snapshot_to_json(snapshot: &MetricsSnapshot) -> Json {
    let counters = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value as i64)))
            .collect(),
    );
    let gauges = Json::Obj(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value)))
            .collect(),
    );
    let histograms = Json::Obj(
        snapshot
            .histograms
            .iter()
            .map(|(name, summary)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("count", Json::Int(summary.count as i64)),
                        ("sum", Json::Int(summary.sum as i64)),
                        ("min", Json::Int(summary.min as i64)),
                        ("max", Json::Int(summary.max as i64)),
                        ("p50", Json::Int(summary.p50 as i64)),
                        ("p90", Json::Int(summary.p90 as i64)),
                        ("p99", Json::Int(summary.p99 as i64)),
                        ("p999", Json::Int(summary.p999 as i64)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Inverse of [`metrics_snapshot_to_json`].
pub fn metrics_snapshot_from_json(value: &Json) -> Result<MetricsSnapshot, String> {
    let map = |key: &str| -> Result<&[(String, Json)], String> {
        field(value, key)?
            .as_obj()
            .ok_or_else(|| format!("\"{key}\" must be an object"))
    };
    let counters = map("counters")?
        .iter()
        .map(|(name, raw)| {
            raw.as_u64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("counter {name:?} must be a count"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let gauges = map("gauges")?
        .iter()
        .map(|(name, raw)| {
            raw.as_i64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("gauge {name:?} must be an integer"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let histograms = map("histograms")?
        .iter()
        .map(|(name, raw)| {
            let count = |key: &str| -> Result<u64, String> {
                field(raw, key)?
                    .as_u64()
                    .ok_or_else(|| format!("histogram {name:?} field \"{key}\" must be a count"))
            };
            Ok((
                name.clone(),
                HistogramSummary {
                    count: count("count")?,
                    sum: count("sum")?,
                    min: count("min")?,
                    max: count("max")?,
                    p50: count("p50")?,
                    p90: count("p90")?,
                    p99: count("p99")?,
                    p999: count("p999")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

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
    /// Answer to [`Request::Stats`]: one per-shard view-counter entry per
    /// engine shard, their field-wise aggregate (a single-engine service
    /// reports one shard), the shared store's own per-namespace and
    /// per-stripe counters, and — when a daemon answers — the server's
    /// connection counters.
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
    /// stale key sets wholesale) and the fingerprints it currently holds,
    /// sorted, per fetchable namespace.
    PeerInventory {
        version: u32,
        generation: u64,
        programs: Vec<u64>,
        summaries: Vec<u64>,
    },
    /// Answer to [`Request::PeerFetch`]: the entry's codec document when
    /// the answering store holds the key (`body` is the same verifiable
    /// JSON the durable tier persists), or `None` for a clean miss.  The
    /// store generation rides along so a fetcher can tell a miss caused
    /// by eviction (generation unchanged since the last inventory) from
    /// one caused by a clear — in the latter case every key that store
    /// advertised belongs to a dead snapshot.
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

    /// Splice the daemon's own `server.*` metrics into a
    /// [`Response::Metrics`] on its way out (other responses pass through
    /// unchanged) — the server-side sibling of [`Response::with_server_stats`].
    pub fn with_server_metrics(mut self, server: MetricsSnapshot) -> Response {
        if let Response::Metrics { metrics, .. } = &mut self {
            metrics.extend_disjoint(server);
        }
        self
    }

    /// Merge the daemon's own spans into a [`Response::Trace`] on its way
    /// out, keeping the combined dump ordered by start tick (other
    /// responses pass through unchanged).  Spans already present are
    /// skipped by span id — a slow capture held by the server tracer may
    /// duplicate spans still live in the service tracer's ring.
    pub fn with_server_spans(mut self, server: Vec<TraceSpan>) -> Response {
        if let Response::Trace { spans, .. } = &mut self {
            let mut seen: HashSet<u64> = spans
                .iter()
                .map(|span| span.span_id)
                .filter(|id| *id != 0)
                .collect();
            for span in server {
                if span.span_id == 0 || seen.insert(span.span_id) {
                    spans.push(span);
                }
            }
            spans.sort_by_key(|span| (span.start_us, span.request));
        }
        self
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
        match self {
            Response::Analyzed { trace_spans, .. }
            | Response::Report { trace_spans, .. }
            | Response::Batch { trace_spans, .. }
            | Response::PeerEntry { trace_spans, .. } => std::mem::take(trace_spans),
            _ => Vec::new(),
        }
    }

    /// Attach the answering daemon's spans for the request's trace (a
    /// no-op on kinds that cannot carry them — only work-carrying
    /// responses piggyback).
    pub fn with_trace_spans(mut self, spans: Vec<TraceSpan>) -> Response {
        if let Response::Analyzed { trace_spans, .. }
        | Response::Report { trace_spans, .. }
        | Response::Batch { trace_spans, .. }
        | Response::PeerEntry { trace_spans, .. } = &mut self
        {
            *trace_spans = spans;
        }
        self
    }

    pub fn error(error: ServiceError) -> Response {
        Response::Error {
            version: PROTOCOL_VERSION,
            error,
        }
    }

    /// The protocol version of whoever produced this response.
    pub fn version(&self) -> u32 {
        match self {
            Response::Analyzed { version, .. }
            | Response::Report { version, .. }
            | Response::Batch { version, .. }
            | Response::Stats { version, .. }
            | Response::Metrics { version, .. }
            | Response::Trace { version, .. }
            | Response::Cleared { version }
            | Response::ShuttingDown { version }
            | Response::PeerInventory { version, .. }
            | Response::PeerEntry { version, .. }
            | Response::MetricsHistory { version, .. }
            | Response::Error { version, .. } => *version,
        }
    }

    pub fn to_json_value(&self) -> Json {
        let (kind, mut fields): (&str, Vec<(&str, Json)>) = match self {
            Response::Analyzed { summary, .. } => {
                ("analyzed", vec![("summary", summary.to_json_value())])
            }
            Response::Report { report, .. } => ("report", vec![("report", report.to_json_value())]),
            Response::Batch { items, .. } => (
                "batch",
                vec![(
                    "items",
                    Json::Arr(
                        items
                            .iter()
                            .map(|item| match item {
                                Ok(report) => Json::obj(vec![("report", report.to_json_value())]),
                                Err(error) => Json::obj(vec![("error", error.to_json_value())]),
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::Stats {
                shards,
                total,
                store,
                server,
                ..
            } => {
                let mut fields = vec![
                    (
                        "shards",
                        Json::Arr(shards.iter().map(engine_stats_to_json).collect()),
                    ),
                    ("total", engine_stats_to_json(total)),
                    ("store", store_stats_to_json(store)),
                ];
                if let Some(server) = server {
                    fields.push(("server", server.to_json_value()));
                }
                ("stats", fields)
            }
            Response::Metrics { metrics, .. } => (
                "metrics",
                vec![("metrics", metrics_snapshot_to_json(metrics))],
            ),
            Response::Trace { spans, .. } => (
                "trace",
                vec![(
                    "spans",
                    Json::Arr(spans.iter().map(TraceSpan::to_json_value).collect()),
                )],
            ),
            Response::Cleared { .. } => ("cleared", vec![]),
            Response::ShuttingDown { .. } => ("shutting_down", vec![]),
            Response::PeerInventory {
                generation,
                programs,
                summaries,
                ..
            } => {
                let keys = |keys: &[u64]| Json::Arr(keys.iter().copied().map(hex64).collect());
                (
                    "peer_inventory",
                    vec![
                        ("generation", Json::Int(*generation as i64)),
                        ("programs", keys(programs)),
                        ("summaries", keys(summaries)),
                    ],
                )
            }
            Response::PeerEntry {
                namespace,
                key,
                generation,
                body,
                ..
            } => {
                let mut fields = vec![
                    ("namespace", Json::Str(namespace.wire_name().to_string())),
                    ("key", hex64(*key)),
                    ("generation", Json::Int(*generation as i64)),
                ];
                if let Some(body) = body {
                    fields.push(("body", body.clone()));
                }
                ("peer_entry", fields)
            }
            Response::MetricsHistory { samples, .. } => (
                "metrics_history",
                vec![(
                    "samples",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|sample| {
                                Json::obj(vec![
                                    ("at_us", Json::Int(sample.at_us as i64)),
                                    ("metrics", metrics_snapshot_to_json(&sample.metrics)),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            Response::Error { error, .. } => ("error", vec![("error", error.to_json_value())]),
        };
        let mut all = vec![
            ("protocol_version", Json::Int(self.version() as i64)),
            ("type", Json::Str(kind.to_string())),
        ];
        all.append(&mut fields);
        // Piggybacked spans ride last, and only when present, so every
        // untraced response encodes byte-identically to its pre-tracing
        // form.
        let trace_spans = self.trace_spans();
        if !trace_spans.is_empty() {
            all.push((
                "trace_spans",
                Json::Arr(trace_spans.iter().map(TraceSpan::to_json_value).collect()),
            ));
        }
        Json::obj(all)
    }

    /// One-line wire encoding.
    pub fn encode(&self) -> String {
        self.to_json_value().encode()
    }

    pub fn from_json_value(value: &Json) -> Result<Response, ServiceError> {
        let version = field_version(value)?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::malformed("response is missing \"type\""))?;
        let trace_spans = |value: &Json| -> Result<Vec<TraceSpan>, ServiceError> {
            match value.get("trace_spans") {
                None => Ok(Vec::new()),
                Some(raw) => raw
                    .as_arr()
                    .ok_or_else(|| ServiceError::malformed("\"trace_spans\" must be an array"))?
                    .iter()
                    .map(|s| TraceSpan::from_json_value(s).map_err(ServiceError::malformed))
                    .collect(),
            }
        };
        match kind {
            "analyzed" => {
                let raw = value
                    .get("summary")
                    .ok_or_else(|| ServiceError::malformed("missing \"summary\""))?;
                Ok(Response::Analyzed {
                    version,
                    summary: AnalyzeSummary::from_json_value(raw)
                        .map_err(ServiceError::malformed)?,
                    trace_spans: trace_spans(value)?,
                })
            }
            "report" => {
                let raw = value
                    .get("report")
                    .ok_or_else(|| ServiceError::malformed("missing \"report\""))?;
                Ok(Response::Report {
                    version,
                    report: ProgramReport::from_json_value(raw).map_err(ServiceError::malformed)?,
                    trace_spans: trace_spans(value)?,
                })
            }
            "batch" => {
                let raw = value
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServiceError::malformed("missing \"items\""))?;
                let items = raw
                    .iter()
                    .map(|item| {
                        if let Some(report) = item.get("report") {
                            ProgramReport::from_json_value(report)
                                .map(Ok)
                                .map_err(ServiceError::malformed)
                        } else if let Some(error) = item.get("error") {
                            ServiceError::from_json_value(error).map(Err)
                        } else {
                            Err(ServiceError::malformed(
                                "batch item carries neither \"report\" nor \"error\"",
                            ))
                        }
                    })
                    .collect::<Result<Vec<_>, ServiceError>>()?;
                Ok(Response::Batch {
                    version,
                    items,
                    trace_spans: trace_spans(value)?,
                })
            }
            "stats" => {
                let shards = value
                    .get("shards")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServiceError::malformed("missing \"shards\""))?
                    .iter()
                    .map(|s| engine_stats_from_json(s).map_err(ServiceError::malformed))
                    .collect::<Result<Vec<_>, ServiceError>>()?;
                let total = value
                    .get("total")
                    .ok_or_else(|| ServiceError::malformed("missing \"total\""))
                    .and_then(|t| engine_stats_from_json(t).map_err(ServiceError::malformed))?;
                let store = value
                    .get("store")
                    .ok_or_else(|| ServiceError::malformed("missing \"store\""))
                    .and_then(|s| store_stats_from_json(s).map_err(ServiceError::malformed))?;
                let server = value
                    .get("server")
                    .map(|s| ServerStats::from_json_value(s).map_err(ServiceError::malformed))
                    .transpose()?;
                Ok(Response::Stats {
                    version,
                    shards,
                    total,
                    store: Box::new(store),
                    server,
                })
            }
            "metrics" => {
                let raw = value
                    .get("metrics")
                    .ok_or_else(|| ServiceError::malformed("missing \"metrics\""))?;
                Ok(Response::Metrics {
                    version,
                    metrics: metrics_snapshot_from_json(raw).map_err(ServiceError::malformed)?,
                })
            }
            "trace" => {
                let spans = value
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServiceError::malformed("missing \"spans\""))?
                    .iter()
                    .map(|s| TraceSpan::from_json_value(s).map_err(ServiceError::malformed))
                    .collect::<Result<Vec<_>, ServiceError>>()?;
                Ok(Response::Trace { version, spans })
            }
            "cleared" => Ok(Response::Cleared { version }),
            "shutting_down" => Ok(Response::ShuttingDown { version }),
            "peer_inventory" => {
                let keys = |key: &str| -> Result<Vec<u64>, ServiceError> {
                    value
                        .get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| ServiceError::malformed(format!("missing \"{key}\"")))?
                        .iter()
                        .map(|raw| parse_hex64(raw).map_err(ServiceError::malformed))
                        .collect()
                };
                Ok(Response::PeerInventory {
                    version,
                    generation: value
                        .get("generation")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ServiceError::malformed("missing \"generation\""))?,
                    programs: keys("programs")?,
                    summaries: keys("summaries")?,
                })
            }
            "peer_entry" => Ok(Response::PeerEntry {
                version,
                namespace: peer_namespace(value)?,
                key: parse_hex64(field(value, "key").map_err(ServiceError::malformed)?)
                    .map_err(ServiceError::malformed)?,
                generation: value
                    .get("generation")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ServiceError::malformed("missing \"generation\""))?,
                body: value.get("body").cloned(),
                trace_spans: trace_spans(value)?,
            }),
            "metrics_history" => {
                let samples = value
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ServiceError::malformed("missing \"samples\""))?
                    .iter()
                    .map(|sample| {
                        let at_us = sample
                            .get("at_us")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| ServiceError::malformed("missing \"at_us\""))?;
                        let raw = sample
                            .get("metrics")
                            .ok_or_else(|| ServiceError::malformed("missing \"metrics\""))?;
                        Ok(HistorySample {
                            at_us,
                            metrics: metrics_snapshot_from_json(raw)
                                .map_err(ServiceError::malformed)?,
                        })
                    })
                    .collect::<Result<Vec<_>, ServiceError>>()?;
                Ok(Response::MetricsHistory { version, samples })
            }
            "error" => {
                let raw = value
                    .get("error")
                    .ok_or_else(|| ServiceError::malformed("missing \"error\""))?;
                Ok(Response::Error {
                    version,
                    error: ServiceError::from_json_value(raw)?,
                })
            }
            other => Err(ServiceError::malformed(format!(
                "unknown response type {other:?}"
            ))),
        }
    }

    pub fn decode(line: &str) -> Result<Response, ServiceError> {
        let value = Json::parse(line)
            .map_err(|e| ServiceError::malformed(format!("unparseable response: {e}")))?;
        Response::from_json_value(&value)
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

impl ErrorKind {
    fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::Frontend => "frontend",
            ErrorKind::Runtime => "runtime",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Transport => "transport",
            ErrorKind::Malformed => "malformed",
        }
    }

    fn from_wire_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "frontend" => ErrorKind::Frontend,
            "runtime" => ErrorKind::Runtime,
            "protocol" => ErrorKind::Protocol,
            "transport" => ErrorKind::Transport,
            "malformed" => ErrorKind::Malformed,
            _ => return None,
        })
    }
}

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

    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.wire_name().to_string())),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    fn from_json_value(value: &Json) -> Result<ServiceError, ServiceError> {
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_wire_name)
            .ok_or_else(|| ServiceError::malformed("error is missing a known \"kind\""))?;
        let message = value
            .get("message")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::malformed("error is missing \"message\""))?
            .to_string();
        Ok(ServiceError { kind, message })
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

fn field_version(value: &Json) -> Result<u32, ServiceError> {
    value
        .get("protocol_version")
        .and_then(Json::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| ServiceError::malformed("message is missing \"protocol_version\""))
}

/// Encode a [`CacheStats`] (one cache, stripe, or view) for the wire.
pub fn cache_stats_to_json(stats: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("insertions", Json::Int(stats.insertions as i64)),
        ("evictions", Json::Int(stats.evictions as i64)),
    ])
}

fn cache_stats_from_json(value: &Json) -> Result<CacheStats, String> {
    let count = |key: &str| -> Result<u64, String> {
        field(value, key)?
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a count"))
    };
    Ok(CacheStats {
        hits: count("hits")?,
        misses: count("misses")?,
        insertions: count("insertions")?,
        evictions: count("evictions")?,
    })
}

/// Encode one engine's per-namespace view counters for the wire.
pub fn engine_stats_to_json(stats: &EngineStats) -> Json {
    Json::obj(vec![
        ("programs", cache_stats_to_json(&stats.programs)),
        ("summaries", cache_stats_to_json(&stats.summaries)),
        ("walks", cache_stats_to_json(&stats.walks)),
    ])
}

/// Inverse of [`engine_stats_to_json`].
pub fn engine_stats_from_json(value: &Json) -> Result<EngineStats, String> {
    Ok(EngineStats {
        programs: cache_stats_from_json(field(value, "programs")?)?,
        summaries: cache_stats_from_json(field(value, "summaries")?)?,
        walks: cache_stats_from_json(field(value, "walks")?)?,
    })
}

/// Encode one store namespace's counters and live policy state.
pub fn namespace_stats_to_json(stats: &NamespaceStats) -> Json {
    Json::obj(vec![
        ("totals", cache_stats_to_json(&stats.totals)),
        ("entries", Json::Int(stats.entries as i64)),
        ("capacity", Json::Int(stats.capacity as i64)),
        ("policy", Json::Str(stats.policy.name().to_string())),
        ("current", Json::Str(stats.current.name().to_string())),
        ("switches", Json::Int(stats.switches as i64)),
        ("ghost_hits", Json::Int(stats.ghost_hits as i64)),
        (
            "stripes",
            Json::Arr(stats.stripes.iter().map(cache_stats_to_json).collect()),
        ),
    ])
}

/// Inverse of [`namespace_stats_to_json`].
pub fn namespace_stats_from_json(value: &Json) -> Result<NamespaceStats, String> {
    let count = |key: &str| -> Result<u64, String> {
        field(value, key)?
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a count"))
    };
    Ok(NamespaceStats {
        totals: cache_stats_from_json(field(value, "totals")?)?,
        entries: count("entries")? as usize,
        capacity: count("capacity")? as usize,
        policy: field(value, "policy")?
            .as_str()
            .and_then(EvictionPolicy::from_name)
            .ok_or("\"policy\" must name an eviction policy")?,
        current: field(value, "current")?
            .as_str()
            .and_then(PolicyChoice::from_name)
            .ok_or("\"current\" must be \"lru\" or \"lfu\"")?,
        switches: count("switches")?,
        ghost_hits: count("ghost_hits")?,
        stripes: field(value, "stripes")?
            .as_arr()
            .ok_or("\"stripes\" must be an array")?
            .iter()
            .map(cache_stats_from_json)
            .collect::<Result<Vec<_>, String>>()?,
    })
}

/// Encode the durable disk tier's counters.
pub fn disk_stats_to_json(stats: &DiskStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("read_bytes", Json::Int(stats.read_bytes as i64)),
        ("written_bytes", Json::Int(stats.written_bytes as i64)),
        ("entries", Json::Int(stats.entries as i64)),
        ("live_bytes", Json::Int(stats.live_bytes as i64)),
        ("segments", Json::Int(stats.segments as i64)),
        ("flushes", Json::Int(stats.flushes as i64)),
        ("compactions", Json::Int(stats.compactions as i64)),
        ("evictions", Json::Int(stats.evictions as i64)),
        (
            "recovered_entries",
            Json::Int(stats.recovered_entries as i64),
        ),
        ("dropped_bytes", Json::Int(stats.dropped_bytes as i64)),
    ])
}

/// Inverse of [`disk_stats_to_json`].
pub fn disk_stats_from_json(value: &Json) -> Result<DiskStats, String> {
    let count = |key: &str| -> Result<u64, String> {
        field(value, key)?
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a count"))
    };
    Ok(DiskStats {
        hits: count("hits")?,
        misses: count("misses")?,
        read_bytes: count("read_bytes")?,
        written_bytes: count("written_bytes")?,
        entries: count("entries")?,
        live_bytes: count("live_bytes")?,
        segments: count("segments")?,
        flushes: count("flushes")?,
        compactions: count("compactions")?,
        evictions: count("evictions")?,
        recovered_entries: count("recovered_entries")?,
        dropped_bytes: count("dropped_bytes")?,
    })
}

/// Encode the peering tier's counters.
pub fn peer_stats_to_json(stats: &PeerStats) -> Json {
    Json::obj(vec![
        ("peers", Json::Int(stats.peers as i64)),
        ("quarantined", Json::Int(stats.quarantined as i64)),
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("gossip_rounds", Json::Int(stats.gossip_rounds as i64)),
        ("quarantines", Json::Int(stats.quarantines as i64)),
        ("bytes_in", Json::Int(stats.bytes_in as i64)),
        ("bytes_out", Json::Int(stats.bytes_out as i64)),
        ("serves", Json::Int(stats.serves as i64)),
        ("known_keys", Json::Int(stats.known_keys as i64)),
    ])
}

/// Inverse of [`peer_stats_to_json`].
pub fn peer_stats_from_json(value: &Json) -> Result<PeerStats, String> {
    let count = |key: &str| -> Result<u64, String> {
        field(value, key)?
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a count"))
    };
    Ok(PeerStats {
        peers: count("peers")?,
        quarantined: count("quarantined")?,
        hits: count("hits")?,
        misses: count("misses")?,
        gossip_rounds: count("gossip_rounds")?,
        quarantines: count("quarantines")?,
        bytes_in: count("bytes_in")?,
        bytes_out: count("bytes_out")?,
        serves: count("serves")?,
        known_keys: count("known_keys")?,
    })
}

/// Encode the whole store snapshot (all four namespaces, plus the disk
/// tier when one is configured and the peering tier when a ring is
/// attached or this daemon has served peers — each member is simply
/// absent otherwise, which protocol-version-2 decoders ignore, keeping
/// the changes additive).
pub fn store_stats_to_json(stats: &StoreStats) -> Json {
    let mut members = vec![
        ("programs", namespace_stats_to_json(&stats.programs)),
        ("summaries", namespace_stats_to_json(&stats.summaries)),
        ("walks", namespace_stats_to_json(&stats.walks)),
        ("products", namespace_stats_to_json(&stats.products)),
    ];
    if let Some(disk) = &stats.disk {
        members.push(("disk", disk_stats_to_json(disk)));
    }
    if let Some(peer) = &stats.peer {
        members.push(("peer", peer_stats_to_json(peer)));
    }
    Json::obj(members)
}

/// Inverse of [`store_stats_to_json`] (a missing `"disk"` member decodes
/// as a memory-only store, a missing `"peer"` member as an unpeered one,
/// and a missing `"products"` member — a daemon that predates the
/// namespace — as an empty, zero-capacity one).
pub fn store_stats_from_json(value: &Json) -> Result<StoreStats, String> {
    Ok(StoreStats {
        programs: namespace_stats_from_json(field(value, "programs")?)?,
        summaries: namespace_stats_from_json(field(value, "summaries")?)?,
        walks: namespace_stats_from_json(field(value, "walks")?)?,
        products: match value.get("products") {
            Some(products) => namespace_stats_from_json(products)?,
            None => NamespaceStats {
                totals: CacheStats::default(),
                entries: 0,
                capacity: 0,
                policy: EvictionPolicy::default(),
                current: PolicyChoice::Lru,
                switches: 0,
                ghost_hits: 0,
                stripes: Vec::new(),
            },
        },
        disk: value.get("disk").map(disk_stats_from_json).transpose()?,
        peer: value.get("peer").map(peer_stats_from_json).transpose()?,
    })
}

#[cfg(test)]
mod tests {
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
            policy: EvictionPolicy::Adaptive,
            current: PolicyChoice::Lfu,
            switches: 1,
            ghost_hits: 9,
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

    fn round_trip_request(request: Request) {
        let line = request.encode();
        assert!(!line.contains('\n'), "wire lines must be newline-free");
        let back = Request::decode(&line).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.encode(), line);
    }

    fn round_trip_response(response: Response) {
        let line = response.encode();
        assert!(!line.contains('\n'));
        let back = Response::decode(&line).unwrap();
        assert_eq!(back, response);
        assert_eq!(back.encode(), line);
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
        let body = Json::obj(vec![("v", Json::Int(1)), ("fingerprint", hex64(0xfeed))]);
        round_trip_response(Response::peer_entry(
            PeerNamespace::Programs,
            0xfeed,
            2,
            Some(body),
        ));
        let miss = Response::peer_entry(PeerNamespace::Summaries, 7, 0, None);
        assert!(!miss.encode().contains("\"body\""));
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
    fn server_metrics_decoration_splices_disjoint_namespaces() {
        let server = MetricsSnapshot {
            counters: vec![("server.accepted".to_string(), 4)],
            gauges: vec![("server.active".to_string(), 2)],
            histograms: Vec::new(),
        };
        match Response::metrics(sample_metrics()).with_server_metrics(server) {
            Response::Metrics { metrics, .. } => {
                assert_eq!(metrics.counter("engine.programs.hits"), Some(12));
                assert_eq!(metrics.counter("server.accepted"), Some(4));
                assert_eq!(metrics.gauge("server.active"), Some(2));
                let names: Vec<&str> = metrics.counters.iter().map(|(n, _)| n.as_str()).collect();
                let mut sorted = names.clone();
                sorted.sort();
                assert_eq!(names, sorted, "decorated counters stay sorted");
            }
            other => panic!("{other:?}"),
        }
        // Decoration leaves non-metrics responses untouched.
        assert_eq!(
            Response::cleared().with_server_metrics(MetricsSnapshot::default()),
            Response::cleared()
        );
    }

    #[test]
    fn server_span_decoration_merges_in_tick_order() {
        let engine_spans = vec![flat_span(2, "fixpoint", 50, 90)];
        let server_spans = vec![
            flat_span(2, "parse", 40, 45),
            flat_span(2, "encode", 95, 99),
        ];
        match Response::trace(engine_spans).with_server_spans(server_spans) {
            Response::Trace { spans, .. } => {
                let names: Vec<&str> = spans.iter().map(|s| s.span.as_str()).collect();
                assert_eq!(names, vec!["parse", "fixpoint", "encode"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn server_span_decoration_dedups_by_span_id() {
        let shared = tree_span(2, "serve", 0x2a, 0x1f, 0);
        // Span-id dedup: a slow capture on the server tracer can hold the
        // same span the service ring still retains.  Id-less (legacy)
        // spans are never collapsed.
        let merged = Response::trace(vec![shared.clone(), flat_span(2, "parse", 1, 2)])
            .with_server_spans(vec![
                shared,
                flat_span(2, "parse", 1, 2),
                tree_span(2, "encode", 0x2a, 0x20, 0x1f),
            ]);
        match merged {
            Response::Trace { spans, .. } => {
                assert_eq!(spans.iter().filter(|s| s.span == "serve").count(), 1);
                assert_eq!(spans.iter().filter(|s| s.span == "parse").count(), 2);
                assert_eq!(spans.iter().filter(|s| s.span == "encode").count(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_ndjson_matches_the_tracer_renderer() {
        let flat = SpanRecord {
            request: 3,
            name: "queue-wait".into(),
            start_us: 7,
            end_us: 19,
            trace: 0,
            span_id: 0,
            parent: 0,
            origin: Some("in-process".into()),
        };
        let traced = SpanRecord {
            request: 4,
            name: "serve".into(),
            start_us: 20,
            end_us: 90,
            trace: 0x2a,
            span_id: 0x1f,
            parent: 0x10,
            origin: Some("unix:/tmp/a.sock".into()),
        };
        let records = vec![flat, traced];
        let wire: Vec<TraceSpan> = records.iter().map(TraceSpan::from).collect();
        assert_eq!(
            TraceSpan::to_ndjson(&wire),
            silobs::Tracer::to_ndjson(&records),
            "wire renderer and in-process renderer must agree byte-for-byte"
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
