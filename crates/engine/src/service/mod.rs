//! The transport-agnostic service layer.
//!
//! Everything the engine can do is expressible as one typed
//! [`Request`] → [`Response`] exchange (see [`proto`]); the [`Service`]
//! trait abstracts *where* that exchange happens:
//!
//! * [`Engine`] — in process (the `sild` daemon hosts one of these behind
//!   its socket);
//! * [`remote::RemoteService`] — over a Unix or TCP socket speaking
//!   newline-delimited JSON to a `sild` daemon.
//!
//! `silp` is written against `dyn Service`, which is what makes
//! `--in-process` and `--connect` byte-identical: the same requests flow
//! through the same rendering code, only the transport differs.
//!
//! The [`Server`] behind a daemon's socket serves an [`Engine`], not any
//! `Service`: it records its spans and its `server.*` instruments into the
//! engine's one tracer and one registry, so the engine's `metrics` and
//! `trace_dump` answers cover the whole daemon.

pub mod json;
mod line;
pub mod proto;
pub mod remote;
pub mod server;
pub mod wire;

pub use json::{Json, JsonError};
pub use proto::{
    AnalyzeSummary, ErrorKind, PeerNamespace, Request, Response, ServerStats, ServiceError,
    TraceHeader, TraceSpan, PROTOCOL_VERSION,
};
pub use remote::RemoteService;
pub use server::{Server, ServerHandle, ServerOptions};

use crate::report::{ProcessOptions, ProgramReport};
use crate::store::StoreStats;
use crate::{AnalyzedProgram, Engine, EngineConfig, EngineStats};
use sil_lang::{frontend, program_fingerprint};
use silobs::{HistorySample, MetricsSnapshot, TraceContext};
use std::path::PathBuf;

/// Anything that answers protocol requests.
///
/// `call` is the entire API; the provided methods are typed conveniences
/// that unwrap the expected response variant.
pub trait Service {
    fn call(&self, request: Request) -> Response;

    /// [`Request::Process`] one source, expecting a report.
    fn process_source(
        &self,
        source: &str,
        options: &ProcessOptions,
    ) -> Result<ProgramReport, ServiceError> {
        match self.call(Request::process(source, options.clone())) {
            Response::Report { report, .. } => Ok(report),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("report", &other)),
        }
    }

    /// [`Request::Batch`] many sources, expecting per-input results in
    /// input order.
    fn process_sources(
        &self,
        sources: Vec<String>,
        options: &ProcessOptions,
    ) -> Result<Vec<Result<ProgramReport, ServiceError>>, ServiceError> {
        match self.call(Request::batch(sources, options.clone())) {
            Response::Batch { items, .. } => Ok(items),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("batch", &other)),
        }
    }

    /// [`Request::Stats`], expecting the engine's view counters, the
    /// store's own per-namespace counters, and — when the service is a
    /// daemon — the server's connection counters.
    fn service_stats(
        &self,
    ) -> Result<(EngineStats, StoreStats, Option<ServerStats>), ServiceError> {
        match self.call(Request::stats()) {
            Response::Stats {
                total,
                store,
                server,
                ..
            } => Ok((total, *store, server)),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// [`Request::Metrics`], expecting the service's observability
    /// registry (which holds a daemon's `server.*` entries too).
    fn service_metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        match self.call(Request::metrics()) {
            Response::Metrics { metrics, .. } => Ok(metrics),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// [`Request::TraceDump`], expecting the retained spans in start order.
    fn service_trace(&self) -> Result<Vec<TraceSpan>, ServiceError> {
        match self.call(Request::trace_dump()) {
            Response::Trace { spans, .. } => Ok(spans),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("trace", &other)),
        }
    }

    /// [`Request::MetricsHistory`], expecting the flight recorder's
    /// retained samples oldest-first (only a daemon hosts a recorder).
    fn service_metrics_history(&self) -> Result<Vec<HistorySample>, ServiceError> {
        match self.call(Request::metrics_history()) {
            Response::MetricsHistory { samples, .. } => Ok(samples),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("metrics_history", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::malformed(format!(
        "expected a {wanted} response, got {:?}",
        got.kind()
    ))
}

impl Engine {
    /// Answer one protocol request in process: the one dispatch table
    /// behind `silp --in-process` and behind a daemon's socket alike.
    ///
    /// The named methods ([`Engine::analyze_source`], [`Engine::process`],
    /// [`Engine::process_batch`], …) remain as thin typed wrappers for
    /// callers that want Rust results instead of protocol values.
    pub fn serve(&self, request: Request) -> Response {
        if request.version() != PROTOCOL_VERSION {
            return Response::error(ServiceError::version_mismatch(request.version()));
        }
        // Spans recorded below need a request id to attribute to.  Under a
        // daemon the server minted one (and established the trace context)
        // when it framed the line; in-process callers get one minted here
        // — honoring a trace header if the caller attached one — so traces
        // look the same either way.
        match silobs::current_request() {
            Some(_) => self.dispatch(request),
            None => {
                let header = request.trace_header();
                let ctx = TraceContext {
                    request: self.tracer().mint(),
                    trace: header.map_or(0, |h| h.id),
                    parent: header.map_or(0, |h| h.parent),
                };
                silobs::with_context(ctx, || self.dispatch(request))
            }
        }
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Analyze { source, .. } => match self.analyze_digested(&source) {
                Ok((entry, cache_hit)) => Response::analyzed(summarize(&entry, cache_hit)),
                Err(e) => Response::error((&e).into()),
            },
            Request::Process {
                source, options, ..
            } => match self.process(&source, &options) {
                Ok(report) => Response::report(report),
                Err(e) => Response::error((&e).into()),
            },
            Request::Batch {
                sources, options, ..
            } => Response::batch(
                self.process_batch(&sources, &options)
                    .into_iter()
                    .map(|r| r.map_err(|e| (&e).into()))
                    .collect(),
            ),
            // `shards` stays on the wire as a one-element array beside
            // `total`: an older `silp` requires the member to handshake.
            Request::Stats { .. } => Response::stats(vec![self.stats()], self.store_stats()),
            Request::Metrics { .. } => Response::metrics(self.metrics_raw().summarize()),
            // Ring plus slow captures, each span once; under a daemon the
            // ring holds the server's spans too.
            Request::TraceDump { .. } => {
                let mut spans: Vec<TraceSpan> = self
                    .tracer()
                    .snapshot_all()
                    .iter()
                    .map(TraceSpan::from)
                    .collect();
                spans.sort_by_key(|span| (span.start_us, span.request));
                Response::trace(spans)
            }
            Request::ClearCaches { .. } => {
                self.clear_caches();
                Response::cleared()
            }
            // Peer requests answer from the store's own tiers (memory, then
            // disk) as the entry document the fetcher will re-verify: no
            // recomputation and no consulting *this* daemon's ring, so a
            // fetch from a peer can never fan back out into the cluster.
            // Only programs are served.  The `summaries` list stays on the
            // wire, always empty, so a daemon from before PR 23 never asks
            // for a table; if one asks anyway, `peer_body` answers what an
            // evicted key gets and the asker forgets the advertisement.
            Request::PeerInventory { .. } => {
                let _span = self.tracer().start("peer-serve");
                let (generation, programs) = self.store().peer_inventory();
                Response::peer_inventory(generation, programs, Vec::new())
            }
            Request::PeerFetch { namespace, key, .. } => {
                let _span = self.tracer().start("peer-serve");
                let body = self.store().peer_body(namespace, key);
                Response::peer_entry(namespace, key, self.store().generation(), body)
            }
            // In process there is nothing to shut down; the daemon's server
            // loop intercepts this variant before it reaches the engine.
            Request::Shutdown { .. } => Response::shutting_down(),
            // Only a daemon hosts a flight recorder; its server loop
            // intercepts this variant before it reaches the engine.
            Request::MetricsHistory { .. } => Response::error(ServiceError::malformed(
                "metrics_history needs a daemon's flight recorder; connect to a sild instead",
            )),
        }
    }
}

fn summarize(entry: &AnalyzedProgram, cache_hit: bool) -> AnalyzeSummary {
    AnalyzeSummary {
        fingerprint: entry.fingerprint,
        cache_hit,
        structure: entry
            .analysis
            .procedure("main")
            .map(|p| p.exit.structure.to_string())
            .unwrap_or_else(|| "UNKNOWN".to_string()),
        preserves_tree: entry.analysis.preserves_tree(),
        warnings: entry
            .analysis
            .warnings
            .iter()
            .map(|w| w.to_string())
            .collect(),
        rounds: entry.analysis.rounds,
        analysis_digest: entry.analysis.digest(),
    }
}

impl Service for Engine {
    fn call(&self, request: Request) -> Response {
        self.serve(request)
    }
}

// Frozen shim: `benchmark/src/layers/adapter.rs` is the only caller of
// these two names and no PR outside a `benchmark` issue may edit it;
// ROADMAP item 1(b) retires both.
pub struct ShardedService(Engine);

impl ShardedService {
    pub fn new(_count: usize, config: EngineConfig) -> ShardedService {
        ShardedService(Engine::new(config))
    }
}

impl Service for ShardedService {
    fn call(&self, request: Request) -> Response {
        self.0.serve(request)
    }
}

pub fn route_fingerprint(source: &str) -> u64 {
    frontend(source).map_or(0, |(program, _)| program_fingerprint(&program))
}

/// A listening or dialing address: `unix:<path>` or `tcp:<host:port>`.
/// Bare strings are accepted too — anything containing `/` is a Unix
/// socket path, anything else is a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    Unix(PathBuf),
    Tcp(String),
}

impl Addr {
    pub fn parse(text: &str) -> Result<Addr, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_string());
            }
            return Ok(Addr::Unix(PathBuf::from(path)));
        }
        if let Some(hostport) = text.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(format!("tcp address {hostport:?} needs host:port"));
            }
            return Ok(Addr::Tcp(hostport.to_string()));
        }
        if text.is_empty() {
            return Err("empty address".to_string());
        }
        if text.contains('/') {
            Ok(Addr::Unix(PathBuf::from(text)))
        } else if text.contains(':') {
            Ok(Addr::Tcp(text.to_string()))
        } else {
            Err(format!(
                "cannot tell what {text:?} is: use unix:<path> or tcp:<host:port>"
            ))
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_workloads::Workload;

    #[test]
    fn the_service_trait_answers_like_the_typed_methods() {
        let engine = Engine::default();
        let src = Workload::TreeSum.source(4);
        let report = engine
            .process_source(&src, &ProcessOptions::default())
            .unwrap();
        let direct = engine.process(&src, &ProcessOptions::default()).unwrap();
        assert_eq!(report.analysis_digest, direct.analysis_digest);
        assert_eq!(report.fingerprint, direct.fingerprint);
    }

    #[test]
    fn engine_serve_rejects_foreign_versions() {
        let engine = Engine::default();
        match engine.serve(Request::stats().with_version(1)) {
            Response::Error { error, version } => {
                assert_eq!(error.kind, ErrorKind::Protocol);
                assert_eq!(version, PROTOCOL_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn batch_keeps_input_order_and_matches_single_requests() {
        let sources: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.source(w.test_size()))
            .collect();
        let from_batch = Engine::default()
            .process_sources(sources.clone(), &ProcessOptions::default())
            .unwrap();
        let single = Engine::default();
        assert_eq!(from_batch.len(), sources.len());
        for (a, src) in from_batch.iter().zip(&sources) {
            let a = a.as_ref().unwrap();
            let b = single
                .process_source(src, &ProcessOptions::default())
                .unwrap();
            assert_eq!(a.name, b.name, "order must match");
            assert_eq!(a.analysis_digest, b.analysis_digest);
        }
    }

    #[test]
    fn clear_caches_empties_the_store() {
        let engine = Engine::default();
        for workload in [Workload::TreeSum, Workload::ListSum, Workload::Bisort] {
            let src = workload.source(3);
            engine.call(Request::analyze(src));
        }
        assert_eq!(engine.store_stats().programs.entries, 3);
        assert_eq!(engine.call(Request::clear_caches()), Response::cleared());
        let stats = engine.store_stats();
        assert_eq!(stats.programs.entries, 0);
        assert_eq!(stats.walks.entries, 0);
    }

    #[test]
    fn addr_parsing_covers_both_transports() {
        assert_eq!(
            Addr::parse("unix:/tmp/sild.sock").unwrap(),
            Addr::Unix(PathBuf::from("/tmp/sild.sock"))
        );
        assert_eq!(
            Addr::parse("/tmp/sild.sock").unwrap(),
            Addr::Unix(PathBuf::from("/tmp/sild.sock"))
        );
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7777").unwrap(),
            Addr::Tcp("127.0.0.1:7777".into())
        );
        assert_eq!(
            Addr::parse("localhost:7777").unwrap(),
            Addr::Tcp("localhost:7777".into())
        );
        assert!(Addr::parse("").is_err());
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("tcp:missingport").is_err());
        assert!(Addr::parse("sild").is_err());
        assert_eq!(Addr::parse("unix:/a/b").unwrap().to_string(), "unix:/a/b");
    }
}
