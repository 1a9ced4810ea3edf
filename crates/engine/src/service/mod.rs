//! The transport-agnostic service layer.
//!
//! Everything the engine can do is expressible as one typed
//! [`Request`] → [`Response`] exchange (see [`proto`]); the [`Service`]
//! trait abstracts *where* that exchange happens:
//!
//! * [`LocalService`] — in process, wrapping an [`Engine`];
//! * [`ShardedService`] — in process, routing across N engines by stable
//!   program fingerprint; the engines are views over **one shared
//!   [`SummaryStore`]**, so a given program's traffic concentrates on one
//!   shard while its cached summaries are visible to every shard (the
//!   `sild` daemon hosts one of these);
//! * [`remote::RemoteService`] — over a Unix or TCP socket speaking
//!   newline-delimited JSON to a `sild` daemon.
//!
//! `silp` is written against `dyn Service`, which is what makes
//! `--in-process` and `--connect` byte-identical: the same requests flow
//! through the same rendering code, only the transport differs.

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
use crate::store::{StoreStats, SummaryStore};
use crate::{
    export_analysis_metrics, export_store_metrics, AnalyzedProgram, Engine, EngineConfig,
    EngineError, EngineStats, Normalized,
};
use sil_lang::{frontend, program_fingerprint, SilError};
use silobs::{HistorySample, MetricsSnapshot, RawMetrics, TraceContext, Tracer};
use std::path::PathBuf;
use std::sync::Arc;

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

    /// [`Request::Stats`], expecting per-shard view counters, their
    /// aggregate, the shared store's own per-namespace counters, and —
    /// when the service is a daemon — the server's connection counters.
    #[allow(clippy::type_complexity)]
    fn service_stats(
        &self,
    ) -> Result<
        (
            Vec<EngineStats>,
            EngineStats,
            StoreStats,
            Option<ServerStats>,
        ),
        ServiceError,
    > {
        match self.call(Request::stats()) {
            Response::Stats {
                shards,
                total,
                store,
                server,
                ..
            } => Ok((shards, total, *store, server)),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// [`Request::Metrics`], expecting the service's observability
    /// registry (plus the daemon's own `server.*` entries when remote).
    fn service_metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        match self.call(Request::metrics()) {
            Response::Metrics { metrics, .. } => Ok(metrics),
            Response::Error { error, .. } => Err(error),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// [`Request::TraceDump`], expecting the retained spans oldest-first.
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

    /// The tracer this service records spans into, when it exposes one.
    /// The daemon uses it to name the service's origin, to collect
    /// piggybacked span trees, and to capture slow requests.
    fn service_tracer(&self) -> Option<Arc<Tracer>> {
        None
    }

    /// A raw (full-bucket) read of this service's metrics registry, when
    /// it can provide one — what the daemon's flight recorder samples.
    fn raw_metrics(&self) -> Option<RawMetrics> {
        None
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::malformed(format!(
        "expected a {wanted} response, got {:?}",
        got.kind()
    ))
}

/// Answer one peer fetch from `store`'s own tiers (memory, then disk) as
/// the entry document the fetcher will re-verify.  Never recomputes and
/// never consults the store's *own* peer ring — a peer-originated request
/// stops here, so fetch chains cannot loop through the cluster.
fn peer_entry_body(store: &SummaryStore, namespace: PeerNamespace, key: u64) -> Option<Json> {
    match namespace {
        PeerNamespace::Programs => store.peer_program_body(key),
        PeerNamespace::Summaries => store.peer_summary_body(key),
    }
}

/// The stable routing key for one source text: the content fingerprint of
/// its normalized program.  Sources that fail the frontend hash their raw
/// bytes instead (FNV-1a) — still deterministic, so the same broken input
/// always reaches the same shard and its error is reproducible.
pub fn route_fingerprint(source: &str) -> u64 {
    match frontend(source) {
        Ok((program, _)) => program_fingerprint(&program),
        Err(_) => raw_bytes_key(source),
    }
}

/// FNV-1a over the raw bytes: the routing key of a source the frontend
/// rejected.
fn raw_bytes_key(source: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in source.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Engine {
    /// The unified entry point every other entry point now routes through:
    /// answer one protocol request in process.
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

    /// Answer an `Analyze` (`options: None`) or `Process` request whose
    /// source already went through the front end — here, or in the
    /// [`ShardedService`] that routed it — so no request parses twice.
    fn answer(
        &self,
        normalized: Result<Normalized, SilError>,
        options: Option<&ProcessOptions>,
    ) -> Response {
        let answered = || -> Result<Response, EngineError> {
            let normalized = normalized?;
            Ok(match options {
                None => {
                    let (entry, cache_hit) = self.analyze_digested(normalized);
                    Response::analyzed(summarize(&entry, cache_hit))
                }
                Some(options) => Response::report(self.process_normalized(normalized, options)?),
            })
        };
        answered().unwrap_or_else(|e| Response::error((&e).into()))
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Analyze { source, .. } => {
                self.answer(Normalized::parse(self.tracer(), &source), None)
            }
            Request::Process {
                source, options, ..
            } => self.answer(Normalized::parse(self.tracer(), &source), Some(&options)),
            Request::Batch {
                sources, options, ..
            } => Response::batch(
                self.process_batch(&sources, &options)
                    .into_iter()
                    .map(|r| r.map_err(|e| (&e).into()))
                    .collect(),
            ),
            Request::Stats { .. } => Response::stats(vec![self.stats()], self.store_stats()),
            Request::Metrics { .. } => {
                let mut raw = self.metrics_raw();
                export_store_metrics(&self.store_stats(), &mut raw);
                export_analysis_metrics(&mut raw);
                if let Some(ring) = self.store().peers() {
                    raw.push_histogram("store.peer.fetch_us", &ring.fetch_us());
                }
                self.tracer().export_metrics(&mut raw);
                Response::metrics(raw.summarize())
            }
            Request::TraceDump { .. } => Response::trace(
                self.tracer()
                    .snapshot()
                    .iter()
                    .map(TraceSpan::from)
                    .collect(),
            ),
            Request::ClearCaches { .. } => {
                self.clear_caches();
                Response::cleared()
            }
            Request::PeerInventory { .. } => {
                let (generation, programs, summaries) = self.store().peer_inventory();
                Response::peer_inventory(generation, programs, summaries)
            }
            Request::PeerFetch { namespace, key, .. } => Response::peer_entry(
                namespace,
                key,
                self.store().generation(),
                peer_entry_body(self.store(), namespace, key),
            ),
            // In process there is nothing to shut down; the daemon's server
            // loop intercepts this variant before it reaches an engine.
            Request::Shutdown { .. } => Response::shutting_down(),
            // Only a daemon hosts a flight recorder; the server loop
            // intercepts this variant before it reaches an engine.
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

    fn service_tracer(&self) -> Option<Arc<Tracer>> {
        Some(self.tracer().clone())
    }
}

/// The in-process [`Service`]: one engine, zero transport.
#[derive(Debug, Default)]
pub struct LocalService {
    engine: Arc<Engine>,
}

impl LocalService {
    pub fn new(config: EngineConfig) -> LocalService {
        LocalService {
            engine: Arc::new(Engine::new(config)),
        }
    }

    /// Share an existing engine (its caches stay visible to other holders).
    pub fn over(engine: Arc<Engine>) -> LocalService {
        LocalService { engine }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Service for LocalService {
    fn call(&self, request: Request) -> Response {
        self.engine.serve(request)
    }

    fn service_tracer(&self) -> Option<Arc<Tracer>> {
        Some(self.engine.tracer().clone())
    }
}

/// N engines over **one shared [`SummaryStore`]** behind one [`Service`],
/// with requests routed by stable program fingerprint:
/// `shard = fingerprint % N`.
///
/// The routing rule concentrates each program's *traffic* on one engine
/// (so per-shard view counters are meaningful and batches parallelize one
/// thread per shard), while the shared store makes every shard's cache
/// *contents* visible to all the others: a cone analyzed on shard A is a
/// warm summary/walk hit for a different program homed to shard B.  The
/// store is internally lock-striped, so the shards do not serialize on a
/// global lock (the NDN caching literature frames this as cache placement:
/// one shared tier at full capacity beats private partitions of the same
/// total capacity, because shared content is stored once).
#[derive(Debug)]
pub struct ShardedService {
    store: Arc<SummaryStore>,
    shards: Vec<Arc<Engine>>,
    /// One tracer shared by every shard, so a dump interleaves spans from
    /// all of them in one tick-ordered stream.
    tracer: Arc<Tracer>,
    /// Answer `peer_inventory`/`peer_fetch` requests (`sild
    /// --no-peer-serve` turns this off; the refusal is indistinguishable
    /// from a pre-peering daemon, by design).
    peer_serve: bool,
}

impl ShardedService {
    /// `shard_count` engine views over one store built from `config`
    /// (`shard_count` is clamped to at least 1).
    pub fn new(shard_count: usize, config: EngineConfig) -> ShardedService {
        let store = SummaryStore::shared(config.store_config());
        ShardedService::over(shard_count, config, store)
    }

    /// `shard_count` engine views over an existing store.
    pub fn over(
        shard_count: usize,
        config: EngineConfig,
        store: Arc<SummaryStore>,
    ) -> ShardedService {
        // One span ring for every shard; a durable store contributes its
        // own tracer so `disk-recovery`/`disk-flush` spans are visible in
        // the same `TraceDump` as the request spans.
        let tracer = store
            .durable()
            .map(|tier| tier.tracer().clone())
            .unwrap_or_else(|| Arc::new(Tracer::default()));
        let shards = (0..shard_count.max(1))
            .map(|_| {
                Arc::new(
                    Engine::with_store(config.clone(), store.clone()).with_tracer(tracer.clone()),
                )
            })
            .collect();
        ShardedService {
            store,
            shards,
            tracer,
            peer_serve: true,
        }
    }

    /// Enable or disable answering peer inventory/fetch requests.
    pub fn with_peer_serve(mut self, peer_serve: bool) -> ShardedService {
        self.peer_serve = peer_serve;
        self
    }

    /// The tracer every shard records into.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The store every shard shares.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.store
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a fingerprint routes to.
    pub fn shard_for(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards.len() as u64) as usize
    }

    /// Which shard a source text routes to.
    pub fn shard_for_source(&self, source: &str) -> usize {
        self.shard_for(route_fingerprint(source))
    }

    /// The engine behind one shard (tests and benches peek at per-shard
    /// caches through this).
    pub fn shard(&self, index: usize) -> &Engine {
        &self.shards[index]
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.shards.iter().map(|engine| engine.stats()).collect()
    }

    fn batch(&self, sources: Vec<String>, options: &ProcessOptions) -> Response {
        if self.shards.len() == 1 {
            return self.shards[0].serve(Request::batch(sources, options.clone()));
        }
        // Partition by routing rule, keeping each source's original index
        // so the merged results come back in input order.  Routing is the
        // batch's one front-end pass: the shards get the parsed programs.
        let mut indices: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut parsed: Vec<Vec<Result<Normalized, SilError>>> = Vec::new();
        parsed.resize_with(self.shards.len(), Vec::new);
        {
            let _span = self.tracer.start("shard-dispatch");
            for (index, source) in sources.iter().enumerate() {
                let (shard, normalized) = self.route(source);
                indices[shard].push(index);
                parsed[shard].push(normalized);
            }
        }
        let mut merged: Vec<Option<Result<ProgramReport, ServiceError>>> = Vec::new();
        merged.resize_with(sources.len(), || None);
        // Scoped worker threads have no thread-local context of their own;
        // forward the dispatching thread's so per-shard spans stay in the
        // request's trace tree.
        let ctx = silobs::current_context();
        std::thread::scope(|scope| {
            let mut pending = Vec::new();
            for ((shard, indices), items) in self.shards.iter().zip(indices).zip(parsed) {
                if items.is_empty() {
                    continue;
                }
                pending.push(scope.spawn(move || {
                    silobs::with_context_opt(ctx, || {
                        shard
                            .process_normalized_batch(items, options)
                            .into_iter()
                            .zip(indices)
                            .map(|(result, index)| (index, result.map_err(|e| (&e).into())))
                            .collect::<Vec<_>>()
                    })
                }));
            }
            for handle in pending {
                for (index, result) in handle.join().expect("shard batch thread panicked") {
                    merged[index] = Some(result);
                }
            }
        });
        Response::batch(
            merged
                .into_iter()
                .map(|slot| slot.expect("index gap"))
                .collect(),
        )
    }
}

impl Service for ShardedService {
    fn call(&self, request: Request) -> Response {
        if request.version() != PROTOCOL_VERSION {
            return Response::error(ServiceError::version_mismatch(request.version()));
        }
        match silobs::current_request() {
            Some(_) => self.dispatch(request),
            None => {
                let header = request.trace_header();
                let ctx = TraceContext {
                    request: self.tracer.mint(),
                    trace: header.map_or(0, |h| h.id),
                    parent: header.map_or(0, |h| h.parent),
                };
                silobs::with_context(ctx, || self.dispatch(request))
            }
        }
    }

    fn service_tracer(&self) -> Option<Arc<Tracer>> {
        Some(self.tracer.clone())
    }

    fn raw_metrics(&self) -> Option<RawMetrics> {
        Some(self.metrics_raw())
    }
}

impl ShardedService {
    /// One front-end pass and one fingerprint decide the shard; the shard
    /// gets the parsed program, not the text.  A source the frontend
    /// rejects routes by its raw bytes ([`route_fingerprint`]'s rule), so
    /// its error stays reproducible.
    fn route(&self, source: &str) -> (usize, Result<Normalized, SilError>) {
        let normalized = Normalized::parse(&self.tracer, source);
        let key = match &normalized {
            Ok(normalized) => normalized.fingerprint(),
            Err(_) => raw_bytes_key(source),
        };
        (self.shard_for(key), normalized)
    }

    fn answer(&self, source: &str, options: Option<&ProcessOptions>) -> Response {
        let (shard, normalized) = {
            let _span = self.tracer.start("shard-dispatch");
            self.route(source)
        };
        self.shards[shard].answer(normalized, options)
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Analyze { source, .. } => self.answer(&source, None),
            Request::Process {
                source, options, ..
            } => self.answer(&source, Some(&options)),
            Request::Batch {
                sources, options, ..
            } => self.batch(sources, &options),
            Request::Stats { .. } => Response::stats(self.shard_stats(), self.store.stats()),
            Request::Metrics { .. } => Response::metrics(self.metrics_raw().summarize()),
            Request::TraceDump { .. } => {
                Response::trace(self.tracer.snapshot().iter().map(TraceSpan::from).collect())
            }
            // One clear empties the store every shard shares.
            Request::ClearCaches { .. } => {
                self.store.clear();
                Response::cleared()
            }
            // Peer requests answer from the shared store directly — no
            // shard routing, no recomputation, and no consulting *this*
            // daemon's ring, so a fetch from a peer can never fan back out
            // into the cluster.
            Request::PeerInventory { .. } if !self.peer_serve => {
                Response::error(ServiceError::malformed("peer serving is disabled"))
            }
            Request::PeerFetch { .. } if !self.peer_serve => {
                Response::error(ServiceError::malformed("peer serving is disabled"))
            }
            Request::PeerInventory { .. } => {
                let _span = self.tracer.start("peer-serve");
                let (generation, programs, summaries) = self.store.peer_inventory();
                Response::peer_inventory(generation, programs, summaries)
            }
            Request::PeerFetch { namespace, key, .. } => {
                let _span = self.tracer.start("peer-serve");
                Response::peer_entry(
                    namespace,
                    key,
                    self.store.generation(),
                    peer_entry_body(&self.store, namespace, key),
                )
            }
            Request::Shutdown { .. } => Response::shutting_down(),
            // Only a daemon hosts a flight recorder; its server loop
            // intercepts this variant before it reaches the service.
            Request::MetricsHistory { .. } => Response::error(ServiceError::malformed(
                "metrics_history needs a daemon's flight recorder; connect to a sild instead",
            )),
        }
    }

    /// The raw (full-bucket) registry read behind both the `Metrics`
    /// response and the daemon's flight recorder.  Shard registries merge
    /// at the raw level, so the combined histograms are exact; the shared
    /// store's counters fold in exactly once, not once per shard.
    pub fn metrics_raw(&self) -> silobs::RawMetrics {
        let mut raw = silobs::RawMetrics::new();
        for shard in &self.shards {
            raw.absorb(&shard.metrics_raw());
        }
        export_store_metrics(&self.store.stats(), &mut raw);
        export_analysis_metrics(&mut raw);
        if let Some(ring) = self.store.peers() {
            raw.push_histogram("store.peer.fetch_us", &ring.fetch_us());
        }
        self.tracer.export_metrics(&mut raw);
        raw
    }
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
    fn local_service_answers_like_the_engine() {
        let service = LocalService::new(EngineConfig::default());
        let src = Workload::TreeSum.source(4);
        let report = service
            .process_source(&src, &ProcessOptions::default())
            .unwrap();
        let direct = service
            .engine()
            .process(&src, &ProcessOptions::default())
            .unwrap();
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
    fn routing_is_stable_and_format_insensitive() {
        let src = Workload::TreeSum.source(4);
        let reformatted = format!("\n\n{}", src.replace("  ", "    "));
        assert_eq!(
            route_fingerprint(&src),
            route_fingerprint(&reformatted),
            "routing keys off the normalized program, not the text"
        );
        let broken = "program nope {";
        assert_eq!(route_fingerprint(broken), route_fingerprint(broken));
    }

    #[test]
    fn sharded_routing_pins_a_program_to_one_shard() {
        let service = ShardedService::new(4, EngineConfig::default());
        let src = Workload::AddAndReverse.source(4);
        let home = service.shard_for_source(&src);
        for _ in 0..3 {
            match service.call(Request::process(&src, ProcessOptions::default())) {
                Response::Report { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        let stats = service.shard_stats();
        for (index, shard) in stats.iter().enumerate() {
            let touched = shard.programs.hits + shard.programs.misses;
            if index == home {
                assert_eq!(touched, 3, "home shard serves every repeat");
                assert_eq!(shard.programs.hits, 2, "repeats hit the warm cache");
            } else {
                assert_eq!(touched, 0, "shard {index} must stay cold");
            }
        }
    }

    #[test]
    fn sharded_batch_keeps_input_order_and_matches_single_engine() {
        let sources: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.source(w.test_size()))
            .collect();
        let sharded = ShardedService::new(3, EngineConfig::default());
        let single = LocalService::new(EngineConfig::default());
        let from_shards = sharded
            .process_sources(sources.clone(), &ProcessOptions::default())
            .unwrap();
        let from_single = single
            .process_sources(sources, &ProcessOptions::default())
            .unwrap();
        assert_eq!(from_shards.len(), from_single.len());
        for (a, b) in from_shards.iter().zip(&from_single) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.name, b.name, "order must match");
            assert_eq!(a.analysis_digest, b.analysis_digest);
        }
    }

    #[test]
    fn sharded_clear_caches_empties_the_shared_store() {
        let service = ShardedService::new(2, EngineConfig::default());
        for workload in [Workload::TreeSum, Workload::ListSum, Workload::Bisort] {
            let src = workload.source(3);
            service.call(Request::analyze(src));
        }
        assert_eq!(service.store().stats().programs.entries, 3);
        assert_eq!(service.call(Request::clear_caches()), Response::cleared());
        let stats = service.store().stats();
        assert_eq!(stats.programs.entries, 0);
        assert_eq!(stats.summaries.entries, 0);
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
