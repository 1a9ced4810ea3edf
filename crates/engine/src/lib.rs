//! # sil-engine
//!
//! A long-lived, batched, memoizing analysis/parallelization service over
//! the Hendren & Nicolau path-matrix stack.
//!
//! The paper's analysis is a pure function of program text, which makes it
//! an ideal memoization target for a service that sees the same programs
//! over and over (editors re-checking a buffer, CI re-analyzing a corpus,
//! a compiler farm).  All memoized state lives in one content-addressed
//! [`SummaryStore`] with three typed namespaces, each keyed by stable
//! fingerprints of the normalized AST (`sil_lang::hash`).  The first is
//! tiered — memory, then the disk tier, then the peer ring; the other two
//! are plain in-memory memos of work that costs less to redo than to fetch:
//!
//! * **program namespace** — whole [`AnalysisResult`]s keyed by the
//!   program fingerprint: a resubmitted program costs one hash + one map
//!   lookup, and it is the one kind of entry that is written to disk or
//!   served to a peer;
//! * **walk-record namespace** — the interprocedural fixpoint's recorded
//!   body walks, keyed by the *cone fingerprint* (an SCC's content plus
//!   everything it transitively calls — see
//!   [`sil_analysis::CallGraph::cone_fingerprints`]), which make
//!   re-analysis of edited programs incremental.  A cone's first sighting
//!   files an empty record set; its records are admitted from its second
//!   sighting on, so a never-seen program keeps none, and an edit replays
//!   the unchanged cones of a program seen before.  The per-SCC
//!   argument-mode summaries are recomputed on every program miss: a
//!   syntactic pass of 10–20 µs on a size-6 program;
//! * **product namespace** — what parallelization derives from a program
//!   ([`ParallelProduct`]: transform count, printed parallel source,
//!   verifier violations), keyed by the program fingerprint, so a warm
//!   [`Engine::process`] packs and verifies nothing.
//!
//! In front of the program namespace sits a source-text memo
//! ([`SummaryStore::sources`]): the exact bytes of a request's source,
//! keyed by [`SummaryStore::source_key`], with the fingerprint the front
//! end derived from them.  A byte-identical repeat goes straight to the
//! program lookup and pays no parse and no fingerprint —
//! [`Engine::analyze_source_traced`] is the one entry point that consults
//! it, for `analyze` and `process` alike.  A hit needs byte equality,
//! never only the hash, so a collision cannot serve one program's analysis
//! for another's text.
//!
//! An [`Engine`] holds no cache and no lock of its own, so one engine
//! serves every connection of a daemon.  Each namespace is lock-striped,
//! capacity-bounded, and evicts the least recently used entry of a full
//! stripe; its [`CacheStats`] count hits, misses, insertions and evictions.
//! The engine also owns the daemon's one [`Tracer`] and one [`Registry`]:
//! the server records its spans and `server.*` instruments into them.
//!
//! Concurrency is across requests: every caller's analysis runs on the
//! caller's own thread, and a batch fans out across its programs via
//! rayon.  Within one analysis nothing forks: a call-graph level's body
//! walks cost tens of microseconds each, less than handing them to another
//! thread (README, "Incremental re-analysis").
//!
//! ```
//! use sil_engine::{Engine, EngineConfig};
//! use sil_workloads::Workload;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let src = Workload::TreeSum.source(4);
//!
//! let cold = engine.analyze_source(&src).unwrap();
//! let warm = engine.analyze_source(&src).unwrap();   // served from the store
//! assert_eq!(cold.analysis.digest(), warm.analysis.digest());
//! assert_eq!(engine.stats().programs.hits, 1);
//! assert_eq!(engine.store_stats().programs.entries, 1);
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub mod peer;
pub mod report;
pub mod service;
pub mod store;

pub use peer::{PeerConfig, PeerRing, PeerStats};
pub use report::{ExecutionReport, IncrementalReport, ProcessOptions, ProgramReport};
pub use service::{
    Addr, RemoteService, Request, Response, Server, ServerHandle, ServerStats, Service,
    ServiceError, PROTOCOL_VERSION,
};
pub use store::{
    CacheStats, DiskStats, DurableConfig, DurableTier, Namespace, NamespaceCache, NamespaceStats,
    ParallelProduct, StoreConfig, StoreStats, SummaryStore,
};

use rayon::prelude::*;
use sil_analysis::{
    analyze_program_planned, compute_scc_summaries, AnalysisResult, AnalysisSnapshot,
    AnalyzeOptions, CallPlan, IncrementalStats, ProcSummary, WalkRecord,
};
use sil_lang::hash::fingerprints;
use sil_lang::types::ProgramTypes;
use sil_lang::{frontend, pretty_program, Program, SilError};
use sil_parallelizer::{pack_program_with_analysis, verify_parallel_program, PackOptions};
use sil_runtime::{Interpreter, RunConfig};
use silobs::{Counter, RawMetrics, Registry, ShardedHistogram, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Engine construction parameters: the shape of the [`SummaryStore`] an
/// [`Engine::new`] builds for itself.
///
/// Re-analysis is always incremental: on a program-cache miss, every
/// procedure whose cone fingerprint matches a retained one replays its
/// recorded walks, and only the stale cone of an edit is re-walked.  The
/// result is bit-identical to a full analysis (same digests).  Walk records
/// are kept only from a cone's second sighting on, so a never-seen program
/// records nothing, and replay costs it nothing measurable (`cold_unique`:
/// 1 181 µs of CPU per request with replay against 1 187 µs without),
/// while an edit stream costs 620 µs per request against 1 163 µs.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Namespace capacities, lock stripes and the optional disk tier.
    pub store: StoreConfig,
}

/// Builder-style setters: `EngineConfig::default().with_data_dir(dir)`
/// reads better at construction sites than struct-update syntax.
impl EngineConfig {
    /// Put a durable disk tier under the store (or remove it with `None`).
    pub fn with_durable(mut self, durable: Option<DurableConfig>) -> Self {
        self.store.durable = durable;
        self
    }

    /// Shorthand: a durable tier with default sizing rooted at `data_dir`.
    pub fn with_data_dir(self, data_dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_durable(Some(DurableConfig::at(data_dir)))
    }
}

/// Everything the engine derives from one program.
#[derive(Debug)]
pub struct AnalyzedProgram {
    /// Content fingerprint of the normalized program (the cache key).
    pub fingerprint: u64,
    /// The normalized, type-checked program.
    pub program: Program,
    pub types: ProgramTypes,
    /// The whole-program path-matrix analysis.
    pub analysis: Arc<AnalysisResult>,
    /// Incremental-reuse counters of the analysis that produced this entry
    /// (`None` when the entry was read back from disk or a peer, or built
    /// by hand rather than by an engine's analysis).
    pub incremental: Option<IncrementalStats>,
}

/// A program that passed the front end, paired with the content
/// fingerprint that addresses everything the store derives from it.  The
/// fingerprint is computed here and nowhere else, so no caller can file an
/// entry under a fingerprint that is not its content's.  A request pays
/// for at most one front-end pass and one hash however many layers (the
/// program namespace, the product namespace) key off it, and for none when
/// its text is an exact repeat the store's source memo holds: the memo
/// only remembers what a `Normalized` computed.
#[derive(Debug)]
pub struct Normalized {
    program: Program,
    types: ProgramTypes,
    fingerprint: u64,
    /// Byte length of the canonical rendering the fingerprint hashes.
    canonical_len: usize,
    /// Every procedure's fingerprint, in declaration order, hashed from the
    /// same rendering: a miss builds its call plan from them.
    procedures: Vec<u64>,
}

impl Normalized {
    /// Fingerprint an already-normalized, type-checked program.
    pub fn new(program: Program, types: ProgramTypes) -> Normalized {
        let all = fingerprints(&program);
        Normalized {
            program,
            types,
            fingerprint: all.program,
            canonical_len: all.canonical_len,
            procedures: all.procedures,
        }
    }

    /// Run the front end over `src` (under a `parse` span) and fingerprint
    /// the result.
    pub fn parse(tracer: &Tracer, src: &str) -> Result<Normalized, SilError> {
        let parsed = {
            let _span = tracer.start("parse");
            frontend(src)
        };
        parsed.map(|(program, types)| Normalized::new(program, types))
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum EngineError {
    /// The source did not parse or type check.
    Frontend(SilError),
    /// Execution was requested and the interpreter rejected the program.
    Runtime(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Frontend(e) => write!(f, "frontend: {e}"),
            EngineError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SilError> for EngineError {
    fn from(e: SilError) -> EngineError {
        EngineError::Frontend(e)
    }
}

/// One engine's *view counters* over its store: the lookups this engine
/// made, per namespace.  The store's own [`StoreStats`] are the
/// authoritative cache counters (including evictions and residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Whole-program lookups through this engine.
    pub programs: CacheStats,
    /// Always zero: summaries are no longer memoized.  Kept because
    /// protocol v2 `stats` replies carry it.
    pub summaries: CacheStats,
    /// Walk-record (cone) lookups through this engine: a hit means a
    /// procedure's retained walks were available for incremental replay
    /// ("reused"), a miss means its cone was stale.
    pub walks: CacheStats,
}

impl EngineStats {
    /// Field-wise accumulate (a `stats` reply's `total` over its views).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.programs.absorb(&other.programs);
        self.summaries.absorb(&other.summaries);
        self.walks.absorb(&other.walks);
    }
}

/// Hit/miss/insertion counters of one namespace view, registered on the
/// engine's observability [`Registry`] (so `engine.<ns>.hits` etc. appear
/// in `Metrics` responses) — the [`EngineStats`] snapshot is a
/// byte-compatible *view* over the same atomics.  Evictions are a
/// store-side phenomenon (a view cannot know which engine's insert
/// displaced an entry), so the snapshot always reports 0 evictions.
#[derive(Debug)]
struct ViewCounters {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
}

impl ViewCounters {
    fn register(registry: &Registry, namespace: &str) -> ViewCounters {
        ViewCounters {
            hits: registry.counter(&format!("engine.{namespace}.hits")),
            misses: registry.counter(&format!("engine.{namespace}.misses")),
            insertions: registry.counter(&format!("engine.{namespace}.insertions")),
        }
    }

    fn hit(&self) {
        self.hits.incr();
    }

    fn miss(&self) {
        self.misses.incr();
    }

    fn insertion(&self) {
        self.insertions.incr();
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: 0,
        }
    }
}

#[derive(Debug)]
struct StoreView {
    programs: ViewCounters,
    walks: ViewCounters,
}

impl StoreView {
    fn register(registry: &Registry) -> StoreView {
        StoreView {
            programs: ViewCounters::register(registry, "programs"),
            walks: ViewCounters::register(registry, "walks"),
        }
    }
}

/// Fold a [`StoreStats`] snapshot and the source memo's counters into
/// `raw` as `store.*` counters and gauges, making the store's
/// authoritative numbers (including evictions, which no engine view can
/// see) part of one `Metrics` response.
fn export_store_metrics(store: &SummaryStore, raw: &mut RawMetrics) {
    let stats = store.stats();
    let sources = store.sources().stats();
    for (name, namespace) in [
        ("programs", &stats.programs),
        ("walks", &stats.walks),
        ("products", &stats.products),
        ("sources", &sources),
    ] {
        raw.push_counter(&format!("store.{name}.hits"), namespace.totals.hits);
        raw.push_counter(&format!("store.{name}.misses"), namespace.totals.misses);
        raw.push_counter(
            &format!("store.{name}.insertions"),
            namespace.totals.insertions,
        );
        raw.push_counter(
            &format!("store.{name}.evictions"),
            namespace.totals.evictions,
        );
        raw.push_gauge(&format!("store.{name}.entries"), namespace.entries as i64);
        raw.push_gauge(&format!("store.{name}.capacity"), namespace.capacity as i64);
    }
    if let Some(disk) = &stats.disk {
        raw.push_counter("store.disk.hits", disk.hits);
        raw.push_counter("store.disk.misses", disk.misses);
        raw.push_counter("store.disk.read_bytes", disk.read_bytes);
        raw.push_counter("store.disk.written_bytes", disk.written_bytes);
        raw.push_counter("store.disk.flushes", disk.flushes);
        raw.push_counter("store.disk.compactions", disk.compactions);
        raw.push_counter("store.disk.evictions", disk.evictions);
        raw.push_counter("store.disk.recovered_entries", disk.recovered_entries);
        raw.push_counter("store.disk.dropped_bytes", disk.dropped_bytes);
        raw.push_gauge("store.disk.entries", disk.entries as i64);
        raw.push_gauge("store.disk.live_bytes", disk.live_bytes as i64);
        raw.push_gauge("store.disk.segments", disk.segments as i64);
    }
    if let Some(peer) = &stats.peer {
        raw.push_counter("store.peer.hits", peer.hits);
        raw.push_counter("store.peer.misses", peer.misses);
        raw.push_counter("store.peer.gossip_rounds", peer.gossip_rounds);
        raw.push_counter("store.peer.quarantines", peer.quarantines);
        raw.push_counter("store.peer.bytes_in", peer.bytes_in);
        raw.push_counter("store.peer.bytes_out", peer.bytes_out);
        raw.push_counter("store.peer.serves", peer.serves);
        raw.push_gauge("store.peer.peers", peer.peers as i64);
        raw.push_gauge("store.peer.quarantined", peer.quarantined as i64);
        raw.push_gauge("store.peer.known_keys", peer.known_keys as i64);
    }
}

/// Fold the process-wide path-matrix representation gauges into `raw`:
/// `analysis.interned_symbols` (distinct handle names in the global
/// interner) and `analysis.matrix_bytes` (high-water footprint of the
/// largest single path matrix observed at a join).
fn export_analysis_metrics(raw: &mut RawMetrics) {
    raw.push_gauge(
        "analysis.interned_symbols",
        sil_pathmatrix::symbol_count() as i64,
    );
    raw.push_gauge(
        "analysis.matrix_bytes",
        sil_pathmatrix::matrix_bytes_high_water() as i64,
    );
}

/// How many walk records one cone may retain.  A record exists per (round ×
/// distinct entry context) of a procedure, so a handful of edits produce a
/// handful of records; the cap only guards against a pathological client
/// cycling a cone through endlessly distinct contexts.
const RECORDS_PER_CONE: usize = 64;

/// The memoizing analysis service.  `Engine` is `Sync`: one instance serves
/// concurrent callers, and all its methods take `&self`.
#[derive(Debug)]
pub struct Engine {
    store: Arc<SummaryStore>,
    view: StoreView,
    /// Every instrument of the process: the engine's own, and the
    /// `server.*` ones of a daemon serving it.
    registry: Registry,
    /// The process's one span ring.
    tracer: Arc<Tracer>,
    fixpoint_us: Arc<ShardedHistogram>,
    /// Whole-program rounds each miss's fixpoint took, one sample per miss.
    fixpoint_rounds: Arc<ShardedHistogram>,
    summaries_us: Arc<ShardedHistogram>,
    walks_performed: Counter,
    walks_reused: Counter,
    walks_skipped: Counter,
    /// Cones whose fresh walk records were not admitted to `walks`.
    walks_declined: Counter,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine over its own store, shaped by `config`.
    pub fn new(config: EngineConfig) -> Engine {
        let store = SummaryStore::shared(config.store);
        let registry = Registry::new();
        // Adopt the store's durable-tier tracer when there is one, so the
        // flusher's `disk-*` spans surface in this engine's trace dumps.
        let tracer = store
            .durable()
            .map(|tier| tier.tracer().clone())
            .unwrap_or_else(|| Arc::new(Tracer::default()));
        Engine {
            view: StoreView::register(&registry),
            fixpoint_us: registry.histogram("engine.fixpoint_us"),
            fixpoint_rounds: registry.histogram("engine.fixpoint_rounds"),
            summaries_us: registry.histogram("engine.summaries_us"),
            walks_performed: registry.counter("engine.walks.performed"),
            walks_reused: registry.counter("engine.walks.reused"),
            walks_skipped: registry.counter("engine.walks.skipped"),
            walks_declined: registry.counter("engine.walks.declined"),
            tracer,
            store,
            registry,
        }
    }

    /// This engine's span ring: under a daemon, the server's spans share it.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The registry a serving daemon registers its `server.*` instruments
    /// on, beside the engine's own.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The raw (full-bucket) registry read behind both the `Metrics`
    /// response and the daemon's flight recorder: the registry's `engine.*`
    /// lookup counters and timing histograms (and a daemon's `server.*`
    /// instruments), the store's `store.*` entries, the `analysis.*` gauges
    /// and the tracer's `trace.*` counters.
    pub fn metrics_raw(&self) -> RawMetrics {
        let mut raw = self.registry.collect();
        export_store_metrics(&self.store, &mut raw);
        export_analysis_metrics(&mut raw);
        if let Some(ring) = self.store.peers() {
            raw.push_histogram("store.peer.fetch_us", &ring.fetch_us());
        }
        self.tracer.export_metrics(&mut raw);
        raw
    }

    /// The store this engine answers from.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.store
    }

    /// Parse, type check, and analyze one program, serving the analysis
    /// from the program namespace when its content fingerprint hits.
    ///
    /// Compatibility wrapper: the service-facing entry point is the
    /// unified [`Engine::serve`]`(Request) -> Response` path (this method
    /// is its `Request::Analyze` arm with the in-process extras — the
    /// `Arc`'d program — that do not travel over a wire).
    pub fn analyze_source(&self, src: &str) -> Result<Arc<AnalyzedProgram>, EngineError> {
        self.analyze_source_traced(src).map(|(entry, _)| entry)
    }

    /// Like [`Engine::analyze_source`], also reporting whether the program
    /// namespace served the request.
    ///
    /// The one front door of every request that carries source text: a
    /// text the store's source memo holds byte for byte goes straight to
    /// the program lookup under the fingerprint filed for it, without a
    /// front-end pass; any other text is parsed and then filed, when it is
    /// no longer than its canonical rendering.  Either way the request
    /// makes exactly one program lookup.
    pub fn analyze_source_traced(
        &self,
        src: &str,
    ) -> Result<(Arc<AnalyzedProgram>, bool), EngineError> {
        let key = SummaryStore::source_key(src);
        let filed = {
            let _span = self.tracer.start("source-lookup");
            self.store.filed_fingerprint(key, src)
        };
        let Some(fingerprint) = filed else {
            let normalized = Normalized::parse(&self.tracer, src)?;
            if src.len() <= normalized.canonical_len {
                self.store.file_source(key, src, normalized.fingerprint);
            }
            return Ok(self.analyze(normalized));
        };
        // Debug builds check what the memo rests on: the front end maps
        // the filed text to the filed fingerprint.
        if cfg!(debug_assertions) {
            assert_eq!(
                frontend(src)
                    .ok()
                    .map(|(program, types)| Normalized::new(program, types).fingerprint),
                Some(fingerprint),
                "a filed source no longer yields its filed fingerprint"
            );
        }
        if let Ok(hit) = self.lookup(|store| store.lookup_program(fingerprint).ok_or(())) {
            return Ok((hit, true));
        }
        // The program left every tier: analyze it without asking them again.
        let normalized = Normalized::parse(&self.tracer, src)?;
        Ok((self.analyze_miss(normalized), false))
    }

    /// Analyze a program that already went through the front end, also
    /// reporting whether the program namespace served it.  A disk hit
    /// takes this program rather than parsing the one the entry stores.
    ///
    /// On a program-cache miss the analysis is seeded from the walk records
    /// the store kept for the cones this program shares with earlier ones —
    /// kept from a cone's second sighting on — so an edited variant of a
    /// program seen before only re-analyzes the edit's stale cone.
    pub fn analyze(&self, normalized: Normalized) -> (Arc<AnalyzedProgram>, bool) {
        let mut request = Some(normalized);
        match self.lookup(|store| store.lookup_normalized(&mut request).ok_or(())) {
            Ok(hit) => (hit, true),
            Err(()) => {
                let normalized = request.expect("only a disk hit takes the program");
                (self.analyze_miss(normalized), false)
            }
        }
    }

    /// One tiered program lookup (memory, disk, peers) under a
    /// `store-lookup` span, counted in this engine's view.
    fn lookup<T>(
        &self,
        lookup: impl FnOnce(&SummaryStore) -> Result<Arc<AnalyzedProgram>, T>,
    ) -> Result<Arc<AnalyzedProgram>, T> {
        let looked_up = {
            let _span = self.tracer.start("store-lookup");
            lookup(&self.store)
        };
        match &looked_up {
            Ok(_) => self.view.programs.hit(),
            Err(_) => self.view.programs.miss(),
        }
        looked_up
    }

    /// Analyze a program every tier missed, and file the result.
    fn analyze_miss(&self, normalized: Normalized) -> Arc<AnalyzedProgram> {
        let Normalized {
            program,
            types,
            fingerprint,
            procedures,
            ..
        } = normalized;
        // The call graph, its schedule and the cone fingerprints: computed
        // here once, for the summary pass, the walk lookup and the fixpoint.
        let plan = {
            let _span = self.tracer.start("call-plan");
            CallPlan::with_fingerprints(&program, &procedures)
        };
        let summaries = self.summaries_for(&program, &types, &plan);

        let (reuse, seen_before) = self.sight_cones(&plan.cones);
        let options = AnalyzeOptions {
            // Only the records of cones seen before are kept
            // (`retain_walks`): with none, there is nothing to record.
            record: !seen_before.is_empty(),
            reuse: Some(&reuse),
        };
        let fixpoint_start = silobs::ticks();
        let (analysis, snapshot, mut stats) = {
            let _span = self.tracer.start("fixpoint");
            analyze_program_planned(&program, &types, summaries, &plan, &options)
        };
        self.fixpoint_us
            .record(silobs::ticks().saturating_sub(fixpoint_start));
        self.fixpoint_rounds.record(analysis.rounds as u64);
        self.walks_performed.add(stats.walks_performed as u64);
        self.walks_reused.add(stats.walks_reused as u64);
        self.walks_skipped.add(stats.walks_skipped as u64);

        let mut declined = HashSet::new();
        for (name, cone) in &plan.cones {
            // Only classify procedures the fixpoint actually walked: dead
            // code (unreachable from `main`) never records walks, so its
            // cone would otherwise count as "stale" forever.
            if analysis.procedure(name).is_none() {
                continue;
            }
            if seen_before.get(cone) == Some(&true) {
                stats.procedures_reused += 1;
            } else {
                stats.procedures_stale += 1;
            }
            if !seen_before.contains_key(cone) {
                declined.insert(*cone);
            }
        }
        self.walks_declined.add(declined.len() as u64);

        let entry = Arc::new(AnalyzedProgram {
            fingerprint,
            program,
            types,
            analysis: Arc::new(analysis),
            incremental: Some(stats),
        });
        let _span = self.tracer.start("store-insert");
        if let Some(snapshot) = &snapshot {
            self.retain_walks(snapshot, &seen_before);
        }
        self.view.programs.insertion();
        self.store.store_program(fingerprint, entry.clone());
        entry
    }

    /// One lookup per distinct cone in the walk-record namespace: the
    /// retained records, as one snapshot to replay from, and each cone
    /// sighted before, mapped to whether it had records.  A cone without an
    /// entry is on its first sighting and gets an empty record set, which
    /// marks it as seen.  Only a non-empty set is a hit in this engine's
    /// view.
    fn sight_cones(&self, cones: &HashMap<String, u64>) -> (AnalysisSnapshot, HashMap<u64, bool>) {
        let mut distinct: Vec<u64> = cones.values().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut reuse = AnalysisSnapshot::new();
        let mut seen_before = HashMap::new();
        for cone in distinct {
            let Some(records) = self.store.walks().get(cone) else {
                self.view.walks.miss();
                // A merge, not an insert: records a concurrent request
                // filed for this cone since the lookup stay.
                self.store
                    .walks()
                    .merge(cone, |existing| existing.cloned().unwrap_or_default());
                continue;
            };
            seen_before.insert(cone, !records.is_empty());
            if records.is_empty() {
                self.view.walks.miss();
            } else {
                self.view.walks.hit();
            }
            for record in records.iter() {
                reuse.insert(record.clone());
            }
        }
        (reuse, seen_before)
    }

    /// Keep one run's walks for the next edit, grouped by cone — but only
    /// the cones in `seen_before`, which this request found already in the
    /// walk-record namespace.  A cone on its first sighting (every cone of a
    /// never-seen program) is declined: its records would only wait for an
    /// eviction.  A cone that comes back is admitted then, and replays from
    /// the sighting after.
    fn retain_walks(&self, snapshot: &AnalysisSnapshot, seen_before: &HashMap<u64, bool>) {
        let mut by_cone: HashMap<u64, Vec<Arc<WalkRecord>>> = HashMap::new();
        for record in snapshot.records() {
            if seen_before.contains_key(&record.cone) {
                by_cone.entry(record.cone).or_default().push(record.clone());
            }
        }
        for (cone, fresh) in by_cone {
            self.view.walks.insertion();
            // Merge under the stripe lock: fresh records win, surviving
            // older records (other entry contexts of the same cone) ride
            // along up to the per-cone cap.  Concurrent analyses sharing
            // a cone cannot drop each other's freshly recorded walks.
            self.store.walks().merge(cone, |existing| {
                let mut merged = fresh;
                let mut seen: HashSet<u64> = merged.iter().map(|r| r.key).collect();
                if let Some(existing) = existing {
                    for record in existing.iter() {
                        if merged.len() >= RECORDS_PER_CONE {
                            break;
                        }
                        if seen.insert(record.key) {
                            merged.push(record.clone());
                        }
                    }
                }
                merged.truncate(RECORDS_PER_CONE);
                Arc::new(merged)
            });
        }
    }

    /// [`Engine::analyze_source_traced`] for the paths that go on to answer
    /// with the analysis digest: a fresh analysis renders it here (it is
    /// memoized from then on), under a `digest` span, so a cold request's
    /// trace accounts for the rendering instead of showing a gap.
    pub(crate) fn analyze_digested(
        &self,
        src: &str,
    ) -> Result<(Arc<AnalyzedProgram>, bool), EngineError> {
        let (entry, cache_hit) = self.analyze_source_traced(src)?;
        if !cache_hit {
            let _span = self.tracer.start("digest");
            entry.analysis.digest();
        }
        Ok((entry, cache_hit))
    }

    /// Argument-mode summaries for every procedure, computed bottom-up over
    /// the plan's SCC levels: a syntactic pass, cheaper to redo on every
    /// miss than to keep.  `engine.summaries_us` times exactly its
    /// `summaries` span.
    fn summaries_for(
        &self,
        program: &Program,
        types: &ProgramTypes,
        plan: &CallPlan,
    ) -> HashMap<String, ProcSummary> {
        let _span = self.tracer.start("summaries");
        let start = silobs::ticks();
        let mut resolved = HashMap::new();
        for scc in plan.levels.iter().flatten() {
            let table = compute_scc_summaries(program, types, scc, &resolved);
            resolved.extend(table);
        }
        self.summaries_us
            .record(silobs::ticks().saturating_sub(start));
        resolved
    }

    /// Map `op` over `items` in input order — across rayon when there is
    /// more than one item.
    fn fan_out<T: Send, R: Send>(&self, items: Vec<T>, op: impl Fn(T) -> R + Sync) -> Vec<R> {
        if items.len() < 2 {
            return items.into_iter().map(op).collect();
        }
        // Pool workers have no thread-local trace context of their own;
        // forward this thread's so their spans stay in the request's tree.
        let ctx = silobs::current_context();
        // The pool only lends items out; each task empties its own slot.
        let slots: Vec<Mutex<Option<T>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        slots
            .par_iter()
            .map(|slot| {
                let item = slot
                    .lock()
                    .expect("a fan-out slot is locked once, by the task that empties it")
                    .take()
                    .expect("every fan-out slot is visited exactly once");
                silobs::with_context_opt(ctx, || op(item))
            })
            .collect()
    }

    /// Analyze a batch of programs, fanning out across rayon; results come
    /// back in input order.
    pub fn analyze_batch<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
    ) -> Vec<Result<Arc<AnalyzedProgram>, EngineError>> {
        let sources: Vec<&str> = sources.iter().map(AsRef::as_ref).collect();
        self.fan_out(sources, |src| self.analyze_source(src))
    }

    /// Run the full pipeline over one program: analyze (cached), then per
    /// `options` parallelize, verify, and execute, producing a report.
    /// Equivalent to [`Engine::serve`] with [`Request::Process`], unwrapped
    /// to a Rust `Result`.
    ///
    /// Everything parallelization derives from the program is a pure
    /// function of its content, so it lives in the store's product
    /// namespace under the program fingerprint: a warm request packs,
    /// prints, re-parses and verifies nothing (only `execute` re-parses
    /// the printed text, next to an interpreter run a thousand times its
    /// cost).
    pub fn process(
        &self,
        src: &str,
        options: &ProcessOptions,
    ) -> Result<ProgramReport, EngineError> {
        let (entry, cache_hit) = self.analyze_digested(src)?;
        let analysis = &entry.analysis;
        let structure = analysis
            .procedure("main")
            .map(|p| p.exit.structure.to_string())
            .unwrap_or_else(|| "UNKNOWN".to_string());

        let mut report = ProgramReport {
            name: entry.program.name.clone(),
            fingerprint: entry.fingerprint,
            cache_hit,
            structure,
            preserves_tree: analysis.preserves_tree(),
            warnings: analysis.warnings.iter().map(|w| w.to_string()).collect(),
            rounds: analysis.rounds,
            analysis_digest: analysis.digest(),
            incremental: entry.incremental.map(|s| IncrementalReport {
                procedures_reused: s.procedures_reused,
                procedures_stale: s.procedures_stale,
                walks_performed: s.walks_performed,
                walks_reused: s.walks_reused,
            }),
            transforms: None,
            violations: Vec::new(),
            parallel_source: None,
            sequential_execution: None,
            parallel_execution: None,
        };

        // The parallel program's AST, re-parsed from the product's printed
        // text at most once per request and only when something needs it.
        let mut parallel_frontend: Option<(Program, ProgramTypes)> = None;
        if options.parallelize {
            let looked_up = {
                let _span = self.tracer.start("product-lookup");
                self.store.products().get(entry.fingerprint)
            };
            let product = match looked_up {
                Some(product) => product,
                None => {
                    let product = self.parallelize(&entry);
                    // A printed program the front end rejects is an error
                    // for this request, never a cached product.
                    self.reparsed(&mut parallel_frontend, &product.parallel_source)?;
                    self.store
                        .products()
                        .insert(entry.fingerprint, product.clone());
                    product
                }
            };
            report.transforms = Some(product.transforms);
            if options.verify {
                report.violations = match product.violations() {
                    Some(violations) => violations.to_vec(),
                    None => {
                        let (program, types) =
                            self.reparsed(&mut parallel_frontend, &product.parallel_source)?;
                        let found = {
                            let _span = self.tracer.start("verify");
                            verify_parallel_program(program, types)
                                .iter()
                                .map(|v| v.to_string())
                                .collect()
                        };
                        product.record_violations(found).to_vec()
                    }
                };
            }
            if options.execute {
                self.reparsed(&mut parallel_frontend, &product.parallel_source)?;
            }
            if options.emit_parallel_source {
                report.parallel_source = Some(product.parallel_source.clone());
            }
        }

        if options.execute {
            let config = RunConfig {
                store_capacity: options.store_capacity,
                ..RunConfig::default()
            };
            report.sequential_execution =
                Some(run_program(&entry.program, &entry.types, config.clone())?);
            if let Some((par_program, par_types)) = &parallel_frontend {
                report.parallel_execution = Some(run_program(par_program, par_types, config)?);
            }
        }
        Ok(report)
    }

    /// Derive a program's [`ParallelProduct`]; its violations are left for
    /// the first request that verifies.
    fn parallelize(&self, entry: &AnalyzedProgram) -> Arc<ParallelProduct> {
        // Reuse the (possibly cached) analysis instead of letting the
        // packer recompute it.
        let (parallel, transform_report) = {
            let _span = self.tracer.start("pack");
            pack_program_with_analysis(
                &entry.program,
                &entry.types,
                &entry.analysis,
                &PackOptions::default(),
            )
        };
        let _span = self.tracer.start("pretty");
        Arc::new(ParallelProduct::new(
            transform_report.count(),
            pretty_program(&parallel),
        ))
    }

    /// The parallel program behind `printed`, through the front end on
    /// first use (under a `reparse` span) and from `slot` afterwards.
    fn reparsed<'s>(
        &self,
        slot: &'s mut Option<(Program, ProgramTypes)>,
        printed: &str,
    ) -> Result<(&'s Program, &'s ProgramTypes), EngineError> {
        if slot.is_none() {
            let _span = self.tracer.start("reparse");
            *slot = Some(frontend(printed)?);
        }
        let (program, types) = slot.as_ref().expect("filled above");
        Ok((program, types))
    }

    /// [`Engine::process`] over a batch, fanning out across rayon.
    pub fn process_batch<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
        options: &ProcessOptions,
    ) -> Vec<Result<ProgramReport, EngineError>> {
        let sources: Vec<&str> = sources.iter().map(AsRef::as_ref).collect();
        self.fan_out(sources, |src| self.process(src, options))
    }

    /// This engine's view counters (lookups made through *this* engine).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            programs: self.view.programs.snapshot(),
            summaries: CacheStats::default(),
            walks: self.view.walks.snapshot(),
        }
    }

    /// The shared store's authoritative counters: per-namespace and
    /// per-stripe hits/misses/evictions, and residency.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Drop all cached entries from the store (counters survive; useful
    /// for cold-vs-warm measurements).
    pub fn clear_caches(&self) {
        self.store.clear();
    }

    /// Drop only the whole-program namespace, keeping the walk-record
    /// namespace warm — the warm-incremental side of cold-vs-incremental
    /// measurements re-analyzes a program with full cone reuse.
    pub fn clear_program_cache(&self) {
        self.store.programs().clear();
    }
}

fn run_program(
    program: &Program,
    types: &ProgramTypes,
    config: RunConfig,
) -> Result<ExecutionReport, EngineError> {
    let mut interp = Interpreter::with_config(program, types, config);
    let outcome = interp
        .run()
        .map_err(|e| EngineError::Runtime(e.to_string()))?;
    Ok(ExecutionReport {
        work: outcome.cost.work,
        span: outcome.cost.span,
        parallelism: outcome.cost.parallelism(),
        allocated_nodes: outcome.allocated_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_analysis::analyze_program;
    use sil_workloads::Workload;

    #[test]
    fn warm_hit_returns_the_same_arc() {
        let engine = Engine::default();
        let src = Workload::TreeSum.source(4);
        let (cold, hit0) = engine.analyze_source_traced(&src).unwrap();
        let (warm, hit1) = engine.analyze_source_traced(&src).unwrap();
        assert!(!hit0);
        assert!(hit1);
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = engine.stats();
        assert_eq!(stats.programs.hits, 1);
        assert_eq!(stats.programs.misses, 1);
        assert_eq!(engine.store_stats().programs.entries, 1);
    }

    #[test]
    fn engine_matches_direct_analysis() {
        let engine = Engine::default();
        for workload in Workload::ALL {
            let src = workload.source(workload.test_size());
            let entry = engine.analyze_source(&src).unwrap();
            let direct = {
                let (program, types) = frontend(&src).unwrap();
                analyze_program(&program, &types)
            };
            assert_eq!(
                entry.analysis.digest(),
                direct.digest(),
                "{} diverges from analyze_program",
                workload.name()
            );
        }
    }

    #[test]
    fn cone_sightings_are_shared_across_programs() {
        let engine = Engine::default();
        // Two different programs with an identical `build`+`sum` cone: the
        // second program sights those cones a second time, so their
        // records are kept, and only its new `main` cone is declined.
        let a = Workload::TreeSum.source(4);
        let b = Workload::TreeSum.source(5); // differs only in main
        engine.analyze_source(&a).unwrap();
        let sighted = engine.store_stats().walks.entries as u64;
        assert_eq!(engine.stats().walks.insertions, 0, "a keeps no records");
        engine.analyze_source(&b).unwrap();
        assert!(engine.stats().walks.insertions > 0, "b's shared cones kept");
        let declined = engine
            .metrics_raw()
            .summarize()
            .counter("engine.walks.declined");
        assert_eq!(declined, Some(sighted + 1), "a's cones, then b's main");
    }

    #[test]
    fn parse_errors_are_reported() {
        let engine = Engine::default();
        let err = engine
            .analyze_source("program broken procedure")
            .unwrap_err();
        assert!(matches!(err, EngineError::Frontend(_)));
        assert!(err.to_string().contains("frontend"));
    }

    #[test]
    fn process_produces_a_full_report() {
        let engine = Engine::default();
        let src = Workload::AddAndReverse.source(4);
        let options = ProcessOptions {
            execute: true,
            emit_parallel_source: true,
            ..ProcessOptions::default()
        };
        let report = engine.process(&src, &options).unwrap();
        assert_eq!(report.name, "add_and_reverse");
        assert!(report.transforms.unwrap() >= 6, "Figure 8 parallelism");
        assert!(report.violations.is_empty());
        let seq = report.sequential_execution.as_ref().unwrap();
        let par = report.parallel_execution.as_ref().unwrap();
        assert_eq!(seq.work, par.work);
        assert!(par.span < seq.span);
        assert!(report.parallel_source.as_deref().unwrap().contains("||"));
        let json = report.to_json();
        assert!(json.contains("\"name\":\"add_and_reverse\""));
    }
}
