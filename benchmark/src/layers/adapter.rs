//! Every call the benchmark makes into a repo crate, and nothing else.
//!
//! This file is the API surface the benchmark pins.  The probes and the
//! traced replay time these functions with their own `Instant` loops and
//! spans; they never name a repo crate themselves (a self-test greps for
//! that).  Changing a function the repo exports that is called here needs a
//! `benchmark` issue first — see README.md, "Pinned adapter functions".

use sil_analysis::{
    analyze_program_recording, analyze_program_with_summaries, compute_summaries, transfer_stmt,
    AbstractState, AnalysisResult, ProcSummary,
};
use sil_engine::service::{
    route_fingerprint, AnalyzeSummary, Request, Response, Service, ShardedService,
};
use sil_engine::{
    AnalyzedProgram, DurableConfig, Engine, EngineConfig, ProcessOptions, ProgramReport,
    StoreConfig, SummaryStore,
};
use sil_lang::{
    parse_stmt, pretty_program, program_fingerprint, ProcSignature, Program, ProgramTypes, Stmt,
    Type,
};
use sil_parallelizer::{pack_program_with_analysis, verify_parallel_program, PackOptions};
use sil_pathmatrix::{at_least, exact, Dir, PathMatrix, PathSet};
use sil_runtime::{Interpreter, RunConfig};
use sil_workloads::Workload;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

// ---------------------------------------------------------------- workloads

/// Today's `(name@size, source)` corpus straight from `sil_workloads` — the
/// 64 programs `silbench` and the golden digest suite use (every workload at
/// sizes 3..=9, cut at 64).  Only `--regen-corpus` and the drift check read
/// this; measurements read the frozen files.
pub fn corpus_today() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for size in 3..=9u32 {
        for workload in Workload::ALL {
            out.push((format!("{}@{size}", workload.name()), workload.source(size)));
            if out.len() == 64 {
                return out;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------- sil

/// A parsed, normalized, type-checked program.
pub struct Front {
    program: Program,
    types: ProgramTypes,
}

/// `sil_lang::frontend`: parse + normalize + type check.
pub fn frontend(source: &str) -> Result<Front, String> {
    sil_lang::frontend(source)
        .map(|(program, types)| Front { program, types })
        .map_err(|e| e.to_string())
}

/// `sil_lang::program_fingerprint` of the normalized program.
pub fn fingerprint(front: &Front) -> u64 {
    program_fingerprint(&front.program)
}

/// `sil_lang::pretty_program`.
pub fn pretty(front: &Front) -> String {
    pretty_program(&front.program)
}

// --------------------------------------------------------------- pathmatrix

/// Two `n`-handle matrices shaped like what the analysis builds (a left
/// spine plus cross relations) that differ in one entry, so a join has work
/// to do — the fixture of `crates/bench/benches/pathmatrix_ops.rs`.
pub struct MatrixPair {
    a: PathMatrix,
    b: PathMatrix,
}

fn chain_matrix(n: usize) -> PathMatrix {
    let names: Vec<String> = (0..n).map(|i| format!("h{i}")).collect();
    let mut m = PathMatrix::with_handles(names.iter().cloned());
    for i in 0..n {
        for j in (i + 1)..n {
            let dist = (j - i) as u32;
            let path = if dist == 1 {
                exact(Dir::Left, 1)
            } else {
                at_least(Dir::Down, dist.min(3))
            };
            m.set(&names[i], &names[j], PathSet::singleton(path));
        }
    }
    m
}

pub fn matrix_pair(n: usize) -> MatrixPair {
    let a = chain_matrix(n);
    let mut b = chain_matrix(n);
    b.set("h0", "h1", PathSet::singleton(exact(Dir::Right, 1)));
    MatrixPair { a, b }
}

/// `PathMatrix::join`.
pub fn matrix_join(pair: &MatrixPair) -> PathMatrix {
    pair.a.join(&pair.b)
}

/// `PathMatrix::same_relations`.
pub fn matrix_equal(pair: &MatrixPair) -> bool {
    pair.a.same_relations(&pair.b)
}

/// `PathMatrix::clone`.
pub fn matrix_clone(pair: &MatrixPair) -> PathMatrix {
    pair.a.clone()
}

// --------------------------------------------------------------------- core

/// An abstract state over an `n`-handle chain matrix and the statement
/// `h1.left := h2`, the expensive transfer (its kill phase scans every
/// handle, its gen phase concatenates sources × targets).
pub struct TransferFixture {
    state: AbstractState,
    signature: ProcSignature,
    statement: Stmt,
}

pub fn transfer_fixture(n: usize) -> TransferFixture {
    let mut state = AbstractState::new();
    state.matrix = chain_matrix(n);
    let mut vars: HashMap<String, Type> = (0..n).map(|i| (format!("h{i}"), Type::Handle)).collect();
    vars.insert("fresh".to_string(), Type::Handle);
    TransferFixture {
        state,
        signature: ProcSignature {
            name: "probe".to_string(),
            params: Vec::new(),
            return_type: None,
            vars,
        },
        statement: parse_stmt("h1.left := h2").expect("the probe statement parses"),
    }
}

/// `sil_analysis::transfer_stmt`.
pub fn transfer(fixture: &TransferFixture) -> AbstractState {
    let mut warnings = Vec::new();
    transfer_stmt(
        &fixture.state,
        &fixture.statement,
        &fixture.signature,
        &mut warnings,
    )
}

/// A whole-program analysis result.
#[derive(Clone)]
pub struct Analysis(Arc<AnalysisResult>);

/// Argument-mode summaries of every procedure.
pub struct Summaries(HashMap<String, ProcSummary>);

/// `sil_analysis::compute_summaries`.
pub fn summaries(front: &Front) -> Summaries {
    Summaries(compute_summaries(&front.program, &front.types))
}

/// `sil_analysis::analyze_program_with_summaries`: the interprocedural
/// fixpoint.  `fixpoint(f, summaries(f))` is `analyze_program(f)`.
pub fn fixpoint(front: &Front, summaries: Summaries) -> Analysis {
    Analysis(Arc::new(analyze_program_with_summaries(
        &front.program,
        &front.types,
        summaries.0,
    )))
}

/// `sil_analysis::analyze_program_recording`: the same fixpoint while
/// recording every body walk, which is what an engine with the default
/// `incremental: true` runs on a miss.  The records are dropped.
pub fn fixpoint_recording(front: &Front, summaries: Summaries) -> Analysis {
    let (result, _records, _stats) =
        analyze_program_recording(&front.program, &front.types, summaries.0);
    Analysis(Arc::new(result))
}

impl Analysis {
    /// `AnalysisResult::digest`, as the 16 hex digits the wire carries.
    pub fn digest(&self) -> String {
        format!("{:016x}", self.0.digest())
    }

    pub fn rounds(&self) -> u64 {
        self.0.rounds as u64
    }

    pub fn preserves_tree(&self) -> bool {
        self.0.preserves_tree()
    }

    /// The structure at `main`'s exit, as `sild` renders it.
    pub fn structure(&self) -> String {
        self.0
            .procedure("main")
            .map(|p| p.exit.structure.to_string())
            .unwrap_or_else(|| "UNKNOWN".to_string())
    }
}

// ------------------------------------------------------------- parallelizer

/// The parallelized program and how many transforms produced it.
pub struct Packed {
    program: Program,
    pub transforms: u64,
}

/// `sil_parallelizer::pack_program_with_analysis` with default options.
pub fn pack(front: &Front, analysis: &Analysis) -> Packed {
    let (program, report) = pack_program_with_analysis(
        &front.program,
        &front.types,
        &analysis.0,
        &PackOptions::default(),
    );
    Packed {
        program,
        transforms: report.count() as u64,
    }
}

/// [`pack`] over a store entry's program and analysis, as `Engine::process`
/// does after its lookup.
pub fn pack_entry(entry: &Entry) -> Packed {
    let (program, report) = pack_program_with_analysis(
        &entry.0.program,
        &entry.0.types,
        &entry.0.analysis,
        &PackOptions::default(),
    );
    Packed {
        program,
        transforms: report.count() as u64,
    }
}

/// `sil_lang::pretty_program` of the parallel program.
pub fn pretty_packed(packed: &Packed) -> String {
    pretty_program(&packed.program)
}

/// `sil_parallelizer::verify_parallel_program`: the number of violations in
/// a (re-parsed) parallel program.
pub fn verify(parallel: &Front) -> u64 {
    verify_parallel_program(&parallel.program, &parallel.types).len() as u64
}

// ------------------------------------------------------------------ runtime

/// `sil_runtime::Interpreter::run` with the default configuration: the
/// cost model's `(work, span)`.
pub fn execute(front: &Front) -> Result<(u64, u64), String> {
    let mut interpreter =
        Interpreter::with_config(&front.program, &front.types, RunConfig::default());
    let outcome = interpreter.run().map_err(|e| e.to_string())?;
    Ok((outcome.cost.work, outcome.cost.span))
}

// ------------------------------------------------------------------- engine

/// One memory-only `Engine` with the default configuration.
pub struct EngineProbe(Engine);

impl EngineProbe {
    pub fn new() -> EngineProbe {
        EngineProbe(Engine::new(EngineConfig::default()))
    }

    /// `Engine::analyze_source_traced`: whether the program namespace hit.
    pub fn analyze(&self, source: &str) -> Result<bool, String> {
        self.0
            .analyze_source_traced(source)
            .map(|(_, hit)| hit)
            .map_err(|e| e.to_string())
    }

    /// `Engine::clear_caches`: all three namespaces.
    pub fn clear(&self) {
        self.0.clear_caches();
    }

    /// `Engine::clear_program_cache`: summaries and walks stay.
    pub fn clear_programs(&self) {
        self.0.clear_program_cache();
    }

    /// `(hits, misses)` of the walk namespace through this engine.
    pub fn walk_lookups(&self) -> (u64, u64) {
        let walks = self.0.stats().walks;
        (walks.hits, walks.misses)
    }
}

impl Default for EngineProbe {
    fn default() -> Self {
        EngineProbe::new()
    }
}

// ------------------------------------------------------------ engine::store

/// A whole-program store entry.
#[derive(Clone)]
pub struct Entry(Arc<AnalyzedProgram>);

/// Assemble the entry `Engine::analyze_normalized` stores on a miss.
pub fn entry(front: Front, analysis: &Analysis) -> Entry {
    Entry(Arc::new(AnalyzedProgram {
        fingerprint: program_fingerprint(&front.program),
        program: front.program,
        types: front.types,
        analysis: analysis.0.clone(),
        incremental: None,
    }))
}

impl Entry {
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    pub fn analysis(&self) -> Analysis {
        Analysis(self.0.analysis.clone())
    }
}

/// A `SummaryStore` with the default shape, memory-only or over a disk tier.
pub struct StoreProbe(Arc<SummaryStore>);

/// `(entries, live_bytes, hits, misses)` of the disk tier.
pub type DiskCounters = (u64, u64, u64, u64);

impl StoreProbe {
    pub fn memory() -> StoreProbe {
        StoreProbe(SummaryStore::shared(StoreConfig::default()))
    }

    /// `SummaryStore::new` over `DurableConfig::at(dir)`: opening recovers
    /// whatever segments `dir` holds.
    pub fn durable(dir: &Path) -> Result<StoreProbe, String> {
        let config = StoreConfig::default().with_durable(Some(DurableConfig::at(dir)));
        let store = SummaryStore::shared(config);
        if store.durable().is_none() {
            return Err(format!("no disk tier at {}", dir.display()));
        }
        Ok(StoreProbe(store))
    }

    /// `SummaryStore::lookup_program`: memory, then disk (decode + promote).
    pub fn lookup(&self, fingerprint: u64) -> Option<Entry> {
        self.0.lookup_program(fingerprint).map(Entry)
    }

    /// `SummaryStore::store_program` under the entry's own fingerprint.
    pub fn insert(&self, entry: &Entry) {
        self.0.store_program(entry.fingerprint(), entry.0.clone());
    }

    /// `NamespaceCache::insert` into the program namespace only, under any
    /// key: fills memory past capacity without touching the disk tier.
    pub fn insert_memory(&self, key: u64, entry: &Entry) {
        self.0.programs().insert(key, entry.0.clone());
    }

    /// `DurableTier::put_program` under any key: fills the disk tier without
    /// touching memory.  (Recovery checks segment checksums, not that a
    /// body's fingerprint matches its key, so the open probe can write 1024
    /// distinct keys from 64 bodies.)
    pub fn put_disk(&self, key: u64, entry: &Entry) {
        if let Some(tier) = self.0.durable() {
            tier.put_program(key, entry.0.clone());
        }
    }

    /// `SummaryStore::flush`: block until the write-behind queue is on disk.
    pub fn flush(&self) {
        self.0.flush();
    }

    /// Empty the in-memory program namespace; the disk tier keeps its copy.
    pub fn clear_memory(&self) {
        self.0.programs().clear();
    }

    /// `SummaryStore::clear`: every namespace and the disk tier.
    pub fn clear(&self) {
        self.0.clear();
    }

    pub fn disk(&self) -> Option<DiskCounters> {
        self.0
            .stats()
            .disk
            .map(|d| (d.entries, d.live_bytes, d.hits, d.misses))
    }
}

// ---------------------------------------------------------- engine::service

/// `Request::analyze(source).encode()`: one wire line, no newline.
pub fn encode_analyze_request(source: &str) -> String {
    Request::analyze(source).encode()
}

/// `Request::process(source, ProcessOptions::default()).encode()`.
pub fn encode_process_request(source: &str) -> String {
    Request::process(source, ProcessOptions::default()).encode()
}

/// `Request::decode`: the source the request carries.
pub fn decode_request(line: &str) -> Result<String, String> {
    match Request::decode(line).map_err(|e| e.to_string())? {
        Request::Analyze { source, .. } | Request::Process { source, .. } => Ok(source),
        other => Err(format!("not an analyze or process request: {other:?}")),
    }
}

/// `route_fingerprint`: the parse + fingerprint a sharded service spends on
/// choosing a shard, before the shard parses the source again.
pub fn route(source: &str) -> u64 {
    route_fingerprint(source)
}

/// Build and encode the `analyzed` response the daemon sends for `entry`
/// (`AnalyzeSummary` + `Response::encode`).  On a miss this is where the
/// digest is first computed; on a hit it is memoized.
pub fn encode_analyzed_response(entry: &Entry, cache_hit: bool) -> String {
    let analysis = entry.analysis();
    Response::analyzed(AnalyzeSummary {
        fingerprint: entry.fingerprint(),
        cache_hit,
        structure: analysis.structure(),
        preserves_tree: analysis.preserves_tree(),
        warnings: analysis.0.warnings.iter().map(|w| w.to_string()).collect(),
        rounds: analysis.0.rounds,
        analysis_digest: analysis.0.digest(),
    })
    .encode()
}

/// Build and encode the `report` response of a default-options `process`.
pub fn encode_report_response(entry: &Entry, transforms: u64, violations: u64) -> String {
    let analysis = entry.analysis();
    Response::report(ProgramReport {
        name: entry.0.program.name.clone(),
        fingerprint: entry.fingerprint(),
        cache_hit: true,
        structure: analysis.structure(),
        preserves_tree: analysis.preserves_tree(),
        warnings: analysis.0.warnings.iter().map(|w| w.to_string()).collect(),
        rounds: analysis.0.rounds,
        analysis_digest: analysis.0.digest(),
        incremental: None,
        transforms: Some(transforms as usize),
        violations: vec![String::new(); violations as usize],
        parallel_source: None,
        sequential_execution: None,
        parallel_execution: None,
    })
    .encode()
}

/// `Response::decode`: whether the line is a well-formed non-error response.
pub fn decode_response(line: &str) -> Result<(), String> {
    match Response::decode(line).map_err(|e| e.to_string())? {
        Response::Error { error, .. } => Err(error.to_string()),
        _ => Ok(()),
    }
}

/// `ShardedService::new(4, EngineConfig::default())` — what `sild` hosts
/// with default flags, minus the socket.
pub struct ShardedProbe(ShardedService);

impl ShardedProbe {
    pub fn new() -> ShardedProbe {
        ShardedProbe(ShardedService::new(4, EngineConfig::default()))
    }

    /// `Service::call(Request::analyze(..))`: whether the answer was a
    /// program-namespace hit.
    pub fn analyze(&self, source: &str) -> Result<bool, String> {
        match self.0.call(Request::analyze(source)) {
            Response::Analyzed { summary, .. } => Ok(summary.cache_hit),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}

impl Default for ShardedProbe {
    fn default() -> Self {
        ShardedProbe::new()
    }
}

// ------------------------------------------------------------------- silobs

/// A `silobs::Tracer` with the default ring and a `silobs::Histogram`.
pub struct ObsProbe {
    tracer: silobs::Tracer,
    histogram: silobs::Histogram,
}

impl ObsProbe {
    pub fn new() -> ObsProbe {
        ObsProbe {
            tracer: silobs::Tracer::default(),
            histogram: silobs::Histogram::new(),
        }
    }

    /// Run `body` inside a request context, as a daemon worker does.
    pub fn in_request<R>(&self, body: impl FnOnce() -> R) -> R {
        silobs::with_request(self.tracer.mint(), body)
    }

    /// `Tracer::start` + drop: one span into the ring.
    pub fn span(&self) {
        drop(self.tracer.start("probe"));
    }

    /// `Histogram::record`.
    pub fn record(&self, value: u64) {
        self.histogram.record(value);
    }
}

impl Default for ObsProbe {
    fn default() -> Self {
        ObsProbe::new()
    }
}
