//! The unified, content-addressed **summary store** — the one cache layer
//! behind every engine.
//!
//! Hendren & Nicolau's interprocedural path-matrix analysis is dominated
//! by the fixpoint over procedure bodies, whose whole-program results and
//! per-cone body walks are what this store memoizes:
//!
//! * **content-addressed** — every key is a stable 64-bit fingerprint of
//!   normalized program content (`sil_lang::hash`), so identical content
//!   hits regardless of which client, connection, or engine produced it;
//! * **typed namespaces** — [`Namespace::Program`] (whole
//!   `AnalysisResult`s), [`Namespace::WalkRecord`] (retained
//!   interprocedural body walks keyed by cone fingerprint, the raw material
//!   of incremental re-analysis) and [`Namespace::Product`] (what
//!   parallelization derives from a program, keyed by program fingerprint)
//!   each get their own capacity and counters.  The engine files an empty
//!   record set on a cone's first sighting and admits its records from the
//!   second sighting on, so a never-seen program leaves no records behind;
//!   `walks` entries and hits therefore count sightings as well as record
//!   sets.  The per-SCC argument-mode summaries are not kept: computing a
//!   program's tables is a syntactic pass of 10–20 µs per miss;
//! * **one tiered namespace** — only whole programs live below memory
//!   (the disk tier, then the peer ring): an entry costs about a
//!   millisecond to recompute.  The other two are plain in-memory memos;
//! * **a source-text memo in front** — [`SummaryStore::sources`] maps the
//!   exact bytes of a request's source to the program fingerprint the
//!   front end derived from them, so an exact repeat skips parsing and
//!   fingerprinting.  It is keyed by [`SummaryStore::source_key`] of the
//!   raw text, a non-cryptographic hash anyone can collide, so a hit needs byte equality, never only the key.  It
//!   holds a text only when it is no longer than its program's canonical
//!   rendering, so it never holds more bytes than the canonical forms of
//!   programs the store has analyzed.  Memory-only, sized like `programs`,
//!   and not a [`Namespace`]: a [`StoreStats`] reply does not carry it, and
//!   it reports as the `store.sources.*` metrics;
//! * **lock-striped** — each namespace is a [`NamespaceCache`] of
//!   independently locked stripes, so the store serves however many
//!   connection threads call into it without a global lock;
//! * **evicted by recency** — a full stripe drops its least recently used
//!   entry, and the disk tier sheds its coldest entries by the same kind
//!   of clock.  One rule, nothing to select: measured over stationary,
//!   drifting and edit-session request streams, a frequency rule won up to
//!   11 points of hit ratio on the first and lost 18–68 on the other two, and
//!   an arbiter switching between the two rules stayed within 4.5 points
//!   of plain recency everywhere (the README has the table).

pub mod durable;
pub(crate) mod entry;
pub mod namespace;
pub mod segment;

pub use crate::peer::{PeerConfig, PeerRing, PeerStats};
pub use durable::{DiskStats, DurableConfig, DurableTier};
pub use entry::ANALYSIS_EPOCH;
pub use namespace::{CacheStats, NamespaceCache, NamespaceStats, DEFAULT_STRIPES};

use crate::service::json::Json;
use crate::service::proto::PeerNamespace;
use crate::{AnalyzedProgram, Normalized};
use sil_analysis::WalkRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The typed namespaces of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Whole-program analysis results, keyed by program fingerprint.
    Program,
    /// Retained interprocedural body walks, keyed by cone fingerprint.
    WalkRecord,
    /// Parallelization products, keyed by program fingerprint.
    Product,
}

impl Namespace {
    /// Every namespace, in reporting order.
    pub const ALL: [Namespace; 3] = [
        Namespace::Program,
        Namespace::WalkRecord,
        Namespace::Product,
    ];

    /// Stable lowercase name (wire format and CLI tables).
    pub fn name(self) -> &'static str {
        match self {
            Namespace::Program => "programs",
            Namespace::WalkRecord => "walks",
            Namespace::Product => "products",
        }
    }
}

/// Store construction parameters: per-namespace capacity, plus the
/// lock-stripe count shared by all namespaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Capacity of the whole-program namespace.
    pub program_capacity: usize,
    /// Capacity (in cones) of the walk-record namespace: record sets and
    /// first sightings share it.
    pub walk_capacity: usize,
    /// Lock stripes per namespace (clamped to each namespace's capacity).
    pub stripes: usize,
    /// Durable disk tier under the in-memory namespaces (`None` =
    /// memory-only, the historical behavior).
    pub durable: Option<DurableConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            program_capacity: 256,
            walk_capacity: 512,
            stripes: DEFAULT_STRIPES,
            durable: None,
        }
    }
}

impl StoreConfig {
    /// Override the lock-stripe count.
    pub fn with_stripes(mut self, stripes: usize) -> Self {
        self.stripes = stripes;
        self
    }

    /// Put a durable disk tier under the in-memory namespaces.
    pub fn with_durable(mut self, durable: Option<DurableConfig>) -> Self {
        self.durable = durable;
        self
    }
}

/// Counter snapshot of the whole store: one [`NamespaceStats`] per typed
/// namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// The whole-program namespace.
    pub programs: NamespaceStats,
    /// Always empty with capacity 0: summaries are no longer memoized.
    /// Kept because protocol v2 `stats` replies carry it.
    pub summaries: NamespaceStats,
    /// The walk-record namespace.
    pub walks: NamespaceStats,
    /// The parallelization-product namespace.
    pub products: NamespaceStats,
    /// The durable disk tier, when one is configured.
    pub disk: Option<DiskStats>,
    /// The peering tier, when this store fetches from or serves peers.
    pub peer: Option<PeerStats>,
}

impl StoreStats {
    /// The snapshot of one namespace, by tag.
    pub fn namespace(&self, namespace: Namespace) -> &NamespaceStats {
        match namespace {
            Namespace::Program => &self.programs,
            Namespace::WalkRecord => &self.walks,
            Namespace::Product => &self.products,
        }
    }
}

/// Retained body walks of one cone (the value type of
/// [`Namespace::WalkRecord`]); empty for a cone sighted once.
pub type WalkSet = Arc<Vec<Arc<WalkRecord>>>;

/// What parallelization derives from one normalized program — the output
/// of pack → pretty-print → re-parse → verify with default options (the
/// value type of [`Namespace::Product`]).  A few KB of text and counts: no
/// AST and no second `AnalysisResult`.  A pure function of the program
/// content, so an entry can outlive its program entry and never go stale.
#[derive(Debug)]
pub struct ParallelProduct {
    /// How many transformations the packer applied.
    pub transforms: usize,
    /// The parallel program, pretty-printed.
    pub parallel_source: String,
    /// The verifier's findings, filled by the first request that verifies.
    violations: OnceLock<Vec<String>>,
}

impl ParallelProduct {
    /// A product whose parallel program has not been verified yet.
    pub fn new(transforms: usize, parallel_source: String) -> ParallelProduct {
        ParallelProduct {
            transforms,
            parallel_source,
            violations: OnceLock::new(),
        }
    }

    /// The verifier's findings, once some request has asked for them.
    pub fn violations(&self) -> Option<&[String]> {
        self.violations.get().map(Vec::as_slice)
    }

    /// File the verifier's findings (the first filing wins — concurrent
    /// verifications of one program find the same thing) and return them.
    pub fn record_violations(&self, found: Vec<String>) -> &[String] {
        self.violations.get_or_init(|| found)
    }
}

/// A request text the front end accepted and the program fingerprint it
/// produced (the value type of [`SummaryStore::sources`]).
#[derive(Debug)]
pub struct FiledSource {
    text: Box<str>,
    fingerprint: u64,
}

/// The unified content-addressed store behind an engine; a `sild`
/// daemon's one engine serves every connection from it.
#[derive(Debug)]
pub struct SummaryStore {
    programs: NamespaceCache<Arc<AnalyzedProgram>>,
    walks: NamespaceCache<WalkSet>,
    /// Memory-only like `walks`, and sized like `programs`: one product per
    /// program.
    products: NamespaceCache<Arc<ParallelProduct>>,
    /// Request texts the front end accepted, keyed by
    /// [`SummaryStore::source_key`] of the text:
    /// memory-only, sized like `programs`, and not a [`Namespace`] — its
    /// key addresses bytes, not program content.
    sources: NamespaceCache<Arc<FiledSource>>,
    /// The disk tier under `programs`, the one namespace with tiers below
    /// memory.
    durable: Option<DurableTier>,
    /// The peering tier under the disk tier — attached once, after
    /// construction, by the daemon that owns the ring (the store cannot
    /// hold it in `StoreConfig`: rings are live objects, not parameters).
    peer: OnceLock<Arc<PeerRing>>,
    /// Peer inventory/fetch requests this store answered.
    peer_serves: AtomicU64,
    /// Entry bytes this store served to fetching peers.
    peer_bytes_out: AtomicU64,
    /// Monotonic inventory generation: bumped on `clear()`, so peers can
    /// tell a truncated store's empty inventory from a stale snapshot.
    generation: AtomicU64,
}

impl Default for SummaryStore {
    fn default() -> Self {
        SummaryStore::new(StoreConfig::default())
    }
}

impl SummaryStore {
    /// A store with the given per-namespace capacities.
    ///
    /// Construction stays infallible: when the configured durable tier
    /// cannot be opened (unwritable directory, I/O error) the store logs
    /// it and runs memory-only rather than refusing to start.
    pub fn new(config: StoreConfig) -> SummaryStore {
        let durable = config.durable.and_then(|durable| {
            DurableTier::open(durable)
                .map_err(|e| eprintln!("sil durable store: disabled ({e})"))
                .ok()
        });
        SummaryStore {
            durable,
            peer: OnceLock::new(),
            peer_serves: AtomicU64::new(0),
            peer_bytes_out: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            programs: NamespaceCache::with_stripes(config.program_capacity, config.stripes),
            walks: NamespaceCache::with_stripes(config.walk_capacity, config.stripes),
            products: NamespaceCache::with_stripes(config.program_capacity, config.stripes),
            sources: NamespaceCache::with_stripes(config.program_capacity, config.stripes),
        }
    }

    /// A store behind an `Arc`.
    pub fn shared(config: StoreConfig) -> Arc<SummaryStore> {
        Arc::new(SummaryStore::new(config))
    }

    /// The whole-program namespace.
    pub fn programs(&self) -> &NamespaceCache<Arc<AnalyzedProgram>> {
        &self.programs
    }

    /// The walk-record namespace.
    pub fn walks(&self) -> &NamespaceCache<WalkSet> {
        &self.walks
    }

    /// The parallelization-product namespace (memory-only; never written
    /// to disk or served to peers).
    pub fn products(&self) -> &NamespaceCache<Arc<ParallelProduct>> {
        &self.products
    }

    /// The source-text memo in front of the program namespace (its
    /// counters are the `store.sources.*` metrics).
    pub fn sources(&self) -> &NamespaceCache<Arc<FiledSource>> {
        &self.sources
    }

    /// The key a request text is filed and looked up under in
    /// [`SummaryStore::sources`]: a word-at-a-time hash of its bytes (the
    /// memo never leaves memory, so the key is free to change).
    pub fn source_key(text: &str) -> u64 {
        sil_lang::hash::word_hash(text.as_bytes())
    }

    /// The program fingerprint filed for exactly `text` under `key`.  The
    /// key is a non-cryptographic hash anyone can collide, so a hit needs
    /// the filed bytes to equal `text`; an entry that only shares the key
    /// is a miss.
    pub fn filed_fingerprint(&self, key: u64, text: &str) -> Option<u64> {
        self.sources
            .get_if(key, |filed| *filed.text == *text)
            .map(|filed| filed.fingerprint)
    }

    /// File `text` under `key` as the source of the program `fingerprint`
    /// addresses (replacing whatever held the key).
    pub fn file_source(&self, key: u64, text: &str, fingerprint: u64) {
        self.sources.insert(
            key,
            Arc::new(FiledSource {
                text: text.into(),
                fingerprint,
            }),
        );
    }

    /// The durable disk tier, when one is configured and healthy.
    pub fn durable(&self) -> Option<&DurableTier> {
        self.durable.as_ref()
    }

    /// Attach a peer ring as the tier under the disk tier.  At most one
    /// ring per store; a second attach is ignored.
    pub fn attach_peers(&self, ring: Arc<PeerRing>) {
        let _ = self.peer.set(ring);
    }

    /// The attached peer ring, if any.
    pub fn peers(&self) -> Option<&Arc<PeerRing>> {
        self.peer.get()
    }

    /// The current inventory generation (bumped by [`SummaryStore::clear`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The inventory this store advertises to peers: generation plus the
    /// sorted resident program fingerprints (nothing else is ever served).
    pub fn peer_inventory(&self) -> (u64, Vec<u64>) {
        self.peer_serves.fetch_add(1, Ordering::Relaxed);
        (self.generation(), self.programs.keys())
    }

    /// Answer one `peer_fetch`.  A whole-program entry is served as the
    /// same verifiable entry document (`store/entry.rs`) the durable tier
    /// persists: memory first (encoding the document on demand), then
    /// disk (a read for a peer, not a lookup: it counts as no disk hit or
    /// miss); never recomputed.  Either way the reply's member is those
    /// bytes, parsed.  Summary tables are not kept at all, so an older
    /// daemon that still asks for one gets the answer an evicted key gets.
    pub fn peer_body(&self, namespace: PeerNamespace, key: u64) -> Option<Json> {
        self.peer_serves.fetch_add(1, Ordering::Relaxed);
        let body = match namespace {
            PeerNamespace::Programs => match self.programs.peek(key) {
                Some(entry) => entry::encode_program(&entry).into_bytes(),
                None => self.durable.as_ref()?.read(key)?,
            },
            PeerNamespace::Summaries => return None,
        };
        let document = entry::parse(&body)?;
        self.peer_bytes_out
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        Some(document)
    }

    /// The program the disk tier holds under `key`: a `disk-read` span for
    /// the segment read and its checksum, an `entry-decode` span for
    /// parsing and decoding the entry.  The checksum covers tag, key and
    /// body, so the body is trusted on it, its version, its analysis epoch
    /// and its fingerprint being `key`: the stored digest is believed, and
    /// the program is `request`'s when there is one (taken only on a hit),
    /// else the stored source parsed but not fingerprinted.  A peer's body
    /// is checked in full (`PeerRing::fetch_program`): source re-parsed
    /// and fingerprinted, digest recomputed.  The epoch's limit: a change
    /// to the analysis that moves no golden corpus digest leaves it, and
    /// so older entries, as they were.
    fn disk_program(
        &self,
        key: u64,
        request: &mut Option<Normalized>,
    ) -> Option<Arc<AnalyzedProgram>> {
        let tier = self.durable.as_ref()?;
        tier.get(key, |body| {
            let _span = tier.tracer().start("entry-decode");
            entry::program_from_disk(body, key, request)
        })
    }

    /// Tiered whole-program lookup: the in-memory namespace first, then
    /// the disk tier (its write-behind queue, then its segments), then a
    /// verified peer fetch — each lower tier's hit
    /// is promoted into the tiers above it.
    pub fn lookup_program(&self, fingerprint: u64) -> Option<Arc<AnalyzedProgram>> {
        self.lookup_tiered(fingerprint, &mut None)
    }

    /// [`SummaryStore::lookup_program`] for the program of `request`, which
    /// went through the front end: a disk hit takes it instead of parsing
    /// the stored source, and a miss leaves it there.
    pub(crate) fn lookup_normalized(
        &self,
        request: &mut Option<Normalized>,
    ) -> Option<Arc<AnalyzedProgram>> {
        let fingerprint = request.as_ref().map(|n| n.fingerprint)?;
        self.lookup_tiered(fingerprint, request)
    }

    fn lookup_tiered(
        &self,
        fingerprint: u64,
        request: &mut Option<Normalized>,
    ) -> Option<Arc<AnalyzedProgram>> {
        if let Some(entry) = self.programs.get(fingerprint) {
            return Some(entry);
        }
        let queued = self
            .durable
            .as_ref()
            .and_then(|tier| tier.pending_program(fingerprint));
        if let Some(entry) = queued.or_else(|| self.disk_program(fingerprint, request)) {
            self.programs.insert(fingerprint, entry.clone());
            return Some(entry);
        }
        let entry = self.peer.get()?.fetch_program(fingerprint)?;
        // `store_program` runs the verified entry through the normal
        // admission path: memory, plus an enqueued durable write when a
        // disk tier exists.
        self.store_program(fingerprint, entry.clone());
        Some(entry)
    }

    /// Store a whole-program entry in both tiers (the disk write is
    /// enqueued behind the hot path).
    pub fn store_program(&self, fingerprint: u64, entry: Arc<AnalyzedProgram>) {
        self.programs.insert(fingerprint, entry.clone());
        if let Some(tier) = &self.durable {
            tier.put_program(fingerprint, entry);
        }
    }

    /// Block until every enqueued disk write is on disk.  A no-op for
    /// memory-only stores.
    pub fn flush(&self) {
        if let Some(tier) = &self.durable {
            tier.flush();
        }
    }

    /// Counter snapshot across all namespaces (aggregate + per stripe).
    pub fn stats(&self) -> StoreStats {
        let serves = self.peer_serves.load(Ordering::Relaxed);
        let bytes_out = self.peer_bytes_out.load(Ordering::Relaxed);
        StoreStats {
            programs: self.programs.stats(),
            summaries: NamespaceStats::default(),
            walks: self.walks.stats(),
            products: self.products.stats(),
            disk: self.durable.as_ref().map(|tier| tier.stats()),
            peer: match self.peer.get() {
                Some(ring) => Some(ring.stats(serves, bytes_out)),
                // A serve-only daemon (no `--peer` flags of its own) has
                // no ring but still reports what it answered to peers.
                None if serves > 0 => Some(PeerStats {
                    serves,
                    bytes_out,
                    ..PeerStats::default()
                }),
                None => None,
            },
        }
    }

    /// Drop every entry in every namespace — and truncate the disk tier,
    /// so `ClearCaches` really does forget (the counters survive).  Bumps
    /// the inventory generation so peers discard stale advertisements.
    pub fn clear(&self) {
        self.programs.clear();
        self.walks.clear();
        self.products.clear();
        self.sources.clear();
        if let Some(tier) = &self.durable {
            tier.clear();
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_independent() {
        let store = SummaryStore::new(StoreConfig {
            program_capacity: 2,
            walk_capacity: 3,
            ..StoreConfig::default()
        });
        store.walks().insert(1, Arc::new(Vec::new()));
        store
            .products()
            .insert(1, Arc::new(ParallelProduct::new(0, String::new())));
        assert_eq!(store.programs().len(), 0);
        assert_eq!(store.walks().len(), 1);
        assert_eq!(store.products().len(), 1);
        assert_eq!(
            store.stats().products.capacity,
            2,
            "follows the program namespace"
        );
        assert_eq!(store.stats().summaries, NamespaceStats::default());
        assert_eq!(store.stats().namespace(Namespace::WalkRecord).entries, 1);
        assert_eq!(store.stats().programs.capacity, 2);
        store.file_source(1, "program p", 7);
        assert_eq!(store.sources().len(), 1);
        assert_eq!(
            store.sources().capacity(),
            2,
            "follows the program namespace"
        );

        store.clear();
        assert!(store.walks().is_empty());
        assert!(store.products().is_empty());
        assert!(store.sources().is_empty());
    }

    #[test]
    fn a_filed_source_hits_only_on_its_exact_bytes() {
        let store = SummaryStore::default();
        store.file_source(1, "program a", 10);
        assert_eq!(store.filed_fingerprint(1, "program a"), Some(10));
        assert_eq!(
            store.filed_fingerprint(1, "program b"),
            None,
            "key collision"
        );
        assert_eq!(store.filed_fingerprint(2, "program a"), None);
        let totals = store.sources().totals();
        assert_eq!((totals.hits, totals.misses), (1, 2));
    }

    #[test]
    fn namespace_names_are_stable() {
        let names: Vec<&str> = Namespace::ALL.iter().map(|n| n.name()).collect();
        assert_eq!(names, ["programs", "walks", "products"]);
    }
}
