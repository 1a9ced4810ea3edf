//! The durable disk tier under the in-memory
//! [`SummaryStore`](crate::store::SummaryStore): a content-addressed,
//! log-structured cache that survives daemon restarts.
//!
//! It holds one kind of entry: the whole analyzed program.  Entries are
//! immutable values keyed by stable content fingerprints, which makes the
//! disk tier an append-only log with none of the usual update-in-place
//! hazards:
//!
//! * **Write-behind** — the analysis hot path enqueues the value (an
//!   `Arc`, no copy) on an unbounded channel and returns; one background
//!   flusher thread encodes its entry document (`store/entry.rs`) and
//!   appends the bytes to the active [`segment`] file.  With
//!   [`DurableConfig::fsync`] the flusher syncs after every batch; either
//!   way the hot path never blocks on the disk.
//! * **Crash-safe recovery** — opening the tier scans every segment and
//!   trusts only the intact prefix (length + checksum verified per
//!   entry); a torn final write or a corrupt entry truncates the segment
//!   there.  Recovery is observable: a `disk-recovery` span plus
//!   [`DiskStats::recovered_entries`] / [`DiskStats::dropped_bytes`].
//!   An intact entry under another tag than the program one — the
//!   summary tables a build before PR 23 wrote beside its programs — is
//!   neither: it is left unindexed, counts as dead bytes, and the next
//!   compaction of its segment reclaims it.
//! * **Compaction & admission** — rewriting a key appends a fresh entry
//!   and dead-letters the old one; when sealed segments are mostly dead
//!   the flusher folds their live entries forward and deletes them.  When
//!   the tier outgrows [`DurableConfig::byte_budget`], the entries
//!   touched longest ago are evicted first — the same recency rule the
//!   in-memory namespaces evict by (cf. the NDN caching literature: disk
//!   is one more cache tier, not an archive).
//!
//! * **Trust** — a body read back is trusted on its checksum (FNV-1a over
//!   tag, key and body, re-checked on every read), its key, and the entry
//!   version and analysis epoch it records: decoding checks those and the
//!   entry's structure, and believes the stored analysis digest rather
//!   than recomputing it.  A body a peer sends is checked in full — its
//!   source re-parsed and fingerprinted, its digest recomputed.  The epoch
//!   moves whenever a golden corpus digest does; a change to the analysis
//!   that moves none of them leaves older entries believed.
//!
//! This file is segments and tiering only: what the bytes of an entry
//! *mean* and how each tier's bodies are decoded live in
//! `store/entry.rs`.

use super::entry;
use super::segment::{self, EntryRef, SegmentWriter};
use crate::AnalyzedProgram;
use silobs::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// The segment format's tag byte of a whole-program entry, the one kind
/// this tier reads and writes.
const PROGRAM_TAG: u8 = 0;

/// How the durable tier is shaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// Directory holding the segment files (created if missing).
    pub data_dir: PathBuf,
    /// Sync every flush batch to stable storage (safer, slower); without
    /// it a power loss can cost the most recent writes — never integrity.
    pub fsync: bool,
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
    /// Evict coldest entries once live bytes exceed this (0 = unbounded).
    pub byte_budget: u64,
}

impl DurableConfig {
    /// A tier rooted at `data_dir` with default sizing (4 MiB segments,
    /// 512 MiB budget, no fsync).
    pub fn at(data_dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            data_dir: data_dir.into(),
            fsync: false,
            segment_bytes: 4 << 20,
            byte_budget: 512 << 20,
        }
    }

    pub fn with_fsync(mut self, fsync: bool) -> DurableConfig {
        self.fsync = fsync;
        self
    }

    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> DurableConfig {
        self.segment_bytes = segment_bytes.max(1);
        self
    }

    pub fn with_byte_budget(mut self, byte_budget: u64) -> DurableConfig {
        self.byte_budget = byte_budget;
        self
    }
}

/// Counter snapshot of the disk tier (all monotonic except the gauges
/// `entries`/`live_bytes`/`segments`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups served from disk: a body read back and decoded.
    pub hits: u64,
    /// Lookups that found no entry, or a body that did not decode.
    pub misses: u64,
    /// Body bytes read back on hits.
    pub read_bytes: u64,
    /// Entry bytes appended (headers included).
    pub written_bytes: u64,
    /// Live (indexed) entries right now.
    pub entries: u64,
    /// Bytes those live entries occupy on disk.
    pub live_bytes: u64,
    /// Segment files on disk right now.
    pub segments: u64,
    /// Flush batches the background thread completed.
    pub flushes: u64,
    /// Compaction passes that rewrote sealed segments.
    pub compactions: u64,
    /// Entries dropped by the byte-budget admission policy.
    pub evictions: u64,
    /// Intact entries loaded by recovery scans.
    pub recovered_entries: u64,
    /// Torn/corrupt bytes recovery truncated away.
    pub dropped_bytes: u64,
}

/// One write-behind job for the flusher thread.  Values travel as `Arc`s;
/// encoding happens off the hot path, on the flusher.
enum Job {
    Program(u64, Arc<AnalyzedProgram>, u64),
    /// Ack once every job enqueued before this one is on disk.
    Barrier(mpsc::SyncSender<()>),
}

#[derive(Debug)]
struct SegmentMeta {
    path: PathBuf,
    len: u64,
    live_bytes: u64,
    live_entries: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    segment: u64,
    entry: EntryRef,
    /// Logical access clock at last touch: the eviction rank.
    stamp: u64,
}

#[derive(Debug, Default)]
struct TierState {
    segments: BTreeMap<u64, SegmentMeta>,
    active: u64,
    writer: Option<SegmentWriter>,
    index: HashMap<u64, Slot>,
    clock: u64,
}

#[derive(Debug, Default)]
struct DiskCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    evictions: AtomicU64,
    recovered_entries: AtomicU64,
    dropped_bytes: AtomicU64,
}

struct TierShared {
    config: DurableConfig,
    state: Mutex<TierState>,
    counters: DiskCounters,
    /// Bumped by [`DurableTier::clear`]; jobs enqueued under an older
    /// generation are discarded instead of resurrecting cleared entries.
    generation: AtomicU64,
    /// Programs enqueued and not yet appended.  Memory may evict an entry
    /// while its write is still queued; it is served from here meanwhile,
    /// so a stored program is never in neither tier.
    pending: Mutex<HashMap<u64, Arc<AnalyzedProgram>>>,
    tracer: Arc<Tracer>,
}

/// The durable tier: an on-disk index over append-only segments, plus the
/// background flusher that feeds it.
pub struct DurableTier {
    shared: Arc<TierShared>,
    sender: Option<mpsc::Sender<Job>>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DurableTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableTier")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl DurableTier {
    /// Open (or create) the tier at its data directory, recovering every
    /// segment's intact prefix, then start the write-behind flusher.
    pub fn open(config: DurableConfig) -> io::Result<DurableTier> {
        std::fs::create_dir_all(&config.data_dir)?;
        let tracer = Arc::new(Tracer::default());
        let shared = Arc::new(TierShared {
            config,
            state: Mutex::new(TierState::default()),
            counters: DiskCounters::default(),
            generation: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            tracer,
        });
        {
            let _span = shared.tracer.start("disk-recovery");
            shared.recover()?;
        }
        let (sender, receiver) = mpsc::channel();
        let flusher_shared = shared.clone();
        let flusher = std::thread::Builder::new()
            .name("sil-durable-flush".to_string())
            .spawn(move || flusher_loop(&flusher_shared, &receiver))
            .expect("spawning the durable flusher thread");
        Ok(DurableTier {
            shared,
            sender: Some(sender),
            flusher: Some(flusher),
        })
    }

    /// The span ring recovery/flush/compaction record into.  The service
    /// layer adopts this as its shared tracer so `disk-*` spans show up in
    /// `TraceDump` responses next to `parse`/`fixpoint`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.shared.tracer
    }

    /// One lookup by this daemon: the body under `key`, read under a
    /// `disk-read` span and handed to `decode`.  It is a hit only when
    /// `decode` accepts the body.  A body it refuses (a version or an
    /// analysis epoch this build does not read) is unindexed, dead bytes the next compaction of its
    /// segment reclaims, and the lookup counts as a miss.
    pub fn get<T>(&self, key: u64, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let body = {
            let _span = self.shared.tracer.start("disk-read");
            self.read(key)
        };
        let value = body.as_deref().and_then(decode);
        let counters = &self.shared.counters;
        match &body {
            Some(body) if value.is_some() => {
                counters.hits.fetch_add(1, Ordering::Relaxed);
                counters
                    .read_bytes
                    .fetch_add(body.len() as u64, Ordering::Relaxed);
            }
            Some(_) => {
                let mut state = self
                    .shared
                    .state
                    .lock()
                    .expect("no thread panics holding the index");
                state.drop_slot(key);
                counters.misses.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                counters.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        value
    }

    /// Read one entry's body back, touching its recency rank but counting
    /// no lookup (a `peer_fetch` answered from disk reads this way).
    pub fn read(&self, key: u64) -> Option<Vec<u8>> {
        let mut state = self.shared.state.lock().unwrap();
        let slot = state.index.get(&key).copied()?;
        state.clock += 1;
        let clock = state.clock;
        if let Some(live) = state.index.get_mut(&key) {
            live.stamp = clock;
        }
        let body = state
            .segments
            .get(&slot.segment)
            .and_then(|meta| File::open(&meta.path).ok())
            .and_then(|mut file| segment::read_body(&mut file, &slot.entry).ok().flatten());
        if body.is_none() {
            // The bytes no longer verify (rot, external truncation):
            // forget the entry rather than serving garbage.
            state.drop_slot(key);
        }
        body
    }

    /// Enqueue a whole-program entry for write-behind persistence.
    pub fn put_program(&self, key: u64, entry: Arc<AnalyzedProgram>) {
        self.shared.pending().insert(key, entry.clone());
        self.send(Job::Program(
            key,
            entry,
            self.shared.generation.load(Ordering::SeqCst),
        ));
    }

    /// The program enqueued under `key`, while its write has not landed.
    pub fn pending_program(&self, key: u64) -> Option<Arc<AnalyzedProgram>> {
        self.shared.pending().get(&key).cloned()
    }

    /// Block until every job enqueued before this call is on disk (and
    /// synced, under [`DurableConfig::fsync`]).
    pub fn flush(&self) {
        let (ack, done) = mpsc::sync_channel(1);
        self.send(Job::Barrier(ack));
        let _ = done.recv();
    }

    /// Truncate the tier: every segment file is deleted and the index is
    /// emptied; queued stale writes are discarded.  Counters survive.
    pub fn clear(&self) {
        let mut state = self.shared.state.lock().unwrap();
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        self.shared.pending().clear();
        state.writer = None;
        for meta in state.segments.values() {
            let _ = std::fs::remove_file(&meta.path);
        }
        state.segments.clear();
        state.index.clear();
        state.active += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DiskStats {
        let state = self.shared.state.lock().unwrap();
        let counters = &self.shared.counters;
        DiskStats {
            hits: counters.hits.load(Ordering::Relaxed),
            misses: counters.misses.load(Ordering::Relaxed),
            read_bytes: counters.read_bytes.load(Ordering::Relaxed),
            written_bytes: counters.written_bytes.load(Ordering::Relaxed),
            entries: state.index.len() as u64,
            live_bytes: state.segments.values().map(|m| m.live_bytes).sum(),
            segments: state.segments.len() as u64,
            flushes: counters.flushes.load(Ordering::Relaxed),
            compactions: counters.compactions.load(Ordering::Relaxed),
            evictions: counters.evictions.load(Ordering::Relaxed),
            recovered_entries: counters.recovered_entries.load(Ordering::Relaxed),
            dropped_bytes: counters.dropped_bytes.load(Ordering::Relaxed),
        }
    }

    fn send(&self, job: Job) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(job);
        }
    }
}

impl Drop for DurableTier {
    /// Closing the channel lets the flusher drain everything still queued
    /// and exit; joining it makes drop a graceful flush.
    fn drop(&mut self) {
        self.sender.take();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

fn segment_path(dir: &std::path::Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.sil"))
}

fn segment_id(path: &std::path::Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".sil")?
        .parse()
        .ok()
}

impl TierState {
    fn drop_slot(&mut self, key: u64) {
        if let Some(slot) = self.index.remove(&key) {
            if let Some(meta) = self.segments.get_mut(&slot.segment) {
                meta.live_bytes = meta.live_bytes.saturating_sub(slot.entry.stored_bytes());
                meta.live_entries = meta.live_entries.saturating_sub(1);
            }
        }
    }

    fn index_entry(&mut self, segment: u64, entry: EntryRef) {
        self.drop_slot(entry.key);
        self.clock += 1;
        let stamp = self.clock;
        self.index.insert(
            entry.key,
            Slot {
                segment,
                entry,
                stamp,
            },
        );
        if let Some(meta) = self.segments.get_mut(&segment) {
            meta.live_bytes += entry.stored_bytes();
            meta.live_entries += 1;
        }
    }

    fn live_bytes(&self) -> u64 {
        self.segments.values().map(|m| m.live_bytes).sum()
    }
}

impl TierShared {
    /// The pending map; every update leaves it valid, so a poisoned lock
    /// is recovered rather than propagated.
    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<AnalyzedProgram>>> {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Scan every segment in id order (later segments win duplicate
    /// keys), truncating each to its intact prefix.
    fn recover(&self) -> io::Result<()> {
        let mut ids: Vec<u64> = std::fs::read_dir(&self.config.data_dir)?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| segment_id(&entry.path()))
            .collect();
        ids.sort_unstable();
        let mut state = self.state.lock().unwrap();
        for &id in &ids {
            let path = segment_path(&self.config.data_dir, id);
            let report = match segment::scan(&path) {
                Ok(report) => report,
                Err(_) => continue, // unreadable file: leave it alone
            };
            self.counters
                .dropped_bytes
                .fetch_add(report.dropped_bytes, Ordering::Relaxed);
            state.segments.insert(
                id,
                SegmentMeta {
                    path: path.clone(),
                    len: report.valid_len.max(segment::MAGIC.len() as u64),
                    live_bytes: 0,
                    live_entries: 0,
                },
            );
            // Anything not tagged as a program stays unindexed: dead
            // bytes the next compaction of this segment reclaims.
            for entry in report.entries {
                if entry.namespace == PROGRAM_TAG {
                    state.index_entry(id, entry);
                    self.counters
                        .recovered_entries
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if report.dropped {
                // Physically cut the untrusted tail so later appends (and
                // later recoveries) see an intact file.
                drop(SegmentWriter::recover(&path, report.valid_len)?);
            }
        }
        state.active = ids.last().copied().unwrap_or(0).max(1);
        let active_path = segment_path(&self.config.data_dir, state.active);
        if let Some(meta) = state.segments.get(&state.active) {
            state.writer = Some(SegmentWriter::recover(&active_path, meta.len)?);
        }
        Ok(())
    }
}

/// The flusher thread: drain jobs in batches, append, rotate, optionally
/// fsync, then evict/compact in the background.
fn flusher_loop(shared: &Arc<TierShared>, receiver: &mpsc::Receiver<Job>) {
    while let Ok(first) = receiver.recv() {
        let mut batch = vec![first];
        while batch.len() < 256 {
            match receiver.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        let mut barriers = Vec::new();
        {
            let _span = shared.tracer.start("disk-flush");
            for job in batch {
                match job {
                    Job::Program(key, entry, generation) => {
                        let body = entry::encode_program(&entry);
                        let mut state = shared.state.lock().unwrap();
                        append(shared, &mut state, key, body.as_bytes(), generation);
                        drop(state);
                        // Now the index answers for it (unless a newer
                        // write of the key is still queued).
                        let mut pending = shared.pending();
                        if pending.get(&key).is_some_and(|p| Arc::ptr_eq(p, &entry)) {
                            pending.remove(&key);
                        }
                    }
                    Job::Barrier(ack) => barriers.push(ack),
                }
            }
            if shared.config.fsync {
                let state = shared.state.lock().unwrap();
                if let Some(writer) = &state.writer {
                    let _ = writer.sync();
                }
            }
        }
        shared.counters.flushes.fetch_add(1, Ordering::Relaxed);
        maintain(shared);
        for ack in barriers {
            let _ = ack.send(());
        }
    }
}

/// Background maintenance after a flush batch: byte-budget eviction,
/// coldest first, then compaction of mostly-dead sealed segments.
fn maintain(shared: &Arc<TierShared>) {
    let mut state = shared.state.lock().unwrap();

    // Eviction: shed the coldest entries until live bytes fit the budget.
    let budget = shared.config.byte_budget;
    if budget > 0 && state.live_bytes() > budget {
        let mut ranked: Vec<(u64, u64)> = state
            .index
            .iter()
            .map(|(&key, slot)| (key, slot.stamp))
            .collect();
        ranked.sort_by_key(|&(_, stamp)| stamp);
        for (key, _) in ranked {
            if state.live_bytes() <= budget {
                break;
            }
            state.drop_slot(key);
            shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    // Compaction: fold sealed segments' live entries into the active
    // segment once more than half their bytes are dead weight.
    let sealed: Vec<u64> = state
        .segments
        .keys()
        .copied()
        .filter(|&id| id != state.active)
        .collect();
    let magic = segment::MAGIC.len() as u64;
    let sealed_total: u64 = sealed
        .iter()
        .filter_map(|id| state.segments.get(id))
        .map(|m| m.len.saturating_sub(magic))
        .sum();
    let sealed_live: u64 = sealed
        .iter()
        .filter_map(|id| state.segments.get(id))
        .map(|m| m.live_bytes)
        .sum();
    if sealed_total == 0 || sealed_live * 2 > sealed_total {
        return;
    }
    let _span = shared.tracer.start("disk-compact");
    for id in sealed {
        let Some(meta) = state.segments.get(&id) else {
            continue;
        };
        let path = meta.path.clone();
        // Copy the segment's live entries forward into the active writer.
        let moved: Vec<(u64, EntryRef)> = state
            .index
            .iter()
            .filter(|(_, slot)| slot.segment == id)
            .map(|(&key, slot)| (key, slot.entry))
            .collect();
        let mut source = match File::open(&path) {
            Ok(file) => file,
            Err(_) => continue,
        };
        let mut copied = true;
        for (key, entry) in moved {
            let Ok(Some(body)) = segment::read_body(&mut source, &entry) else {
                // Unreadable live entry: forget it rather than block
                // compaction forever.
                state.drop_slot(key);
                continue;
            };
            let generation = shared.generation.load(Ordering::SeqCst);
            // Re-append through the normal path (handles rotation).
            append(shared, &mut state, key, &body, generation);
            if !state.index.contains_key(&key) {
                copied = false;
            }
        }
        if copied {
            state.segments.remove(&id);
            let _ = std::fs::remove_file(&path);
        }
    }
    shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
}

/// Append one encoded entry to the active segment (the caller holds the
/// state lock), rotating when full.
fn append(shared: &Arc<TierShared>, state: &mut TierState, key: u64, body: &[u8], generation: u64) {
    if generation != shared.generation.load(Ordering::SeqCst) {
        return;
    }
    if state.writer.is_none() {
        let id = state.active;
        let path = segment_path(&shared.config.data_dir, id);
        match SegmentWriter::create(&path) {
            Ok(writer) => {
                state.segments.insert(
                    id,
                    SegmentMeta {
                        path,
                        len: writer.len(),
                        live_bytes: 0,
                        live_entries: 0,
                    },
                );
                state.writer = Some(writer);
            }
            Err(e) => {
                eprintln!("sil durable store: cannot create segment: {e}");
                return;
            }
        }
    }
    let active = state.active;
    let writer = state.writer.as_mut().unwrap();
    match writer.append(PROGRAM_TAG, key, body) {
        Ok(entry) => {
            let len = writer.len();
            shared
                .counters
                .written_bytes
                .fetch_add(entry.stored_bytes(), Ordering::Relaxed);
            if let Some(meta) = state.segments.get_mut(&active) {
                meta.len = len;
            }
            state.index_entry(active, entry);
            if len >= shared.config.segment_bytes {
                state.writer = None;
                state.active += 1;
            }
        }
        Err(e) => eprintln!("sil durable store: append failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{StoreConfig, SummaryStore};

    /// Write-behind must not open a window in which a stored program is in
    /// neither tier: with the flusher held at its first append, the entry
    /// memory has already dropped is served from the queue, and from disk
    /// once the write lands.
    #[test]
    fn a_program_evicted_before_its_write_lands_is_still_served() {
        let dir = std::env::temp_dir().join(format!("sil-durable-pending-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig::default().with_durable(Some(DurableConfig::at(&dir)));
        let store = SummaryStore::shared(config);
        let tier = store.durable().expect("the tier opened");
        let source = sil_workloads::Workload::TreeSum.source(3);
        let entry = crate::Engine::default().analyze_source(&source).unwrap();
        let key = entry.fingerprint;

        let stalled = tier.shared.state.lock().unwrap();
        store.store_program(key, entry.clone());
        store.programs().clear();
        assert!(tier.pending_program(key).is_some());
        let served = store.lookup_program(key).expect("served from the queue");
        assert!(Arc::ptr_eq(&served, &entry));
        drop(stalled);

        store.flush();
        assert!(tier.pending_program(key).is_none());
        store.programs().clear();
        let from_disk = store.lookup_program(key).expect("served from disk");
        assert_eq!(from_disk.analysis.digest(), entry.analysis.digest());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
