//! Crash-safety and restart-warm tests of the durable store tier.
//!
//! The property the tier sells: whatever a crash leaves behind on disk,
//! recovery loads every intact prefix entry, never panics, reports what
//! it dropped — and a restarted daemon serves previously analyzed
//! programs from disk with digests byte-identical to a fresh analysis.

mod common;

use sil_analysis::AnalysisResult;
use sil_engine::service::{Request, Response, Service};
use sil_engine::store::segment::{self, SegmentWriter};
use sil_engine::store::ANALYSIS_EPOCH;
use sil_engine::{AnalyzedProgram, DurableConfig, Engine, EngineConfig, Normalized, SummaryStore};
use sil_workloads::generator::{GeneratorConfig, ProgramGenerator};
use sil_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sil-durable-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generated_sources(count: u64) -> Vec<String> {
    (0..count)
        .map(|seed| {
            let mut generator = ProgramGenerator::new(GeneratorConfig {
                statements: 30,
                handle_vars: 5,
                int_vars: 3,
                seed,
            });
            generator.generate_source()
        })
        .collect()
}

/// `count` distinct analyzed programs, each to be stored under its own
/// fingerprint (a program read back from disk is verified against its key).
fn sample_programs(count: u64) -> Vec<Arc<AnalyzedProgram>> {
    let engine = Engine::default();
    generated_sources(count)
        .iter()
        .map(|src| engine.analyze_source(src).unwrap())
        .collect()
}

fn durable_store(dir: &Path) -> SummaryStore {
    SummaryStore::new(sil_engine::StoreConfig::default().with_durable(Some(DurableConfig::at(dir))))
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "sil"))
        .collect()
}

/// The headline property: a second engine over the same data directory
/// (a "restarted daemon") serves previously analyzed programs as cache
/// hits with byte-identical digests, visibly from the disk tier.
#[test]
fn restart_warm_engine_serves_from_disk_with_identical_digests() {
    let dir = temp_dir("restart");
    let sources = generated_sources(4);
    let config = EngineConfig::default().with_durable(Some(DurableConfig::at(&dir)));

    let digests: Vec<u64> = {
        let engine = Engine::new(config.clone());
        let digests = sources
            .iter()
            .map(|src| {
                let (entry, hit) = engine.analyze_source_traced(src).unwrap();
                assert!(!hit, "cold analysis must miss");
                entry.analysis.digest()
            })
            .collect();
        engine.store().flush();
        digests
    };

    let engine = Engine::new(config);
    for (src, &expected) in sources.iter().zip(&digests) {
        let (entry, hit) = engine.analyze_source_traced(src).unwrap();
        assert!(hit, "restarted engine must serve the program warm");
        assert_eq!(
            entry.analysis.digest(),
            expected,
            "disk-served analysis must be byte-identical to the original"
        );
    }
    let disk = engine.store().stats().disk.expect("disk tier configured");
    assert_eq!(disk.hits, sources.len() as u64);
    // What is on disk is the programs and nothing else.
    assert_eq!(disk.recovered_entries, sources.len() as u64);
    assert_eq!(disk.entries, sources.len() as u64);
    assert_eq!(disk.dropped_bytes, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a torn final entry; recovery keeps every
/// entry before it and reports the dropped bytes.
#[test]
fn torn_final_entry_is_dropped_and_the_prefix_survives() {
    let dir = temp_dir("torn");
    let programs = sample_programs(5);
    {
        let store = durable_store(&dir);
        for entry in &programs {
            store.store_program(entry.fingerprint, entry.clone());
        }
        store.flush();
    }
    // Simulate the crash: half an entry header at the end of the segment.
    let segment = segment_files(&dir).pop().expect("a segment file");
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0x40, 0x00, 0x00]);
    std::fs::write(&segment, &bytes).unwrap();

    let store = durable_store(&dir);
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.recovered_entries, 5);
    assert_eq!(disk.dropped_bytes, 3);
    for entry in &programs {
        let served = store
            .lookup_program(entry.fingerprint)
            .expect("intact prefix entry must be served");
        assert_eq!(served.analysis.digest(), entry.analysis.digest());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncate a segment at every byte boundary: recovery must never panic
/// and must load exactly the entries that fit entirely in the prefix.
#[test]
fn truncation_at_every_byte_boundary_recovers_the_intact_prefix() {
    let dir = temp_dir("truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg-000001.sil");
    let mut writer = SegmentWriter::create(&path).unwrap();
    let originals = [
        writer.append(0, 11, b"first body").unwrap(),
        writer.append(1, 22, b"").unwrap(),
        writer.append(0, 33, b"third, a little longer").unwrap(),
    ];
    drop(writer);
    let full = std::fs::read(&path).unwrap();

    let cut = dir.join("cut.sil");
    for len in 0..=full.len() {
        std::fs::write(&cut, &full[..len]).unwrap();
        let report = segment::scan(&cut).unwrap();
        let expected: Vec<_> = originals
            .iter()
            .copied()
            .filter(|e| e.offset + e.stored_bytes() <= len as u64)
            .collect();
        assert_eq!(report.entries, expected, "truncated to {len} bytes");
        assert_eq!(report.dropped, report.dropped_bytes > 0);
        if len >= segment::MAGIC.len() {
            assert_eq!(
                report.dropped_bytes as usize,
                len - report.valid_len as usize
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one bit in every byte of a segment: recovery must never panic,
/// must keep every entry before the corrupted one, and must drop the
/// corrupted entry and everything after it.
#[test]
fn single_bit_corruption_never_panics_and_keeps_the_prefix() {
    let dir = temp_dir("bitflip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg-000001.sil");
    let mut writer = SegmentWriter::create(&path).unwrap();
    let originals = [
        writer.append(0, 101, b"alpha").unwrap(),
        writer.append(1, 102, b"beta beta").unwrap(),
        writer.append(0, 103, b"gamma gamma gamma").unwrap(),
    ];
    drop(writer);
    let full = std::fs::read(&path).unwrap();

    let flipped = dir.join("flipped.sil");
    for byte in 0..full.len() {
        let mut bytes = full.clone();
        bytes[byte] ^= 1 << (byte % 8);
        std::fs::write(&flipped, &bytes).unwrap();
        let report = segment::scan(&flipped).unwrap();
        if byte < segment::MAGIC.len() {
            assert!(report.entries.is_empty(), "flip in magic at byte {byte}");
            assert_eq!(report.valid_len, 0);
            continue;
        }
        // The entry whose stored bytes contain the flipped byte is the
        // first casualty; everything before it must survive verbatim.
        let casualty = originals
            .iter()
            .position(|e| (e.offset..e.offset + e.stored_bytes()).contains(&(byte as u64)))
            .expect("every non-magic byte belongs to an entry");
        assert_eq!(report.entries, originals[..casualty], "flip at byte {byte}");
        assert!(report.dropped, "flip at byte {byte} must report a drop");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `clear()` truncates the disk tier too, and discards writes that were
/// still queued when the clear happened — a cleared store stays cleared.
#[test]
fn clear_truncates_disk_and_discards_stale_queued_writes() {
    let dir = temp_dir("clear");
    let store = durable_store(&dir);
    let programs = sample_programs(2);
    let (flushed, queued) = (&programs[0], &programs[1]);
    store.store_program(flushed.fingerprint, flushed.clone());
    store.flush();
    assert!(store.lookup_program(flushed.fingerprint).is_some());

    // Enqueue a write, then clear before it can be flushed: the write
    // must not resurrect after the clear.
    store.store_program(queued.fingerprint, queued.clone());
    store.clear();
    store.flush();

    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.entries, 0);
    assert_eq!(disk.live_bytes, 0);
    assert!(store.lookup_program(flushed.fingerprint).is_none());
    assert!(store.lookup_program(queued.fingerprint).is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewriting the same keys over and over leaves sealed segments full of
/// dead entries; compaction folds the live ones forward and deletes the
/// dead files, keeping disk usage proportional to live data.
#[test]
fn compaction_reclaims_mostly_dead_segments() {
    let dir = temp_dir("compact");
    let store = SummaryStore::new(
        sil_engine::StoreConfig::default()
            .with_durable(Some(DurableConfig::at(&dir).with_segment_bytes(64 << 10))),
    );
    let programs = sample_programs(2);
    for _ in 0..60 {
        for entry in &programs {
            store.store_program(entry.fingerprint, entry.clone());
        }
        store.flush();
    }
    let disk = store.stats().disk.unwrap();
    assert!(disk.compactions > 0, "rewrites must trigger compaction");
    assert_eq!(disk.entries, 2);
    assert!(
        disk.segments <= 3,
        "dead segments must be deleted (still {} on disk)",
        disk.segments
    );
    store.programs().clear();
    for entry in &programs {
        assert!(store.lookup_program(entry.fingerprint).is_some());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The byte budget sheds the coldest entries instead of growing forever.
#[test]
fn byte_budget_evicts_cold_entries() {
    let dir = temp_dir("budget");
    let store = SummaryStore::new(
        sil_engine::StoreConfig::default()
            .with_durable(Some(DurableConfig::at(&dir).with_byte_budget(64 << 10))),
    );
    // Never read back, so one body under 64 keys will do.
    let entry = sample_programs(1).remove(0);
    for key in 1..=64u64 {
        store.store_program(key, entry.clone());
    }
    store.flush();
    let disk = store.stats().disk.unwrap();
    assert!(disk.evictions > 0, "the budget must shed entries");
    assert!(disk.live_bytes <= 64 << 10);
    assert!(disk.entries > 0 && disk.entries < 64, "{disk:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose data directory cannot be created degrades to
/// memory-only instead of failing construction.
#[test]
fn unopenable_data_dir_degrades_to_memory_only() {
    let file =
        std::env::temp_dir().join(format!("sil-durable-test-{}-not-a-dir", std::process::id()));
    std::fs::write(&file, b"occupied").unwrap();
    let store = durable_store(&file.join("sub"));
    assert!(store.stats().disk.is_none());
    let entry = sample_programs(1).remove(0);
    store.store_program(entry.fingerprint, entry.clone());
    assert!(store.lookup_program(entry.fingerprint).is_some());
    let _ = std::fs::remove_file(&file);
}

/// A data directory as a build before PR 23 left it: beside the program
/// there is a summary table under tag 1, and (for good measure) an entry
/// under a tag no build ever wrote.  Both are intact entries, so they are
/// not a torn tail: opening neither panics nor truncates.  They are simply
/// not indexed — dead bytes the next compaction of the segment reclaims.
#[test]
fn entries_under_other_tags_are_skipped_and_compacted_away() {
    let dir = temp_dir("foreign");
    let entry = sample_programs(1).remove(0);
    {
        let store = durable_store(&dir);
        store.store_program(entry.fingerprint, entry.clone());
        store.flush();
    }
    let segment = segment_files(&dir).pop().expect("a segment file");
    let program_bytes = std::fs::metadata(&segment).unwrap().len();
    let mut writer = SegmentWriter::recover(&segment, program_bytes).unwrap();
    let table = br#"{"v":2,"fingerprint":"000000000000feed","digest":"00000000000000aa","summaries":{"main":{"name":"main","handle_args":{},"arg_modes":[]}}}"#;
    writer.append(1, 0xfeed, table).unwrap();
    writer.append(9, 0xbeef, b"from no version").unwrap();
    let with_foreign = writer.len();
    drop(writer);

    // One-byte segments: the next append seals the recovered segment.
    let store = SummaryStore::new(
        sil_engine::StoreConfig::default()
            .with_durable(Some(DurableConfig::at(&dir).with_segment_bytes(1))),
    );
    let disk = store.stats().disk.expect("the tier opened");
    assert_eq!(disk.entries, 1, "only the program is indexed");
    assert_eq!(disk.recovered_entries, 1);
    assert_eq!(disk.dropped_bytes, 0, "intact entries are not a torn tail");
    assert_eq!(disk.live_bytes, program_bytes - segment::MAGIC.len() as u64);
    assert_eq!(std::fs::metadata(&segment).unwrap().len(), with_foreign);
    let served = store
        .lookup_program(entry.fingerprint)
        .expect("the program is served from disk");
    assert_eq!(served.analysis.digest(), entry.analysis.digest());
    assert_eq!(store.stats().disk.unwrap().hits, 1);

    // The rewrite lands in the recovered segment and seals it.  More than
    // half of it is now dead (the older copy and the foreign entries), so
    // compaction folds the live copy forward and deletes the file.
    store.store_program(entry.fingerprint, served);
    store.flush();
    let disk = store.stats().disk.unwrap();
    assert!(disk.compactions > 0);
    assert_eq!(disk.entries, 1);
    assert!(!segment.exists(), "the sealed segment was reclaimed");
    let on_disk: u64 = segment_files(&dir)
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert_eq!(on_disk, program_bytes, "what is left is the program");
    store.programs().clear();
    assert!(store.lookup_program(entry.fingerprint).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

/// What a build before program entry version 2 wrote for `leftmost@3`:
/// every path a nested array, every point's state written out in full.
const VERSION_1_ENTRY: &str = include_str!("golden/program_entry_v1.json");

/// A data directory an older build left: its entry is intact, but it is
/// refused like any unknown version, so the lookup is a miss — not a hit —
/// and the program is analyzed again.  The new entry replaces the old one
/// under the same key, and the next daemon over the directory serves it
/// from disk.
#[test]
fn a_version_1_entry_is_reanalyzed_and_rewritten_as_version_2() {
    let dir = temp_dir("version-1");
    std::fs::create_dir_all(&dir).unwrap();
    let source = Workload::Leftmost.source(3);
    let fresh = Engine::default().analyze_source(&source).unwrap();
    let key = fresh.fingerprint;
    let stored_under = format!(r#"{{"v":1,"fingerprint":"{key:016x}","#);
    assert!(VERSION_1_ENTRY.starts_with(&stored_under));
    let mut writer = SegmentWriter::create(&dir.join("seg-000001.sil")).unwrap();
    writer
        .append(0, key, VERSION_1_ENTRY.trim_end().as_bytes())
        .unwrap();
    drop(writer);

    let config = EngineConfig::default().with_durable(Some(DurableConfig::at(&dir)));
    {
        let engine = Engine::new(config.clone());
        let (entry, hit) = engine.analyze_source_traced(&source).unwrap();
        assert!(!hit, "a version 1 entry is a miss");
        assert_eq!(entry.analysis.digest(), fresh.analysis.digest());
        let disk = engine.store().stats().disk.unwrap();
        assert_eq!((disk.hits, disk.misses), (0, 1), "refused, so no hit");
        engine.store().flush();
        let tier = engine.store().durable().expect("the tier opened");
        let body = tier.read(key).expect("the key is on disk");
        assert!(
            body.starts_with(br#"{"v":2,"#),
            "the key now holds version 2"
        );
        let disk = tier.stats();
        assert_eq!(disk.entries, 1);
        assert_eq!((disk.hits, disk.misses), (0, 1), "a read is no lookup");
    }
    let engine = Engine::new(config);
    let (entry, hit) = engine.analyze_source_traced(&source).unwrap();
    assert!(hit, "the rewritten entry is a disk hit");
    assert_eq!(entry.analysis.digest(), fresh.analysis.digest());
    let disk = engine.store().stats().disk.unwrap();
    assert_eq!((disk.hits, disk.entries), (1, 1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk hit accounts for its lookup: under its `store-lookup` are a
/// `disk-read` (the segment read and its checksum) and an `entry-decode`
/// (parsing the entry, decoding it and verifying it).
#[test]
fn a_disk_hit_shows_its_read_and_its_decode() {
    let dir = temp_dir("disk-spans");
    let source = generated_sources(1).remove(0);
    let config = EngineConfig::default().with_durable(Some(DurableConfig::at(&dir)));
    {
        let engine = Engine::new(config.clone());
        engine.analyze_source(&source).unwrap();
        engine.store().flush();
    }
    let engine = Engine::new(config);
    match engine.call(Request::analyze(source)) {
        Response::Analyzed { summary, .. } => assert!(summary.cache_hit),
        other => panic!("unexpected: {other:?}"),
    }
    let spans = engine.service_trace().unwrap();
    let lookup = spans
        .iter()
        .rfind(|span| span.span == "store-lookup")
        .expect("the request looked the program up");
    let children: Vec<&str> = spans
        .iter()
        .filter(|span| span.request == lookup.request && span.parent == lookup.span_id)
        .map(|span| span.span.as_str())
        .collect();
    assert_eq!(children, ["disk-read", "entry-decode"], "{spans:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest of what `analysis` holds, rendered from its parts: a result
/// read from disk answers `digest()` with the digest it was stored with, so
/// only a reassembly shows what the decoder really rebuilt.
fn recomputed_digest(analysis: &AnalysisResult) -> u64 {
    AnalysisResult::from_parts(
        analysis.procedure_map().clone(),
        analysis.summaries.clone(),
        analysis.return_summaries.clone(),
        analysis.warnings.clone(),
        analysis.rounds,
    )
    .digest()
}

/// A disk hit believes the stored digest, so what it decoded is checked
/// here instead, over the whole golden corpus: every program written
/// through a disk tier and served back from it — once with the request's
/// own front-end pass, once by key alone — decodes to an analysis whose
/// digest, rendered afresh, is the pinned one.
#[test]
fn every_corpus_program_decodes_from_disk_to_its_pinned_digest() {
    let golden: std::collections::HashMap<String, String> = include_str!("golden/digests.txt")
        .lines()
        .filter_map(|line| line.split_once(' '))
        .map(|(name, digest)| (name.to_string(), digest.to_string()))
        .collect();
    let dir = temp_dir("corpus");
    let config = EngineConfig::default().with_durable(Some(DurableConfig::at(&dir)));
    let corpus = common::corpus();
    assert_eq!(corpus.len(), 64);
    let fingerprints: Vec<u64> = {
        let engine = Engine::new(config.clone());
        let written = corpus
            .iter()
            .map(|(_, source)| engine.analyze_source(source).unwrap().fingerprint)
            .collect();
        engine.store().flush();
        written
    };
    let check = |name: &str, entry: &AnalyzedProgram| {
        assert_eq!(
            format!("{:016x}", recomputed_digest(&entry.analysis)),
            golden[name],
            "{name}: the decoded analysis is not the pinned one"
        );
        assert_eq!(entry.analysis.digest(), recomputed_digest(&entry.analysis));
    };

    let engine = Engine::new(config);
    for (name, source) in &corpus {
        let normalized = Normalized::parse(engine.tracer(), source).unwrap();
        let (entry, hit) = engine.analyze(normalized);
        assert!(hit, "{name}: a disk hit");
        check(name, &entry);
    }
    let store = engine.store();
    assert_eq!(store.stats().disk.unwrap().hits, 64);
    store.programs().clear();
    for ((name, _), &key) in corpus.iter().zip(&fingerprints) {
        let entry = store.lookup_program(key).expect("served from disk");
        assert_eq!(
            sil_lang::hash::program_fingerprint(&entry.program),
            key,
            "{name}: the stored source parses to its program"
        );
        check(name, &entry);
    }
    let disk = store.stats().disk.unwrap();
    assert_eq!((disk.hits, disk.misses), (128, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry another analysis wrote — here a real body whose `"epoch"`
/// member alone was changed, appended under its key with a valid checksum
/// — is refused like a version 1 entry: a miss, not a hit.  The program is
/// analyzed again and rewritten with this build's epoch, and the next
/// engine over the directory serves it from disk.
#[test]
fn an_entry_from_another_analysis_epoch_is_reanalyzed_and_rewritten() {
    let dir = temp_dir("epoch");
    let source = Workload::TreeSum.source(4);
    let config = EngineConfig::default().with_durable(Some(DurableConfig::at(&dir)));
    let (key, digest, body) = {
        let engine = Engine::new(config.clone());
        let entry = engine.analyze_source(&source).unwrap();
        engine.store().flush();
        let body = engine.store().durable().unwrap().read(entry.fingerprint);
        (entry.fingerprint, entry.analysis.digest(), body.unwrap())
    };
    let epoch = |epoch: u64| format!(r#""epoch":"{epoch:016x}""#);
    let body = String::from_utf8(body).unwrap();
    assert_eq!(body.matches(&epoch(ANALYSIS_EPOCH)).count(), 1);
    let stale = body.replace(&epoch(ANALYSIS_EPOCH), &epoch(ANALYSIS_EPOCH ^ 1));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = SegmentWriter::create(&dir.join("seg-000001.sil")).unwrap();
    writer.append(0, key, stale.as_bytes()).unwrap();
    drop(writer);

    {
        let engine = Engine::new(config.clone());
        assert_eq!(engine.store().stats().disk.unwrap().entries, 1);
        let (entry, hit) = engine.analyze_source_traced(&source).unwrap();
        assert!(!hit, "another epoch's entry is a miss");
        assert_eq!(entry.analysis.digest(), digest);
        let disk = engine.store().stats().disk.unwrap();
        assert_eq!((disk.hits, disk.misses), (0, 1), "refused, so no hit");
        engine.store().flush();
        let rewritten = engine.store().durable().unwrap().read(key).unwrap();
        let rewritten = String::from_utf8(rewritten).unwrap();
        assert!(rewritten.contains(&epoch(ANALYSIS_EPOCH)), "{rewritten}");
        assert_eq!(rewritten, body, "the rewrite is this build's entry");
    }
    let engine = Engine::new(config);
    let (entry, hit) = engine.analyze_source_traced(&source).unwrap();
    assert!(hit, "the rewritten entry is a disk hit");
    assert_eq!(entry.analysis.digest(), digest);
    let disk = engine.store().stats().disk.unwrap();
    assert_eq!((disk.hits, disk.misses, disk.entries), (1, 0, 1));

    let _ = std::fs::remove_dir_all(&dir);
}
