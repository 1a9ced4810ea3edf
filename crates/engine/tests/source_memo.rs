//! The source-text memo in front of the program namespace: an exact
//! repeat of a request's text skips the front end, and nothing else does.
//!
//! What the memo must never do: serve one text's program for another text
//! that merely shares its hash, hold a text longer than its program's
//! canonical rendering, file a text the front end rejected, or make a
//! request look a program up twice.

use sil_analysis::analyze_program;
use sil_engine::service::{ErrorKind, Request, Response, Service, TraceSpan};
use sil_engine::{Engine, EngineConfig, SummaryStore};
use sil_lang::{frontend, pretty_program};
use sil_workloads::Workload;

/// The spans of the most recent request `engine` answered.
fn last_request_spans(engine: &Engine) -> Vec<TraceSpan> {
    let spans = engine.service_trace().unwrap();
    let last = spans.iter().map(|s| s.request).max().expect("no spans");
    spans.into_iter().filter(|s| s.request == last).collect()
}

fn parses(engine: &Engine) -> usize {
    let spans = last_request_spans(engine);
    spans.iter().filter(|s| s.span == "parse").count()
}

/// `analyze` over the service path: `(cache_hit, analysis_digest)`.
fn analyze(engine: &Engine, src: &str) -> (bool, u64) {
    match engine.call(Request::analyze(src)) {
        Response::Analyzed { summary, .. } => (summary.cache_hit, summary.analysis_digest),
        other => panic!("expected an analyzed reply, got {other:?}"),
    }
}

fn direct_digest(src: &str) -> u64 {
    let (program, types) = frontend(src).unwrap();
    analyze_program(&program, &types).digest()
}

fn sources_entries(engine: &Engine) -> i64 {
    let metrics = engine.service_metrics().unwrap();
    metrics.gauge("store.sources.entries").expect("exported")
}

/// A text filed under another text's key is never served for it: the
/// request parses its own text and answers with its own analysis.
#[test]
fn a_hash_collision_cannot_serve_another_programs_analysis() {
    let engine = Engine::default();
    let a = Workload::TreeSum.source(4);
    let b = Workload::ListSum.source(4);
    let a_fingerprint = engine.analyze_source(&a).unwrap().fingerprint;
    let b_key = SummaryStore::source_key(&b);
    engine.store().file_source(b_key, &a, a_fingerprint);

    let (hit, digest) = analyze(&engine, &b);
    assert!(!hit);
    assert_eq!(digest, direct_digest(&b));
    assert_ne!(digest, direct_digest(&a));
    assert_eq!(parses(&engine), 1);
    // The request really met the collision: it looked `b` up under the
    // very key `a` was filed under, and filed `b` over it.
    let b_fingerprint = frontend(&b).map(|(p, _)| sil_lang::program_fingerprint(&p));
    assert_eq!(
        engine.store().filed_fingerprint(b_key, &b),
        b_fingerprint.ok()
    );
    assert_eq!(
        engine.store().sources().len(),
        2,
        "`a` under its own key, `b` under b_key"
    );
}

/// Reformatting a cached program changes its bytes, not its content: the
/// memo misses, the front end runs once, and the program namespace hits.
#[test]
fn a_reformatted_copy_misses_the_memo_and_hits_the_program() {
    let engine = Engine::default();
    let src = Workload::Bisort.source(4);
    analyze(&engine, &src);
    for copy in [format!("\n{src}"), format!("{{ a comment }}\n{src}")] {
        let before = engine.store().sources().totals();
        let (hit, digest) = analyze(&engine, &copy);
        assert!(hit, "{copy:?}");
        assert_eq!(digest, direct_digest(&src));
        assert_eq!(parses(&engine), 1);
        let after = engine.store().sources().totals();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
    }
}

/// A text longer than its canonical rendering is analyzed and answered
/// but never filed, so every repeat of it parses.
#[test]
fn a_text_padded_past_its_canonical_length_is_never_filed() {
    let engine = Engine::default();
    let src = Workload::TreeHeight.source(4);
    let canonical = pretty_program(&frontend(&src).unwrap().0).len();
    let padded = format!("{src}{}", " ".repeat(canonical));
    for warm in [false, true] {
        let (hit, digest) = analyze(&engine, &padded);
        assert_eq!(hit, warm);
        assert_eq!(digest, direct_digest(&src));
        assert_eq!(parses(&engine), 1, "warm={warm}");
        assert_eq!(sources_entries(&engine), 0);
    }
}

/// A source the front end rejects is an error every time it is sent, and
/// the memo files nothing for it.
#[test]
fn a_broken_source_is_rejected_every_time_and_never_filed() {
    let engine = Engine::default();
    for _ in 0..2 {
        match engine.call(Request::analyze("program broken procedure")) {
            Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Frontend),
            other => panic!("expected a frontend error, got {other:?}"),
        }
        assert_eq!(parses(&engine), 1);
        assert_eq!(sources_entries(&engine), 0);
    }
}

/// A memo hit whose program has left memory still looks the program up
/// exactly once: on a memory-only engine that lookup misses and the front
/// end runs, counted once in both the store and the engine view.
#[test]
fn a_memo_hit_whose_program_left_memory_parses_and_looks_up_once() {
    let engine = Engine::default();
    let src = Workload::ListReverse.source(5);
    let (_, cold_digest) = analyze(&engine, &src);
    engine.clear_program_cache();

    let store_before = engine.store_stats().programs.totals;
    let view_before = engine.stats().programs;
    let memo_before = engine.store().sources().totals();
    let (hit, digest) = analyze(&engine, &src);
    assert!(!hit);
    assert_eq!(digest, cold_digest);
    assert_eq!(parses(&engine), 1);
    let store_after = engine.store_stats().programs.totals;
    let view_after = engine.stats().programs;
    assert_eq!(store_after.misses, store_before.misses + 1);
    assert_eq!(store_after.hits, store_before.hits);
    assert_eq!(view_after.misses, view_before.misses + 1);
    assert_eq!(view_after.insertions, view_before.insertions + 1);
    assert_eq!(engine.store().sources().totals().hits, memo_before.hits + 1);
}

/// The same with a disk tier under memory: the one lookup reads the
/// program back from disk, and nothing parses.
#[test]
fn a_memo_hit_whose_program_left_memory_reads_it_back_from_disk() {
    let dir = std::env::temp_dir().join(format!("sil-source-memo-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::new(EngineConfig::default().with_data_dir(&dir));
    let src = Workload::TreeMirror.source(5);
    let (_, cold_digest) = analyze(&engine, &src);
    engine.store().flush();
    engine.store().programs().clear();

    let before = engine.store_stats().disk.expect("a disk tier");
    let (hit, digest) = analyze(&engine, &src);
    assert!(hit);
    assert_eq!(digest, cold_digest);
    assert_eq!(parses(&engine), 0);
    let after = engine.store_stats().disk.expect("a disk tier");
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `clear_caches` forgets every filed text with the rest of the store.
#[test]
fn clear_caches_empties_the_memo() {
    let engine = Engine::default();
    for workload in [Workload::TreeSum, Workload::ListSum] {
        analyze(&engine, &workload.source(3));
    }
    assert_eq!(sources_entries(&engine), 2);
    assert_eq!(engine.call(Request::clear_caches()), Response::cleared());
    assert_eq!(sources_entries(&engine), 0);
}
