//! The product namespace: what `process` derives from a program past its
//! analysis (transform count, printed parallel source, verifier findings)
//! is memoized under the program fingerprint.  A product hit must be
//! indistinguishable from a fresh derivation — for every option
//! combination, under concurrency, after a clear, and after the program
//! entry it was derived from has been evicted.

mod common;

use common::corpus;
use sil_engine::{Engine, EngineConfig, ProcessOptions, ProgramReport, StoreConfig};
use sil_workloads::Workload;
use std::sync::Barrier;

/// The encoded report with the two members that legitimately differ
/// between a cold and a warm answer masked.
fn masked(mut report: ProgramReport) -> String {
    report.cache_hit = false;
    report.incremental = None;
    report.to_json()
}

fn product_counters(engine: &Engine) -> (u64, u64) {
    let totals = engine.store_stats().products.totals;
    (totals.hits, totals.misses)
}

/// Process `sources` against a cleared store, then again warm: every warm
/// answer is a product hit (when `options` parallelize at all) and equals
/// the cold one.
fn assert_hits_equal_fresh(
    engine: &Engine,
    sources: &[(String, String)],
    options: &ProcessOptions,
) {
    engine.clear_caches();
    let fresh: Vec<String> = sources
        .iter()
        .map(|(_, src)| masked(engine.process(src, options).unwrap()))
        .collect();
    let (hits_before, misses_before) = product_counters(engine);
    for ((name, src), fresh) in sources.iter().zip(&fresh) {
        let warm = engine.process(src, options).unwrap();
        assert!(warm.cache_hit, "{name}: the analysis must be a hit");
        assert_eq!(&masked(warm), fresh, "{name} under {options:?}");
    }
    let (hits_after, misses_after) = product_counters(engine);
    let expected_hits = if options.parallelize {
        sources.len() as u64
    } else {
        0
    };
    assert_eq!(hits_after - hits_before, expected_hits, "{options:?}");
    assert_eq!(misses_after, misses_before, "{options:?}");
}

#[test]
fn product_hits_equal_fresh_reports_for_every_option_combination() {
    let engine = Engine::default();
    let corpus = corpus();
    assert_eq!(corpus.len(), 64);
    for bits in 0..8u32 {
        let options = ProcessOptions {
            parallelize: bits & 1 != 0,
            verify: bits & 2 != 0,
            emit_parallel_source: bits & 4 != 0,
            execute: false,
            ..ProcessOptions::default()
        };
        assert_hits_equal_fresh(&engine, &corpus, &options);
    }

    // `execute` re-parses the product's printed text on a hit: the ten
    // size-6 templates run the same parallel program either way.
    let templates: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.source(6)))
        .collect();
    for verify in [false, true] {
        let options = ProcessOptions {
            execute: true,
            verify,
            emit_parallel_source: true,
            ..ProcessOptions::default()
        };
        assert_hits_equal_fresh(&engine, &templates, &options);
    }
}

/// A product built by a request that did not verify is completed — once —
/// by the first request that does, and matches a product verified from
/// the start.
#[test]
fn violations_fill_lazily_on_the_first_verifying_request() {
    let unverified = ProcessOptions {
        verify: false,
        ..ProcessOptions::default()
    };
    let verified = ProcessOptions::default();
    assert!(verified.parallelize && verified.verify);
    for (name, src) in corpus().into_iter().take(10) {
        let engine = Engine::default();
        let first = engine.process(&src, &unverified).unwrap();
        assert!(first.violations.is_empty());
        let fingerprint = first.fingerprint;
        let product = engine.store().products().peek(fingerprint).unwrap();
        assert!(product.violations().is_none(), "{name}: nobody asked yet");

        let lazily = engine.process(&src, &verified).unwrap();
        assert!(
            product.violations().is_some(),
            "{name}: the hit that verified filed its findings"
        );
        let again = engine.process(&src, &verified).unwrap();
        assert_eq!(product_counters(&engine), (2, 1), "{name}");

        let direct = Engine::default().process(&src, &verified).unwrap();
        assert_eq!(masked(lazily), masked(direct.clone()), "{name}");
        assert_eq!(masked(again), masked(direct), "{name}");
    }
}

/// Eight threads released together onto one never-seen program: whoever
/// wins the races to analyze, pack and verify, all eight reports agree.
#[test]
fn concurrent_first_requests_get_identical_reports() {
    let engine = Engine::default();
    let src = Workload::Bisort.source(6);
    let options = ProcessOptions {
        emit_parallel_source: true,
        ..ProcessOptions::default()
    };
    let barrier = Barrier::new(8);
    let reports: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    masked(engine.process(&src, &options).unwrap())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("worker panicked"))
            .collect()
    });
    let oracle = masked(Engine::default().process(&src, &options).unwrap());
    for report in &reports {
        assert_eq!(report, &oracle);
    }
    assert_eq!(engine.store_stats().products.entries, 1);
}

#[test]
fn clear_caches_forgets_products() {
    let engine = Engine::default();
    let src = Workload::TreeSum.source(5);
    let options = ProcessOptions::default();
    let cold = engine.process(&src, &options).unwrap();
    engine.process(&src, &options).unwrap();
    assert_eq!(product_counters(&engine), (1, 1));
    assert_eq!(engine.store_stats().products.entries, 1);

    engine.clear_caches();
    assert_eq!(engine.store_stats().products.entries, 0);
    let after = engine.process(&src, &options).unwrap();
    assert!(!after.cache_hit);
    assert_eq!(product_counters(&engine), (1, 2), "a miss, not a hit");
    assert_eq!(masked(after), masked(cold));
}

/// Products are addressed by content, not by the program entry they were
/// derived from: when a one-entry program namespace has moved on, the
/// product still answers — correctly — for the re-analyzed program.
#[test]
fn a_product_outlives_its_evicted_program_entry() {
    let engine = Engine::new(EngineConfig {
        store: StoreConfig {
            program_capacity: 1,
            ..StoreConfig::default().with_stripes(1)
        },
    });
    let options = ProcessOptions {
        emit_parallel_source: true,
        ..ProcessOptions::default()
    };
    let kept = Workload::AddAndReverse.source(5);
    let first = engine.process(&kept, &options).unwrap();
    // `analyze` touches the program namespace only: it evicts `kept`'s
    // program entry and leaves its product alone.
    engine.analyze_source(&Workload::ListSum.source(5)).unwrap();
    assert_eq!(engine.store_stats().programs.entries, 1);
    assert!(engine.store().programs().peek(first.fingerprint).is_none());
    assert!(engine.store().products().peek(first.fingerprint).is_some());

    let hits_before = product_counters(&engine).0;
    let second = engine.process(&kept, &options).unwrap();
    assert!(!second.cache_hit, "the program entry was evicted");
    assert_eq!(product_counters(&engine).0, hits_before + 1);
    assert_eq!(masked(second), masked(first));
}
