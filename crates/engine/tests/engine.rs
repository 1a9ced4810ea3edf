//! Integration tests of the memoizing analysis engine: cache identity,
//! batch concurrency against the sequential oracle, eviction behavior at
//! tiny capacities, and the cold-vs-warm speedup the caches exist for.

use sil_analysis::analyze_program;
use sil_engine::{Engine, EngineConfig, StoreConfig};
use sil_lang::frontend;
use sil_workloads::generator::{GeneratorConfig, ProgramGenerator};
use sil_workloads::Workload;
use std::time::Instant;

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

#[test]
fn warm_reanalysis_is_identical_to_cold() {
    let engine = Engine::default();
    for workload in Workload::ALL {
        let src = workload.source(workload.test_size());
        let (cold, cold_hit) = engine.analyze_source_traced(&src).unwrap();
        let (warm, warm_hit) = engine.analyze_source_traced(&src).unwrap();
        assert!(!cold_hit, "{}", workload.name());
        assert!(warm_hit, "{}", workload.name());
        assert_eq!(
            cold.analysis.digest(),
            warm.analysis.digest(),
            "{}: warm result differs from cold",
            workload.name()
        );
        assert_eq!(cold.fingerprint, warm.fingerprint);
    }
}

/// The fixpoint says what it did: a miss moves `engine.walks.skipped` and
/// adds one `engine.fixpoint_rounds` sample, a hit moves neither.
#[test]
fn fixpoint_telemetry_moves_on_a_miss_and_stays_put_on_a_hit() {
    let engine = Engine::default();
    let read = || {
        let metrics = engine.metrics_raw().summarize();
        let rounds = metrics.histogram("engine.fixpoint_rounds").cloned();
        (
            metrics.counter("engine.walks.skipped").unwrap(),
            metrics.counter("engine.walks.performed").unwrap(),
            rounds.map_or((0, 0), |h| (h.count, h.max)),
        )
    };
    assert_eq!(read(), (0, 0, (0, 0)));

    let src = Workload::AddAndReverse.source(4);
    let cold = engine.analyze_source(&src).unwrap();
    let after_cold = read();
    let stats = cold.incremental.unwrap();
    assert!(stats.walks_skipped > 0, "{stats:?}");
    assert_eq!(after_cold.0, stats.walks_skipped as u64);
    assert_eq!(after_cold.1, stats.walks_performed as u64);
    assert_eq!(after_cold.2, (1, cold.analysis.rounds as u64));

    let (_, hit) = engine.analyze_source_traced(&src).unwrap();
    assert!(hit);
    assert_eq!(read(), after_cold);
}

#[test]
fn concurrent_batch_matches_sequential_analysis_program_by_program() {
    let sources = generated_sources(50);
    assert!(sources.len() >= 50);

    let engine = Engine::default();
    let batch = engine.analyze_batch(&sources);

    for (i, (src, result)) in sources.iter().zip(&batch).enumerate() {
        let entry = result
            .as_ref()
            .unwrap_or_else(|e| panic!("program {i}: {e}"));
        let (program, types) = frontend(src).unwrap();
        let oracle = analyze_program(&program, &types);
        assert_eq!(
            entry.analysis.digest(),
            oracle.digest(),
            "program {i}: concurrent engine result diverges from analyze_program"
        );
    }
}

#[test]
fn batch_results_come_back_in_input_order() {
    let sources = generated_sources(12);
    let engine = Engine::default();
    let batch = engine.analyze_batch(&sources);
    for (src, result) in sources.iter().zip(&batch) {
        let entry = result.as_ref().unwrap();
        let (program, _) = frontend(src).unwrap();
        assert_eq!(
            entry.fingerprint,
            sil_lang::program_fingerprint(&program),
            "result order must match input order"
        );
    }
}

#[test]
fn eviction_stats_behave_at_small_capacities() {
    // One lock stripe: globally ordered eviction, so the counts below
    // are exact rather than per-stripe-distribution-dependent.
    let engine = Engine::new(EngineConfig {
        store: StoreConfig {
            program_capacity: 2,
            ..StoreConfig::default().with_stripes(1)
        },
    });
    let sources = generated_sources(8);
    for src in &sources {
        engine.analyze_source(src).unwrap();
    }
    let store = engine.store_stats();
    assert_eq!(store.programs.entries, 2, "capacity bound");
    assert_eq!(store.programs.totals.insertions, 8);
    assert_eq!(
        store.programs.totals.evictions, 6,
        "8 inserted into 2 slots"
    );
    assert_eq!(
        engine.stats().programs.misses,
        8,
        "all distinct programs miss"
    );

    // Re-analyzing an evicted program misses and re-inserts.
    engine.analyze_source(&sources[0]).unwrap();
    assert_eq!(engine.stats().programs.misses, 9);
    assert_eq!(engine.store_stats().programs.totals.evictions, 7);
}

#[test]
fn a_program_queried_between_cold_insertions_stays_resident() {
    // One hot program queried between every cold insertion, capacity 2:
    // it is always the most recently used entry, so every cold program
    // evicts the previous cold one and the hot one is never a victim.
    let hot = Workload::TreeSum.source(4);
    let colds = generated_sources(6);
    let engine = Engine::new(EngineConfig {
        store: StoreConfig {
            program_capacity: 2,
            ..StoreConfig::default().with_stripes(1)
        },
    });
    engine.analyze_source(&hot).unwrap();
    for cold in &colds {
        engine.analyze_source(&hot).unwrap(); // keep it hot
        engine.analyze_source(cold).unwrap();
    }
    let (_, final_hit) = engine.analyze_source_traced(&hot).unwrap();
    assert!(final_hit, "the hot program was never the stalest entry");
    assert_eq!(engine.stats().programs.misses as usize, 1 + colds.len());
}

/// Acceptance: warm-cache re-analysis of an unchanged workload program is
/// at least 5x faster than a cold analysis.  The warm path is a hash plus a
/// map lookup, so in practice the ratio is orders of magnitude; 5x leaves
/// plenty of headroom for noisy CI machines.
#[test]
fn warm_cache_reanalysis_is_at_least_5x_faster() {
    let src = Workload::AddAndReverse.source(8);
    let engine = Engine::default();
    let rounds = 10;

    // Cold: cleared caches before every request.
    let cold_start = Instant::now();
    for _ in 0..rounds {
        engine.clear_caches();
        engine.analyze_source(&src).unwrap();
    }
    let cold = cold_start.elapsed();

    // Warm: caches primed by the last cold round.
    let warm_start = Instant::now();
    for _ in 0..rounds {
        engine.analyze_source(&src).unwrap();
    }
    let warm = warm_start.elapsed();

    assert!(
        cold >= warm * 5,
        "expected >=5x warm speedup, got cold={cold:?} warm={warm:?} ({:.1}x)",
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-12)
    );
}

/// Acceptance: `Engine::analyze_batch` over `Workload::ALL` produces
/// results identical to per-program `analyze_program`.
#[test]
fn batch_over_all_workloads_matches_analyze_program() {
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();
    let engine = Engine::default();
    let batch = engine.analyze_batch(&sources);
    for ((workload, src), result) in Workload::ALL.iter().zip(&sources).zip(&batch) {
        let entry = result.as_ref().unwrap();
        let (program, types) = frontend(src).unwrap();
        let oracle = analyze_program(&program, &types);
        assert_eq!(
            entry.analysis.digest(),
            oracle.digest(),
            "{}: batch result differs from analyze_program",
            workload.name()
        );
    }
}
