//! Integration tests of the shared [`SummaryStore`]: cross-shard summary
//! reuse (the headline of the store refactor), mixed-traffic contention
//! against a sequential oracle, and the shared-vs-private capacity
//! argument in miniature.

use sil_engine::service::{route_fingerprint, Request, Response, Service, ShardedService};
use sil_engine::{Engine, EngineConfig, ProcessOptions};
use sil_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Two *different* programs sharing a call-graph cone, homed to two
/// *different* shards of `service`.  `tree_sum` variants differ only in
/// `main`, so every pair shares the `build`/`sum` cones; the sizes are
/// scanned until the fingerprints land on distinct shards.
fn cross_shard_pair(service: &ShardedService) -> (String, String) {
    let sizes: Vec<u32> = (3..24).collect();
    for (i, &a) in sizes.iter().enumerate() {
        for &b in &sizes[i + 1..] {
            let src_a = Workload::TreeSum.source(a);
            let src_b = Workload::TreeSum.source(b);
            if service.shard_for_source(&src_a) != service.shard_for_source(&src_b) {
                return (src_a, src_b);
            }
        }
    }
    panic!("no tree_sum pair routes to two different shards");
}

/// The acceptance criterion of the store refactor: a program fingerprinted
/// to shard B replays summaries and walks first produced via shard A —
/// shard B's warm-hit view counters increase, and the result is
/// digest-identical to a scratch analysis.
#[test]
fn cone_analyzed_on_shard_a_warm_hits_on_shard_b() {
    let service = ShardedService::new(4, EngineConfig::default());
    let (src_a, src_b) = cross_shard_pair(&service);
    let shard_b = service.shard_for_source(&src_b);

    // Analyze A: its cones (shared `build`/`sum` among them) land in the
    // shared store via shard A's engine.
    match service.call(Request::analyze(src_a.clone())) {
        Response::Analyzed { summary, .. } => assert!(!summary.cache_hit),
        other => panic!("{other:?}"),
    }
    let b_before = service.shard(shard_b).stats();
    assert_eq!(b_before.summaries.hits, 0, "shard B has served nothing yet");
    assert_eq!(b_before.walks.hits, 0);

    // Analyze B through its own shard: the shared cones must warm-hit.
    let digest = match service.call(Request::analyze(src_b.clone())) {
        Response::Analyzed { summary, .. } => {
            assert!(!summary.cache_hit, "B itself was never analyzed");
            summary.analysis_digest
        }
        other => panic!("{other:?}"),
    };
    let b_after = service.shard(shard_b).stats();
    assert!(
        b_after.summaries.hits > b_before.summaries.hits,
        "shard B must reuse summaries produced via shard A: {b_after:?}"
    );
    assert!(
        b_after.walks.hits > b_before.walks.hits,
        "shard B must replay walks recorded via shard A: {b_after:?}"
    );

    // Reuse changed nothing observable: a scratch engine agrees exactly.
    let scratch = Engine::default().analyze_source(&src_b).unwrap();
    assert_eq!(digest, scratch.analysis.digest(), "reuse must be invisible");
}

/// N threads × mixed analyze/process/clear traffic through a
/// `ShardedService` over one shared store: every digest matches a
/// sequential single-engine oracle, whatever interleaving and cache state
/// each request happened to see.
#[test]
fn mixed_traffic_under_contention_matches_the_sequential_oracle() {
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();

    // Sequential oracle: one fresh engine, one program at a time.
    let oracle_engine = Engine::new(EngineConfig::default().with_parallel(false));
    let oracle: Vec<u64> = sources
        .iter()
        .map(|src| oracle_engine.analyze_source(src).unwrap().analysis.digest())
        .collect();

    let service = ShardedService::new(4, EngineConfig::default());
    let cleared = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let service = &service;
            let sources = &sources;
            let oracle = &oracle;
            let cleared = &cleared;
            scope.spawn(move || {
                for round in 0..3usize {
                    for (index, src) in sources.iter().enumerate() {
                        // Interleave the three request kinds so analyses
                        // race processes and cache clears.
                        match (index + round + worker) % 5 {
                            0 => {
                                let report = service
                                    .process_source(src, &ProcessOptions::default())
                                    .unwrap();
                                assert_eq!(
                                    report.analysis_digest, oracle[index],
                                    "worker {worker} round {round}: process diverged"
                                );
                            }
                            1 if worker == 0 => {
                                // Only one worker clears, rarely — enough
                                // to race evictions without making every
                                // request cold.
                                assert!(matches!(
                                    service.call(Request::clear_caches()),
                                    Response::Cleared { .. }
                                ));
                                cleared.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => match service.call(Request::analyze(src.clone())) {
                                Response::Analyzed { summary, .. } => {
                                    assert_eq!(
                                        summary.analysis_digest, oracle[index],
                                        "worker {worker} round {round}: analyze diverged"
                                    );
                                }
                                other => panic!("{other:?}"),
                            },
                        }
                    }
                }
            });
        }
    });
    assert!(
        cleared.load(Ordering::Relaxed) > 0,
        "clears must have raced"
    );

    // The store survived the abuse in a consistent state: one final warm
    // pass still agrees with the oracle and is served as hits.
    for (index, src) in sources.iter().enumerate() {
        match service.call(Request::analyze(src.clone())) {
            Response::Analyzed { summary, .. } => {
                assert_eq!(summary.analysis_digest, oracle[index])
            }
            other => panic!("{other:?}"),
        }
    }
}

/// The capacity argument for the shared tier, in miniature: at equal total
/// capacity, a 4-shard service over one shared store serves a repeating
/// request stream at least as well as a single engine, while private
/// per-shard stores of the same total capacity fragment it.
#[test]
fn shared_store_at_fixed_total_capacity_matches_the_single_engine_baseline() {
    let corpus: Vec<String> = (3..11).map(|d| Workload::TreeSum.source(d)).collect();
    // A deterministic skewed stream: the first programs repeat often, the
    // tail appears rarely (Zipf-like without the rand dependency).
    let stream: Vec<usize> = (0..120).map(|i| (i * i + i / 3) % corpus.len()).collect();
    let capacity = 4usize;

    let drive_shared = |shards: usize| -> f64 {
        let config = EngineConfig::default()
            .with_program_cache_capacity(capacity)
            .with_store_stripes(1)
            .with_incremental(false);
        let service = ShardedService::new(shards, config);
        for &rank in &stream {
            service.call(Request::analyze(corpus[rank].clone()));
        }
        let mut hits = 0;
        let mut misses = 0;
        for stats in service.shard_stats() {
            hits += stats.programs.hits;
            misses += stats.programs.misses;
        }
        hits as f64 / (hits + misses) as f64
    };

    let drive_private = |shards: usize| -> f64 {
        let config = EngineConfig::default()
            .with_program_cache_capacity((capacity / shards).max(1))
            .with_store_stripes(1)
            .with_incremental(false);
        let engines: Vec<Engine> = (0..shards).map(|_| Engine::new(config.clone())).collect();
        for &rank in &stream {
            let shard = (route_fingerprint(&corpus[rank]) % shards as u64) as usize;
            engines[shard].analyze_source(&corpus[rank]).unwrap();
        }
        let mut hits = 0;
        let mut misses = 0;
        for engine in &engines {
            let stats = engine.stats();
            hits += stats.programs.hits;
            misses += stats.programs.misses;
        }
        hits as f64 / (hits + misses) as f64
    };

    let baseline = drive_private(1); // a single engine at full capacity
    for shards in [4usize, 8] {
        let shared = drive_shared(shards);
        assert!(
            shared + 1e-9 >= baseline,
            "{shards} shards over one shared store must not lose to the \
             single-engine baseline: shared={shared:.3} baseline={baseline:.3}"
        );
    }
}
