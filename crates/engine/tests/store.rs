//! Integration tests of the [`SummaryStore`](sil_engine::SummaryStore)
//! behind one engine: mixed-traffic contention against a sequential oracle,
//! and a fixed-capacity stream served through the protocol path.

use sil_engine::service::{Request, Response, Service};
use sil_engine::{Engine, EngineConfig, ProcessOptions, StoreConfig};
use sil_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};

/// N threads × mixed analyze/process/clear traffic through one engine:
/// every digest matches a sequential oracle, whatever interleaving and
/// cache state each request happened to see.
#[test]
fn mixed_traffic_under_contention_matches_the_sequential_oracle() {
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();

    // Sequential oracle: one fresh engine, one program at a time.
    let oracle_engine = Engine::default();
    let oracle: Vec<u64> = sources
        .iter()
        .map(|src| oracle_engine.analyze_source(src).unwrap().analysis.digest())
        .collect();

    let service = Engine::default();
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

/// At a fixed small capacity, one engine serves a repeating request stream
/// through the protocol path (`Service::call`) exactly as well as a fresh
/// engine of the same shape serves it through the typed path: the dispatch
/// adds no lookup or insert that would perturb eviction order.
#[test]
fn shared_store_at_fixed_total_capacity_matches_the_single_engine_baseline() {
    let corpus: Vec<String> = (3..11).map(|d| Workload::TreeSum.source(d)).collect();
    // A deterministic skewed stream: the first programs repeat often, the
    // tail appears rarely (Zipf-like without the rand dependency).
    let stream: Vec<usize> = (0..120).map(|i| (i * i + i / 3) % corpus.len()).collect();
    let engine = || {
        Engine::new(EngineConfig {
            store: StoreConfig {
                program_capacity: 4,
                ..StoreConfig::default().with_stripes(1)
            },
        })
    };
    let hit_ratio = |engine: &Engine| -> f64 {
        let programs = engine.stats().programs;
        programs.hits as f64 / (programs.hits + programs.misses) as f64
    };

    let served = engine();
    let baseline = engine();
    for &rank in &stream {
        served.call(Request::analyze(corpus[rank].clone()));
        baseline.analyze_source(&corpus[rank]).unwrap();
    }
    let (served, baseline) = (hit_ratio(&served), hit_ratio(&baseline));
    assert!(baseline > 0.0 && baseline < 1.0, "the stream must evict");
    assert!(
        served + 1e-9 >= baseline,
        "the protocol path must not lose to the typed path: \
         served={served:.3} baseline={baseline:.3}"
    );
}
