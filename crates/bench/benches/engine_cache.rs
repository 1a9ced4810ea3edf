//! Experiment E5: the engine's content-addressed summary store.
//!
//! * cold vs. warm whole-program analysis of an unchanged workload (the
//!   warm path is a fingerprint plus a map lookup — the acceptance target
//!   is >=5x, the observed ratio is orders of magnitude),
//! * cold full analysis vs. warm *incremental* re-analysis of an edited
//!   program (the edit's stale cone is re-walked, everything else replays),
//! * summary-cache reuse across program variants sharing a call-graph cone,
//! * batch throughput over the whole workload suite, sequential engine vs.
//!   rayon-parallel engine,
//! * the shared-vs-private-store experiment behind `sild`: aggregate hit
//!   rate of a `ShardedService` whose shards share one store vs. the same
//!   shard count over private per-shard stores, at fixed *total* capacity,
//!   over Zipf-skewed streams of real programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sil_engine::service::{route_fingerprint, Request, Service, ShardedService};
use sil_engine::{Engine, EngineConfig};
use sil_workloads::programs::Workload;
use std::hint::black_box;

/// A fast Criterion configuration so the whole suite completes quickly while
/// still giving stable relative numbers.
fn bench_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_cold_vs_warm");
    for workload in [Workload::AddAndReverse, Workload::Bisort, Workload::ListSum] {
        let src = workload.source(workload.test_size());
        let engine = Engine::new(EngineConfig::default());

        group.bench_with_input(BenchmarkId::new("cold", workload.name()), &src, |b, src| {
            b.iter(|| {
                engine.clear_caches();
                black_box(engine.analyze_source(src).unwrap())
            })
        });

        engine.clear_caches();
        engine.analyze_source(&src).unwrap(); // prime
        group.bench_with_input(BenchmarkId::new("warm", workload.name()), &src, |b, src| {
            b.iter(|| black_box(engine.analyze_source(src).unwrap()))
        });
    }
    group.finish();
}

fn summary_reuse_across_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_summary_reuse");
    // Ten sizes of tree_sum share the build/sum cone; only `main` differs.
    let variants: Vec<String> = (3..13).map(|d| Workload::TreeSum.source(d)).collect();

    group.bench_function("no_summary_cache", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig {
                summary_cache_capacity: 0,
                ..EngineConfig::default()
            });
            for v in &variants {
                black_box(engine.analyze_source(v).unwrap());
            }
        })
    });
    group.bench_function("with_summary_cache", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            for v in &variants {
                black_box(engine.analyze_source(v).unwrap());
            }
        })
    });
    group.finish();
}

/// Cold full analysis vs. warm incremental re-analysis of an edited
/// program.  The edit touches `add_n` only, so `reverse` and `build` replay
/// their retained walks; the incremental acceptance criterion is that the
/// warm edit is measurably faster than the cold full analysis.
fn incremental_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_incremental_edit");
    let base = Workload::AddAndReverse.source(6);
    let edited = base.replace("h.value := h.value + n", "h.value := h.value + n + 0");
    assert_ne!(base, edited);

    let cold_engine = Engine::new(EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    });
    group.bench_function("cold_full", |b| {
        b.iter(|| {
            cold_engine.clear_caches();
            black_box(cold_engine.analyze_source(&edited).unwrap())
        })
    });

    let warm_engine = Engine::new(EngineConfig::default());
    warm_engine.analyze_source(&base).unwrap(); // retain the base cones
    group.bench_function("warm_incremental", |b| {
        b.iter(|| {
            // Only the whole-program namespace is dropped: the edited
            // program must miss it and take the incremental path against
            // the retained summary and walk namespaces.
            warm_engine.clear_program_cache();
            black_box(warm_engine.analyze_source(&edited).unwrap())
        })
    });
    group.finish();

    // Reuse counters of the *first* edit against a freshly primed engine
    // (the timed loop above converges to full replay after its first
    // iteration, once the edited cones are retained too).
    let first_engine = Engine::new(EngineConfig::default());
    first_engine.analyze_source(&base).unwrap();
    let entry = first_engine.analyze_source(&edited).unwrap();
    if let Some(stats) = entry.incremental {
        println!(
            "first incremental edit: {} procedures reused / {} stale, \
             {} walks replayed / {} performed",
            stats.procedures_reused,
            stats.procedures_stale,
            stats.walks_reused,
            stats.walks_performed
        );
    }
}

/// 64 distinct real programs (every workload at several sizes), ranked so
/// Zipf rank 1 is the hottest.
fn program_corpus() -> Vec<String> {
    let mut corpus = Vec::new();
    for size in 3..=9u32 {
        for workload in Workload::ALL {
            corpus.push(workload.source(size));
            if corpus.len() == 64 {
                return corpus;
            }
        }
    }
    corpus
}

/// Zipf stream config shared by both store layouts, so the comparison is
/// apples to apples: same corpus, same seed, same fixed *total* capacity.
fn zipf_ranks(corpus_len: usize, skew: f64, requests: usize) -> Vec<usize> {
    let zipf = Zipf::new(corpus_len as u64, skew).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    (0..requests)
        .map(|_| zipf.sample(&mut rng) as usize - 1)
        .collect()
}

/// Drive one Zipf-skewed stream of `Analyze` requests through a sharded
/// service whose shards all share **one** store of `total_capacity`;
/// returns the aggregate program hit rate across the shard views.
fn simulate_shared(shards: usize, total_capacity: usize, skew: f64, requests: usize) -> f64 {
    let corpus = program_corpus();
    let config = EngineConfig::default()
        .with_program_cache_capacity(total_capacity)
        .with_incremental(false);
    let service = ShardedService::new(shards, config);
    for rank in zipf_ranks(corpus.len(), skew, requests) {
        black_box(service.call(Request::analyze(corpus[rank].clone())));
    }
    let stats = service.shard_stats();
    let hits: u64 = stats.iter().map(|s| s.programs.hits).sum();
    let misses: u64 = stats.iter().map(|s| s.programs.misses).sum();
    hits as f64 / (hits + misses) as f64
}

/// The pre-store layout: the same shard count over *private* per-engine
/// stores that split the same total capacity, requests routed by the same
/// fingerprint rule.
fn simulate_private(shards: usize, total_capacity: usize, skew: f64, requests: usize) -> f64 {
    let corpus = program_corpus();
    let config = EngineConfig::default()
        .with_program_cache_capacity((total_capacity / shards).max(1))
        .with_incremental(false);
    let engines: Vec<Engine> = (0..shards).map(|_| Engine::new(config.clone())).collect();
    let routes: Vec<usize> = corpus
        .iter()
        .map(|src| (route_fingerprint(src) % shards as u64) as usize)
        .collect();
    for rank in zipf_ranks(corpus.len(), skew, requests) {
        black_box(engines[routes[rank]].analyze_source(&corpus[rank]).unwrap());
    }
    let mut hits = 0;
    let mut misses = 0;
    for engine in &engines {
        let stats = engine.stats();
        hits += stats.programs.hits;
        misses += stats.programs.misses;
    }
    hits as f64 / (hits + misses) as f64
}

/// The shared-store experiment behind `sild`: at fixed total capacity,
/// shards over one shared store keep the single-engine hit rate at any
/// shard count (shared content is stored once), while private per-shard
/// stores fragment the capacity.  The table quantifies both layouts under
/// Zipf-skewed request streams of *real programs*; the 1-shard private row
/// doubles as the single-engine baseline.
fn shared_vs_private_hit_rates(c: &mut Criterion) {
    let requests = if std::env::var_os("CRITERION_SMOKE").is_some() {
        60
    } else {
        240
    };
    println!(
        "shared-vs-private store hit rates ({requests} Zipf requests over 64 real \
         programs, total program capacity 16):"
    );
    println!(
        "{:>6} {:>7} {:>9} {:>9}",
        "skew", "shards", "private", "shared"
    );
    for &skew in &[0.9, 1.2] {
        let baseline = simulate_private(1, 16, skew, requests);
        for &shards in &[1usize, 2, 4, 8] {
            let private = simulate_private(shards, 16, skew, requests);
            let shared = simulate_shared(shards, 16, skew, requests);
            println!(
                "{skew:>6.1} {shards:>7} {:>8.1}% {:>8.1}%{}",
                private * 100.0,
                shared * 100.0,
                if shared + 1e-9 >= baseline {
                    ""
                } else {
                    "  << below single-engine baseline!"
                }
            );
        }
    }

    let mut group = c.benchmark_group("engine_shared_store_zipf");
    for shards in [1usize, 4] {
        group.bench_function(format!("shared_{shards}"), |b| {
            b.iter(|| black_box(simulate_shared(shards, 16, 1.2, requests / 4)))
        });
    }
    group.finish();
}

fn batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch_all_workloads");
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();
    for parallel in [false, true] {
        let label = if parallel { "rayon" } else { "sequential" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = Engine::new(EngineConfig {
                    parallel,
                    ..EngineConfig::default()
                });
                black_box(engine.analyze_batch(&sources))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = engine_cache;
    config = bench_config();
    targets =
    cold_vs_warm,
    incremental_edit,
    summary_reuse_across_variants,
    batch_throughput,
    shared_vs_private_hit_rates
}
criterion_main!(engine_cache);
