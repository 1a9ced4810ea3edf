//! Experiments E1 and E2: execution benchmarks.
//!
//! * the SIL interpreter running the sequential versus the automatically
//!   parallelized `add_and_reverse` (cost model captures work/span; this
//!   bench captures the interpreter overhead and the wall-clock effect of
//!   rayon-backed execution),
//! * the native Rust kernels (sequential versus rayon) for
//!   `add_and_reverse`, `treeadd` and `bisort`, which give the real-machine
//!   wall-clock speedups `repro --list` names as E2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sil_lang::frontend;
use sil_lang::pretty::pretty_program;
use sil_parallelizer::parallelize_program;
use sil_runtime::interp::{Interpreter, RunConfig};
use sil_runtime::parallel::ParallelExecutor;
use sil_workloads::native;
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

fn interpreter_add_and_reverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp_add_and_reverse");
    for depth in [8u32, 10, 12] {
        let src = Workload::AddAndReverse.source(depth);
        let (seq_program, seq_types) = frontend(&src).unwrap();
        let (parallel, _) = parallelize_program(&seq_program, &seq_types);
        let printed = pretty_program(&parallel);
        let (par_program, par_types) = frontend(&printed).unwrap();
        let config = RunConfig {
            store_capacity: (1 << (depth + 1)) as usize,
            ..RunConfig::default()
        };

        group.bench_with_input(BenchmarkId::new("sequential", depth), &depth, |b, _| {
            b.iter(|| {
                let mut interp = Interpreter::with_config(&seq_program, &seq_types, config.clone());
                black_box(interp.run().unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel_rayon", depth), &depth, |b, _| {
            b.iter(|| {
                let mut exec =
                    ParallelExecutor::with_config(&par_program, &par_types, config.clone());
                black_box(exec.run().unwrap())
            })
        });
    }
    group.finish();
}

fn native_add_and_reverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_add_and_reverse");
    for depth in [14u32, 16, 18] {
        group.bench_with_input(BenchmarkId::new("sequential", depth), &depth, |b, &d| {
            b.iter(|| black_box(native::add_and_reverse_seq(d)))
        });
        group.bench_with_input(BenchmarkId::new("rayon", depth), &depth, |b, &d| {
            b.iter(|| black_box(native::add_and_reverse_par(d)))
        });
    }
    group.finish();
}

fn native_treeadd(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_treeadd");
    for depth in [14u32, 16, 18] {
        group.bench_with_input(BenchmarkId::new("sequential", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || native::Tree::perfect(d),
                |mut t| black_box(native::treeadd_seq(&mut t)),
            )
        });
        group.bench_with_input(BenchmarkId::new("rayon", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || native::Tree::perfect(d),
                |mut t| black_box(native::treeadd_par(&mut t)),
            )
        });
    }
    group.finish();
}

fn native_bisort(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_bisort");
    group.sample_size(20);
    for depth in [12u32, 14, 16] {
        group.bench_with_input(BenchmarkId::new("sequential", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || native::Tree::perfect_keyed(d, 1),
                |mut t| black_box(native::bisort_seq(&mut t, i64::MAX, true)),
            )
        });
        group.bench_with_input(BenchmarkId::new("rayon", depth), &depth, |b, &d| {
            b.iter_with_setup(
                || native::Tree::perfect_keyed(d, 1),
                |mut t| black_box(native::bisort_par(&mut t, i64::MAX, true)),
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = speedup_benches;
    config = bench_config();
    targets =
    interpreter_add_and_reverse,
    native_add_and_reverse,
    native_treeadd,
    native_bisort

}
criterion_main!(speedup_benches);
