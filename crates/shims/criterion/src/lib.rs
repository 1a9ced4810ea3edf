//! A small, offline work-alike of the `criterion` API surface this
//! workspace's benches use: `Criterion` with the builder knobs, benchmark
//! groups, `BenchmarkId`, `Bencher::iter` / `iter_with_setup`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Statistics are deliberately simple — warm up once, run up to
//! `sample_size` timed iterations capped by `measurement_time`, report the
//! mean — which is enough for the relative comparisons (cold vs. warm cache,
//! sequential vs. parallel) these benches exist to demonstrate.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Smoke mode (`CRITERION_SMOKE=1`): every benchmark runs exactly one timed
/// iteration, whatever the configured sample size — CI uses it to prove the
/// bench code builds and runs without paying for measurements.
fn smoke_mode() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| std::env::var("CRITERION_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// The benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.sample_size, self.measurement_time, |b| f(b));
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            _criterion: self,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.sample_size, self.measurement_time, |b| f(b));
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        run_one(&full, self.sample_size, self.measurement_time, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// A benchmark identifier: a function name, an input parameter, or both.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function_name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{function_name}/{parameter}"))
    }

    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to the benchmark closure; `iter` does the timing.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    /// (total time, iterations) recorded by the last `iter` call.
    recorded: Option<(Duration, u64)>,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up
        let started = Instant::now();
        let mut iters = 0u64;
        for _ in 0..self.sample_size {
            black_box(routine());
            iters += 1;
            if started.elapsed() > self.measurement_time {
                break;
            }
        }
        self.recorded = Some((started.elapsed(), iters));
    }

    pub fn iter_with_setup<S, R, SF, F>(&mut self, mut setup: SF, mut routine: F)
    where
        SF: FnMut() -> S,
        F: FnMut(S) -> R,
    {
        black_box(routine(setup())); // warm-up
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.sample_size {
            let input = setup();
            let started = Instant::now();
            black_box(routine(input));
            total += started.elapsed();
            iters += 1;
            if total > self.measurement_time {
                break;
            }
        }
        self.recorded = Some((total, iters));
    }
}

fn run_one(id: &str, sample_size: usize, measurement_time: Duration, f: impl FnOnce(&mut Bencher)) {
    let (sample_size, measurement_time) = if smoke_mode() {
        (1, Duration::from_millis(1))
    } else {
        (sample_size, measurement_time)
    };
    let mut bencher = Bencher {
        sample_size,
        measurement_time,
        recorded: None,
    };
    f(&mut bencher);
    match bencher.recorded {
        Some((total, iters)) if iters > 0 => {
            let mean = total.as_nanos() as f64 / iters as f64;
            println!("bench: {id:<50} {:>14}/iter ({iters} iters)", human(mean));
        }
        _ => println!("bench: {id:<50} (no measurement)"),
    }
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// `criterion_group! { name = g; config = expr; targets = f1, f2 }` or the
/// short `criterion_group!(g, f1, f2)` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// `criterion_main!(group1, group2)` — generates `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(50));
        let mut runs = 0;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs >= 2, "warm-up + at least one sample");
    }

    #[test]
    fn groups_and_inputs_work() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        let mut seen = 0u32;
        group.bench_with_input(BenchmarkId::new("f", 7), &7u32, |b, &input| {
            b.iter(|| seen = input)
        });
        group.bench_with_input(BenchmarkId::from_parameter(9), &9u32, |b, input| {
            b.iter_with_setup(|| *input, |v| seen = v)
        });
        group.finish();
        assert_eq!(seen, 9);
    }
}
