//! CPU per never-seen `analyze` request, with several threads sharing one
//! engine or each owning its own.
//!
//! Every request is a size-6 workload template with its procedures renamed
//! by a tag no other request carries, so each one misses every namespace
//! and runs the whole cold path: front end, fingerprints, call plan,
//! summaries, fixpoint, digest and store insert (and, once the program
//! namespace is full, an eviction).  Each thread reads its own CPU time
//! from `/proc/thread-self/schedstat`, so the figure is the work the
//! requests cost, not the wall clock.
//!
//! ```text
//! cargo run --release -p sil-engine --example cold_threads -- [THREADS] [REQUESTS]
//! ```
//!
//! `THREADS` (default 2, at most 64) threads each send `REQUESTS` (default 2000)
//! requests, first against one shared engine, then against one engine per
//! thread; the run with one thread is printed first for reference.

use sil_engine::service::{Request, Response};
use sil_engine::{Engine, EngineConfig};
use sil_workloads::Workload;
use std::time::Instant;

/// This thread's CPU time in nanoseconds.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat is readable (Linux)")
}

/// Send `requests` never-seen requests tagged by `thread` to `engine`;
/// the CPU nanoseconds they cost this thread.
fn drive(engine: &Engine, thread: usize, requests: usize, run: &str) -> u64 {
    let sources: Vec<(Workload, String)> = (0..requests)
        .map(|n| {
            let workload = Workload::ALL[n % Workload::ALL.len()];
            let source = workload.renamed_source(6, &format!("_{run}t{thread}n{n}"));
            (workload, source)
        })
        .collect();
    let start = thread_cpu_ns();
    for (workload, source) in sources {
        match engine.serve(Request::analyze(source)) {
            Response::Analyzed { summary, .. } => assert!(!summary.cache_hit),
            other => panic!("{}: {other:?}", workload.name()),
        }
    }
    thread_cpu_ns() - start
}

/// Run `threads` threads of `requests` requests each, against one shared
/// engine or one engine per thread, and print the CPU per request.
fn run(threads: usize, requests: usize, shared: bool) {
    let run = format!("{}{threads}", if shared { "s" } else { "p" });
    let engine = Engine::new(EngineConfig::default());
    let wall = Instant::now();
    let cpu_ns: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let (engine, run) = (&engine, &run);
                scope.spawn(move || {
                    if shared {
                        drive(engine, thread, requests, run)
                    } else {
                        drive(&Engine::new(EngineConfig::default()), thread, requests, run)
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker panicked"))
            .sum()
    });
    let total = threads * requests;
    println!(
        "threads {threads}  {:<17} requests {total:>6}  cpu/request {:>8.1} us  wall {:>6.2} s",
        if shared {
            "one shared engine"
        } else {
            "engine per thread"
        },
        cpu_ns as f64 / 1e3 / total as f64,
        wall.elapsed().as_secs_f64()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut number = |default: usize| {
        args.next()
            .map_or(default, |a| a.parse().expect("arguments are counts"))
    };
    let threads = number(2).clamp(1, 64);
    let requests = number(2000).max(1);
    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    run(1, requests, true);
    run(threads, requests, true);
    run(threads, requests, false);
}
