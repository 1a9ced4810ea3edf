//! `silbench` — an open-loop load generator for the `sild` daemon.
//!
//! A closed-loop client (the ledger in `benchmark/`) waits for its
//! response before sending again, so a saturated server throttles its own
//! offered load and queueing collapse is invisible.  `silbench` decouples
//! arrivals from completions: every connection sends requests on a Poisson
//! schedule (exponential gaps) regardless of what has come back, which is
//! how latency actually behaves when demand exceeds capacity.
//!
//! ```text
//! silbench                 full sweep, writes BENCH_engine_service.json
//! silbench --smoke         short sweep (CI): ~2s of measurement
//! silbench --out <path>    write the JSON artifact elsewhere
//! ```
//!
//! Per offered-load point: N connections each run one
//! writer thread (Poisson arrivals, Zipf-ranked program selection over the
//! 64-program corpus) and one reader thread (pairs responses FIFO — the
//! protocol answers in order per connection — and records client-observed
//! latency into a silobs histogram).  The artifact carries throughput vs
//! offered load and p50/p90/p99/p999 per point, machine-readable via the
//! engine's own JSON module; the binary re-parses what it wrote and fails
//! if the quantiles are missing or zero, so a green run certifies the
//! artifact.
//!
//! Each point also measures *schedule slip* — how late every request left
//! relative to its Poisson-scheduled arrival.  Validation fails when the
//! p99 slip exceeds one mean inter-arrival gap: past that point the
//! writers are effectively closed-loop and the offered load is a fiction.
//!
//! The corpus is primed before measuring (warm-cache regime: the server,
//! not the analysis, is under test).

#![forbid(unsafe_code)]

use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sil_engine::service::{Json, RemoteService, Request, Response, Server, ServerOptions, Service};
use sil_engine::{Addr, Engine};
use sil_workloads::programs::Workload;
use silobs::{Histogram, HistogramSummary};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: silbench [--smoke] [--out <path>]

Open-loop offered-load sweep against an in-process sild server, emitting
a machine-readable artifact with throughput-vs-load and latency quantiles
per point.

options:
  --smoke       short sweep for CI (~2s of measurement)
  --out <path>  artifact path (default: BENCH_engine_service.json)
  -h, --help    this message
";

/// One sweep configuration: the offered loads (requests/sec across all
/// connections), how long each point runs, and the connection fan-out.
struct Sweep {
    connections: usize,
    point_duration: Duration,
    offered_loads: Vec<f64>,
}

impl Sweep {
    fn full() -> Sweep {
        Sweep {
            connections: 32,
            point_duration: Duration::from_secs(5),
            offered_loads: vec![500.0, 2000.0, 8000.0],
        }
    }

    fn smoke() -> Sweep {
        Sweep {
            connections: 4,
            point_duration: Duration::from_secs(1),
            offered_loads: vec![200.0, 800.0],
        }
    }
}

/// 64 distinct real programs (every workload at several sizes), ranked so
/// Zipf rank 1 is the hottest — the corpus `golden/digests.txt` pins.
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

fn temp_socket(name: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("silbench-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

/// An exponential inter-arrival gap with the given mean, in seconds (the
/// Poisson process driving each connection's writer).
fn exp_gap(rng: &mut StdRng, mean_secs: f64) -> f64 {
    // 53 uniform bits offset off zero so ln() stays finite.
    let uniform = ((rng.gen_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    -uniform.ln() * mean_secs
}

/// What one offered-load point measured.
struct Point {
    offered_rps: f64,
    sent: u64,
    completed: u64,
    wall_secs: f64,
    latency_us: HistogramSummary,
    /// Per-request schedule slip: how late each write left relative to
    /// its Poisson-scheduled arrival time.  When slip approaches the mean
    /// inter-arrival gap the writers have silently degraded to
    /// closed-loop and "achieved" throughput stops meaning offered load.
    slip_us: HistogramSummary,
    /// One mean inter-arrival gap per connection, in µs — the budget the
    /// slip is judged against.
    mean_gap_us: f64,
    /// The daemon's own view of this point: the worst per-interval
    /// `server.serve_us` p99 the flight recorder sampled while the point
    /// ran.  Client latency minus this is time spent on the wire and in
    /// socket queues.
    server_p99_us: u64,
}

impl Point {
    fn achieved_rps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Drive one offered-load point against a running daemon: `connections`
/// writer/reader thread pairs over their own sockets, Poisson arrivals,
/// Zipf program selection, latencies into one shared histogram.
fn run_point(socket: &Path, lines: &Arc<Vec<String>>, sweep: &Sweep, offered_rps: f64) -> Point {
    let hist = Histogram::new();
    let slip_hist = Histogram::new();
    let per_conn_mean_gap = sweep.connections as f64 / offered_rps;
    let started = Instant::now();
    let deadline = started + sweep.point_duration;

    let (sent, completed) = std::thread::scope(|scope| {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for conn in 0..sweep.connections {
            let stream = UnixStream::connect(socket).expect("silbench: connect failed");
            let reader_stream = stream.try_clone().expect("silbench: clone failed");
            let (tx, rx) = mpsc::channel::<u64>();
            let lines = lines.clone();
            let hist = &hist;
            let slip_hist = &slip_hist;

            writers.push(scope.spawn(move || {
                let mut stream = stream;
                // Seed off the load level and connection so every run of
                // the same sweep offers the same arrival process.
                let seed = 1989 ^ ((offered_rps as u64) << 8) ^ conn as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let zipf = Zipf::new(lines.len() as u64, 1.2).unwrap();
                let mut offset = 0.0f64;
                let mut sent = 0u64;
                loop {
                    offset += exp_gap(&mut rng, per_conn_mean_gap);
                    let target = started + Duration::from_secs_f64(offset);
                    if target > deadline {
                        break;
                    }
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let rank = zipf.sample(&mut rng) as usize - 1;
                    // Timestamp the arrival before writing: if the send
                    // blocks on backpressure, that wait is part of the
                    // latency an open-loop client experiences.
                    if tx.send(silobs::ticks()).is_err() {
                        break;
                    }
                    if stream.write_all(lines[rank].as_bytes()).is_err() {
                        break;
                    }
                    // Schedule slip: how far behind its Poisson arrival
                    // this request actually left the socket.  A writer
                    // that keeps falling behind is closed-loop in
                    // disguise, and the artifact validation rejects it.
                    let slip = Instant::now().saturating_duration_since(target);
                    slip_hist.record(slip.as_micros() as u64);
                    sent += 1;
                }
                sent
            }));

            readers.push(scope.spawn(move || {
                let mut reader = BufReader::new(reader_stream);
                let mut line = String::new();
                let mut completed = 0u64;
                // Responses come back in send order on each connection, so
                // pairing is FIFO against the writer's timestamps.
                while let Ok(sent_at) = rx.recv() {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    assert!(
                        !line.contains("\"type\":\"error\""),
                        "silbench: daemon answered an error: {line}"
                    );
                    hist.record(silobs::ticks().saturating_sub(sent_at));
                    completed += 1;
                }
                completed
            }));
        }
        let sent: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let completed: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        (sent, completed)
    });

    Point {
        offered_rps,
        sent,
        completed,
        wall_secs: started.elapsed().as_secs_f64(),
        latency_us: HistogramSummary::of(&hist.snapshot()),
        slip_us: HistogramSummary::of(&slip_hist.snapshot()),
        mean_gap_us: per_conn_mean_gap * 1e6,
        server_p99_us: 0,
    }
}

/// The daemon's recorder samples every [`RECORDER_INTERVAL_MS`] while a
/// point runs; tight enough that a smoke point (1s) still spans several
/// intervals.
const RECORDER_INTERVAL_MS: u64 = 250;

/// The worst per-interval `server.serve_us` p99 the daemon recorded since
/// tick `since` — daemon and benchmark share a process, so recorder
/// timestamps and `silobs::ticks()` are the same clock.
fn server_p99_since(addr: &str, since: u64) -> u64 {
    let conn = match RemoteService::connect(addr) {
        Ok(conn) => conn,
        Err(_) => return 0,
    };
    let samples = match conn.service_metrics_history() {
        Ok(samples) => samples,
        Err(_) => return 0,
    };
    samples
        .iter()
        .filter(|sample| sample.at_us >= since)
        .filter_map(|sample| sample.metrics.histogram("server.serve_us"))
        .filter(|serve| serve.count > 0)
        .map(|serve| serve.p99)
        .max()
        .unwrap_or(0)
}

/// Run the whole sweep: fresh daemon, primed corpus, ascending offered
/// loads over the same warm caches.
fn run_server(sweep: &Sweep, corpus: &[String]) -> Vec<Point> {
    let service = Arc::new(Engine::default());
    let server = Server::bind_with(
        &temp_socket("sweep"),
        service,
        ServerOptions {
            recorder_interval_ms: RECORDER_INTERVAL_MS,
            ..ServerOptions::default()
        },
    )
    .expect("silbench: bind failed");
    let handle = server.spawn();
    let socket = match handle.addr() {
        Addr::Unix(path) => path.clone(),
        Addr::Tcp(_) => unreachable!("silbench binds unix sockets"),
    };

    let primer = RemoteService::connect(&handle.addr().to_string()).unwrap();
    for src in corpus {
        match primer.call(Request::analyze(src.clone())) {
            Response::Analyzed { .. } => {}
            other => panic!("silbench: prime failed: {other:?}"),
        }
    }
    drop(primer);

    // Requests are pre-encoded once; the writer hot loop does no JSON work.
    let lines: Arc<Vec<String>> = Arc::new(
        corpus
            .iter()
            .map(|src| {
                let mut line = Request::analyze(src.clone()).encode();
                line.push('\n');
                line
            })
            .collect(),
    );

    let addr = handle.addr().to_string();
    let points: Vec<Point> = sweep
        .offered_loads
        .iter()
        .map(|&offered| {
            let since = silobs::ticks();
            let mut point = run_point(&socket, &lines, sweep, offered);
            // Give the recorder one more tick so the point's final
            // interval is sampled before we read the history.
            std::thread::sleep(Duration::from_millis(RECORDER_INTERVAL_MS * 2));
            point.server_p99_us = server_p99_since(&addr, since);
            point
        })
        .collect();
    handle.shutdown();
    points
}

fn summary_json(summary: &HistogramSummary) -> Json {
    Json::obj(vec![
        ("count", Json::Int(summary.count as i64)),
        ("min", Json::Int(summary.min as i64)),
        ("max", Json::Int(summary.max as i64)),
        ("mean", Json::Float(summary.mean())),
        ("p50", Json::Int(summary.p50 as i64)),
        ("p90", Json::Int(summary.p90 as i64)),
        ("p99", Json::Int(summary.p99 as i64)),
        ("p999", Json::Int(summary.p999 as i64)),
    ])
}

fn artifact_json(sweep: &Sweep, corpus_len: usize, points: &[Point]) -> Json {
    Json::obj(vec![
        ("bench", Json::Str("engine_service".to_string())),
        ("mode", Json::Str("open-loop".to_string())),
        ("connections", Json::Int(sweep.connections as i64)),
        (
            "point_duration_secs",
            Json::Float(sweep.point_duration.as_secs_f64()),
        ),
        ("corpus", Json::Int(corpus_len as i64)),
        ("zipf_s", Json::Float(1.2)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("offered_rps", Json::Float(p.offered_rps)),
                            ("achieved_rps", Json::Float(p.achieved_rps())),
                            ("sent", Json::Int(p.sent as i64)),
                            ("completed", Json::Int(p.completed as i64)),
                            ("wall_secs", Json::Float(p.wall_secs)),
                            ("latency_us", summary_json(&p.latency_us)),
                            ("slip_us", summary_json(&p.slip_us)),
                            ("mean_gap_us", Json::Float(p.mean_gap_us)),
                            ("server_p99_us", Json::Int(p.server_p99_us as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .as_obj()
        .ok_or_else(|| format!("expected an object around {key:?}"))?
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing {key:?}"))
}

/// Re-parse the artifact with the engine's own JSON module and check the
/// quantiles are present and nonzero — the property CI asserts.
fn validate_artifact(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read artifact: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("artifact does not parse: {e}"))?;
    let points = field(&json, "points")?
        .as_arr()
        .ok_or("\"points\" must be an array")?;
    if points.is_empty() {
        return Err("no load points".to_string());
    }
    for point in points {
        let latency = field(point, "latency_us")?;
        for quantile in ["p50", "p99", "p999"] {
            let value = field(latency, quantile)?
                .as_u64()
                .ok_or_else(|| format!("{quantile} must be a count"))?;
            if value == 0 {
                return Err(format!("{quantile} is zero"));
            }
        }
        let completed = field(point, "completed")?
            .as_u64()
            .ok_or("\"completed\" must be a count")?;
        if completed == 0 {
            return Err("a load point completed nothing".to_string());
        }
        // Open-loop integrity: if the p99 schedule slip exceeds one
        // mean inter-arrival gap, the writers were sending late more
        // often than on time — the run was closed-loop in practice
        // and its latency numbers do not mean what the artifact says.
        let slip_p99 = field(field(point, "slip_us")?, "p99")?
            .as_u64()
            .ok_or("slip p99 must be a count")?;
        let mean_gap_us = match field(point, "mean_gap_us")? {
            Json::Float(gap) => *gap,
            Json::Int(gap) => *gap as f64,
            _ => return Err("mean_gap_us must be a number".to_string()),
        };
        if slip_p99 as f64 > mean_gap_us {
            return Err(format!(
                "schedule slip p99 ({slip_p99} µs) exceeds the mean \
                 inter-arrival gap ({mean_gap_us:.0} µs) — the sweep was not open-loop"
            ));
        }
        // The daemon-side view must exist: a zero means the flight
        // recorder never sampled a serving interval during the point,
        // and the client/server latency split the artifact promises
        // is fiction.
        let server_p99 = field(point, "server_p99_us")?
            .as_u64()
            .ok_or("server_p99_us must be a count")?;
        if server_p99 == 0 {
            return Err("server_p99_us is zero — the daemon's flight recorder \
                 saw no serving interval during the point"
                .to_string());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = PathBuf::from("BENCH_engine_service.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = PathBuf::from(path),
                    None => {
                        eprintln!("silbench: --out needs a path\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("silbench: unknown option {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let sweep = if smoke { Sweep::smoke() } else { Sweep::full() };
    let corpus = program_corpus();
    println!(
        "silbench: open-loop sweep — {} connections, {:?} per point, loads {:?} req/s, \
         {}-program Zipf corpus",
        sweep.connections,
        sweep.point_duration,
        sweep.offered_loads,
        corpus.len(),
    );

    let points = run_server(&sweep, &corpus);
    println!(
        "  {:>12} {:>12} {:>8} {:>10} {:>9} {:>9} {:>9} {:>11} {:>12} {:>12}",
        "offered r/s",
        "achieved r/s",
        "sent",
        "p50 µs",
        "p90 µs",
        "p99 µs",
        "p999 µs",
        "srv p99 µs",
        "slip p99 µs",
        "slip max µs"
    );
    for p in &points {
        println!(
            "  {:>12.0} {:>12.0} {:>8} {:>10} {:>9} {:>9} {:>9} {:>11} {:>12} {:>12}",
            p.offered_rps,
            p.achieved_rps(),
            p.sent,
            p.latency_us.p50,
            p.latency_us.p90,
            p.latency_us.p99,
            p.latency_us.p999,
            p.server_p99_us,
            p.slip_us.p99,
            p.slip_us.max,
        );
    }

    let artifact = artifact_json(&sweep, corpus.len(), &points);
    if let Err(e) = std::fs::write(&out, artifact.encode() + "\n") {
        eprintln!("silbench: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    match validate_artifact(&out) {
        Ok(()) => {
            println!("silbench: wrote {} (validated)", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("silbench: artifact validation failed: {e}");
            ExitCode::FAILURE
        }
    }
}
