//! Per-layer probes that need real daemons: the two server strategies, the
//! peer tier between two `sild` processes, and the memory tier's hit ratio
//! per eviction policy.  Like the end-to-end driver they speak only the wire
//! protocol and the `sild` command line.

use crate::corpus::{Check, Corpus};
use crate::daemon::{hit_ratio, Conn, Counters, Daemon, RunDir, STATS_REQUEST};
use crate::e2e::{self, Plan};
use crate::json::Value;
use crate::report::Metric;
use crate::stats::percentile;
use crate::workload::{Expectation, Kind, Workload};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Whether this `sild` still documents `flag` — probes of optional
/// strategies and policies are reported only while their flag exists.
pub fn sild_accepts(sild: &Path, flag: &str) -> bool {
    Command::new(sild)
        .arg("--help")
        .output()
        .is_ok_and(|out| String::from_utf8_lossy(&out.stdout).contains(flag))
}

fn run_dir(label: &str) -> Result<RunDir, String> {
    RunDir::create(label).map_err(|e| format!("run dir: {e}"))
}

/// Median round trip of `calls` requests on one connection, in µs.
fn median_round_trip_us(conn: &mut Conn, request: &str, calls: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let sent = Instant::now();
        conn.call(request)?;
        samples.push(sent.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(percentile(&samples, 0.5) as f64 / 1e3)
}

/// `server.<kind>_rtt_us` (a `stats` request on one idle connection) and
/// `server.<kind>_warm_rps` (a short closed-loop window of the `warm_zipf`
/// stream) for the threaded server and, while `--async` exists, the async
/// one (`optional`).  Also returns the threaded window's daemon CPU per
/// request, the figure the traced pipeline is compared with.
pub fn servers(
    sild: &Path,
    corpus: &Corpus,
    seed: u64,
    window: f64,
    optional: bool,
) -> Result<(Vec<Metric>, f64), String> {
    let workload = Workload::new(Kind::WarmZipf, corpus, seed)?;
    let plan = Plan {
        setups: (1, 1),
        ..Plan::for_seconds(window)
    };
    let mut metrics = Vec::new();
    let mut threaded_cpu = 0.0;
    for (kind, flag) in [("threaded", None), ("async", Some("--async"))] {
        let args: Vec<String> = flag.iter().map(|f| f.to_string()).collect();
        if flag.is_some_and(|flag| !optional || !sild_accepts(sild, flag)) {
            continue;
        }
        let dir = run_dir(kind)?;
        let daemon = Daemon::spawn(sild, &dir, &args)?;
        let mut conn = daemon.connect()?;
        median_round_trip_us(&mut conn, STATS_REQUEST, 200)?;
        let calls = 2000;
        metrics.push(
            Metric::new(
                format!("server.{kind}_rtt_us"),
                median_round_trip_us(&mut conn, STATS_REQUEST, calls)?,
                "us",
            )
            .with_samples(calls as u64),
        );
        drop((conn, daemon, dir));

        let outcome = e2e::run(&workload, sild, &args, &plan)?;
        if outcome.failed > 0 {
            return Err(format!(
                "{kind} server: wrong answers: {:?}",
                outcome.errors
            ));
        }
        metrics.push(
            Metric::new(format!("server.{kind}_warm_rps"), outcome.normal.rps, "1/s")
                .with_samples(outcome.completed),
        );
        if flag.is_none() {
            threaded_cpu = outcome.normal.cpu_us_per_req;
        }
    }
    Ok((metrics, threaded_cpu))
}

/// The peer tier: prime daemon A with the corpus, start a cold daemon B with
/// `--peer A`, wait until B has A's inventory, then send the corpus once to B
/// on one connection.  Every answer must be a hit fetched from A.
pub fn peer(sild: &Path, corpus: &Corpus) -> Result<Vec<Metric>, String> {
    let workload = Workload::new(Kind::WarmZipf, corpus, 0)?;
    let dir_a = run_dir("peer-a")?;
    let a = Daemon::spawn(sild, &dir_a, &[])?;
    let mut conn_a = a.connect()?;
    for (line, expectation) in workload.priming() {
        let reply = conn_a.call_json(&line)?;
        workload.verify(&expectation, &reply)?;
    }

    let dir_b = run_dir("peer-b")?;
    let args = ["--peer", &a.peer_addr(), "--gossip-interval", "50"].map(str::to_string);
    let b = Daemon::spawn(sild, &dir_b, &args)?;
    let mut conn_b = b.connect()?;
    let programs = corpus.programs.len() as u64;
    let waiting = Instant::now();
    loop {
        let stats = conn_b.call_json(STATS_REQUEST)?;
        let known = stats
            .path(&["store", "peer", "known_keys"])
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if known >= programs {
            break;
        }
        if waiting.elapsed() > Duration::from_secs(10) {
            return Err(format!("B learned {known} of A's keys in 10 s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let before = Counters::read(&mut conn_b)?;
    let mut fetches = Vec::new();
    for (line, first_sighting) in workload.priming() {
        // New to B, but a hit all the same: B fetches it from A.
        let expectation = Expectation {
            check: Check {
                cache_hit: true,
                ..first_sighting.check
            },
            ..first_sighting
        };
        let sent = Instant::now();
        let reply = conn_b.call_json(&line)?;
        fetches.push(sent.elapsed().as_nanos() as u64);
        workload
            .verify(&expectation, &reply)
            .map_err(|e| format!("peer fetch: {e}"))?;
    }
    let delta = Counters::read(&mut conn_b)?.since(&before);
    fetches.sort_unstable();
    Ok(vec![
        Metric::new(
            "peer.fetch_hit_us",
            percentile(&fetches, 0.5) as f64 / 1e3,
            "us",
        )
        .with_samples(programs),
        Metric::new("peer.hits", delta.peer_hits as f64, "count"),
        Metric::new(
            "peer.bytes_in_per_hit",
            delta.peer_bytes_in as f64 / delta.peer_hits.max(1) as f64,
            "B",
        ),
    ])
}

/// Requests of the `disk_spill` stream each policy replays.
const POLICY_REPLAY_REQUESTS: usize = 1200;

/// `store.mem_hit_ratio.<policy>`: the in-memory program namespace's hit
/// ratio over one fixed, single-connection replay of the `disk_spill` stream
/// — per policy over the same stream, never one blended figure.
///
/// One daemon analyzes the 1024 programs into a data directory and exits;
/// each policy's daemon then starts over a copy of that directory with an
/// empty memory tier, so a miss costs a disk read, not an analysis, and the
/// counts depend on nothing but the request order: they repeat exactly.
/// `--lru` and `--lfu` are replayed only when `optional` and while `sild`
/// accepts the flag.
pub fn policies(
    sild: &Path,
    corpus: &Corpus,
    seed: u64,
    optional: bool,
) -> Result<Vec<Metric>, String> {
    let workload = Workload::new(Kind::DiskSpill, corpus, seed)?;
    let primed = run_dir("policy-prime")?;
    let mut tally = e2e::Tally::default();
    let (daemon, _) = e2e::set_up(&workload, sild, &[], &primed, &mut tally)?;
    if tally.failed > 0 {
        return Err(format!("policy priming: wrong answers: {:?}", tally.errors));
    }
    daemon.shutdown()?;

    let mut metrics = Vec::new();
    for (policy, flag) in [
        ("adaptive", None),
        ("lru", Some("--lru")),
        ("lfu", Some("--lfu")),
    ] {
        if flag.is_some_and(|flag| !optional || !sild_accepts(sild, flag)) {
            continue;
        }
        let dir = run_dir(policy)?;
        copy_dir(&primed.path().join("data"), &dir.path().join("data"))?;
        let mut args = workload.daemon_args();
        args.extend(flag.map(str::to_string));
        let daemon = Daemon::spawn(sild, &dir, &args)?;
        let mut conn = daemon.connect()?;
        let mut stream = workload.lane(0, 1);
        let mut line = String::new();
        for _ in 0..POLICY_REPLAY_REQUESTS {
            let expectation = stream.next(&mut line);
            let reply = conn.call_json(&line)?;
            workload
                .verify(&expectation, &reply)
                .map_err(|e| format!("{policy} replay: {e}"))?;
        }
        let counters = Counters::read(&mut conn)?;
        metrics.push(
            Metric::new(
                format!("store.mem_hit_ratio.{policy}"),
                hit_ratio(counters.store_programs),
                "ratio",
            )
            .with_samples(POLICY_REPLAY_REQUESTS as u64),
        );
    }
    Ok(metrics)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {}: {e}", from.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}
