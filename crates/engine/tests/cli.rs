//! CLI-level tests: the `silp` and `sild` binaries themselves, including
//! the strict flag parser and the daemon/client round trip that must be
//! byte-identical to in-process output.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn silp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_silp"))
}

fn sild() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sild"))
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).to_string()
}

#[test]
fn unknown_flag_is_rejected_with_a_hint() {
    let output = silp()
        .args(["--jsno", "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "unknown flags must fail");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("unknown option --jsno"), "{stderr}");
    assert!(stderr.contains("did you mean --json?"), "{stderr}");

    let output = silp()
        .args(["--exeucte", "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("did you mean --execute?"));
}

#[test]
fn hopeless_flags_get_no_hint_but_still_fail() {
    let output = silp().args(["--frobnicate-the-widgets"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("unknown option --frobnicate-the-widgets"),
        "{stderr}"
    );
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

#[test]
fn sild_rejects_unknown_flags_with_a_hint() {
    let output = sild()
        .args(["--listne", "unix:/tmp/x.sock"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(stderr.contains("unknown option --listne"), "{stderr}");
    assert!(stderr.contains("did you mean --listen?"), "{stderr}");
}

#[test]
fn shutdown_without_connect_is_an_error() {
    let output = silp().args(["--shutdown"]).output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("--shutdown only makes sense with --connect"));
}

struct Daemon {
    child: Child,
    addr: String,
    sock: PathBuf,
}

impl Daemon {
    /// Launch `sild` on a fresh temp unix socket and wait until it accepts.
    fn launch(name: &str) -> Daemon {
        Daemon::launch_with(name, &[])
    }

    /// [`Daemon::launch`] with extra `sild` flags.
    fn launch_with(name: &str, extra: &[&str]) -> Daemon {
        let sock =
            std::env::temp_dir().join(format!("sild-cli-{}-{name}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let addr = format!("unix:{}", sock.display());
        let child = sild()
            .args(["--listen", &addr, "--quiet"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "sild never bound {addr}");
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, addr, sock }
    }

    fn stop(mut self) {
        let output = silp()
            .args(["--connect", &self.addr, "--shutdown"])
            .output()
            .unwrap();
        assert!(output.status.success(), "{}", stderr_of(&output));
        let status = self.child.wait().unwrap();
        assert!(status.success(), "sild must exit cleanly");
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The acceptance criterion: `silp --connect` against a running `sild`
/// produces byte-identical JSON (and text) to `silp --in-process` for
/// every built-in workload.
#[test]
fn connect_output_is_byte_identical_to_in_process() {
    // One fresh (cold) daemon per output mode: in-process runs are always
    // cold, so the comparison needs an equally cold daemon.
    for (name, extra) in [("diff-json", &["--json"][..]), ("diff-text", &[])] {
        let daemon = Daemon::launch(name);
        let mut remote_args = vec!["--connect", daemon.addr.as_str(), "--workload", "all"];
        remote_args.extend_from_slice(extra);
        let mut local_args = vec!["--in-process", "--workload", "all"];
        local_args.extend_from_slice(extra);

        let remote = silp().args(&remote_args).output().unwrap();
        let local = silp().args(&local_args).output().unwrap();
        assert!(remote.status.success(), "{}", stderr_of(&remote));
        assert!(local.status.success(), "{}", stderr_of(&local));
        assert!(!remote.stdout.is_empty());
        assert_eq!(
            remote.stdout, local.stdout,
            "daemon and in-process output must be byte-identical ({extra:?})"
        );
        daemon.stop();
    }
}

/// A second client run against the same warm daemon is served from its
/// caches: the reports flip to `cache_hit:true` and the stats line shows
/// the hits.
#[test]
fn warm_daemon_serves_cache_hits_to_a_second_run() {
    let daemon = Daemon::launch("warm");
    let args = [
        "--connect",
        daemon.addr.as_str(),
        "--workload",
        "all",
        "--json",
        "--stats",
    ];

    let cold = silp().args(args).output().unwrap();
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    assert!(String::from_utf8_lossy(&cold.stdout).contains("\"cache_hit\":false"));

    let warm = silp().args(args).output().unwrap();
    assert!(warm.status.success());
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(
        !stdout.contains("\"cache_hit\":false"),
        "all inputs must hit"
    );
    assert!(stdout.contains("\"cache_hit\":true"));
    // Under --json the stats land on stderr as one wire-format JSON line:
    // the engine's view counters plus the store's namespaces.
    let stderr = stderr_of(&warm);
    assert!(stderr.contains("\"type\":\"stats\""), "{stderr}");
    assert!(stderr.contains("\"store\":{"), "{stderr}");
    assert!(
        stderr.contains("\"capacity\":256,\"stripes\":["),
        "{stderr}"
    );

    daemon.stop();
}

/// The text form of `--stats`: a per-namespace table (entries, hit rates,
/// evictions) under the daemon's connection counters.
#[test]
fn stats_table_renders_namespaces() {
    let daemon = Daemon::launch("stats-table");
    let output = silp()
        .args([
            "--connect",
            daemon.addr.as_str(),
            "--workload",
            "all",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    for namespace in ["programs", "walks", "products"] {
        assert!(
            stderr.contains(&format!("\n  {namespace} ")),
            "no {namespace} row in:\n{stderr}"
        );
    }
    assert!(!stderr.contains("\n  summaries "), "{stderr}");
    assert!(
        stderr.contains("\n  namespace  entries/cap  hit rate    hits  misses  evict\n"),
        "{stderr}"
    );
    // The daemon's own counters render above the namespace table.
    assert!(stderr.contains("server: threaded"), "{stderr}");
    assert!(stderr.contains("accepted"), "{stderr}");
    daemon.stop();
}

/// The store has one eviction rule and one stripe count, the daemon one
/// server and one engine in one configuration, and memory-only is what a
/// daemon without `--data-dir` is, so the flags that used to choose others
/// are gone: each fails like any unknown flag (exit
/// status 1, the error, then the usage text) and neither `--help` lists it.
#[test]
fn retired_eviction_flags_are_unknown_flags() {
    let sild_flags: &[&[&str]] = &[
        &["--lfu"],
        &["--lru"],
        &["--adapt-window", "64"],
        &["--adapt-threshold", "4"],
        &["--stripes", "8"],
        &["--async"],
        &["--workers", "2"],
        &["--no-incremental"],
        &["--no-parallel"],
        &["--shards", "4"],
        &["--no-durable"],
    ];
    let silp_flags: &[&[&str]] = &[&["--lfu"], &["--lru"]];
    for (binary, valid, retired) in [
        (
            sild as fn() -> Command,
            ["--listen", "unix:/tmp/never-bound.sock"],
            sild_flags,
        ),
        (silp, ["--workload", "tree_sum"], silp_flags),
    ] {
        let help = binary().arg("--help").output().unwrap();
        assert!(help.status.success());
        let help = String::from_utf8_lossy(&help.stdout).to_lowercase();
        for word in ["lfu", "adaptive", "epoll"] {
            assert!(!help.contains(word), "--help still mentions {word}");
        }
        for args in retired {
            let flag = args[0];
            assert!(!help.contains(flag), "--help still lists {flag}");
            let output = binary().args(valid).args(*args).output().unwrap();
            assert_eq!(output.status.code(), Some(1), "{flag}");
            let stderr = stderr_of(&output);
            assert!(
                stderr.contains(&format!("unknown option {flag}")),
                "{flag}: {stderr}"
            );
            assert!(stderr.contains("usage: sil"), "{flag}: {stderr}");
        }
    }
}

/// A `sild` flag that means nothing without another is rejected with an
/// error that names both flags, instead of being silently ignored; a count
/// that is zero or not a number is rejected with the flag's name.
#[test]
fn sild_rejects_contradictory_flag_pairs_and_bad_counts() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--gossip-interval", "500"],
            "--gossip-interval needs at least one --peer",
        ),
        (&["--slow-us", "0"], "--slow-us must be at least 1"),
        (&["--slow-us", "many"], "--slow-us must be an integer"),
    ];
    for (bad, want) in cases {
        let output = sild()
            .args(["--listen", "unix:/tmp/never-bound.sock"])
            .args(*bad)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{bad:?} must be rejected");
        let stderr = stderr_of(&output);
        assert!(stderr.contains(want), "{bad:?}: {stderr}");
    }
}

/// `silp --timeout` is validated: it needs `--connect`, a sane value, and
/// it travels to the transport (a dead address still fails cleanly).
#[test]
fn silp_timeout_flag_is_validated() {
    let output = silp()
        .args(["--timeout", "100", "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("--timeout only makes sense with --connect"),
        "{}",
        stderr_of(&output)
    );

    let output = silp()
        .args([
            "--connect",
            "unix:/tmp/definitely-not-a-sild.sock",
            "--timeout",
            "0",
            "--workload",
            "tree_sum",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("--timeout must be at least 1"),
        "{}",
        stderr_of(&output)
    );

    let output = silp()
        .args([
            "--connect",
            "unix:/tmp/definitely-not-a-sild.sock",
            "--timeout",
            "100",
            "--workload",
            "tree_sum",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("cannot reach daemon"),
        "{}",
        stderr_of(&output)
    );
}

#[test]
fn connect_to_nothing_fails_cleanly() {
    let output = silp()
        .args([
            "--connect",
            "unix:/tmp/definitely-not-a-sild.sock",
            "--workload",
            "tree_sum",
        ])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("cannot reach daemon"),
        "{}",
        stderr_of(&output)
    );
}

/// Frontend errors travel the wire and render exactly like in-process
/// errors (same stderr line, same JSON error object, same exit status).
#[test]
fn remote_errors_render_like_local_errors() {
    let daemon = Daemon::launch("errors");
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("silp-bad-{}.sil", std::process::id()));
    std::fs::write(&bad, "program broken (").unwrap();
    let bad_path = bad.to_str().unwrap();

    let remote = silp()
        .args(["--connect", &daemon.addr, "--json", bad_path])
        .output()
        .unwrap();
    let local = silp().args(["--json", bad_path]).output().unwrap();
    assert!(!remote.status.success());
    assert!(!local.status.success());
    assert_eq!(remote.stdout, local.stdout, "error JSON must match");
    assert!(String::from_utf8_lossy(&remote.stdout).contains("\"error\":\"frontend:"));

    let _ = std::fs::remove_file(&bad);
    daemon.stop();
}

/// A real `sild` still answers a protocol v2 `stats` line with every member
/// a v2 client decodes as required, the retired `summaries` namespace
/// included, as zeros: the frozen benchmark reads `total.summaries.*`, and
/// older clients decode `store.summaries` whole.
#[test]
fn a_live_daemon_still_speaks_v2_stats() {
    use sil_engine::service::json::Json;
    use std::io::{BufRead, BufReader, Write};

    let daemon = Daemon::launch("v2-stats");
    let output = silp()
        .args(["--connect", daemon.addr.as_str(), "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));

    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.sock).unwrap();
    stream
        .write_all(b"{\"protocol_version\":2,\"type\":\"stats\"}\n")
        .unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    let stats = Json::parse(line.trim_end()).unwrap();
    assert_eq!(stats.get("type").and_then(Json::as_str), Some("stats"));
    let count = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |json, key| json.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats reply lacks {path:?}: {line}"))
    };
    // The members the benchmark's counter read requires.
    for namespace in ["programs", "summaries", "walks"] {
        count(&["total", namespace, "hits"]);
        count(&["total", namespace, "misses"]);
    }
    for member in ["evictions", "hits", "misses"] {
        count(&["store", "programs", "totals", member]);
    }
    assert!(count(&["total", "programs", "misses"]) > 0, "{line}");
    assert!(count(&["store", "walks", "entries"]) > 0, "{line}");
    // The retired namespace: present, and zero.
    for member in ["hits", "misses", "insertions", "evictions"] {
        assert_eq!(count(&["total", "summaries", member]), 0, "{line}");
        assert_eq!(count(&["store", "summaries", "totals", member]), 0);
    }
    assert_eq!(count(&["store", "summaries", "entries"]), 0);
    assert_eq!(count(&["store", "summaries", "capacity"]), 0);
    drop(stream);
    daemon.stop();
}

/// A namespace nobody has looked up yet renders a real `0.0%` hit rate,
/// not the old `-` placeholder (a single run finds no walk records, so its
/// walks row is guaranteed cold).
#[test]
fn cold_namespaces_report_a_zero_hit_rate() {
    let output = silp()
        .args(["--workload", "tree_sum", "--stats"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    let walks_row = stderr
        .lines()
        .find(|line| line.trim_start().starts_with("walks"))
        .unwrap_or_else(|| panic!("no walks namespace row in:\n{stderr}"));
    assert!(walks_row.contains("0.0%"), "{walks_row}");
    assert!(
        !stderr.contains("    -"),
        "placeholder hit rates must be gone:\n{stderr}"
    );
}

/// The deterministic rows of a `--metrics` table (engine/store counters
/// and gauges) survive the wire round-trip byte-identically: the same
/// workload against a daemon renders the same lines as in process, and the
/// daemon additionally splices in its own `server.*` namespace.
#[test]
fn metrics_round_trip_matches_in_process() {
    let daemon = Daemon::launch("metrics");
    let remote = silp()
        .args([
            "--connect",
            daemon.addr.as_str(),
            "--workload",
            "tree_sum",
            "--metrics",
        ])
        .output()
        .unwrap();
    let local = silp()
        .args(["--in-process", "--workload", "tree_sum", "--metrics"])
        .output()
        .unwrap();
    assert!(remote.status.success(), "{}", stderr_of(&remote));
    assert!(local.status.success(), "{}", stderr_of(&local));

    // Timing histograms are nondeterministic; every counter and gauge row
    // in the engine/store namespaces is not, and must cross the wire
    // byte-for-byte.
    let deterministic = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|line| {
                let name = line.trim_start();
                (name.starts_with("engine.") || name.starts_with("store.")) && !name.contains("_us")
            })
            .map(str::to_string)
            .collect()
    };
    let remote_rows = deterministic(&stderr_of(&remote));
    let local_rows = deterministic(&stderr_of(&local));
    assert!(!remote_rows.is_empty());
    assert_eq!(remote_rows, local_rows, "wire round-trip must be lossless");
    for counter in ["hits", "misses", "insertions", "evictions"] {
        let name = format!("store.products.{counter}");
        assert!(
            remote_rows.iter().any(|row| row.contains(&name)),
            "no {name} row in {remote_rows:?}"
        );
    }

    // Each of the table's two sections (counters and gauges, then
    // histograms — here the one that is no timing, `fixpoint_rounds`) is
    // rendered in sorted name order, so any filtered subsequence of one
    // must already be sorted — byte-stable output.
    let (scalars, histograms): (Vec<&String>, Vec<&String>) = remote_rows
        .iter()
        .partition(|row| row.split_whitespace().count() == 2);
    assert_eq!(histograms.len(), 1, "{histograms:?}");
    assert!(histograms[0].contains("engine.fixpoint_rounds"));
    let mut sorted_rows = scalars.clone();
    sorted_rows.sort();
    assert_eq!(scalars, sorted_rows, "metric rows must be name-sorted");

    // Only the daemon has a server layer to report.
    let remote_err = stderr_of(&remote);
    assert!(remote_err.contains("server.accepted"), "{remote_err}");
    assert!(remote_err.contains("server.serve_us"), "{remote_err}");
    assert!(remote_err.contains("server.active"), "{remote_err}");
    assert!(!stderr_of(&local).contains("server."));

    // --json emits the raw wire form of the same response.
    let json = silp()
        .args(["--connect", daemon.addr.as_str(), "--metrics", "--json"])
        .output()
        .unwrap();
    assert!(json.status.success(), "{}", stderr_of(&json));
    let line = stderr_of(&json);
    assert!(line.contains("\"type\":\"metrics\""), "{line}");
    assert!(line.contains("\"server.accepted\""), "{line}");
    daemon.stop();
}

/// `--metrics` reports the path-matrix representation gauges: the interner
/// population and the high-water single-matrix footprint.  After analyzing
/// any real workload both are non-trivial.
#[test]
fn metrics_include_analysis_representation_gauges() {
    let output = silp()
        .args(["--in-process", "--workload", "tree_sum", "--metrics"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    let gauge = |name: &str| -> i64 {
        stderr
            .lines()
            .find(|line| line.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no {name} row in:\n{stderr}"))
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparseable {name} row in:\n{stderr}"))
    };
    assert!(gauge("analysis.interned_symbols") > 0, "{stderr}");
    assert!(gauge("analysis.matrix_bytes") > 0, "{stderr}");
}

/// `--trace-dump` prints the daemon's retained spans as ndjson: the
/// server's own parse/encode spans interleaved with the engine's, all
/// attributed to minted request ids.
#[test]
fn trace_dump_emits_ndjson_spans() {
    let daemon = Daemon::launch("trace");
    let warmup = silp()
        .args(["--connect", daemon.addr.as_str(), "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(warmup.status.success(), "{}", stderr_of(&warmup));

    let output = silp()
        .args(["--connect", daemon.addr.as_str(), "--trace-dump"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(!stdout.is_empty(), "a served request must leave spans");
    for line in stdout.lines() {
        assert!(
            line.starts_with("{\"request\":") && line.contains("\"duration_us\":"),
            "not an ndjson span: {line}"
        );
    }
    for span in [
        "\"span\":\"parse\"",
        "\"span\":\"fixpoint\"",
        "\"span\":\"encode\"",
    ] {
        assert!(stdout.contains(span), "missing {span} in:\n{stdout}");
    }
    daemon.stop();
}

/// The tracer's health counters ride every `--metrics` table: the ring's
/// overflow count and the slow-capture count are visible whether the
/// service is in-process or a daemon.
#[test]
fn metrics_include_trace_health_counters() {
    let output = silp()
        .args(["--metrics", "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("trace.dropped_spans"), "{stderr}");
    assert!(stderr.contains("trace.slow_captures"), "{stderr}");
}

/// `--trace <req>` renders one request's span tree: a header naming the
/// trace, the `serve` root covering the service call, and the engine's
/// spans indented beneath it with per-hop durations.
#[test]
fn silp_trace_renders_an_indented_tree() {
    let daemon = Daemon::launch("tree");
    let warmup = silp()
        .args(["--connect", daemon.addr.as_str(), "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(warmup.status.success(), "{}", stderr_of(&warmup));

    // Pick the request id of the analyze out of the dump — the request
    // whose fixpoint span the engine recorded (the handshake's stats
    // request is served and traced too, but does no analysis).
    let dump = silp()
        .args(["--connect", daemon.addr.as_str(), "--trace-dump"])
        .output()
        .unwrap();
    assert!(dump.status.success(), "{}", stderr_of(&dump));
    let dump = String::from_utf8_lossy(&dump.stdout).to_string();
    let request = dump
        .lines()
        .find(|line| line.contains("\"span\":\"fixpoint\""))
        .and_then(|line| line.strip_prefix("{\"request\":"))
        .and_then(|rest| rest.split(',').next())
        .expect("a fixpoint span in the dump")
        .to_string();

    let output = silp()
        .args(["--connect", daemon.addr.as_str(), "--trace", &request])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        stdout.starts_with("trace "),
        "daemon-served requests are traced:\n{stdout}"
    );
    assert!(stdout.contains(&format!("request {request}")), "{stdout}");
    let indent = |name: &str| {
        stdout
            .lines()
            .find(|line| line.trim_start().starts_with(name))
            .map(|line| line.len() - line.trim_start().len())
            .unwrap_or_else(|| panic!("missing {name} in:\n{stdout}"))
    };
    assert!(
        indent("fixpoint") > indent("serve"),
        "engine spans nest under the serve root:\n{stdout}"
    );
    assert!(stdout.contains("µs"), "per-hop durations render: {stdout}");
    daemon.stop();
}

/// `--top` against a live daemon: with a fast recorder interval, two
/// frames render rates and per-interval quantiles computed as deltas
/// between at least two flight-recorder samples.
#[test]
fn silp_top_renders_live_recorder_deltas() {
    let daemon = Daemon::launch_with("top", &["--recorder-interval", "50"]);
    let warmup = silp()
        .args(["--connect", daemon.addr.as_str(), "--workload", "tree_sum"])
        .output()
        .unwrap();
    assert!(warmup.status.success(), "{}", stderr_of(&warmup));

    let output = silp()
        .args([
            "--connect",
            daemon.addr.as_str(),
            "--top",
            "--refresh",
            "60",
            "--iterations",
            "2",
        ])
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert_eq!(
        stdout.matches("sild top —").count(),
        2,
        "two frames:\n{stdout}"
    );
    assert!(stdout.contains("req/s"), "{stdout}");
    assert!(stdout.contains("serve p99"), "{stdout}");
    assert!(stdout.contains("active conns"), "{stdout}");
    // Every frame names its sample window, proving the frame was computed
    // from at least two recorder samples rather than lifetime totals.
    assert_eq!(stdout.matches("samples, window").count(), 2, "{stdout}");
    daemon.stop();
}

/// `--top` without a daemon is a parse error: only daemons host recorders.
#[test]
fn silp_top_requires_connect() {
    let output = silp().args(["--top"]).output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("--top needs --connect"));
}
