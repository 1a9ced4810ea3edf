//! `silp` — the SIL pipeline CLI, a thin client of the [`Service`] trait.
//!
//! ```text
//! silp file.sil ...                 analyze + parallelize + verify files
//! silp --workload tree_sum          run a built-in workload
//! silp --workload all --size 5      every workload at size 5
//! silp --execute ...                also execute (work/span report)
//! silp --json ...                   machine-readable JSON array output
//! silp --emit-parallel ...          include the parallelized source
//! silp --no-parallelize ...         analysis only
//! silp --stats ...                  print per-namespace cache statistics
//!                                   at exit
//! silp --metrics ...                print the service's metrics registry
//!                                   (counters, gauges, latency quantiles)
//! silp --trace-dump ...             dump retained trace spans as ndjson
//! silp --connect unix:/tmp/s.sock   send requests to a running sild daemon
//! silp --connect ... --shutdown     ask the daemon to exit
//! ```
//!
//! The same typed requests flow through the same rendering code whether the
//! service is in-process (`--in-process`, the default) or a `sild` daemon
//! (`--connect`), so for a given input set the two modes print identical
//! bytes — the only observable difference is whose caches get warm.
//!
//! Exit status is non-zero when any input fails the frontend, the static
//! verifier reports violations, or the transport drops.

#![forbid(unsafe_code)]

use sil_engine::cli::unknown_flag_error;
use sil_engine::service::{Json, RemoteService, Request, Response, Service, TraceSpan};
use sil_engine::{
    Engine, Namespace, ProcessOptions, ProgramReport, ServerStats, ServiceError, StoreStats,
};
use sil_workloads::Workload;
use silobs::MetricsSnapshot;
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: silp [options] [file.sil ...]

options:
  --workload <name|all>  analyze a built-in workload (repeatable)
  --size <n>             size parameter for workloads (default: each
                         workload's test size)
  --execute              execute on the interpreter, report work/span
  --no-parallelize       stop after the analysis
  --no-verify            skip static verification of the parallel output
  --emit-parallel        include the parallelized source in the report
  --incremental          process inputs one at a time in the given order, so
                         each edit replays the walks of procedures whose
                         call-graph cone an earlier input already showed
                         twice, and print each report's stale/reused counts
  --json                 emit one JSON array instead of text
  --stats                print service cache statistics: per-namespace hit
                         rates and eviction counts (a text table on
                         stderr; one stats JSON line with --json)
  --metrics              print the service's metrics registry — counters,
                         gauges, and latency-histogram quantiles across the
                         engine/store/server namespaces (a text table on
                         stderr; one metrics JSON line with --json); works
                         with no inputs, e.g. to inspect a live daemon
  --trace-dump           dump the service's retained trace spans as ndjson
                         on stdout (one span object per line); works with
                         no inputs
  --trace <req>          render the span tree of request id <req> from the
                         service's trace dump — indented children, per-hop
                         durations, and the recording daemon's origin per
                         span (spans a peer daemon served come back tagged
                         with its address); works with no inputs
  --top                  live console of the daemon's flight recorder:
                         req/s, serve p99, program hit rate, and open
                         connections, from deltas between recorder samples;
                         needs --connect (only a daemon hosts a recorder)
  --refresh <ms>         with --top: redraw interval (default: 1000)
  --iterations <n>       with --top: stop after <n> frames (default: run
                         until interrupted)
  --in-process           serve requests from an in-process engine (default)
  --connect <addr>       send requests to a sild daemon at unix:<path> or
                         tcp:<host:port> instead
  --timeout <ms>         with --connect: fail fast if the daemon does not
                         accept or answer within this many milliseconds
                         (default: wait forever)
  --shutdown             with --connect: ask the daemon to exit
  -h, --help             this message
";

const KNOWN_FLAGS: &[&str] = &[
    "--workload",
    "--size",
    "--execute",
    "--no-parallelize",
    "--no-verify",
    "--emit-parallel",
    "--incremental",
    "--json",
    "--stats",
    "--metrics",
    "--trace-dump",
    "--trace",
    "--top",
    "--refresh",
    "--iterations",
    "--in-process",
    "--connect",
    "--timeout",
    "--shutdown",
    "--help",
];

struct Cli {
    inputs: Vec<(String, String)>, // (label, source)
    options: ProcessOptions,
    json: bool,
    stats: bool,
    metrics: bool,
    trace_dump: bool,
    trace: Option<u64>,
    top: bool,
    refresh: std::time::Duration,
    iterations: u64,
    incremental: bool,
    connect: Option<String>,
    timeout: Option<std::time::Duration>,
    shutdown: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        inputs: Vec::new(),
        options: ProcessOptions::default(),
        json: false,
        stats: false,
        metrics: false,
        trace_dump: false,
        trace: None,
        top: false,
        refresh: std::time::Duration::from_millis(1000),
        iterations: 0,
        incremental: false,
        connect: None,
        timeout: None,
        shutdown: false,
    };
    let mut workloads: Vec<String> = Vec::new();
    let mut size: Option<u32> = None;
    let mut files: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                workloads.push(args.get(i).ok_or("--workload needs a value")?.clone());
            }
            "--size" => {
                i += 1;
                size = Some(
                    args.get(i)
                        .ok_or("--size needs a value")?
                        .parse()
                        .map_err(|_| "--size must be an integer".to_string())?,
                );
            }
            "--execute" => cli.options.execute = true,
            "--no-parallelize" => cli.options.parallelize = false,
            "--no-verify" => cli.options.verify = false,
            "--emit-parallel" => cli.options.emit_parallel_source = true,
            "--incremental" => cli.incremental = true,
            "--json" => cli.json = true,
            "--stats" => cli.stats = true,
            "--metrics" => cli.metrics = true,
            "--trace-dump" => cli.trace_dump = true,
            "--trace" => {
                i += 1;
                cli.trace = Some(
                    args.get(i)
                        .ok_or("--trace needs a request id (see --trace-dump)")?
                        .parse()
                        .map_err(|_| "--trace must be a request id (an integer)".to_string())?,
                );
            }
            "--top" => cli.top = true,
            "--refresh" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--refresh needs a value in milliseconds")?
                    .parse()
                    .map_err(|_| "--refresh must be an integer (milliseconds)".to_string())?;
                if ms == 0 {
                    return Err("--refresh must be at least 1 millisecond".to_string());
                }
                cli.refresh = std::time::Duration::from_millis(ms);
            }
            "--iterations" => {
                i += 1;
                cli.iterations = args
                    .get(i)
                    .ok_or("--iterations needs a value")?
                    .parse()
                    .map_err(|_| "--iterations must be an integer".to_string())?;
            }
            "--in-process" => cli.connect = None,
            "--connect" => {
                i += 1;
                cli.connect = Some(args.get(i).ok_or("--connect needs an address")?.clone());
            }
            "--timeout" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--timeout needs a value in milliseconds")?
                    .parse()
                    .map_err(|_| "--timeout must be an integer (milliseconds)".to_string())?;
                if ms == 0 {
                    return Err("--timeout must be at least 1 millisecond".to_string());
                }
                cli.timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--shutdown" => cli.shutdown = true,
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(unknown_flag_error(flag, KNOWN_FLAGS));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    if cli.shutdown && cli.connect.is_none() {
        return Err("--shutdown only makes sense with --connect".to_string());
    }
    if cli.timeout.is_some() && cli.connect.is_none() {
        return Err("--timeout only makes sense with --connect".to_string());
    }
    if cli.top && cli.connect.is_none() {
        return Err("--top needs --connect: only a daemon hosts a flight recorder".to_string());
    }

    for name in workloads {
        let selected: Vec<Workload> = if name == "all" {
            Workload::ALL.to_vec()
        } else {
            vec![*Workload::ALL
                .iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?]
        };
        for w in selected {
            let n = size.unwrap_or_else(|| w.test_size());
            cli.inputs
                .push((format!("workload:{}@{n}", w.name()), w.source(n)));
        }
    }
    for file in files {
        let src = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
        cli.inputs.push((file, src));
    }
    // Pure observability runs (inspect a live daemon's counters or spans)
    // need no inputs, just like --shutdown.
    if cli.inputs.is_empty()
        && !cli.shutdown
        && !cli.metrics
        && !cli.trace_dump
        && cli.trace.is_none()
        && !cli.top
    {
        return Err("no inputs: pass SIL files or --workload".to_string());
    }
    Ok(cli)
}

/// Build the service the requests go to: a daemon connection or an
/// in-process engine.
fn open_service(cli: &Cli) -> Result<Box<dyn Service>, String> {
    match &cli.connect {
        Some(addr) => {
            let remote = RemoteService::connect_with_timeout(addr, cli.timeout)
                .map_err(|e| format!("cannot reach daemon: {e}"))?;
            remote
                .handshake()
                .map_err(|e| format!("handshake with {addr} failed: {e}"))?;
            Ok(Box::new(remote))
        }
        None => Ok(Box::new(Engine::default())),
    }
}

fn percent(hits: u64, misses: u64) -> String {
    // Zero lookups are a 0.0% hit rate, not a placeholder: every row
    // renders the same 5-character numeric column, so table consumers
    // never special-case cold namespaces.
    let total = hits + misses;
    let rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64 * 100.0
    };
    format!("{rate:>4.1}%")
}

/// The `--stats` text table: the serving daemon's connection counters
/// (when a daemon answered) and the store's per-namespace counters (the
/// engine's own lookup counters are `engine.*` in `--metrics`).
fn render_stats(store: &StoreStats, server: Option<&ServerStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "service:");
    if let Some(server) = server {
        let _ = writeln!(
            out,
            "  server: {} — {} connection{} accepted, {} active, up {}s",
            server.kind,
            server.accepted,
            if server.accepted == 1 { "" } else { "s" },
            server.active,
            server.uptime_ticks,
        );
    }
    let _ = writeln!(
        out,
        "  {:<10} {:>11} {:>9} {:>7} {:>7} {:>6}",
        "namespace", "entries/cap", "hit rate", "hits", "misses", "evict"
    );
    for namespace in Namespace::ALL {
        let ns = store.namespace(namespace);
        let _ = writeln!(
            out,
            "  {:<10} {:>11} {:>9} {:>7} {:>7} {:>6}",
            namespace.name(),
            format!("{}/{}", ns.entries, ns.capacity),
            percent(ns.totals.hits, ns.totals.misses),
            ns.totals.hits,
            ns.totals.misses,
            ns.totals.evictions,
        );
    }
    if let Some(disk) = &store.disk {
        let _ = writeln!(
            out,
            "  {:<10} {:>11} {:>9} {:>7} {:>7} {:>6}  durable ({} seg, {} B live)",
            "disk",
            format!("{}/-", disk.entries),
            percent(disk.hits, disk.misses),
            disk.hits,
            disk.misses,
            disk.evictions,
            disk.segments,
            disk.live_bytes,
        );
    }
    if let Some(peer) = &store.peer {
        // entries/cap shows the advertised remote keys (no local bound);
        // the evict column carries breaker trips, the nearest analogue of
        // "entries this tier gave up on".
        let _ = writeln!(
            out,
            "  {:<10} {:>11} {:>9} {:>7} {:>7} {:>6}  peering ({} peer{}, {} quarantined, {} served)",
            "peer",
            format!("{}/-", peer.known_keys),
            percent(peer.hits, peer.misses),
            peer.hits,
            peer.misses,
            peer.quarantines,
            peer.peers,
            if peer.peers == 1 { "" } else { "s" },
            peer.quarantined,
            peer.serves,
        );
    }
    out
}

/// The `--metrics` text table: every counter and gauge in the service's
/// registry (engine, store, and — through a daemon — server namespaces),
/// then one quantile row per latency histogram.
fn render_metrics(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics: {} counters, {} gauges, {} histograms",
        metrics.counters.len(),
        metrics.gauges.len(),
        metrics.histograms.len(),
    );
    // One globally name-sorted listing of counters and gauges (not "all
    // counters, then all gauges" in whatever order the service spliced
    // them): a daemon and an in-process run then render byte-identical
    // tables for identical registries, and diffs between runs line up.
    let mut scalars: Vec<(&str, String)> = metrics
        .counters
        .iter()
        .map(|(name, value)| (name.as_str(), value.to_string()))
        .chain(
            metrics
                .gauges
                .iter()
                .map(|(name, value)| (name.as_str(), value.to_string())),
        )
        .collect();
    scalars.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (name, value) in scalars {
        let _ = writeln!(out, "  {name:<34} {value:>12}");
    }
    if !metrics.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "p50", "p90", "p99", "p999", "max"
        );
        let mut histograms: Vec<_> = metrics.histograms.iter().collect();
        histograms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in histograms {
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                name, h.count, h.p50, h.p90, h.p99, h.p999, h.max
            );
        }
    }
    out
}

/// The `--trace <req>` tree: every span of the trace that request belongs
/// to (cross-daemon spans included — the daemon adopted them off peer
/// responses), plus the request's untraced framing spans, indented by
/// parentage with per-hop durations and origins.
fn render_trace_tree(spans: &[TraceSpan], request: u64) -> Option<String> {
    // The request's trace id, from any of its traced spans.  0 means the
    // request only has flat (untraced) spans — still renderable.
    let trace = spans
        .iter()
        .find(|s| s.request == request && s.trace != 0)
        .map(|s| s.trace)
        .unwrap_or(0);
    let mut selected: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| (trace != 0 && s.trace == trace) || (s.trace == 0 && s.request == request))
        .collect();
    if selected.is_empty() {
        return None;
    }
    selected.sort_by_key(|s| (s.start_us, s.request));
    let ids: std::collections::HashSet<u64> = selected
        .iter()
        .filter(|s| s.span_id != 0)
        .map(|s| s.span_id)
        .collect();
    let base = selected.iter().map(|s| s.start_us).min().unwrap_or(0);
    let mut out = String::new();
    if trace != 0 {
        let _ = writeln!(
            out,
            "trace {trace:x} — request {request}, {} span{}:",
            selected.len(),
            if selected.len() == 1 { "" } else { "s" },
        );
    } else {
        let _ = writeln!(
            out,
            "request {request} (untraced), {} span{}:",
            selected.len(),
            if selected.len() == 1 { "" } else { "s" },
        );
    }
    // Roots are spans whose parent is unknown here (0, or recorded on a
    // daemon whose ring has since dropped it); children render indented
    // under their parent, each level sorted by start tick.
    fn render(
        out: &mut String,
        selected: &[&TraceSpan],
        span: &TraceSpan,
        base: u64,
        depth: usize,
    ) {
        let _ = writeln!(
            out,
            "  {:indent$}{:<width$} {:>8}µs  @{:>7}µs  {}",
            "",
            span.span,
            span.duration_us(),
            span.start_us.saturating_sub(base),
            span.origin,
            indent = depth * 2,
            width = 24usize.saturating_sub(depth * 2),
        );
        if span.span_id == 0 {
            return;
        }
        for child in selected.iter().filter(|s| s.parent == span.span_id) {
            render(out, selected, child, base, depth + 1);
        }
    }
    for root in selected
        .iter()
        .filter(|s| s.parent == 0 || !ids.contains(&s.parent))
    {
        render(&mut out, &selected, root, base, 0);
    }
    Some(out)
}

/// One `--top` frame from the flight recorder's two newest samples:
/// counter deltas become rates over the sampling window, the newest
/// sample's histograms are already per-interval (the recorder diffs
/// buckets at capture time), gauges read as-is.
fn render_top(addr: &str, samples: &[silobs::HistorySample]) -> String {
    let mut out = String::new();
    let newest = &samples[samples.len() - 1];
    let previous = &samples[samples.len() - 2];
    let window_us = newest.at_us.saturating_sub(previous.at_us).max(1);
    let secs = window_us as f64 / 1_000_000.0;
    let delta = |name: &str| -> u64 {
        newest
            .metrics
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(previous.metrics.counter(name).unwrap_or(0))
    };
    let _ = writeln!(
        out,
        "sild top — {addr} — {} sample{}, window {:.2}s",
        samples.len(),
        if samples.len() == 1 { "" } else { "s" },
        secs,
    );
    let _ = writeln!(
        out,
        "  req/s        {:>10.1}",
        delta("server.requests") as f64 / secs,
    );
    match newest.metrics.histogram("server.serve_us") {
        Some(serve) if serve.count > 0 => {
            let _ = writeln!(
                out,
                "  serve p99    {:>8}µs   (p50 {}µs, max {}µs, {} served)",
                serve.p99, serve.p50, serve.max, serve.count,
            );
        }
        _ => {
            let _ = writeln!(out, "  serve p99            -   (idle this window)");
        }
    }
    let hits = delta("store.programs.hits");
    let lookups = hits + delta("store.programs.misses");
    if lookups > 0 {
        let _ = writeln!(
            out,
            "  hit rate     {:>9.1}%   (programs {hits}/{lookups} this window)",
            hits as f64 / lookups as f64 * 100.0,
        );
    } else {
        let _ = writeln!(out, "  hit rate             -   (no lookups this window)");
    }
    let _ = writeln!(
        out,
        "  active conns {:>10}",
        newest.metrics.gauge("server.active").unwrap_or(0),
    );
    out
}

/// The `--top` loop: poll `metrics_history`, render a frame per refresh
/// interval, clear the screen between frames only on a real terminal.
fn run_top(service: &dyn Service, addr: &str, cli: &Cli) -> ExitCode {
    use std::io::IsTerminal;
    let clear = std::io::stdout().is_terminal();
    let mut frames = 0u64;
    // Two samples bound every rate; a young daemon gets a bounded grace
    // period to record them before we call the recorder dead.
    let mut waits = 0u32;
    loop {
        let samples = match service.service_metrics_history() {
            Ok(samples) => samples,
            Err(error) => {
                eprintln!("silp: metrics history failed: {error}");
                return ExitCode::FAILURE;
            }
        };
        if samples.len() < 2 {
            waits += 1;
            if waits > 200 {
                eprintln!(
                    "silp: flight recorder produced {} sample(s); was the daemon \
                     started with a very long --recorder-interval?",
                    samples.len()
                );
                return ExitCode::FAILURE;
            }
            std::thread::sleep(cli.refresh.min(std::time::Duration::from_millis(100)));
            continue;
        }
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(addr, &samples));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        frames += 1;
        if cli.iterations != 0 && frames >= cli.iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(cli.refresh);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("silp: {message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let service = match open_service(&cli) {
        Ok(service) => service,
        Err(message) => {
            eprintln!("silp: {message}");
            return ExitCode::FAILURE;
        }
    };

    if cli.shutdown {
        return match service.call(Request::shutdown()) {
            Response::ShuttingDown { .. } => {
                eprintln!("silp: daemon is shutting down");
                ExitCode::SUCCESS
            }
            Response::Error { error, .. } => {
                eprintln!("silp: shutdown failed: {error}");
                ExitCode::FAILURE
            }
            other => {
                eprintln!("silp: unexpected shutdown response: {}", other.encode());
                ExitCode::FAILURE
            }
        };
    }

    let sources: Vec<String> = cli.inputs.iter().map(|(_, src)| src.clone()).collect();
    // Incremental mode processes the inputs in their given order, one
    // request at a time: an input is an edit of an earlier one, and must
    // find the earlier cones already retained.  Everything else travels as
    // one batch request.
    let results: Vec<Result<ProgramReport, ServiceError>> = if cli.inputs.is_empty() {
        // A pure observability run (--metrics/--trace-dump, no inputs)
        // sends no analysis traffic at all.
        Vec::new()
    } else if cli.incremental {
        sources
            .iter()
            .map(|src| service.process_source(src, &cli.options))
            .collect()
    } else {
        match service.process_sources(sources, &cli.options) {
            Ok(items) => items,
            Err(error) => {
                eprintln!("silp: batch failed: {error}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut failed = false;
    let mut json_items: Vec<String> = Vec::new();
    for ((label, _), result) in cli.inputs.iter().zip(results) {
        match result {
            Ok(mut report) => {
                // Incremental-reuse counters depend on which service
                // handled the request and how warm it was; only surface
                // them when the run explicitly asked for incremental
                // processing, so in-process and daemon output stay
                // comparable byte for byte.
                if !cli.incremental {
                    report.incremental = None;
                }
                if !report.violations.is_empty() {
                    failed = true;
                }
                if cli.json {
                    json_items.push(report.to_json());
                } else {
                    print!("{}", report.to_text());
                }
            }
            Err(error) => {
                failed = true;
                if cli.json {
                    json_items.push(
                        Json::obj(vec![
                            ("name", Json::Str(label.clone())),
                            ("error", Json::Str(error.to_string())),
                        ])
                        .encode(),
                    );
                } else {
                    eprintln!("{label}: {error}");
                }
            }
        }
    }
    if cli.json {
        println!("[{}]", json_items.join(","));
    }
    if cli.stats {
        if cli.json {
            // The raw wire form of the Stats response: the engine's view
            // counters and the store's per-namespace counters.
            match service.call(Request::stats()) {
                stats @ Response::Stats { .. } => eprintln!("{}", stats.encode()),
                Response::Error { error, .. } => eprintln!("silp: stats failed: {error}"),
                other => eprintln!("silp: unexpected stats response: {}", other.encode()),
            }
        } else {
            match service.service_stats() {
                Ok((_, store, server)) => eprint!("{}", render_stats(&store, server.as_ref())),
                Err(error) => eprintln!("silp: stats failed: {error}"),
            }
        }
    }
    if cli.metrics {
        if cli.json {
            // The raw wire form of the Metrics response: the registry with
            // histogram quantile summaries, `server.*` spliced in by a
            // daemon.
            match service.call(Request::metrics()) {
                metrics @ Response::Metrics { .. } => eprintln!("{}", metrics.encode()),
                Response::Error { error, .. } => eprintln!("silp: metrics failed: {error}"),
                other => eprintln!("silp: unexpected metrics response: {}", other.encode()),
            }
        } else {
            match service.service_metrics() {
                Ok(metrics) => eprint!("{}", render_metrics(&metrics)),
                Err(error) => eprintln!("silp: metrics failed: {error}"),
            }
        }
    }
    if cli.trace_dump {
        match service.service_trace() {
            Ok(spans) => print!("{}", TraceSpan::to_ndjson(&spans)),
            Err(error) => {
                eprintln!("silp: trace dump failed: {error}");
                failed = true;
            }
        }
    }
    if let Some(request) = cli.trace {
        match service.service_trace() {
            Ok(spans) => match render_trace_tree(&spans, request) {
                Some(tree) => print!("{tree}"),
                None => {
                    eprintln!(
                        "silp: no spans retained for request {request} \
                         (--trace-dump lists the ids still in the ring)"
                    );
                    failed = true;
                }
            },
            Err(error) => {
                eprintln!("silp: trace fetch failed: {error}");
                failed = true;
            }
        }
    }
    if cli.top && !failed {
        let addr = cli.connect.as_deref().unwrap_or("in-process");
        return run_top(service.as_ref(), addr, &cli);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
