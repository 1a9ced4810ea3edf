//! Integration tests of the service layer: wire round-trips over generated
//! reports, and a real `sild`-style daemon on a temp socket driven by
//! concurrent clients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sil_engine::service::{
    ErrorKind, Json, RemoteService, Request, Response, Server, Service, PROTOCOL_VERSION,
};
use sil_engine::{Addr, Engine, ExecutionReport, IncrementalReport, ProcessOptions, ProgramReport};
use sil_workloads::Workload;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Round-trip property tests over generated reports
// ---------------------------------------------------------------------------

/// A string that stresses the encoder: control characters (the full
/// U+0000–U+001F range), quotes, backslashes, and multi-byte scalars.
fn nasty_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..16);
    (0..len)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => char::from_u32(rng.gen_range(0u32..0x20)).unwrap(),
            1 => '"',
            2 => '\\',
            3 => '/',
            4 => 'é',
            5 => '\u{2028}',
            6 => '😀',
            _ => char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap(),
        })
        .collect()
}

fn generated_execution(rng: &mut StdRng) -> ExecutionReport {
    let work = rng.gen_range(1u64..1_000_000);
    let span = rng.gen_range(1u64..work + 1);
    ExecutionReport {
        work,
        span,
        parallelism: work as f64 / span as f64,
        allocated_nodes: rng.gen_range(0usize..10_000),
    }
}

fn generated_report(rng: &mut StdRng) -> ProgramReport {
    ProgramReport {
        name: nasty_string(rng),
        fingerprint: rng.gen_u64(),
        cache_hit: rng.gen_bool(0.5),
        structure: ["TREE", "DAG", "CYCLE", "UNKNOWN"][rng.gen_range(0usize..4)].to_string(),
        preserves_tree: rng.gen_bool(0.5),
        warnings: (0..rng.gen_range(0usize..4))
            .map(|_| nasty_string(rng))
            .collect(),
        rounds: rng.gen_range(0usize..50),
        analysis_digest: rng.gen_u64(),
        incremental: rng.gen_bool(0.5).then(|| IncrementalReport {
            procedures_reused: rng.gen_range(0usize..100),
            procedures_stale: rng.gen_range(0usize..100),
            walks_performed: rng.gen_range(0usize..1000),
            walks_reused: rng.gen_range(0usize..1000),
        }),
        transforms: rng.gen_bool(0.5).then(|| rng.gen_range(0usize..40)),
        violations: (0..rng.gen_range(0usize..3))
            .map(|_| nasty_string(rng))
            .collect(),
        parallel_source: rng.gen_bool(0.3).then(|| nasty_string(rng)),
        sequential_execution: rng.gen_bool(0.5).then(|| generated_execution(rng)),
        parallel_execution: rng.gen_bool(0.5).then(|| generated_execution(rng)),
    }
}

/// encode → parse → encode is the identity on 300 generated reports, and
/// the parsed value equals the original field for field.  The streaming
/// encoder also writes exactly what the tree serializer writes for the
/// document it produced.
#[test]
fn generated_reports_round_trip_exactly() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = generated_report(&mut rng);
        let json = report.to_json();
        assert!(
            !json.bytes().any(|b| b < 0x20),
            "seed {seed}: control byte leaked into the encoding: {json:?}"
        );
        let decoded =
            ProgramReport::from_json(&json).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{json}"));
        assert_eq!(decoded, report, "seed {seed}");
        assert_eq!(decoded.to_json(), json, "seed {seed}: re-encode diverged");
        let tree = Json::parse(&json).unwrap();
        assert_eq!(
            tree.encode(),
            json,
            "seed {seed}: the tree serializer disagrees"
        );
    }
}

/// The same property through the full wire envelope: a `Response::Report`
/// line decodes back to an identical response, and re-encodes identically.
#[test]
fn generated_reports_round_trip_through_the_wire_envelope() {
    for seed in 300..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = Response::report(generated_report(&mut rng));
        let line = response.encode();
        assert!(!line.contains('\n'), "seed {seed}: framing would break");
        let decoded = Response::decode(&line).unwrap();
        assert_eq!(decoded, response, "seed {seed}");
        assert_eq!(decoded.encode(), line, "seed {seed}");
    }
}

/// Real reports (every workload, execution on) round-trip too — not just
/// synthetic ones.
#[test]
fn workload_reports_round_trip_exactly() {
    let engine = Engine::default();
    let options = ProcessOptions {
        execute: true,
        emit_parallel_source: true,
        ..ProcessOptions::default()
    };
    for workload in Workload::ALL {
        let src = workload.source(workload.test_size());
        let report = engine.process(&src, &options).unwrap();
        let json = report.to_json();
        let decoded = ProgramReport::from_json(&json).unwrap();
        assert_eq!(decoded, report, "{}", workload.name());
        assert_eq!(decoded.to_json(), json, "{}", workload.name());
    }
}

// ---------------------------------------------------------------------------
// Daemon tests: a real server on a temp socket
// ---------------------------------------------------------------------------

fn temp_socket(name: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("sild-test-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

fn spawn_daemon(name: &str) -> (Arc<Engine>, sil_engine::ServerHandle) {
    let engine = Arc::new(Engine::default());
    let server = Server::bind(&temp_socket(name), engine.clone()).unwrap();
    (engine, server.spawn())
}

/// Three concurrent clients drive cold and warm cycles over every
/// workload; every report matches the in-process oracle digest, and warm
/// requests are served as program-cache hits.
#[test]
fn concurrent_clients_get_oracle_results() {
    let (engine, handle) = spawn_daemon("concurrent");
    let addr = handle.addr().to_string();

    // In-process oracle: digest per workload from a fresh engine.
    let oracle = Engine::default();
    let sources: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.source(w.test_size()))
        .collect();
    let expected: Vec<ProgramReport> = sources
        .iter()
        .map(|src| {
            oracle
                .process_source(src, &ProcessOptions::default())
                .unwrap()
        })
        .collect();

    let rounds = 2; // first round cold, second warm
    std::thread::scope(|scope| {
        for client in 0..3 {
            let addr = &addr;
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let remote = RemoteService::connect(addr).unwrap();
                remote.handshake().unwrap();
                for round in 0..rounds {
                    for (src, want) in sources.iter().zip(expected) {
                        let got = remote
                            .process_source(src, &ProcessOptions::default())
                            .unwrap();
                        assert_eq!(
                            got.analysis_digest, want.analysis_digest,
                            "client {client} round {round}: daemon diverged from in-process"
                        );
                        assert_eq!(got.fingerprint, want.fingerprint);
                        assert_eq!(got.name, want.name);
                        assert_eq!(got.transforms, want.transforms);
                    }
                }
            });
        }
    });

    // Warm behavior: repeats hit.  Concurrent cold clients may race a
    // program's very first analysis (each of the 3 clients can miss it once
    // before the first insert lands), so misses are bounded per client, not
    // globally unique — but every request after the cold window must be a
    // hit.
    let clients = 3u64;
    let client_requests = clients * rounds * sources.len() as u64;
    let sil_engine::CacheStats { hits, misses, .. } = engine.stats().programs;
    assert_eq!(hits + misses, client_requests);
    assert!(
        (sources.len() as u64..=clients * sources.len() as u64).contains(&misses),
        "misses confined to the cold window: {misses}"
    );
    assert!(hits >= client_requests - clients * sources.len() as u64);
    // Each program cached exactly once, however many clients touched it.
    assert_eq!(engine.store_stats().programs.entries, sources.len());

    handle.shutdown();
}

/// The warm daemon serves a repeated request with a program-cache hit that
/// is visible in the `Stats` response (the acceptance criterion).
#[test]
fn warm_daemon_hit_is_visible_in_stats_response() {
    let (_engine, handle) = spawn_daemon("warmstats");
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    let src = Workload::AddAndReverse.source(4);

    let cold = remote
        .process_source(&src, &ProcessOptions::default())
        .unwrap();
    assert!(!cold.cache_hit);
    let warm = remote
        .process_source(&src, &ProcessOptions::default())
        .unwrap();
    assert!(warm.cache_hit, "repeat must be served from the cache");
    assert_eq!(warm.analysis_digest, cold.analysis_digest);

    let (total, store, server) = remote.service_stats().unwrap();
    assert_eq!(total.programs.hits, 1, "the warm hit shows in Stats");
    assert_eq!(total.programs.misses, 1);
    // The store's own counters travel too, with residency and the live
    // policy choice per namespace.
    assert_eq!(store.programs.entries, 1);
    assert_eq!(store.programs.totals.hits, 1);
    assert!(store.programs.capacity > 0);
    // The daemon decorates Stats with its own connection counters.
    let server = server.expect("a daemon must attach server stats");
    assert_eq!(server.kind, "threaded");
    assert_eq!(server.accepted, 1);
    assert_eq!(server.active, 1);

    // On the wire the view counters ride twice: as `total`, and as the one
    // element of the `shards` array that older clients require.
    let reply = remote.call(Request::stats());
    let Response::Stats { shards, total, .. } = &reply else {
        panic!("{reply:?}");
    };
    assert_eq!(shards, &vec![*total]);

    // A daemon that hosted four engines sent four elements; such a line
    // still decodes, with the total it states.
    let line = reply.encode();
    let (head, rest) = line.split_once("\"shards\":[").unwrap();
    let (view, tail) = rest.split_once("],\"total\":").unwrap();
    let older = format!("{head}\"shards\":[{view},{view},{view},{view}],\"total\":{tail}");
    match Response::decode(&older).unwrap() {
        Response::Stats {
            shards: four,
            total: stated,
            ..
        } => {
            assert_eq!(four, vec![*total; 4]);
            assert_eq!(stated, *total);
        }
        other => panic!("{other:?}"),
    }

    handle.shutdown();
}

/// Version negotiation: a request speaking an unsupported version gets a
/// protocol error naming the supported version, and the daemon keeps
/// serving current-version requests on the same connection.
#[test]
fn protocol_version_mismatch_negotiation() {
    let (_engine, handle) = spawn_daemon("version");
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();

    match remote.call(Request::stats().with_version(99)) {
        Response::Error { error, version } => {
            assert_eq!(error.kind, ErrorKind::Protocol);
            assert_eq!(version, PROTOCOL_VERSION, "the error names what we speak");
            assert!(error.message.contains("99"), "{}", error.message);
            assert!(
                error.message.contains(&PROTOCOL_VERSION.to_string()),
                "{}",
                error.message
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }

    // A wrong-version shutdown must NOT stop the daemon…
    match remote.call(Request::shutdown().with_version(0)) {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Protocol),
        other => panic!("{other:?}"),
    }
    // …and the connection still serves the supported version.
    assert!(remote.handshake().is_ok());
    let (total, _, _) = remote.service_stats().unwrap();
    assert_eq!(total.programs.misses, 0);

    handle.shutdown();
}

/// Malformed lines get a malformed-error response without poisoning the
/// connection.
#[test]
fn malformed_lines_are_answered_not_fatal() {
    use std::io::{BufRead, BufReader, Write};
    let (_engine, handle) = spawn_daemon("malformed");
    let Addr::Unix(path) = handle.addr().clone() else {
        panic!("expected a unix socket");
    };
    let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    stream.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim()).unwrap() {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Malformed),
        other => panic!("{other:?}"),
    }

    // The same connection still answers a well-formed request.
    stream
        .write_all((Request::stats().encode() + "\n").as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim()).unwrap(),
        Response::Stats { .. }
    ));

    handle.shutdown();
}

/// Regression test for the parser nesting-depth cap: a hostile line of
/// thousands of `[` characters used to overflow the recursive-descent
/// parser's stack and kill the daemon.  It must now come back as an
/// ordinary malformed-error response, and the connection must survive.
#[test]
fn hostile_deep_nesting_is_a_parse_error_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    let (_engine, handle) = spawn_daemon("deep-nesting");
    let Addr::Unix(path) = handle.addr().clone() else {
        panic!("expected a unix socket");
    };
    let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Well past the ~128 depth cap, far short of what blows the stack.
    let mut hostile = "[".repeat(4096);
    hostile.push('\n');
    stream.write_all(hostile.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim()).unwrap() {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Malformed),
        other => panic!("{other:?}"),
    }

    // Mixed nesting is capped too, and the connection still works after.
    let mut mixed = "[{\"a\":".repeat(2048);
    mixed.push('\n');
    stream.write_all(mixed.as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim()).unwrap(),
        Response::Error { .. }
    ));

    stream
        .write_all((Request::stats().encode() + "\n").as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim()).unwrap(),
        Response::Stats { .. }
    ));

    handle.shutdown();
}

/// A client-sent shutdown request stops the accept loop and removes the
/// socket file.
#[test]
fn client_shutdown_request_stops_the_daemon() {
    let (_engine, handle) = spawn_daemon("shutdown");
    let addr = handle.addr().clone();
    let remote = RemoteService::connect(&addr.to_string()).unwrap();
    match remote.call(Request::shutdown()) {
        Response::ShuttingDown { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("{other:?}"),
    }
    // The accept loop exits on its own (join would hang otherwise)…
    let thread = std::thread::spawn(move || handle.shutdown());
    thread.join().unwrap();
    // …and the socket file is gone.
    let Addr::Unix(path) = addr else {
        unreachable!()
    };
    assert!(!path.exists(), "socket file must be cleaned up");
}

/// The TCP transport serves the same protocol (port 0 → kernel-assigned).
#[test]
fn tcp_transport_works_end_to_end() {
    let server = Server::bind(
        &Addr::Tcp("127.0.0.1:0".into()),
        Arc::new(Engine::default()),
    )
    .unwrap();
    let handle = server.spawn();
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    remote.handshake().unwrap();

    let src = Workload::ListSum.source(4);
    let report = remote
        .process_source(&src, &ProcessOptions::default())
        .unwrap();
    let oracle = Engine::default()
        .process(&src, &ProcessOptions::default())
        .unwrap();
    assert_eq!(report.analysis_digest, oracle.analysis_digest);

    handle.shutdown();
}

/// A batch request through the daemon matches per-source requests and
/// keeps input order, including error slots for broken sources.
#[test]
fn daemon_batches_keep_order_and_carry_per_item_errors() {
    let (_engine, handle) = spawn_daemon("batch");
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();

    let mut sources: Vec<String> = Workload::ALL
        .iter()
        .take(4)
        .map(|w| w.source(w.test_size()))
        .collect();
    sources.insert(2, "program broken(".to_string());

    let items = remote
        .process_sources(sources.clone(), &ProcessOptions::default())
        .unwrap();
    assert_eq!(items.len(), sources.len());
    for (index, (src, item)) in sources.iter().zip(&items).enumerate() {
        if index == 2 {
            let error = item.as_ref().unwrap_err();
            assert_eq!(error.kind, ErrorKind::Frontend, "{error}");
        } else {
            let report = item.as_ref().unwrap();
            let oracle = Engine::default()
                .process(src, &ProcessOptions::default())
                .unwrap();
            assert_eq!(
                report.analysis_digest, oracle.analysis_digest,
                "slot {index}"
            );
        }
    }

    handle.shutdown();
}

/// A daemon that accepts but never answers must not hang a client that
/// asked for a timeout: the read fails fast with a transport error naming
/// the timeout, while an untimed control connection would block forever.
#[test]
fn remote_timeout_fails_fast_against_a_mute_daemon() {
    use std::time::{Duration, Instant};

    // A "daemon" that accepts connections and then ignores them.
    let Addr::Unix(path) = temp_socket("mute") else {
        unreachable!()
    };
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let mute = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            held.push(stream); // keep the connection open, never respond
            if held.len() >= 2 {
                break;
            }
        }
        std::thread::sleep(Duration::from_secs(2));
    });

    let remote = RemoteService::connect_with_timeout(
        &format!("unix:{}", path.display()),
        Some(Duration::from_millis(100)),
    )
    .unwrap();
    let started = Instant::now();
    let error = remote
        .process_source("program p main() {}", &ProcessOptions::default())
        .unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(error.kind, ErrorKind::Transport, "{error}");
    assert!(
        error.message.contains("timed out after 100ms"),
        "{}",
        error.message
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "must fail fast, took {elapsed:?}"
    );

    // The connection is poisoned after the timeout: a late response could
    // otherwise be mistaken for the next request's answer, so further
    // exchanges fail fast instead.
    let error = remote
        .process_source("program p main() {}", &ProcessOptions::default())
        .unwrap_err();
    assert_eq!(error.kind, ErrorKind::Transport);
    assert!(
        error
            .message
            .contains("broken after a previous transport failure"),
        "{}",
        error.message
    );

    // Unblock the mute daemon's accept loop and clean up.
    let _ = std::os::unix::net::UnixStream::connect(&path);
    mute.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The timeout guards TCP exchanges too: a TCP daemon that accepts and
/// then goes mute fails the client's read within the budget.
#[test]
fn remote_tcp_timeout_fails_fast() {
    use std::time::{Duration, Instant};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mute = std::thread::spawn(move || {
        let held: Vec<_> = listener.incoming().take(1).collect();
        std::thread::sleep(Duration::from_millis(500));
        drop(held);
    });

    let remote = RemoteService::connect_with_timeout(
        &format!("tcp:{addr}"),
        Some(Duration::from_millis(100)),
    )
    .unwrap();
    let started = Instant::now();
    let error = remote
        .process_source("program p main() {}", &ProcessOptions::default())
        .unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(error.kind, ErrorKind::Transport, "{error}");
    assert!(
        error.message.contains("timed out after 100ms"),
        "{}",
        error.message
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "must fail fast, took {elapsed:?}"
    );
    mute.join().unwrap();
}

/// `ClearCaches` over the wire empties the store.
#[test]
fn clear_caches_over_the_wire() {
    let (engine, handle) = spawn_daemon("clear");
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    for workload in [Workload::TreeSum, Workload::Bisort, Workload::ListReverse] {
        remote
            .process_source(&workload.source(3), &ProcessOptions::default())
            .unwrap();
    }
    assert_eq!(engine.store_stats().programs.entries, 3);
    assert!(matches!(
        remote.call(Request::clear_caches()),
        Response::Cleared { .. }
    ));
    assert_eq!(engine.store_stats().programs.entries, 0);
    handle.shutdown();
}

/// The spans of the most recent request a service answered.
fn last_request_spans(service: &Engine) -> Vec<sil_engine::service::TraceSpan> {
    let spans = service.service_trace().unwrap();
    let last = spans.iter().map(|s| s.request).max().expect("no spans");
    spans.into_iter().filter(|s| s.request == last).collect()
}

fn count(spans: &[sil_engine::service::TraceSpan], name: &str) -> usize {
    spans.iter().filter(|s| s.span == name).count()
}

/// The first sighting of a text runs the front end once; every exact
/// repeat — `analyze` or `process` — runs it not at all, only the source
/// memo and the program lookup, and a product hit re-parses nothing.
#[test]
fn warm_requests_parse_once() {
    let service = Engine::default();
    let src = Workload::Bisort.source(5);
    let mut first_sighting = true;
    for request in [
        Request::analyze(src.clone()),
        Request::process(&src, ProcessOptions::default()),
    ] {
        for warm in [false, true] {
            match service.call(request.clone()) {
                Response::Analyzed { summary, .. } => assert_eq!(summary.cache_hit, warm),
                // The analyze pair above already warmed the program entry.
                Response::Report { report, .. } => assert!(report.cache_hit),
                other => panic!("unexpected: {other:?}"),
            }
            let spans = last_request_spans(&service);
            let parses = usize::from(first_sighting);
            assert_eq!(count(&spans, "parse"), parses, "warm={warm}: {spans:?}");
            assert_eq!(count(&spans, "source-lookup"), 1, "{spans:?}");
            assert_eq!(count(&spans, "store-lookup"), 1, "{spans:?}");
            first_sighting = false;
        }
        let spans = last_request_spans(&service);
        for absent in ["fixpoint", "pack", "pretty", "reparse", "verify"] {
            assert_eq!(count(&spans, absent), 0, "warm request ran {absent}");
        }
    }
    assert_eq!(count(&last_request_spans(&service), "product-lookup"), 1);
}

/// What `process` does past the analysis is visible in the daemon's own
/// trace: a cold request shows the whole derivation and its `serve` span
/// is accounted for by its children; a warm exact repeat shows the source
/// memo and the product lookup that replaced them, and no `parse`.
#[test]
fn process_spans_explain_the_serve_span() {
    let (_engine, handle) = spawn_daemon("process-spans");
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    let src = Workload::Bisort.source(6);

    // The `serve` span of the latest `process` request (the dump's own
    // `serve` span is newer, and looks nothing up) and everything under it.
    let request_spans = |remote: &RemoteService| {
        let spans = remote.service_trace().unwrap();
        let lookup = spans
            .iter()
            .filter(|s| s.span == "product-lookup")
            .max_by_key(|s| s.start_us)
            .expect("a process request");
        let serve = spans
            .iter()
            .find(|s| s.span_id == lookup.parent)
            .expect("the product lookup happens under a serve span")
            .clone();
        assert_eq!(serve.span, "serve");
        let below: Vec<_> = spans
            .iter()
            .filter(|s| s.trace == serve.trace && s.span_id != serve.span_id)
            .cloned()
            .collect();
        (serve, below)
    };

    let cold = remote
        .process_source(&src, &ProcessOptions::default())
        .unwrap();
    assert!(!cold.cache_hit);
    let (serve, spans) = request_spans(&remote);
    for name in [
        "parse",
        "call-plan",
        "summaries",
        "product-lookup",
        "pack",
        "pretty",
        "reparse",
        "verify",
    ] {
        assert_eq!(count(&spans, name), 1, "{name}: {spans:?}");
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == serve.span_id)
        .map(|s| s.duration_us())
        .sum();
    assert!(
        covered * 10 >= serve.duration_us() * 9,
        "children cover {covered} of {} us: {spans:?}",
        serve.duration_us()
    );

    let warm = remote
        .process_source(&src, &ProcessOptions::default())
        .unwrap();
    assert!(warm.cache_hit);
    let (_, spans) = request_spans(&remote);
    for name in ["source-lookup", "store-lookup", "product-lookup"] {
        assert_eq!(count(&spans, name), 1, "{name}: {spans:?}");
    }
    for name in ["parse", "pack", "pretty", "reparse", "verify", "fixpoint"] {
        assert_eq!(count(&spans, name), 0, "{name}: {spans:?}");
    }

    handle.shutdown();
}
