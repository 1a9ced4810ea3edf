//! Soak and fault-injection tests of the daemon's server: many concurrent
//! clients over Unix and TCP sockets, verified against a sequential
//! in-process oracle, plus hostile clients and a mute peer, each of which
//! may cost its own connection and nobody else's.

use sil_engine::service::{ErrorKind, RemoteService, Request, Response, Server, Service};
use sil_engine::{Addr, Engine, PeerConfig, PeerRing, ProcessOptions, ProgramReport, ServerHandle};
use sil_workloads::Workload;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn temp_socket(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sil-server-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A daemon on a temp unix socket, with its engine so a test can reach
/// the store behind it.
fn spawn_daemon(name: &str) -> (Arc<Engine>, ServerHandle, PathBuf) {
    let path = temp_socket(name);
    let engine = Arc::new(Engine::default());
    let server = Server::bind(&Addr::Unix(path.clone()), engine.clone()).unwrap();
    (engine, server.spawn(), path)
}

/// A small but varied request set: a few workloads at small sizes, with
/// one repeated so warm hits occur under concurrency.
fn soak_sources() -> Vec<String> {
    let mut sources: Vec<String> = [
        Workload::TreeSum,
        Workload::ListSum,
        Workload::AddAndReverse,
        Workload::Bisort,
    ]
    .iter()
    .map(|w| w.source(3))
    .collect();
    sources.push(Workload::TreeSum.source(3)); // repeat: a guaranteed warm hit
    sources
}

fn oracle_reports(sources: &[String]) -> Vec<ProgramReport> {
    let oracle = Engine::default();
    sources
        .iter()
        .map(|src| {
            oracle
                .process_source(src, &ProcessOptions::default())
                .unwrap()
        })
        .collect()
}

/// Drive `clients` concurrent connections through the daemon at `addr`,
/// asserting every response digest-matches the oracle.
fn soak(addr: &str, clients: usize) {
    let sources = soak_sources();
    let expected = oracle_reports(&sources);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let addr = &addr;
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let remote =
                    RemoteService::connect_with_timeout(addr, Some(Duration::from_secs(60)))
                        .unwrap();
                for (index, (src, want)) in sources.iter().zip(expected).enumerate() {
                    let got = remote
                        .process_source(src, &ProcessOptions::default())
                        .unwrap();
                    assert_eq!(
                        got.analysis_digest, want.analysis_digest,
                        "client {client} request {index} diverged from the oracle"
                    );
                    assert_eq!(got.fingerprint, want.fingerprint);
                    assert_eq!(got.name, want.name);
                }
            });
        }
    });
}

/// One request line out, one reply line back.
fn exchange(stream: &mut UnixStream, reader: &mut impl BufRead, line: &[u8]) -> Response {
    stream.write_all(line).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Response::decode(reply.trim()).unwrap()
}

/// ≥64 concurrent clients over a Unix socket: every response matches the
/// sequential oracle, the server's connection counters add up, and the
/// socket file is removed on shutdown.
#[test]
fn soak_unix_64_clients_match_oracle() {
    let (_engine, handle, path) = spawn_daemon("soak64");
    let clients = 64;
    soak(&handle.addr().to_string(), clients);

    // Server stats travel in-band and account for every soak connection.
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    let (_, _, server) = remote.service_stats().unwrap();
    let server = server.expect("daemon stats carry server counters");
    assert_eq!(server.kind, "threaded");
    assert!(
        server.accepted >= clients as u64,
        "{} accepted",
        server.accepted
    );
    assert!(server.active >= 1, "this stats connection is active");
    drop(remote);

    handle.shutdown();
    assert!(!path.exists(), "socket file must be cleaned up");
}

/// The same soak over TCP.
#[test]
fn soak_tcp_64_clients_match_oracle() {
    let server = Server::bind(
        &Addr::Tcp("127.0.0.1:0".into()),
        Arc::new(Engine::default()),
    )
    .unwrap();
    let handle = server.spawn();
    soak(&handle.addr().to_string(), 64);
    handle.shutdown();
}

/// Hostile clients: a line that is not UTF-8 is answered in place,
/// partial lines followed by a disconnect tear down only their own
/// connection, a pipelined burst is answered in order, and a clean client
/// still gets oracle-identical answers afterwards.
#[test]
fn faulty_clients_cost_only_their_own_connection() {
    let (_engine, handle, path) = spawn_daemon("faults");

    // 1. Bytes that are not UTF-8: answered with a malformed error like
    //    any other non-JSON line, and the connection still serves a
    //    well-formed request afterwards.
    {
        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match exchange(&mut stream, &mut reader, b"\xff\xfe not utf-8 \xff") {
            Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Malformed),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            exchange(
                &mut stream,
                &mut reader,
                Request::stats().encode().as_bytes()
            ),
            Response::Stats { .. }
        ));
    }

    // 2. Mid-request disconnects: a partial line with no newline, a valid
    //    request followed by an immediate hangup (the response finds the
    //    connection gone), and a bare connect-then-drop.
    for _ in 0..8 {
        let mut stream = UnixStream::connect(&path).unwrap();
        stream.write_all(b"{\"protocol_version\":2,\"ty").unwrap();
        drop(stream);

        let mut stream = UnixStream::connect(&path).unwrap();
        let request = Request::analyze(Workload::TreeSum.source(3)).encode() + "\n";
        stream.write_all(request.as_bytes()).unwrap();
        drop(stream);

        let _ = UnixStream::connect(&path).unwrap();
    }

    // 3. A pipelined burst on one connection: responses come back one per
    //    request, in order.
    {
        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let sources = soak_sources();
        let mut burst = String::new();
        for src in &sources {
            burst.push_str(&Request::process(src, ProcessOptions::default()).encode());
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).unwrap();
        let expected = oracle_reports(&sources);
        for (index, want) in expected.iter().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match Response::decode(line.trim()).unwrap() {
                Response::Report { report, .. } => {
                    assert_eq!(
                        report.analysis_digest, want.analysis_digest,
                        "pipelined slot {index} out of order or wrong"
                    );
                    assert_eq!(report.name, want.name, "slot {index}");
                }
                other => panic!("slot {index}: {other:?}"),
            }
        }
    }

    // 4. After all that, a clean client still matches the oracle.
    soak(&handle.addr().to_string(), 3);
    handle.shutdown();
    assert!(!path.exists(), "socket file must be cleaned up");
}

/// A newline-free flood past the 64 MiB line bound: the daemon stops
/// reading at the bound and closes that connection, instead of buffering
/// whatever arrives, while a second connection is answered throughout.
#[test]
fn an_overlong_line_closes_only_its_own_connection() {
    const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;
    let (_engine, handle, path) = spawn_daemon("flood");
    std::thread::scope(|scope| {
        let flood = scope.spawn(|| {
            let mut stream = UnixStream::connect(&path).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            // One line, 64 KiB past the bound.  The daemon may hang up
            // while this is still writing; that is the point.
            let chunk = vec![b'a'; 64 * 1024];
            for _ in 0..MAX_LINE_BYTES / chunk.len() + 1 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
            // By now the connection is closed: end of stream or a reset,
            // never a daemon still waiting for more.
            match stream.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e)
                    if !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                other => panic!("the flooded connection must be closed, got {other:?}"),
            }
        });
        let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
        while !flood.is_finished() {
            remote.handshake().unwrap();
        }
        remote.handshake().unwrap();
        flood.join().unwrap();
    });
    handle.shutdown();
}

/// A peer that accepts and never answers stalls the requests that miss —
/// each waits out its fetch deadline on its own connection's thread — and
/// nothing else: while four connections sit in that wait, a fifth gets
/// `stats` and a warm `analyze` answered at once.
#[test]
fn a_mute_peer_stalls_only_the_requests_that_miss() {
    let fetch_timeout = Duration::from_secs(1);

    // The mute peer: accept, report each accept, hold the stream open.
    let mute_path = temp_socket("mute-peer");
    let listener = UnixListener::bind(&mute_path).unwrap();
    let (accepted_tx, accepted) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let mute = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                held.push(stream);
                let _ = accepted_tx.send(());
            }
        })
    };

    // Warm one program before the peer is attached, so priming it does
    // not itself wait on the mute peer.
    let (engine, handle, path) = spawn_daemon("mute-daemon");
    let warm = Request::analyze(Workload::TreeSum.source(3)).encode();
    assert!(matches!(
        engine.call(Request::analyze(Workload::TreeSum.source(3))),
        Response::Analyzed { .. }
    ));
    let config = PeerConfig::new(vec![Addr::Unix(mute_path.clone())])
        .with_fetch_timeout(fetch_timeout)
        .with_failure_threshold(u32::MAX);
    let ring = Arc::new(PeerRing::new(config, engine.tracer().clone()));
    engine.store().attach_peers(ring);

    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for size in 4..8 {
            let (path, answered) = (&path, &answered);
            scope.spawn(move || {
                let mut stream = UnixStream::connect(path).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let never_seen = Request::analyze(Workload::ListSum.source(size)).encode();
                let started = Instant::now();
                let reply = exchange(&mut stream, &mut reader, never_seen.as_bytes());
                answered.fetch_add(1, Ordering::SeqCst);
                match reply {
                    Response::Analyzed { summary, .. } => assert!(!summary.cache_hit),
                    other => panic!("a miss behind a mute peer recomputes, got {other:?}"),
                }
                assert!(
                    started.elapsed() >= fetch_timeout,
                    "the miss waited out the peer: {:?}",
                    started.elapsed()
                );
            });
        }
        // Four accepts at the mute peer: every miss is now inside its fetch.
        for _ in 0..4 {
            accepted
                .recv_timeout(Duration::from_secs(30))
                .expect("each miss dials the peer");
        }

        let mut stream = UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for (what, line) in [("stats", Request::stats().encode()), ("analyze", warm)] {
            let started = Instant::now();
            let reply = exchange(&mut stream, &mut reader, line.as_bytes());
            let took = started.elapsed();
            match reply {
                Response::Stats { .. } => {}
                Response::Analyzed { summary, .. } => assert!(summary.cache_hit),
                other => panic!("{what}: {other:?}"),
            }
            assert!(
                took < fetch_timeout / 2,
                "{what} on another connection waited {took:?} behind the mute peer"
            );
        }
        assert_eq!(
            answered.load(Ordering::SeqCst),
            0,
            "both answers arrived while all four misses were still waiting"
        );
    });

    handle.shutdown();
    stop.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&mute_path);
    mute.join().unwrap();
    let _ = std::fs::remove_file(&mute_path);
}
