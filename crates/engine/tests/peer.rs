//! Integration tests of program-cache peering: small clusters of daemons
//! on temp unix sockets gossiping inventories and serving each other's
//! cache misses — plus the failure half (breaker trips, kill -9'd peers,
//! half-open connections, loop prevention).

use sil_engine::service::{
    json, ErrorKind, Json, PeerNamespace, RemoteService, Request, Response, Server, Service,
};
use sil_engine::{Addr, Engine, NamespaceStats, PeerConfig, PeerRing, ServerHandle};
use sil_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_socket(name: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("sil-peer-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

/// A daemon on a temp unix socket, returning its engine too so tests can
/// inspect its store directly.
fn spawn_daemon(name: &str) -> (Arc<Engine>, ServerHandle) {
    let service = Arc::new(Engine::default());
    let server = Server::bind(&temp_socket(name), service.clone()).unwrap();
    (service, server.spawn())
}

/// The program-namespace key of `source`: its content fingerprint.
fn program_key(source: &str) -> u64 {
    let (program, _) = sil_lang::frontend(source).unwrap();
    sil_lang::program_fingerprint(&program)
}

/// A ring with test-friendly timings: fast fetch deadline, no background
/// loop (tests drive gossip explicitly).
fn test_ring(service: &Engine, peers: Vec<Addr>) -> Arc<PeerRing> {
    let config = PeerConfig::new(peers)
        .with_fetch_timeout(Duration::from_millis(500))
        .with_failure_threshold(2)
        .with_quarantine(Duration::from_millis(300));
    let ring = Arc::new(PeerRing::new(config, service.tracer().clone()));
    service.store().attach_peers(ring.clone());
    ring
}

fn analyze(service: &Engine, source: &str) -> sil_engine::service::AnalyzeSummary {
    match service.call(Request::analyze(source)) {
        Response::Analyzed { summary, .. } => summary,
        other => panic!("expected an analyzed response, got {other:?}"),
    }
}

/// The tentpole acceptance path: a cold daemon peered to a warm one serves
/// the warm daemon's programs as peer hits — byte-identical analysis
/// digests, visible `store.peer.hits`, and zero local fixpoint work.
#[test]
fn cold_daemon_serves_peer_hits_without_recomputing() {
    let (warm_service, warm_handle) = spawn_daemon("warm");
    let sources: Vec<String> = Workload::ALL
        .iter()
        .take(3)
        .map(|w| w.source(w.test_size()))
        .collect();
    let warm_digests: Vec<u64> = sources
        .iter()
        .map(|src| analyze(&warm_service, src).analysis_digest)
        .collect();

    let cold_service = Engine::default();
    let ring = test_ring(&cold_service, vec![warm_handle.addr().clone()]);
    ring.gossip_once();
    assert_eq!(
        ring.stats(0, 0).known_keys,
        3,
        "gossip learned the three programs and nothing else"
    );

    for (src, want) in sources.iter().zip(&warm_digests) {
        let summary = analyze(&cold_service, src);
        assert_eq!(
            summary.analysis_digest, *want,
            "peer-served digest must be byte-identical"
        );
        assert!(summary.cache_hit, "a peer fetch serves as a cache hit");
    }
    let stats = cold_service.store().stats().peer.expect("peer stats");
    assert_eq!(stats.hits, 3, "every miss was served by the peer");
    assert_eq!(stats.misses, 0);
    assert!(stats.bytes_in > 0);

    // Zero fixpoint recomputation on the cold daemon: the analysis
    // latency histogram never recorded a sample.
    let metrics = cold_service.service_metrics().unwrap();
    for (name, histogram) in &metrics.histograms {
        if name == "engine.fixpoint_us" {
            assert_eq!(histogram.count, 0, "cold daemon must not recompute");
        }
    }
    // The warm daemon saw and counted the serves.
    let served = warm_service.store().stats().peer.expect("serve stats");
    assert!(served.serves >= 4, "inventory + three fetches");
    assert!(served.bytes_out > 0);

    warm_handle.shutdown();
}

/// A thundering herd on one cone issues one fetch: concurrent misses on
/// the same key elect a single-flight leader and share its result.
#[test]
fn single_flight_collapses_a_thundering_herd() {
    let (warm_service, warm_handle) = spawn_daemon("herd");
    let src = Workload::TreeSum.source(4);
    let want = analyze(&warm_service, &src).analysis_digest;
    let key = program_key(&src);

    let cold_service = Engine::default();
    let ring = test_ring(&cold_service, vec![warm_handle.addr().clone()]);
    ring.gossip_once();

    let threads = 8;
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (ring, barrier) = (&ring, &barrier);
            scope.spawn(move || {
                barrier.wait();
                let entry = ring.fetch_program(key).expect("fetch must hit");
                assert_eq!(entry.analysis.digest(), want);
            });
        }
    });
    let stats = ring.stats(0, 0);
    assert_eq!(stats.misses, 0);
    assert!(
        stats.hits < threads as u64,
        "{} callers must share flights, saw {} fetches",
        threads,
        stats.hits
    );

    warm_handle.shutdown();
}

/// The failure breaker: consecutive transport failures quarantine a dead
/// peer (fetches then skip it without waiting), and a probe after the
/// quarantine window brings a revived peer back.
#[test]
fn breaker_trips_on_a_dead_peer_and_recovers() {
    let addr = temp_socket("breaker");
    let service = Engine::default();
    let ring = test_ring(&service, vec![addr.clone()]);

    // Two gossip rounds against nothing: one failure each, tripping the
    // threshold-2 breaker.
    ring.gossip_once();
    ring.gossip_once();
    let stats = ring.stats(0, 0);
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    assert_eq!(stats.quarantines, 1, "{stats:?}");
    assert_eq!(stats.gossip_rounds, 2);

    // A fetch during quarantine skips the peer entirely — a clean miss,
    // effectively instant (no dial, no deadline wait).
    let started = Instant::now();
    assert!(ring.fetch_program(0xdead_beef).is_none());
    assert!(started.elapsed() < Duration::from_millis(200));
    assert_eq!(ring.stats(0, 0).misses, 1);

    // Revive the peer on the same address, wait out the quarantine, and
    // let the next gossip round double as the probe.
    let revived = Arc::new(Engine::default());
    let src = Workload::ListSum.source(4);
    analyze(&revived, &src);
    let handle = Server::bind(&addr, revived).unwrap().spawn();
    std::thread::sleep(Duration::from_millis(400));
    ring.gossip_once();
    let stats = ring.stats(0, 0);
    assert_eq!(stats.quarantined, 0, "the probe closed the breaker");
    assert!(stats.known_keys > 0, "gossip resumed: {stats:?}");
    assert!(ring.fetch_program(program_key(&src)).is_some());

    handle.shutdown();
}

/// kill -9 a peer daemon mid-cluster: the survivor's fetches fail fast,
/// the breaker quarantines the corpse, and the survivor keeps answering
/// by recomputing.
#[test]
fn survivor_keeps_serving_after_a_peer_is_killed_dash_nine() {
    let sock = std::env::temp_dir().join(format!("sil-peer-{}-kill9.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let addr = format!("unix:{}", sock.display());
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sild"))
        .args(["--listen", &addr, "--quiet"])
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "sild never bound {addr}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Warm the doomed daemon and fetch from it once, proving the ring is
    // genuinely wired up before the kill.
    let warm_src = Workload::TreeSum.source(4);
    let remote = RemoteService::connect(&addr).unwrap();
    let warmed = match remote.call(Request::analyze(&warm_src)) {
        Response::Analyzed { summary, .. } => summary,
        other => panic!("{other:?}"),
    };
    let survivor = Engine::default();
    let ring = test_ring(&survivor, vec![Addr::parse(&addr).unwrap()]);
    ring.gossip_once();
    let summary = analyze(&survivor, &warm_src);
    assert!(summary.cache_hit, "pre-kill fetch must hit the peer");
    assert_eq!(summary.analysis_digest, warmed.analysis_digest);

    // SIGKILL — no clean shutdown, the socket file stays behind.
    child.kill().unwrap();
    child.wait().unwrap();

    // Gossip against the corpse books failures; the survivor still
    // answers a brand-new program by recomputing it locally.
    ring.gossip_once();
    ring.gossip_once();
    assert_eq!(ring.stats(0, 0).quarantined, 1, "corpse quarantined");
    let fresh = Workload::Bisort.source(4);
    let summary = analyze(&survivor, &fresh);
    assert!(!summary.cache_hit, "no peer left: recomputed locally");
    assert_eq!(ring.stats(0, 0).hits, 1, "only the pre-kill fetch hit");

    let _ = std::fs::remove_file(&sock);
}

/// What a program no daemon has seen costs a peered engine: one ask per
/// peer, for the program.  Its SCC summary tables are computed in place —
/// the ring is never asked for one, and the store keeps none.
#[test]
fn a_never_seen_program_costs_one_ask_per_peer() {
    let (warm_service, warm_handle) = spawn_daemon("oneask-warm");
    let (idle_service, idle_handle) = spawn_daemon("oneask-idle");
    analyze(&warm_service, &Workload::TreeSum.source(4));

    let service = Engine::default();
    let ring = test_ring(
        &service,
        vec![warm_handle.addr().clone(), idle_handle.addr().clone()],
    );
    ring.gossip_once();
    let serves = |peer: &Engine| peer.store().stats().peer.expect("it served").serves;
    let before = (serves(&warm_service), serves(&idle_service));

    let summary = analyze(&service, &Workload::ListSum.source(5));
    assert!(!summary.cache_hit, "neither peer holds it");
    let stats = service.store().stats();
    assert!(stats.walks.entries > 0, "its cones were sighted");
    assert_eq!(stats.summaries, NamespaceStats::default(), "no table kept");
    let peer = stats.peer.expect("peer stats");
    assert_eq!((peer.hits, peer.misses), (0, 1), "{peer:?}");
    assert_eq!(serves(&warm_service), before.0 + 1);
    assert_eq!(serves(&idle_service), before.1 + 1);

    warm_handle.shutdown();
    idle_handle.shutdown();
}

/// Summary tables left the peer protocol without moving the wire: the
/// `summaries` list of an inventory is always empty, so a daemon from
/// before PR 23 never asks for one, and a `peer_fetch` for one is answered
/// as an absent key is — even for a cone this daemon has sighted.
#[test]
fn a_summaries_fetch_is_answered_like_an_absent_program() {
    let service = Engine::default();
    analyze(&service, &Workload::TreeSum.source(4));
    let cone = *service
        .store()
        .walks()
        .keys()
        .first()
        .expect("the analysis sighted a cone");

    let inventory = service.call(Request::peer_inventory()).encode();
    assert!(inventory.contains(r#""summaries":[]"#), "{inventory}");
    let table = service.call(Request::peer_fetch(PeerNamespace::Summaries, cone));
    let absent = service.call(Request::peer_fetch(PeerNamespace::Programs, cone));
    assert!(matches!(&table, Response::PeerEntry { body: None, .. }));
    assert_eq!(
        table.encode(),
        absent.encode().replace("programs", "summaries")
    );
}

/// Loop prevention: a daemon answers `peer_fetch` from its own store
/// only.  A cold daemon with a warm peer of its own must answer a miss —
/// never forward the fetch around the ring.
#[test]
fn peer_fetch_is_never_reforwarded() {
    let (warm_service, warm_handle) = spawn_daemon("noloop-warm");
    let src = Workload::TreeSum.source(4);
    analyze(&warm_service, &src);
    let key = program_key(&src);

    // `middle` is cold but *could* fetch the key from `warm` — a
    // peer-originated request must not make it do so.
    let middle = Engine::default();
    let ring = test_ring(&middle, vec![warm_handle.addr().clone()]);
    ring.gossip_once();
    match middle.call(Request::peer_fetch(PeerNamespace::Programs, key)) {
        Response::PeerEntry { body, .. } => {
            assert!(body.is_none(), "a peer fetch must not be re-forwarded");
        }
        other => panic!("{other:?}"),
    }
    let stats = ring.stats(0, 0);
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "the ring stayed idle: {stats:?}"
    );
    // An ordinary client-originated analyze on the same daemon does use
    // the ring — the distinction is who is asking, not what is asked.
    assert!(analyze(&middle, &src).cache_hit);
    assert_eq!(ring.stats(0, 0).hits, 1);

    warm_handle.shutdown();
}

/// A daemon from before peering answers every peer kind as a request type
/// it does not know: a `malformed` error on a live connection.  A fetching
/// ring marks it unsupported — alive, not quarantined, never advertising
/// keys, and never asked again.
#[test]
fn a_daemon_answering_peer_kinds_malformed_is_flagged_unsupported_not_dead() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let Addr::Unix(path) = temp_socket("prepeering") else {
        unreachable!()
    };
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let asked = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // One connection is all it gets: a ring keeps the connection of a
        // peer that answered.  The read timeout bounds the test if not.
        let daemon = scope.spawn(|| {
            let (stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                asked.fetch_add(1, Ordering::SeqCst);
                let kind = line
                    .split(r#""type":""#)
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or("");
                let reply = format!(
                    r#"{{"protocol_version":2,"type":"error","error":{{"kind":"malformed","message":"unknown Request type \"{kind}\""}}}}"#
                );
                if writeln!(writer, "{reply}").is_err() {
                    break;
                }
            }
        });

        let fetcher = Engine::default();
        let ring = test_ring(&fetcher, vec![Addr::Unix(path.clone())]);
        ring.gossip_once();
        ring.gossip_once();
        ring.gossip_once();
        let stats = ring.stats(0, 0);
        assert_eq!(stats.quarantined, 0, "unsupported is not a breaker event");
        assert_eq!(stats.quarantines, 0);
        assert_eq!(stats.known_keys, 0, "nothing advertised");
        let inventories = asked.load(Ordering::SeqCst);
        assert!(inventories >= 1, "gossip reached the daemon");
        // Fetches skip the unsupported peer outright: the daemon is not asked.
        assert!(ring
            .fetch_program(program_key(&Workload::TreeSum.source(4)))
            .is_none());
        assert_eq!(asked.load(Ordering::SeqCst), inventories);

        // Dropping the ring closes its connection, which ends the daemon.
        drop(ring);
        drop(fetcher);
        daemon.join().unwrap();
    });
    let _ = std::fs::remove_file(&path);
}

/// Half-open connections (the satellite): a peer that accepts and then
/// never replies fails the exchange within the configured deadline,
/// naming it — at the raw `RemoteService` level and through the ring.
#[test]
fn half_open_peer_fails_within_the_deadline_naming_it() {
    let Addr::Unix(path) = temp_socket("halfopen") else {
        unreachable!()
    };
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let mute = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            held.push(stream); // accept, never reply
            if held.len() >= 3 {
                break;
            }
        }
    });
    let addr = Addr::Unix(path.clone());

    // Raw exchange: `call` returns a transport error naming the timeout
    // instead of hanging (peer kinds behave like every other kind here).
    let remote =
        RemoteService::connect_with_timeout(&addr.to_string(), Some(Duration::from_millis(100)))
            .unwrap();
    let started = Instant::now();
    match remote.call(Request::peer_inventory()) {
        Response::Error { error, .. } => {
            assert_eq!(error.kind, ErrorKind::Transport, "{error}");
            assert!(
                error.message.contains("timed out after 100ms"),
                "{}",
                error.message
            );
        }
        other => panic!("{other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2), "must fail fast");

    // Through the ring: a fetch against the mute peer comes back a miss
    // within the deadline (plus slack), and the breaker counted it.
    let service = Engine::default();
    let config = PeerConfig::new(vec![addr])
        .with_fetch_timeout(Duration::from_millis(100))
        .with_failure_threshold(1);
    let ring = Arc::new(PeerRing::new(config, service.tracer().clone()));
    let started = Instant::now();
    assert!(ring.fetch_program(0xfeed_f00d).is_none());
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the deadline must bound a half-open fetch, took {:?}",
        started.elapsed()
    );
    let stats = ring.stats(0, 0);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.quarantined, 1, "threshold 1 trips immediately");

    // Unblock the mute listener's accept loop and clean up.
    let _ = std::os::unix::net::UnixStream::connect(&path);
    mute.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A peer that answers with bytes and never a newline — fast enough that
/// no single read times out — cannot grow the fetching daemon without
/// limit: the reply is refused at the protocol's 64 MiB line bound with a
/// transport error naming it, the connection is marked broken, and a
/// request that misses behind such a peer is answered by recomputing.
#[test]
fn an_endless_reply_from_a_lying_peer_is_refused_at_the_line_bound() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

    let Addr::Unix(path) = temp_socket("endless") else {
        unreachable!()
    };
    // Every connection: read one request line, then stream `a`s until the
    // client hangs up.
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let liar = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let chunk = vec![b'a'; 1 << 20];
            while let Ok((mut stream, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut line = String::new();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                if reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    while stream.write_all(&chunk).is_ok() {}
                }
            }
        })
    };
    let addr = Addr::Unix(path.clone());

    // Raw exchange: the typed error names the limit, and the pipe is
    // broken afterwards (the rest of the flood is still in it).
    let remote = RemoteService::dial_with_timeout(&addr, Some(Duration::from_secs(5))).unwrap();
    match remote.call(Request::peer_inventory()) {
        Response::Error { error, .. } => {
            assert_eq!(error.kind, ErrorKind::Transport, "{error}");
            assert!(
                error.message.contains(&MAX_LINE_BYTES.to_string()),
                "{}",
                error.message
            );
        }
        other => panic!("{other:?}"),
    }
    match remote.call(Request::stats()) {
        Response::Error { error, .. } => {
            assert!(error.message.contains("broken"), "{}", error.message)
        }
        other => panic!("{other:?}"),
    }
    drop(remote);

    // Through the store: the miss tries the peer, gives up on it at the
    // bound, and recomputes the pinned answer.
    let golden = include_str!("golden/digests.txt")
        .lines()
        .find_map(|line| line.strip_prefix("tree_sum@3 "))
        .map(|hex| u64::from_str_radix(hex, 16).unwrap())
        .expect("tree_sum@3 is pinned");
    let service = Engine::default();
    let ring = test_ring(&service, vec![addr]);
    let summary = analyze(&service, &Workload::TreeSum.source(3));
    assert!(!summary.cache_hit, "nothing the liar sent was admitted");
    assert_eq!(summary.analysis_digest, golden);
    let stats = ring.stats(0, 0);
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert!(stats.misses >= 1, "the peer was asked: {stats:?}");

    stop.store(true, Ordering::SeqCst);
    let _ = std::os::unix::net::UnixStream::connect(&path);
    liar.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The reply the README documents for an evicted entry: a peer (another
/// implementation, say) that writes `"body":null` where this build leaves
/// the member out means the same thing — "I no longer have it" — and
/// loses that one stale advertisement, not a failed verification.
///
/// The peer here also does what a daemon older than PR 23 may: it lists
/// summary tables in its inventory, which count for nothing, and answers
/// its first program fetch with a table-shaped body, which is refused
/// like any other document that is not the program asked for.
#[test]
fn a_null_body_from_a_peer_forgets_the_advertised_key() {
    let Addr::Unix(path) = temp_socket("nullbody") else {
        unreachable!()
    };
    let key: u64 = 0x00c0_ffee;
    // A minimal daemon: it advertises `key` and two tables, answers the
    // first fetch with a table, then every later one with a null body
    // under the same generation.
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let evictor = std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut line = String::new();
        let mut fetches = 0;
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            let reply = match Request::decode(line.trim_end()).unwrap() {
                Request::PeerInventory { .. } => {
                    Response::peer_inventory(4, vec![key], vec![0xfeed, 0xbeef]).encode()
                }
                Request::PeerFetch { .. } if fetches == 0 => {
                    fetches += 1;
                    let table = Json::obj(vec![
                        ("v", Json::Int(2)),
                        ("fingerprint", json::hex64(key)),
                        ("digest", json::hex64(0)),
                        ("summaries", Json::Arr(vec![])),
                    ]);
                    Response::peer_entry(PeerNamespace::Programs, key, 4, Some(table)).encode()
                }
                Request::PeerFetch { .. } => format!(
                    "{{\"protocol_version\":2,\"type\":\"peer_entry\",\"namespace\":\"programs\",\
                     \"key\":\"{key:016x}\",\"generation\":4,\"body\":null}}"
                ),
                other => panic!("unexpected {other:?}"),
            };
            if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                break;
            }
            line.clear();
        }
    });

    let service = Engine::default();
    let ring = test_ring(&service, vec![Addr::Unix(path.clone())]);
    ring.gossip_once();
    assert_eq!(
        ring.stats(0, 0).known_keys,
        1,
        "gossip learned the program; the advertised tables are ignored"
    );
    assert!(
        ring.fetch_program(key).is_none(),
        "a table is not the program asked for"
    );
    let stats = ring.stats(0, 0);
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    assert_eq!(stats.known_keys, 1, "a refused body is not an eviction");
    assert!(
        service.store().programs().is_empty(),
        "nothing was admitted"
    );

    assert!(ring.fetch_program(key).is_none(), "nothing to admit");
    let stats = ring.stats(0, 0);
    assert_eq!(
        stats.known_keys, 0,
        "an evicted entry's advertisement is dropped: {stats:?}"
    );
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.quarantines, 0, "a clean miss is not a fault");

    drop(ring);
    drop(service);
    evictor.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The generation counter is enforced, not just gossiped: clearing a
/// warm peer bumps its generation, and the very next fetch reply makes
/// the ring discard that peer's entire advertised snapshot instead of
/// trusting keys from a store that no longer exists.
#[test]
fn cleared_peer_generation_discards_the_stale_advertisement_snapshot() {
    let (warm_service, warm_handle) = spawn_daemon("genclear");
    let src = Workload::TreeSum.source(4);
    analyze(&warm_service, &src);
    let key = program_key(&src);

    let cold_service = Engine::default();
    let ring = test_ring(&cold_service, vec![warm_handle.addr().clone()]);
    ring.gossip_once();
    assert!(ring.stats(0, 0).known_keys > 0, "gossip learned the keys");

    // Clear the warm daemon: its generation bumps and its stores empty,
    // but the ring's advertisement snapshot still names the old keys.
    match warm_service.call(Request::clear_caches()) {
        Response::Cleared { .. } => {}
        other => panic!("{other:?}"),
    }

    // The fetch misses (the entry is gone) — and the mismatched
    // generation on the reply retires the whole stale snapshot at once,
    // without waiting for the next gossip round.
    assert!(ring.fetch_program(key).is_none());
    let stats = ring.stats(0, 0);
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.known_keys, 0,
        "a cleared store's advertisements are dead: {stats:?}"
    );

    warm_handle.shutdown();
}

/// Gossip keeps running in the background: a spawned ring learns a warm
/// peer's inventory without anyone calling `gossip_once`, and `shutdown`
/// stops the loop promptly.
#[test]
fn background_gossip_loop_learns_and_shuts_down() {
    let (warm_service, warm_handle) = spawn_daemon("bg-gossip");
    analyze(&warm_service, &Workload::TreeSum.source(4));

    let cold = Engine::default();
    let config = PeerConfig::new(vec![warm_handle.addr().clone()])
        .with_gossip_interval(Duration::from_millis(25));
    let ring = PeerRing::spawn(config, cold.tracer().clone());
    cold.store().attach_peers(ring.clone());

    let deadline = Instant::now() + Duration::from_secs(5);
    while ring.stats(0, 0).known_keys == 0 {
        assert!(Instant::now() < deadline, "gossip loop never learned");
        std::thread::sleep(Duration::from_millis(10));
    }
    ring.shutdown();
    let rounds = ring.stats(0, 0).gossip_rounds;
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        ring.stats(0, 0).gossip_rounds,
        rounds,
        "no rounds after shutdown"
    );

    warm_handle.shutdown();
}

/// The trace-tree acceptance path: a client request served by an origin
/// daemon, missing locally and fetched from a warm peer, leaves ONE
/// assembled span tree on the origin — the origin's `serve` root, its
/// `peer-fetch` hop, and under that hop the peer's own `serve` span,
/// adopted off the wire and tagged with the peer's address.
#[test]
fn traced_peer_fetch_assembles_one_cross_daemon_tree() {
    use sil_engine::service::TraceSpan;

    let (warm_service, warm_handle) = spawn_daemon("trace-warm");
    let src = Workload::TreeSum.source(5);
    analyze(&warm_service, &src);

    // The origin is a full daemon (its server mints the trace), peered to
    // the warm one.
    let origin_service = Arc::new(Engine::default());
    let ring = test_ring(&origin_service, vec![warm_handle.addr().clone()]);
    ring.gossip_once();
    let origin_server = Server::bind(&temp_socket("trace-origin"), origin_service).unwrap();
    let origin_addr = origin_server.addr().to_string();
    let warm_addr = warm_handle.addr().to_string();
    let origin_handle = origin_server.spawn();

    let client = RemoteService::connect(&origin_addr).unwrap();
    match client.call(Request::analyze(&src)) {
        Response::Analyzed { summary, .. } => {
            assert!(summary.cache_hit, "the peer fetch serves as a hit")
        }
        other => panic!("expected analyzed, got {other:?}"),
    }

    let spans: Vec<TraceSpan> = match client.call(Request::trace_dump()) {
        Response::Trace { spans, .. } => spans,
        other => panic!("expected trace, got {other:?}"),
    };

    // The origin's serve root for the analyze, and the trace it minted.
    let serve = spans
        .iter()
        .find(|s| s.span == "serve" && s.origin == origin_addr)
        .expect("the origin's serve root is in its dump");
    assert_ne!(serve.trace, 0, "daemon-served requests are traced");
    let tree: Vec<&TraceSpan> = spans.iter().filter(|s| s.trace == serve.trace).collect();

    let fetch = tree
        .iter()
        .find(|s| s.span == "peer-fetch")
        .expect("the fetch hop joins the tree");
    assert_eq!(fetch.origin, origin_addr, "the hop ran on the origin");

    // The peer's serve span came back piggybacked on the peer_entry
    // response and was adopted: same trace, parented under the origin's
    // peer-fetch span, tagged with the peer's listen address.
    let remote = tree
        .iter()
        .find(|s| s.span == "serve" && s.origin == warm_addr)
        .expect("the peer's serve span was adopted into the origin's dump");
    assert_eq!(
        remote.parent, fetch.span_id,
        "the remote hop nests under the origin's peer-fetch span"
    );
    assert_ne!(remote.span_id, 0);
    assert!(remote.end_us >= remote.start_us);

    // One tree, not two: every span of the trace reaches the serve root
    // by walking parents within the trace (or is the root itself).
    for span in &tree {
        let mut cursor = *span;
        let mut hops = 0;
        while cursor.span_id != serve.span_id {
            let Some(parent) = tree.iter().find(|s| s.span_id == cursor.parent) else {
                panic!(
                    "span {} (origin {}) does not reach the serve root",
                    cursor.span, cursor.origin
                );
            };
            cursor = parent;
            hops += 1;
            assert!(hops < 64, "parent cycle in the assembled tree");
        }
    }

    origin_handle.shutdown();
    warm_handle.shutdown();
}
