//! The daemon side of the wire: bind a socket, accept connections, answer
//! one newline-delimited protocol message per line.
//!
//! There is one serving strategy: a blocking accept loop that hands each
//! connection its own thread.  A connection's requests are answered
//! strictly in order on that thread, so a request that waits — on a cold
//! analysis, a disk read, a peer that never answers — delays only the
//! connection that sent it.  The cost is one stack per connected client,
//! idle or not; README "Scaling limits, measured" has the numbers.
//!
//! A request line is at most 64 MiB long (a longer one closes its
//! connection) and is decoded lossily (bytes that are not UTF-8 are
//! answered `malformed` like any other non-JSON line).  Each connection
//! encodes its replies into one reused buffer and sends each as one write.
//! `line.rs` holds the reader and the writer, which the client side uses
//! too.
//!
//! The server keeps no tracer and no registry of its own.  It mints
//! request ids from its [`Engine`]'s tracer, records its `decode`, `serve`,
//! `encode` and `write` spans into it, and registers its `server.*`
//! instruments on the engine's registry — so the engine's `metrics` and
//! `trace_dump` answers already cover the whole daemon, and a request's
//! spans all sit in one ring.
//!
//! The `sild` binary is a thin shell around [`Server`]; tests spawn the
//! same server in-process on a temp socket, so the daemon path is
//! exercised by `cargo test` without managing child processes.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] (or
//! [`ServerHandle::shutdown`]) sets a flag and dials the listener once to
//! wake the accept loop, which stops accepting, cleans up its socket file,
//! and exits; connections already being served finish their current line
//! on their own threads.  A shutdown request speaking the wrong protocol
//! version is answered with the version error and does *not* stop the
//! daemon.

use super::line::{read_bounded_line, write_line};
use super::proto::{Request, Response, ServerStats, ServiceError, TraceSpan, PROTOCOL_VERSION};
use super::wire::Wire;
use super::Addr;
use crate::Engine;
use silobs::{Counter, FlightRecorder, Gauge, ShardedHistogram, TraceContext};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Construction knobs of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Requests whose service call outlasts this many microseconds have
    /// their span tree captured into the tracer's slow buffer (`silp
    /// --trace-dump` keeps them past ring churn).  `0` disables.
    pub slow_us: u64,
    /// Flight recorder sampling interval in milliseconds (default 1000 —
    /// one sample per second); at least 1.
    pub recorder_interval_ms: u64,
    /// How many samples the flight recorder retains (default 256).
    pub recorder_capacity: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            slow_us: 0,
            recorder_interval_ms: 1000,
            recorder_capacity: 256,
        }
    }
}

/// Live daemon-side instrumentation, shared between the accept loop and
/// connection threads (which update it) and the per-line dispatch.
///
/// The instruments live on the engine's registry under the `server.*`
/// namespace; the [`ServerStats`] a `stats` reply carries is a view over
/// the same atomics.
#[derive(Debug)]
struct ServerCounters {
    accepted: Counter,
    active: Gauge,
    requests: Counter,
    serve_us: Arc<ShardedHistogram>,
    recorder: FlightRecorder,
    /// Service calls slower than this many microseconds are captured into
    /// the tracer's slow buffer; 0 disables.
    slow_us: u64,
    started: Instant,
}

impl ServerCounters {
    fn new(engine: &Engine, options: &ServerOptions) -> ServerCounters {
        ServerCounters::with_started(engine, options, Instant::now())
    }

    /// [`ServerCounters::new`] with an explicit start instant (tests back-
    /// date it to pin the uptime the snapshot must report).
    fn with_started(engine: &Engine, options: &ServerOptions, started: Instant) -> ServerCounters {
        let registry = engine.registry();
        ServerCounters {
            accepted: registry.counter("server.accepted"),
            active: registry.gauge("server.active"),
            requests: registry.counter("server.requests"),
            serve_us: registry.histogram("server.serve_us"),
            recorder: FlightRecorder::new(options.recorder_capacity.max(2)),
            slow_us: options.slow_us,
            started,
        }
    }

    /// Record one accepted connection (now active).
    fn connection_opened(&self) {
        self.accepted.incr();
        self.active.add(1);
    }

    /// Record one connection closing.
    fn connection_closed(&self) {
        self.active.sub(1);
    }

    /// Whole seconds since the server started serving.
    fn uptime_ticks(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The wire-facing snapshot attached to `Stats` responses, reporting
    /// the uptime the caller sampled (see [`handle_line`]).
    fn snapshot_at(&self, uptime_ticks: u64) -> ServerStats {
        ServerStats {
            kind: "threaded".to_string(),
            accepted: self.accepted.get(),
            active: self.active.get().max(0) as u64,
            uptime_ticks,
        }
    }

    /// One flight-recorder tick: the engine's raw registry read, which
    /// holds the `server.*` instruments too.
    fn sample_recorder(&self, engine: &Engine) {
        self.recorder.sample(engine.metrics_raw());
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// A bound, not-yet-running protocol server.
pub struct Server {
    listener: Listener,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    addr: Addr,
    options: ServerOptions,
    counters: Arc<ServerCounters>,
}

impl Server {
    /// Bind `addr` and serve `engine` with default [`ServerOptions`].  A
    /// stale Unix socket file at the path is removed first (the daemon
    /// owns its socket path); for `tcp:host:0` the resolved port is
    /// visible via [`Server::addr`].
    pub fn bind(addr: &Addr, engine: Arc<Engine>) -> std::io::Result<Server> {
        Server::bind_with(addr, engine, ServerOptions::default())
    }

    /// [`Server::bind`] with explicit tracing and flight-recorder options.
    pub fn bind_with(
        addr: &Addr,
        engine: Arc<Engine>,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let (listener, resolved) = match addr {
            Addr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (Listener::Unix(listener, path.clone()), addr.clone())
            }
            Addr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let resolved = Addr::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), resolved)
            }
        };
        // Name this daemon on its tracer, so spans piggybacked to a remote
        // caller say where they were recorded.  First set wins: an engine
        // served by several servers keeps its first address.
        engine.tracer().set_origin(&resolved.to_string());
        Ok(Server {
            listener,
            counters: Arc::new(ServerCounters::new(&engine, &options)),
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
            addr: resolved,
            options,
        })
    }

    /// The bound address, with `tcp:…:0` resolved to the real port.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Accept connections until shut down, one serving thread each, then
    /// clean up the socket file.  Blocks; use [`Server::spawn`] to run on
    /// a background thread.
    pub fn run(self) {
        let Server {
            listener,
            engine,
            shutdown,
            addr,
            options,
            counters,
        } = self;
        let sampler = spawn_recorder_sampler(&engine, &shutdown, &counters, &options);
        loop {
            let stream = match &listener {
                Listener::Unix(listener, _) => listener.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // Transient accept failures (e.g. fd exhaustion under load)
                // must not spin a core; back off briefly.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            };
            counters.connection_opened();
            let engine = engine.clone();
            let shutdown = shutdown.clone();
            let addr = addr.clone();
            let counters = counters.clone();
            std::thread::spawn(move || {
                serve_connection(stream, &engine, shutdown, addr, &counters);
                counters.connection_closed();
            });
        }
        let _ = sampler.join();
        if let Listener::Unix(_, path) = listener {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Run on a background thread, returning a handle that can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr.clone();
        let shutdown = self.shutdown.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// Answer one connection's lines in order until the client hangs up, a
/// line overflows the bound, or a shutdown request arrives.
fn serve_connection(
    stream: Stream,
    engine: &Engine,
    shutdown: Arc<AtomicBool>,
    addr: Addr,
    counters: &ServerCounters,
) {
    let (reader, mut writer): (Box<dyn Read>, Box<dyn Write>) = match stream {
        Stream::Unix(s) => match s.try_clone() {
            Ok(clone) => (Box::new(clone), Box::new(s)),
            Err(_) => return,
        },
        Stream::Tcp(s) => match s.try_clone() {
            Ok(clone) => (Box::new(clone), Box::new(s)),
            Err(_) => return,
        },
    };
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    // Every reply of the connection is encoded into this one buffer.
    let mut reply = String::new();
    // Hung up, failed, or sent a line past the bound: either way this
    // connection is over, and only this one.
    while let Ok(Some(line)) = read_bounded_line(&mut reader, &mut buf) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        // The request id is minted the moment the line is framed, so its
        // spans cover everything that happens to it from here on.
        let id = engine.tracer().mint();
        let stop = handle_line(engine, counters, id, trimmed, &mut reply);
        let written = silobs::with_request(id, || {
            let _span = engine.tracer().start("write");
            write_line(&mut writer, &mut reply)
        });
        if stop {
            // Acknowledged; now stop the daemon: flag + self-dial wakes
            // the accept loop.
            shutdown.store(true, Ordering::SeqCst);
            wake(&addr);
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// The flight recorder's sampler: one raw metrics read per interval into
/// the bounded ring, for as long as the daemon serves.  Sleeps in short
/// chunks so shutdown stays prompt at any interval.
fn spawn_recorder_sampler(
    engine: &Arc<Engine>,
    shutdown: &Arc<AtomicBool>,
    counters: &Arc<ServerCounters>,
    options: &ServerOptions,
) -> JoinHandle<()> {
    let engine = engine.clone();
    let shutdown = shutdown.clone();
    let counters = counters.clone();
    let interval = Duration::from_millis(options.recorder_interval_ms);
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            counters.sample_recorder(&engine);
            let mut slept = Duration::ZERO;
            while slept < interval && !shutdown.load(Ordering::SeqCst) {
                let chunk = (interval - slept).min(Duration::from_millis(50));
                std::thread::sleep(chunk);
                slept += chunk;
            }
        }
    })
}

/// Control handle for a spawned [`Server`].
pub struct ServerHandle {
    addr: Addr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Stop the accept loop and wait for it to exit.  Connections already
    /// being served finish their current line on their own threads.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(&self.addr);
        let _ = self.thread.join();
    }
}

/// Unblock the loop that is waiting in `accept()` by dialing it once.
fn wake(addr: &Addr) {
    match addr {
        Addr::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        Addr::Tcp(hostport) => {
            let _ = TcpStream::connect(hostport.as_str());
        }
    }
}

/// The per-line protocol dispatch: decode, negotiate the version,
/// intercept shutdown and `metrics_history`, execute against the engine,
/// and attach the daemon's own counters to a `Stats` reply.
///
/// `id` is the request id the connection thread minted when it framed the
/// line (from the engine's tracer); every span recorded while the request
/// executes — here and down in the engine — attributes to it.  The
/// response line replaces what `reply` held; the result says whether to
/// stop the whole daemon once it is sent (a well-versioned
/// [`Request::Shutdown`] arrived).
fn handle_line(
    engine: &Engine,
    counters: &ServerCounters,
    id: u64,
    line: &str,
    reply: &mut String,
) -> bool {
    // Sample the uptime exactly once, before any work, so the whole
    // second a `stats` reply reports does not depend on how long the
    // request took to serve.
    let uptime_ticks = counters.uptime_ticks();
    counters.requests.incr();
    let tracer = engine.tracer();
    silobs::with_request(id, || {
        let decoded = {
            let _span = tracer.start("decode");
            Request::decode(line)
        };
        let (response, shutdown) = match decoded {
            Err(error) => (Response::error(error), false),
            Ok(request) if request.version() != PROTOCOL_VERSION => (
                Response::error(ServiceError::version_mismatch(request.version())),
                false,
            ),
            Ok(Request::Shutdown { .. }) => (Response::shutting_down(), true),
            Ok(Request::MetricsHistory { .. }) => (
                Response::metrics_history(counters.recorder.history()),
                false,
            ),
            Ok(request) => {
                // Every daemon-served request runs under a trace: either
                // the one the caller propagated on the wire, or a fresh id
                // minted here — so `silp --trace` sees trees without
                // clients having to opt in.  The "serve" root span covers
                // the whole engine call; engine spans recorded inside
                // nest under it via the thread-local parent.
                let header = request.trace_header();
                let trace = header.map(|h| h.id).unwrap_or_else(silobs::mint_trace_id);
                let ctx = TraceContext {
                    request: id,
                    trace,
                    parent: header.map_or(0, |h| h.parent),
                };
                let start = silobs::ticks();
                let mut response = silobs::with_context(ctx, || {
                    let _serve = tracer.start("serve");
                    engine.serve(request)
                });
                let elapsed = silobs::ticks().saturating_sub(start);
                counters.serve_us.record(elapsed);
                // Only a `stats` reply carries daemon-side state the engine
                // cannot see — never the Analyze/Process hot path.
                if matches!(response, Response::Stats { .. }) {
                    response = response.with_server_stats(counters.snapshot_at(uptime_ticks));
                }
                // Piggyback this hop's spans only to callers that sent a
                // trace header (daemon-to-daemon hops): plain clients keep
                // byte-identical responses, while the origin daemon
                // assembles the cross-daemon tree from these.
                if header.is_some() {
                    let spans = tracer.spans_for(trace, id);
                    response =
                        response.with_trace_spans(spans.iter().map(TraceSpan::from).collect());
                }
                if counters.slow_us > 0 && elapsed > counters.slow_us {
                    tracer.capture_slow(tracer.spans_for(trace, id));
                }
                (response, false)
            }
        };
        {
            let _span = tracer.start("encode");
            reply.clear();
            response.encode_into(reply);
        }
        shutdown
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_workloads::Workload;

    /// Answer `request` as the daemon does, returning the decoded reply.
    fn answer(engine: &Engine, counters: &ServerCounters, request: Request) -> Response {
        let mut line = String::new();
        let id = engine.tracer().mint();
        assert!(
            !handle_line(engine, counters, id, &request.encode(), &mut line),
            "only shutdown stops the daemon"
        );
        Response::decode(&line).expect("the daemon's reply decodes")
    }

    /// Regression: uptime must be sampled once, at line entry.  The server
    /// is 10 s old, and a `stats` request takes over a second: another
    /// thread holds a `walks` stripe lock for 1.2 s, and the store's stats
    /// wait for every stripe.  Sampling after the call would report 11.
    #[test]
    fn uptime_is_sampled_before_the_service_runs() {
        let started = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .expect("clock predates process start");
        let engine = Engine::default();
        let counters = ServerCounters::with_started(&engine, &ServerOptions::default(), started);
        let (locked, wait) = std::sync::mpsc::channel();
        let response = std::thread::scope(|scope| {
            scope.spawn(|| {
                engine.store().walks().merge(0, |_| {
                    locked.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(1200));
                    Arc::new(Vec::new())
                })
            });
            wait.recv().unwrap();
            answer(&engine, &counters, Request::stats())
        });
        match response {
            Response::Stats { server, .. } => {
                let server = server.expect("daemon path attaches server stats");
                assert_eq!(
                    server.uptime_ticks, 10,
                    "sampled at entry, not after the call"
                );
                assert_eq!(server.kind, "threaded");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn handle_line_attributes_spans_to_the_minted_id() {
        let engine = Engine::default();
        let counters = ServerCounters::new(&engine, &ServerOptions::default());
        let id = engine.tracer().mint();
        let line = Request::clear_caches().encode();
        assert!(
            !handle_line(&engine, &counters, id, &line, &mut String::new()),
            "clear_caches must keep serving"
        );
        let spans = engine.tracer().snapshot();
        let names: Vec<&str> = spans
            .iter()
            .filter(|span| span.request == id)
            .map(|span| span.name.as_ref())
            .collect();
        assert_eq!(names, vec!["decode", "serve", "encode"]);
    }

    /// A warm exact repeat over a real connection: the one ring holds its
    /// six spans under the request's id, in the order they ended, and the
    /// engine's two lookups nest under `serve`.
    #[test]
    fn a_warm_repeat_traces_decode_serve_encode_write() {
        use std::io::BufRead;
        let engine = Engine::default();
        let counters = ServerCounters::new(&engine, &ServerOptions::default());
        let (client, server) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            let (engine, counters) = (&engine, &counters);
            scope.spawn(move || {
                let addr = Addr::Unix(PathBuf::new());
                serve_connection(
                    Stream::Unix(server),
                    engine,
                    Default::default(),
                    addr,
                    counters,
                )
            });
            let mut replies = std::io::BufReader::new(client.try_clone().unwrap());
            let mut writer = client;
            let request = Request::analyze(Workload::TreeSum.source(3));
            for _ in 0..2 {
                write_line(&mut writer, &mut request.encode()).unwrap();
                let mut reply = String::new();
                replies.read_line(&mut reply).unwrap();
                assert!(
                    reply.ends_with('\n') && reply.contains("\"analyzed\""),
                    "{reply}"
                );
            }
        });
        let spans = engine.tracer().snapshot();
        let warm = spans.iter().map(|span| span.request).max().unwrap();
        let spans: Vec<_> = spans
            .into_iter()
            .filter(|span| span.request == warm)
            .collect();
        let names: Vec<&str> = spans.iter().map(|span| span.name.as_ref()).collect();
        assert_eq!(
            names,
            [
                "decode",
                "source-lookup",
                "store-lookup",
                "serve",
                "encode",
                "write"
            ]
        );
        let serve = spans[3].span_id;
        assert!(spans[1..3].iter().all(|span| span.parent == serve));
    }

    /// A cold `analyze` of a real workload outlasts `slow_us: 1`, so its
    /// span tree lands in the slow buffer: counted by the
    /// `trace.slow_captures` metric, and still in the dump once the ring
    /// has churned past it.
    #[test]
    fn slow_requests_are_captured_past_ring_churn() {
        let engine = Engine::default();
        let options = ServerOptions {
            slow_us: 1,
            ..ServerOptions::default()
        };
        let counters = ServerCounters::new(&engine, &options);
        let id = engine.tracer().mint();
        let analyze = Request::analyze(Workload::Bisort.source(4)).encode();
        assert!(
            !handle_line(&engine, &counters, id, &analyze, &mut String::new()),
            "analyze must keep serving"
        );
        let captured = |spans: Vec<silobs::SpanRecord>| {
            spans
                .iter()
                .any(|span| span.request == id && span.name == "serve")
        };
        // Churn through a server that captures nothing, three spans per
        // request: enough requests to wrap the ring.
        let quiet = ServerCounters::new(&engine, &ServerOptions::default());
        for _ in 0..engine.tracer().capacity() / 3 + 10 {
            answer(&engine, &quiet, Request::clear_caches());
        }
        assert!(!captured(engine.tracer().snapshot()), "the ring churned");
        assert!(
            captured(engine.tracer().snapshot_all()),
            "the capture kept it"
        );
        let Response::Metrics { metrics, .. } = answer(&engine, &quiet, Request::metrics()) else {
            panic!("expected a metrics reply");
        };
        assert_eq!(metrics.counter("trace.slow_captures"), Some(1));
    }

    /// A cold `analyze` of a real workload outlasts `slow_us: 1`, so its
    /// span tree lands in the slow buffer.  The capture's spans are still
    /// in the ring too, and the daemon's dump holds each of them once, in
    /// `(start_us, request)` order.
    #[test]
    fn a_slow_capture_appears_once_in_a_sorted_trace_dump() {
        let engine = Engine::default();
        let options = ServerOptions {
            slow_us: 1,
            ..ServerOptions::default()
        };
        let counters = ServerCounters::new(&engine, &options);
        answer(
            &engine,
            &counters,
            Request::analyze(Workload::Bisort.source(4)),
        );
        assert_eq!(engine.tracer().slow_captures(), 1);
        let Response::Trace { spans, .. } = answer(&engine, &counters, Request::trace_dump())
        else {
            panic!("expected a trace reply");
        };
        let mut ids: Vec<u64> = spans.iter().map(|span| span.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "a span id repeats: {spans:?}");
        assert!(
            spans
                .windows(2)
                .all(|pair| (pair[0].start_us, pair[0].request)
                    <= (pair[1].start_us, pair[1].request))
        );
        for name in ["serve", "fixpoint"] {
            assert_eq!(spans.iter().filter(|span| span.span == name).count(), 1);
        }
    }

    /// `trace.dropped_spans` is exactly the one ring's evictions.  The
    /// metrics reply is read inside `serve`; its `serve` and `encode` spans
    /// are recorded after it, each evicting one more.
    #[test]
    fn trace_dropped_spans_counts_the_one_ring() {
        let engine = Engine::default();
        let counters = ServerCounters::new(&engine, &ServerOptions::default());
        let capacity = engine.tracer().capacity();
        // Three spans per request: enough requests to wrap the ring.
        for _ in 0..capacity / 3 + 10 {
            answer(&engine, &counters, Request::clear_caches());
        }
        let Response::Metrics { metrics, .. } = answer(&engine, &counters, Request::metrics())
        else {
            panic!("expected a metrics reply");
        };
        let reported = metrics.counter("trace.dropped_spans").unwrap();
        assert!(reported > 0, "the ring wrapped");
        assert_eq!(reported + 2, engine.tracer().dropped_spans());
        assert_eq!(metrics.counter("trace.slow_captures"), Some(0));
    }

    /// The `server.*` instruments are entries of the engine's registry:
    /// a `metrics` reply lists them, sorted, beside `engine.*` and
    /// `store.*`, each name once.
    #[test]
    fn server_metrics_join_the_engine_registry() {
        let engine = Engine::default();
        let counters = ServerCounters::new(&engine, &ServerOptions::default());
        counters.connection_opened();
        answer(
            &engine,
            &counters,
            Request::analyze(Workload::TreeSum.source(3)),
        );
        let Response::Metrics { metrics, .. } = answer(&engine, &counters, Request::metrics())
        else {
            panic!("expected a metrics reply");
        };
        assert_eq!(metrics.counter("server.accepted"), Some(1));
        assert_eq!(metrics.gauge("server.active"), Some(1));
        assert_eq!(metrics.counter("server.requests"), Some(2));
        assert_eq!(metrics.histogram("server.serve_us").unwrap().count, 1);
        assert_eq!(metrics.counter("engine.programs.misses"), Some(1));
        let names: Vec<&str> = metrics.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.windows(2).all(|pair| pair[0] < pair[1]),
            "sorted, each once: {names:?}"
        );
    }

    /// The recorder sampler path: two manual ticks produce a monotone
    /// `server.requests` series a `metrics_history` response can diff.
    #[test]
    fn metrics_history_answers_from_the_recorder() {
        let engine = Engine::default();
        let counters = ServerCounters::new(&engine, &ServerOptions::default());
        counters.sample_recorder(&engine);
        answer(&engine, &counters, Request::analyze("f(){}"));
        counters.sample_recorder(&engine);
        match answer(&engine, &counters, Request::metrics_history()) {
            Response::MetricsHistory { samples, .. } => {
                assert!(samples.len() >= 2, "both manual ticks retained");
                let requests: Vec<u64> = samples
                    .iter()
                    .map(|sample| sample.metrics.counter("server.requests").unwrap_or(0))
                    .collect();
                assert!(
                    requests.windows(2).all(|pair| pair[0] <= pair[1]),
                    "counter series is monotone: {requests:?}"
                );
                assert!(
                    requests.last() > requests.first(),
                    "the analyze in between moved the counter"
                );
            }
            other => panic!("expected metrics history, got {other:?}"),
        }
    }
}
