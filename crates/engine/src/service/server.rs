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
use super::{Addr, Service};
use silobs::{
    Counter, FlightRecorder, Gauge, MetricsSnapshot, Registry, ShardedHistogram, TraceContext,
    Tracer,
};
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
    /// one sample per second); `0` disables the recorder thread.
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
/// connection threads (which update it) and the per-line dispatch (which
/// snapshots it into `Stats`/`Metrics` responses).
///
/// The counters live on a [`Registry`] under the `server.*` namespace, so
/// a `Metrics` response can splice them next to the engine's `engine.*` /
/// `store.*` entries; the legacy [`ServerStats`] wire shape is a view over
/// the same atomics, byte-identical to what it reported before.
#[derive(Debug)]
struct ServerCounters {
    registry: Registry,
    accepted: Counter,
    active: Gauge,
    requests: Counter,
    serve_us: Arc<ShardedHistogram>,
    /// Request ids are minted from it and server-side spans recorded into
    /// it.
    tracer: Arc<Tracer>,
    recorder: Arc<FlightRecorder>,
    /// Service calls slower than this many microseconds are captured into
    /// the tracer's slow buffer; 0 disables.
    slow_us: u64,
    started: Instant,
}

impl ServerCounters {
    fn new(options: &ServerOptions) -> ServerCounters {
        ServerCounters::with_started(options, Instant::now())
    }

    /// [`ServerCounters::new`] with an explicit start instant (tests back-
    /// date it to pin the uptime the snapshot must report).
    fn with_started(options: &ServerOptions, started: Instant) -> ServerCounters {
        let registry = Registry::new();
        ServerCounters {
            accepted: registry.counter("server.accepted"),
            active: registry.gauge("server.active"),
            requests: registry.counter("server.requests"),
            serve_us: registry.histogram("server.serve_us"),
            tracer: Arc::new(Tracer::default()),
            recorder: Arc::new(FlightRecorder::new(options.recorder_capacity.max(2))),
            slow_us: options.slow_us,
            registry,
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

    /// The `server.*` metrics namespace (plus the server tracer's
    /// `trace.*` counters), as spliced into `Metrics` responses.  The
    /// service exports its own tracer's counters too; the splice sums
    /// them into daemon-wide totals.
    fn metrics(&self) -> MetricsSnapshot {
        let mut raw = self.registry.collect();
        self.tracer.export_metrics(&mut raw);
        raw.summarize()
    }

    /// One flight-recorder tick: the server registry, the server tracer's
    /// counters, and everything the service can read, merged raw so
    /// histogram deltas are exact.
    fn sample_recorder(&self, service: &(dyn Service + Send + Sync)) {
        let mut raw = self.registry.collect();
        self.tracer.export_metrics(&mut raw);
        if let Some(service_raw) = service.raw_metrics() {
            raw.absorb(&service_raw);
        }
        self.recorder.sample(raw);
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

/// A bound, not-yet-running protocol server.
pub struct Server {
    listener: Listener,
    service: Arc<dyn Service + Send + Sync>,
    shutdown: Arc<AtomicBool>,
    addr: Addr,
    options: ServerOptions,
    counters: Arc<ServerCounters>,
}

impl Server {
    /// Bind `addr` and wrap `service` with default [`ServerOptions`].  A
    /// stale Unix socket file at the path is removed first (the daemon
    /// owns its socket path); for `tcp:host:0` the resolved port is
    /// visible via [`Server::addr`].
    pub fn bind(addr: &Addr, service: Arc<dyn Service + Send + Sync>) -> std::io::Result<Server> {
        Server::bind_with(addr, service, ServerOptions::default())
    }

    /// [`Server::bind`] with explicit tracing and flight-recorder options.
    pub fn bind_with(
        addr: &Addr,
        service: Arc<dyn Service + Send + Sync>,
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
        let counters = Arc::new(ServerCounters::new(&options));
        // Name this daemon on both tracers, so spans piggybacked to a
        // remote caller say where they were recorded.  First set wins:
        // a service shared across servers keeps its first address.
        counters.tracer.set_origin(&resolved.to_string());
        if let Some(tracer) = service.service_tracer() {
            tracer.set_origin(&resolved.to_string());
        }
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            addr: resolved,
            counters,
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
            service,
            shutdown,
            addr,
            options,
            counters,
        } = self;
        let sampler = spawn_recorder_sampler(&service, &shutdown, &counters, &options);
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
            let service = service.clone();
            let shutdown = shutdown.clone();
            let addr = addr.clone();
            let counters = counters.clone();
            std::thread::spawn(move || {
                serve_connection(stream, service, shutdown, addr, &counters);
                counters.connection_closed();
            });
        }
        if let Some(sampler) = sampler {
            let _ = sampler.join();
        }
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
    service: Arc<dyn Service + Send + Sync>,
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
        let id = counters.tracer.mint();
        let stop = handle_line(service.as_ref(), counters, id, trimmed, &mut reply);
        let written = silobs::with_request(id, || {
            let _span = counters.tracer.start("write");
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
    service: &Arc<dyn Service + Send + Sync>,
    shutdown: &Arc<AtomicBool>,
    counters: &Arc<ServerCounters>,
    options: &ServerOptions,
) -> Option<JoinHandle<()>> {
    if options.recorder_interval_ms == 0 {
        return None;
    }
    let service = service.clone();
    let shutdown = shutdown.clone();
    let counters = counters.clone();
    let interval = Duration::from_millis(options.recorder_interval_ms);
    Some(std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            counters.sample_recorder(service.as_ref());
            let mut slept = Duration::ZERO;
            while slept < interval && !shutdown.load(Ordering::SeqCst) {
                let chunk = (interval - slept).min(Duration::from_millis(50));
                std::thread::sleep(chunk);
                slept += chunk;
            }
        }
    }))
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
/// intercept shutdown, execute against the service, and decorate
/// `Stats`/`Metrics`/`Trace` responses with the daemon's own counters,
/// `server.*` metrics, and spans.
///
/// `id` is the request id the connection thread minted when it framed the
/// line (from the server's tracer); every span recorded while the
/// request executes — here and down in the engine — attributes to it.
/// The response line replaces what `reply` held; the result says whether
/// to stop the whole daemon once it is sent (a well-versioned
/// [`Request::Shutdown`] arrived).
fn handle_line(
    service: &(dyn Service + Send + Sync),
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
    silobs::with_request(id, || {
        let decoded = {
            let _span = counters.tracer.start("decode");
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
                // the whole service call; engine spans recorded inside
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
                    let _serve = counters.tracer.start("serve");
                    service.call(request)
                });
                let elapsed = silobs::ticks().saturating_sub(start);
                counters.serve_us.record(elapsed);
                // Decorate only the response kinds that carry daemon-side
                // state — never the Analyze/Process hot path.
                if let Response::Stats { server, .. } = &mut response {
                    *server = Some(counters.snapshot_at(uptime_ticks));
                }
                let mut response = match response {
                    Response::Metrics { .. } => response.with_server_metrics(counters.metrics()),
                    Response::Trace { .. } => response.with_server_spans(
                        counters
                            .tracer
                            .snapshot_all()
                            .iter()
                            .map(TraceSpan::from)
                            .collect(),
                    ),
                    other => other,
                };
                // Piggyback this hop's spans only to callers that sent a
                // trace header (daemon-to-daemon hops): plain clients keep
                // byte-identical responses, while the origin daemon
                // assembles the cross-daemon tree from these.
                if header.is_some() {
                    let mut spans: Vec<TraceSpan> = counters
                        .tracer
                        .spans_for(trace, id)
                        .iter()
                        .map(TraceSpan::from)
                        .collect();
                    if let Some(tracer) = service.service_tracer() {
                        spans.extend(tracer.spans_for(trace, id).iter().map(TraceSpan::from));
                    }
                    response = response.with_trace_spans(spans);
                }
                if counters.slow_us > 0 && elapsed > counters.slow_us {
                    let mut capture = counters.tracer.spans_for(trace, id);
                    if let Some(tracer) = service.service_tracer() {
                        capture.extend(tracer.spans_for(trace, id));
                    }
                    counters.tracer.capture_slow(capture);
                }
                (response, false)
            }
        };
        {
            let _span = counters.tracer.start("encode");
            reply.clear();
            response.encode_into(reply);
        }
        shutdown
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::time::Duration;

    /// A service that takes over a second to answer, exposing where the
    /// uptime sample happens relative to the call.
    struct Slow(Engine);

    impl Service for Slow {
        fn call(&self, request: Request) -> Response {
            std::thread::sleep(Duration::from_millis(1200));
            self.0.call(request)
        }
    }

    /// Regression: uptime must be sampled once, at line entry.  With the
    /// server 10s old and a service that takes 1.2s, sampling after the
    /// call would report 11.
    #[test]
    fn uptime_is_sampled_before_the_service_runs() {
        let started = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .expect("clock predates process start");
        let counters = ServerCounters::with_started(&ServerOptions::default(), started);
        let service = Slow(Engine::default());
        let id = counters.tracer.mint();
        let mut line = String::new();
        assert!(
            !handle_line(
                &service,
                &counters,
                id,
                &Request::stats().encode(),
                &mut line,
            ),
            "stats must not shut the daemon down"
        );
        match Response::decode(&line).expect("stats response decodes") {
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
        let counters = ServerCounters::new(&ServerOptions::default());
        let service = Engine::default();
        let id = counters.tracer.mint();
        let line = Request::clear_caches().encode();
        assert!(
            !handle_line(&service, &counters, id, &line, &mut String::new()),
            "clear_caches must keep serving"
        );
        let spans = counters.tracer.snapshot();
        let names: Vec<&str> = spans
            .iter()
            .filter(|span| span.request == id)
            .map(|span| span.name.as_ref())
            .collect();
        assert_eq!(names, vec!["decode", "serve", "encode"]);
    }

    /// A warm exact repeat over a real connection: the connection thread
    /// records `decode`, `serve`, `encode` and `write` under the request's
    /// id, in that order, and the engine's two lookups nest under `serve`.
    #[test]
    fn a_warm_repeat_traces_decode_serve_encode_write() {
        use std::io::BufRead;
        let engine = Arc::new(Engine::default());
        let counters = ServerCounters::new(&ServerOptions::default());
        let (client, server) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            let service: Arc<dyn Service + Send + Sync> = engine.clone();
            let counters = &counters;
            scope.spawn(move || {
                let addr = Addr::Unix(PathBuf::new());
                serve_connection(
                    Stream::Unix(server),
                    service,
                    Default::default(),
                    addr,
                    counters,
                )
            });
            let mut replies = std::io::BufReader::new(client.try_clone().unwrap());
            let mut writer = client;
            let request = Request::analyze(sil_workloads::Workload::TreeSum.source(3));
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
        let server_spans = counters.tracer.snapshot();
        let warm = server_spans.iter().map(|span| span.request).max().unwrap();
        let of_warm = |spans: Vec<silobs::SpanRecord>| -> Vec<silobs::SpanRecord> {
            spans
                .into_iter()
                .filter(|span| span.request == warm)
                .collect()
        };
        let server_spans = of_warm(server_spans);
        let names: Vec<&str> = server_spans.iter().map(|span| span.name.as_ref()).collect();
        assert_eq!(names, ["decode", "serve", "encode", "write"]);
        let serve = server_spans[1].span_id;
        let engine_spans = of_warm(engine.tracer().snapshot());
        let names: Vec<&str> = engine_spans.iter().map(|span| span.name.as_ref()).collect();
        assert_eq!(names, ["source-lookup", "store-lookup"]);
        assert!(engine_spans.iter().all(|span| span.parent == serve));
    }

    /// A service call outlasting `--slow-us` lands its span tree in the
    /// slow buffer: visible via `snapshot_all`, counted by the
    /// `trace.slow_captures` metric.
    #[test]
    fn slow_requests_are_captured_past_ring_churn() {
        let options = ServerOptions {
            slow_us: 1, // the 1.2s Slow service always trips this
            ..ServerOptions::default()
        };
        let counters = ServerCounters::new(&options);
        let service = Slow(Engine::default());
        let id = counters.tracer.mint();
        let analyze = Request::analyze("f(){}").encode();
        assert!(
            !handle_line(&service, &counters, id, &analyze, &mut String::new()),
            "analyze must keep serving"
        );
        let dump = counters.tracer.snapshot_all();
        let captured = dump
            .iter()
            .filter(|span| span.request == id && span.name == "serve")
            .count();
        assert!(captured > 0, "slow serve span survives in the dump");
        let metrics = counters.metrics();
        assert_eq!(metrics.counter("trace.slow_captures"), Some(1));
    }

    /// The recorder sampler path: two manual ticks produce a monotone
    /// `server.requests` series a `metrics_history` response can diff.
    #[test]
    fn metrics_history_answers_from_the_recorder() {
        let counters = ServerCounters::new(&ServerOptions::default());
        let service = Engine::default();
        let id = counters.tracer.mint();
        counters.sample_recorder(&service);
        let mut line = String::new();
        let analyze = Request::analyze("f(){}").encode();
        assert!(
            !handle_line(&service, &counters, id, &analyze, &mut line),
            "analyze must keep serving"
        );
        counters.sample_recorder(&service);
        let history = Request::metrics_history().encode();
        assert!(
            !handle_line(
                &service,
                &counters,
                counters.tracer.mint(),
                &history,
                &mut line,
            ),
            "metrics_history must keep serving"
        );
        match Response::decode(&line).expect("metrics_history response decodes") {
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
