//! The client side of the wire: a [`Service`] that speaks
//! newline-delimited JSON to a `sild` daemon over a Unix or TCP socket.
//!
//! One message per line, one response per request, strictly in order — the
//! simplest framing that is still trivially debuggable with `nc`/`socat`.
//! The JSON encoder escapes every control character, so an encoded message
//! can never contain a raw newline and the framing is unambiguous.

use super::line::{read_bounded_line, write_line};
use super::proto::{Request, Response, ServiceError, TraceHeader, PROTOCOL_VERSION};
use super::wire::Wire;
use super::{Addr, Service};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

/// Either stream type behind one `Read`/`Write` face.
#[derive(Debug)]
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn connect(addr: &Addr, timeout: Option<Duration>) -> io::Result<Conn> {
        let conn = match addr {
            Addr::Unix(path) => {
                // Unix connects resolve locally (a full backlog fails with
                // an error rather than hanging), so the timeout guards the
                // exchanges, not the dial.
                Conn::Unix(UnixStream::connect(path)?)
            }
            Addr::Tcp(hostport) => {
                let stream = match timeout {
                    None => TcpStream::connect(hostport.as_str())?,
                    Some(limit) => {
                        // connect_timeout needs resolved addresses; try
                        // each with the full budget and keep the last
                        // failure for the error message.
                        let mut addrs = hostport.as_str().to_socket_addrs()?;
                        let mut last = None;
                        let stream = loop {
                            let Some(candidate) = addrs.next() else {
                                return Err(last.unwrap_or_else(|| {
                                    io::Error::new(
                                        io::ErrorKind::InvalidInput,
                                        format!("{hostport} resolved to no addresses"),
                                    )
                                }));
                            };
                            match TcpStream::connect_timeout(&candidate, limit) {
                                Ok(stream) => break stream,
                                Err(e) => last = Some(e),
                            }
                        };
                        stream
                    }
                };
                // Each request is one small line; batching for throughput
                // happens at the protocol level (Request::Batch), so favor
                // latency.
                stream.set_nodelay(true)?;
                Conn::Tcp(stream)
            }
        };
        // A hung daemon (accepted but never answers) fails the read
        // instead of blocking the client forever.
        match &conn {
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
        }
        Ok(conn)
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

struct Pipe {
    reader: BufReader<Conn>,
    writer: Conn,
    /// Every request line of the connection is encoded into this buffer.
    line: String,
    /// Set after any transport failure.  The protocol has no correlation
    /// ids, so once a write/read fails (a timeout especially — the late
    /// response may still arrive, or a partial line may sit in the
    /// reader), request/response pairing on this connection can no longer
    /// be trusted; every later exchange fails fast instead of silently
    /// returning the previous request's answer.
    broken: bool,
}

/// A [`Service`] backed by one connection to a remote daemon.
///
/// The connection is serialized behind a mutex (the protocol is strict
/// request/response); open one `RemoteService` per concurrent client
/// instead of sharing one across threads that should proceed in parallel.
pub struct RemoteService {
    addr: Addr,
    timeout: Option<Duration>,
    pipe: Mutex<Pipe>,
}

impl RemoteService {
    /// Dial `addr` (`unix:<path>`, `tcp:<host:port>`, or the bare forms —
    /// see [`Addr::parse`]), waiting indefinitely for the daemon.
    pub fn connect(addr: &str) -> Result<RemoteService, ServiceError> {
        RemoteService::connect_with_timeout(addr, None)
    }

    /// [`RemoteService::connect`] with an optional per-operation timeout:
    /// the TCP dial, every request write, and every response read each
    /// fail with a transport error naming the timeout instead of blocking
    /// forever on a hung daemon.
    pub fn connect_with_timeout(
        addr: &str,
        timeout: Option<Duration>,
    ) -> Result<RemoteService, ServiceError> {
        let addr = Addr::parse(addr).map_err(ServiceError::transport)?;
        RemoteService::dial_with_timeout(&addr, timeout)
    }

    pub fn dial(addr: &Addr) -> Result<RemoteService, ServiceError> {
        RemoteService::dial_with_timeout(addr, None)
    }

    /// [`RemoteService::dial`] with an optional per-operation timeout.
    pub fn dial_with_timeout(
        addr: &Addr,
        timeout: Option<Duration>,
    ) -> Result<RemoteService, ServiceError> {
        let writer = Conn::connect(addr, timeout)
            .map_err(|e| ServiceError::transport(format!("cannot connect to {addr}: {e}")))?;
        let reader = writer
            .try_clone()
            .map_err(|e| ServiceError::transport(format!("cannot clone stream: {e}")))?;
        Ok(RemoteService {
            addr: addr.clone(),
            timeout,
            pipe: Mutex::new(Pipe {
                reader: BufReader::new(reader),
                writer,
                line: String::new(),
                broken: false,
            }),
        })
    }

    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Verify the daemon speaks our protocol version with a
    /// [`Request::Stats`] ping; on mismatch the returned error names both
    /// versions.
    pub fn handshake(&self) -> Result<(), ServiceError> {
        match self.call(Request::stats()) {
            Response::Stats { version, .. } if version == PROTOCOL_VERSION => Ok(()),
            Response::Error { error, .. } => Err(error),
            other => Err(ServiceError::new(
                super::ErrorKind::Protocol,
                format!(
                    "daemon speaks protocol version {}, this client speaks {PROTOCOL_VERSION}",
                    other.version()
                ),
            )),
        }
    }

    /// Describe an I/O failure, naming the configured timeout when the
    /// failure is the timeout firing (socket timeouts surface as
    /// `TimedOut` on TCP and `WouldBlock` on Unix sockets).
    fn transport_error(&self, direction: &str, error: &io::Error) -> ServiceError {
        if matches!(
            error.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            if let Some(timeout) = self.timeout {
                return ServiceError::transport(format!(
                    "{direction} {}: timed out after {}ms",
                    self.addr,
                    timeout.as_millis()
                ));
            }
        }
        ServiceError::transport(format!("{direction} {}: {error}", self.addr))
    }

    /// Send `request` as one line, read the reply line: its text, and how
    /// many bytes it was on the wire.  A reply longer than the protocol's
    /// line bound is a transport error like any other — a peer that
    /// streams without ever sending a newline costs bounded memory, not
    /// the process.
    fn exchange(&self, request: &Request) -> Result<(String, u64), ServiceError> {
        let mut pipe = self.pipe.lock().unwrap();
        if pipe.broken {
            return Err(ServiceError::transport(format!(
                "connection to {} is broken after a previous transport failure; reconnect",
                self.addr
            )));
        }
        let Pipe { writer, line, .. } = &mut *pipe;
        line.clear();
        request.encode_into(line);
        if let Err(e) = write_line(writer, line) {
            pipe.broken = true;
            return Err(self.transport_error("write to", &e));
        }
        let mut raw = Vec::new();
        let reply = match read_bounded_line(&mut pipe.reader, &mut raw) {
            Ok(Some(reply)) => reply.into_owned(),
            Ok(None) => {
                pipe.broken = true;
                return Err(ServiceError::transport(format!(
                    "{} closed the connection",
                    self.addr
                )));
            }
            Err(e) => {
                pipe.broken = true;
                return Err(self.transport_error("read from", &e));
            }
        };
        Ok((reply, raw.len() as u64))
    }
}

impl RemoteService {
    /// [`Service::call`], also reporting how many bytes of response line
    /// were read off the wire (0 when the exchange failed before a reply
    /// arrived).  Callers that meter traffic use this instead of
    /// re-encoding the decoded response to guess at its size.
    pub fn call_counted(&self, request: Request) -> (Response, u64) {
        // When the caller is itself serving a traced request (the ambient
        // context carries a trace id), propagate it on the wire so the
        // callee's spans come back and join this daemon's tree.  Requests
        // that already carry a header, or kinds that cannot, pass through
        // untouched — an untraced caller sends byte-identical lines.
        let request = match silobs::current_context() {
            Some(ctx) if ctx.trace != 0 && request.trace_header().is_none() => {
                request.with_trace(TraceHeader {
                    id: ctx.trace,
                    parent: ctx.parent,
                })
            }
            _ => request,
        };
        match self.exchange(&request) {
            Ok((reply, wire_bytes)) => {
                let response = match Response::decode(&reply) {
                    Ok(response) => response,
                    Err(error) => Response::error(error),
                };
                (response, wire_bytes)
            }
            Err(error) => (Response::error(error), 0),
        }
    }
}

impl Service for RemoteService {
    fn call(&self, request: Request) -> Response {
        self.call_counted(request).0
    }
}

impl std::fmt::Debug for RemoteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteService")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}
