//! Child `sild` processes: spawning them in a scratch directory of their
//! own, talking to them over the newline-delimited wire protocol, reading
//! their CPU and memory from `/proc`, and making sure none outlives a run.

use crate::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits for one reply before the run is declared wedged.
/// The slowest legitimate reply (a cold `process` under load) is ~100 ms.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a freshly spawned daemon may take to accept its first connection.
const START_TIMEOUT: Duration = Duration::from_secs(10);

/// A scratch directory under the current directory, removed on drop.
///
/// `ledger-e2e` changes into `benchmark/out/` at start-up, so these are
/// short relative paths: a Unix socket path must fit in 108 bytes, which an
/// absolute path into a deep checkout may not.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(label: &str) -> io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = PathBuf::from(format!(
            "run-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One running `sild`, killed and reaped on drop — including when the
/// benchmark panics or gives up on a wedged workload.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Start `sild --listen unix:<dir>/d.sock --quiet <extra>` with `dir` as
    /// its working directory (so relative `--data-dir` values land inside
    /// it) and wait until it accepts a connection.
    pub fn spawn(sild: &Path, dir: &RunDir, extra: &[String]) -> Result<Daemon, String> {
        let child = Command::new(sild)
            .current_dir(dir.path())
            .args(["--listen", "unix:d.sock", "--quiet"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sild.display()))?;
        let mut daemon = Daemon {
            child,
            socket: dir.path().join("d.sock"),
        };
        let started = Instant::now();
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("sild exited at start-up: {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("sild did not accept a connection in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The address other daemons reach this one at (`--peer`), relative to
    /// a sibling run directory.
    pub fn peer_addr(&self) -> String {
        format!("unix:../{}", self.socket.display())
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.socket)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time of the whole process so far, in microseconds.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name (field 2) may hold spaces; fields resume after
        // its closing parenthesis with the state, making utime and stime
        // the 12th and 13th from there.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |index: usize| -> Result<f64, String> {
            fields
                .get(index)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {index}"))
        };
        Ok((ticks(11)? + ticks(12)?) * 1e6 / clock_ticks_per_second())
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Ask the daemon to exit and wait for it, so everything it queued for
    /// its data directory is on disk.  Falls back to the kill in `drop`.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?
            .call("{\"protocol_version\":2,\"type\":\"shutdown\"}")?;
        let started = Instant::now();
        while started.elapsed() < REPLY_TIMEOUT {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("sild did not exit after a shutdown request".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times.  `run.sh` exports
/// `getconf CLK_TCK`; 100 is what Linux uses on every mainstream platform.
fn clock_ticks_per_second() -> f64 {
    std::env::var("LEDGER_CLK_TCK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(100.0)
}

/// One client connection: write a request line, read the reply line.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    reply: String,
}

impl Conn {
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Send `request` (one line, with or without its newline) and return the
    /// reply line without its newline.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        let stream = self.reader.get_mut();
        let mut sent = stream.write_all(request.as_bytes());
        if sent.is_ok() && !request.ends_with('\n') {
            sent = stream.write_all(b"\n");
        }
        sent.map_err(|e| format!("send failed: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end_matches('\n')),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// [`Conn::call`], parsed.
    pub fn call_json(&mut self, request: &str) -> Result<Value, String> {
        Value::parse(self.call(request)?).map_err(|e| format!("unparseable reply: {e}"))
    }
}

pub const STATS_REQUEST: &str = "{\"protocol_version\":2,\"type\":\"stats\"}";

/// The counters of one `stats` reply the benchmark reads, as running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Engine-view lookups, summed over shards: `(hits, misses)`.
    pub programs: (u64, u64),
    pub summaries: (u64, u64),
    pub walks: (u64, u64),
    /// Entries the in-memory program namespace evicted.
    pub program_evictions: u64,
    /// Memory-tier lookups of the program namespace: `(hits, misses)`.
    pub store_programs: (u64, u64),
    pub disk_hits: u64,
    pub disk_misses: u64,
    pub peer_hits: u64,
    pub peer_bytes_in: u64,
}

impl Counters {
    pub fn read(conn: &mut Conn) -> Result<Counters, String> {
        let stats = conn.call_json(STATS_REQUEST)?;
        if stats.get("type").and_then(Value::as_str) != Some("stats") {
            return Err(format!("expected a stats reply, got {stats:?}"));
        }
        let count = |path: &[&str]| stats.path(path).and_then(Value::as_u64);
        let need = |path: &[&str]| count(path).ok_or_else(|| format!("stats reply lacks {path:?}"));
        let pair = |ns: &str| -> Result<(u64, u64), String> {
            Ok((
                need(&["total", ns, "hits"])?,
                need(&["total", ns, "misses"])?,
            ))
        };
        // `disk` and `peer` are present only on daemons that have the tier.
        let optional = |path: &[&str]| count(path).unwrap_or(0);
        Ok(Counters {
            programs: pair("programs")?,
            summaries: pair("summaries")?,
            walks: pair("walks")?,
            program_evictions: need(&["store", "programs", "totals", "evictions"])?,
            store_programs: (
                need(&["store", "programs", "totals", "hits"])?,
                need(&["store", "programs", "totals", "misses"])?,
            ),
            disk_hits: optional(&["store", "disk", "hits"]),
            disk_misses: optional(&["store", "disk", "misses"]),
            peer_hits: optional(&["store", "peer", "hits"]),
            peer_bytes_in: optional(&["store", "peer", "bytes_in"]),
        })
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let pair = |now: (u64, u64), then: (u64, u64)| (now.0 - then.0, now.1 - then.1);
        Counters {
            programs: pair(self.programs, earlier.programs),
            summaries: pair(self.summaries, earlier.summaries),
            walks: pair(self.walks, earlier.walks),
            program_evictions: self.program_evictions - earlier.program_evictions,
            store_programs: pair(self.store_programs, earlier.store_programs),
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_misses: self.disk_misses - earlier.disk_misses,
            peer_hits: self.peer_hits - earlier.peer_hits,
            peer_bytes_in: self.peer_bytes_in - earlier.peer_bytes_in,
        }
    }
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    match hits + misses {
        0 => 0.0,
        lookups => hits as f64 / lookups as f64,
    }
}
