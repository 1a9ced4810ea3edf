//! The closed-loop end-to-end run of one workload against a fresh `sild`.
//!
//! Load model: `2 × min(nproc, 2)` client lanes, one connection each, every lane
//! sending its next request when the previous reply has arrived and been
//! checked — the callers this daemon has (`silp`, a CI runner, a compiler
//! farm worker) all wait for their answer.  After set-up and an unmeasured
//! warm-up the window is cut into equal slices; every rate and latency
//! reported is the median of the per-slice values, so a disturbance confined
//! to one slice does not move it.

use crate::calib::Calibrator;
use crate::daemon::{Conn, Counters, Daemon, RunDir};
use crate::json::Value;
use crate::stats::{median, per_slice_percentile, samples_beyond};
use crate::workload::{Expectation, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// How a run spends its time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fresh-daemon set-ups to take the median of: at least `.0`, then more
    /// until `setup_budget` is spent, at most `.1`.  The last one is measured.
    pub setups: (usize, usize),
    pub setup_budget: Duration,
    pub warmup: Duration,
    pub slices: usize,
    pub slice: Duration,
}

impl Plan {
    /// A measured window of `seconds`, in five slices, after a warm-up of
    /// 15 % of it (at most 3 s).
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            setups: (3, 40),
            setup_budget: Duration::from_millis(2500),
            warmup: Duration::from_secs_f64((seconds * 0.15).min(3.0)),
            slices: 5,
            slice: Duration::from_secs_f64(seconds / 5.0),
        }
    }
}

/// Client lanes = connections: two per core, on at most two cores.
///
/// One lane per core (the issue's first choice) leaves a core idle whenever
/// its lane's request is in flight on the other one, and on a virtual
/// machine waking an idle vCPU takes as long as the host pleases: whole
/// minutes were seen during which throughput halved while the daemon's CPU
/// time per request barely moved.  With two lanes per core no core ever
/// idles, a run is CPU-bound, and the calibrator can account for the rest
/// (`cold_unique`, ten interleaved runs each: rps spread 13 % → 5 %, p50
/// 13 % → 3 %, with two of the one-lane runs losing 20–40 %).
pub fn lanes() -> usize {
    2 * std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent, over every set-up, the warm-up and the window.
    pub attempted: u64,
    /// Of those: `"type":"error"` replies and replies that disagree with
    /// `expected.tsv`.  (A transport failure aborts the run instead.)
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Replies received inside the measured window.
    pub completed: u64,
    /// How many times slower than the reference the machine ran during the
    /// window (median over slices); see [`crate::calib`].
    pub slowdown: f64,
    /// The time-like metrics as this machine produced them …
    pub raw: Timings,
    /// … and with each slice's (and each set-up's) own slowdown taken out,
    /// which is what the benchmark reports and bounds.
    pub normal: Timings,
    /// The fewest samples any slice had beyond its 99th percentile.
    pub p99_beyond: usize,
    pub peak_rss_mb: f64,
    /// Daemon counters over the measured window.
    pub counters: Counters,
}

/// The window as measured, one value per slice (and per set-up).
struct PerSlice {
    rps: Vec<f64>,
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    cpu_us: Vec<f64>,
    setups: Vec<f64>,
}

impl PerSlice {
    /// Divide every slice's times by that slice's `slowdown` (multiply its
    /// rate), then take medians over the slices.
    fn timings(&self, slowdown: &[f64], setup_slowdown: f64) -> Timings {
        let over_slices = |values: &[f64], f: fn(f64, f64) -> f64| {
            let scaled: Vec<f64> = values
                .iter()
                .zip(slowdown)
                .map(|(v, s)| f(*v, *s))
                .collect();
            median(&scaled)
        };
        Timings {
            rps: over_slices(&self.rps, |rate, slow| rate * slow),
            p50_us: over_slices(&self.p50_ns, |time, slow| time / slow) / 1e3,
            p99_us: over_slices(&self.p99_ns, |time, slow| time / slow) / 1e3,
            cpu_us_per_req: over_slices(&self.cpu_us, |time, slow| time / slow),
            setup_s: median(&self.setups) / setup_slowdown,
        }
    }
}

/// Requests sent and answers found wrong, with the first few reasons.
/// Every metric that scales with machine speed, each the median of its
/// per-slice (for `setup_s`, per-set-up) values.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_req: f64,
    pub setup_s: f64,
}

#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// Send one request and hold the reply to `expectation`.  Returns the
    /// round trip: from before the send to the reply line being read, not
    /// counting the check.
    fn exchange(
        &mut self,
        workload: &Workload,
        conn: &mut Conn,
        line: &str,
        expectation: &Expectation,
    ) -> Result<Duration, String> {
        self.attempted += 1;
        let sent = Instant::now();
        let reply = conn.call(line)?;
        let round_trip = sent.elapsed();
        let verdict = Value::parse(reply)
            .map_err(|e| format!("unparseable reply: {e}"))
            .and_then(|value| workload.verify(expectation, &value));
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        Ok(round_trip)
    }
}

/// Start a daemon for `workload` and bring it to the state the stream
/// assumes, priming over every lane at once.  Returns it with the seconds
/// from spawn to primed.
pub fn set_up(
    workload: &Workload,
    sild: &Path,
    extra_args: &[String],
    dir: &RunDir,
    tally: &mut Tally,
) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let args = [workload.daemon_args(), extra_args.to_vec()].concat();
    let daemon = Daemon::spawn(sild, dir, &args)?;
    Counters::read(&mut daemon.connect()?)?;
    let priming = workload.priming();
    let lanes = lanes();
    let primed: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (daemon, priming) = (&daemon, &priming);
                scope.spawn(move || {
                    let mut conn = daemon.connect()?;
                    let mut tally = Tally::default();
                    for (line, expectation) in priming.iter().skip(lane).step_by(lanes) {
                        tally.exchange(workload, &mut conn, line, expectation)?;
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a priming lane panicked"))
            .collect()
    });
    for lane in primed {
        tally.absorb(lane?);
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// Run `workload` per `plan` against daemons started from `sild` with the
/// workload's flags plus `extra_args`.
pub fn run(
    workload: &Workload,
    sild: &Path,
    extra_args: &[String],
    plan: &Plan,
) -> Result<Outcome, String> {
    let calibrator = Calibrator::start();
    let mut tally = Tally::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut measured = None;
    let setting_up = Instant::now();
    while setups.len() < plan.setups.0.max(1)
        || (setups.len() < plan.setups.1 && setting_up.elapsed() < plan.setup_budget)
    {
        // Drop the previous daemon and its directory before the next starts,
        // so set-ups do not compete and leave nothing behind.
        drop(measured.take());
        let dir = RunDir::create(workload.name()).map_err(|e| format!("run dir: {e}"))?;
        let (daemon, seconds) = set_up(workload, sild, extra_args, &dir, &mut tally)?;
        setups.push(seconds);
        measured = Some((daemon, dir));
    }
    let (daemon, _dir) = measured.expect("at least one set-up ran");

    let lanes = lanes();
    let began = Instant::now();
    let window_start = began + plan.warmup;
    let slice_edges: Vec<Instant> = (0..=plan.slices)
        .map(|k| window_start + plan.slice * k as u32)
        .collect();
    let window_end = *slice_edges.last().expect("a plan has slices");

    let mut control = daemon.connect()?;
    let (lane_results, cpu_at_edges, counters) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let daemon = &daemon;
                scope.spawn(move || -> Result<(Tally, Vec<Vec<u64>>), String> {
                    let mut conn = daemon.connect()?;
                    let mut stream = workload.lane(lane, lanes);
                    let mut tally = Tally::default();
                    let mut latencies = vec![Vec::new(); plan.slices];
                    let mut line = String::new();
                    loop {
                        let expectation = stream.next(&mut line);
                        let round_trip =
                            tally.exchange(workload, &mut conn, &line, &expectation)?;
                        let done = Instant::now();
                        if done >= window_end {
                            return Ok((tally, latencies));
                        }
                        if done >= window_start {
                            let slice =
                                ((done - window_start).as_nanos() / plan.slice.as_nanos()) as usize;
                            latencies[slice.min(plan.slices - 1)]
                                .push(round_trip.as_nanos() as u64);
                        }
                    }
                })
            })
            .collect();

        // The coordinator only sleeps between slice edges; at each edge it
        // reads the daemon's CPU clock, and its counters at the outer two.
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        let mut cpu = Vec::new();
        let mut before = Err("the window never started".to_string());
        for (k, &edge) in slice_edges.iter().enumerate() {
            sleep_until(edge);
            cpu.push(daemon.cpu_us());
            if k == 0 {
                before = Counters::read(&mut control);
            }
        }
        let after = Counters::read(&mut control);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a client lane panicked"))
            .collect();
        let counters = before.and_then(|b| Ok(after?.since(&b)));
        (results, cpu, counters)
    });

    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); plan.slices];
    for result in lane_results {
        let (lane_tally, lane_slices) = result?;
        tally.absorb(lane_tally);
        for (all, lane) in slices.iter_mut().zip(lane_slices) {
            all.extend(lane);
        }
    }
    let cpu: Vec<f64> = cpu_at_edges.into_iter().collect::<Result<_, _>>()?;
    if let Some(empty) = slices.iter().position(Vec::is_empty) {
        return Err(format!("slice {empty} completed no request"));
    }

    let speed = calibrator.finish();
    let slowdown: Vec<f64> = slice_edges
        .windows(2)
        .map(|edge| speed.slowdown(edge[0], edge[1]))
        .collect::<Result<_, _>>()?;
    // One set-up is too short for its own reading (a few dozen calibration
    // units), so the whole set-up phase shares one.
    let setup_slowdown = speed.slowdown(setting_up, began)?;

    let slice_secs = plan.slice.as_secs_f64();
    let rps: Vec<f64> = slices.iter().map(|s| s.len() as f64 / slice_secs).collect();
    let cpu: Vec<f64> = (0..plan.slices)
        .map(|k| (cpu[k + 1] - cpu[k]) / slices[k].len() as f64)
        .collect();
    let p50 = per_slice_percentile(&mut slices, 0.50);
    let p99 = per_slice_percentile(&mut slices, 0.99);
    if std::env::var_os("LEDGER_SLICES").is_some() {
        for k in 0..plan.slices {
            eprintln!(
                "{} slice {k}: rps {:.1} p50_us {:.1} p99_us {:.1} cpu_us_per_req {:.1} slowdown {:.4}",
                workload.name(),
                rps[k],
                p50[k] / 1e3,
                p99[k] / 1e3,
                cpu[k],
                slowdown[k]
            );
        }
    }
    let measured = PerSlice {
        rps,
        p50_ns: p50,
        p99_ns: p99,
        cpu_us: cpu,
        setups,
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        completed: slices.iter().map(|s| s.len() as u64).sum(),
        slowdown: median(&slowdown),
        raw: measured.timings(&vec![1.0; plan.slices], 1.0),
        normal: measured.timings(&slowdown, setup_slowdown),
        p99_beyond: slices
            .iter()
            .map(|s| samples_beyond(s.len(), 0.99))
            .min()
            .unwrap_or(0),
        peak_rss_mb: daemon.peak_rss_mb()?,
        counters: counters?,
    })
}
