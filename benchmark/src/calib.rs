//! A machine-speed reference measured while a run is in progress.
//!
//! On a small shared box the same code costs 15–40 % more CPU time from one
//! minute to the next: a hypervisor that silently takes time from a guest
//! shows up neither as steal nor as wall-clock jitter alone — the daemon's
//! own `utime + stime` per request inflates with it.  No amount of slicing
//! removes a shift that lasts longer than a run.
//!
//! So a calibrator thread runs a fixed unit of work at a ~10 % duty cycle for
//! the whole run and times each unit on its own CPU clock.  The mean unit
//! time over a slice, relative to [`REFERENCE_UNIT_NS`], is how much slower
//! than the reference the machine was during that slice, and every time-like
//! metric of the slice is divided by it (rates multiplied).  The unit never
//! changes with the code under test, so a real regression still shows in
//! full; only the machine's own drift is taken out.

use crate::json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one unit costs on the box this benchmark was defined on, in its
/// usual (unloaded) state.  Only fixes the scale: with it, normalized
/// metrics read like raw ones on that box.
pub const REFERENCE_UNIT_NS: f64 = 400_000.0;

/// Parses per unit; sized so a unit takes about [`REFERENCE_UNIT_NS`].
const PARSES_PER_UNIT: usize = 128;

/// Idle time between units: nine reference units, for a ~10 % duty cycle.
/// Fixed rather than proportional to the last unit, so that one unit that
/// was held up for long does not silence the calibrator for nine times as
/// long.
const IDLE: Duration = Duration::from_nanos(9 * REFERENCE_UNIT_NS as u64);

/// The work: parsing a reply-shaped document, which like the daemon's hot
/// paths is byte scanning, branching and small allocations.
const DOCUMENT: &str = r#"{"protocol_version":2,"type":"analyzed","summary":{"fingerprint":"758600a2305880e7","cache_hit":true,"structure":"TREE","preserves_tree":false,"warnings":["[DAG?] reverse: `h.left := r` — `r` may already be attached elsewhere; the store may create a DAG"],"rounds":4,"analysis_digest":"8b6b050f2b676553","shards":[{"hits":1,"misses":2,"insertions":3,"evictions":4},{"hits":5,"misses":6,"insertions":7,"evictions":8}]}}"#;

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPU_CLOCK: i32 = 3;

/// CPU time this thread has used, in ns.  Unlike wall time it does not grow
/// while the guest kernel runs another thread on this core; like wall time
/// it does grow while the hypervisor runs another guest, which is the effect
/// to be measured.
fn thread_cpu_ns() -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit integers on
    // 64-bit Linux, which `Timespec` mirrors with `repr(C)`) through the
    // pointer, which is valid and exclusive for the call.
    let status = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64
}

fn one_unit() -> u64 {
    let before = thread_cpu_ns();
    for _ in 0..PARSES_PER_UNIT {
        std::hint::black_box(Value::parse(std::hint::black_box(DOCUMENT)).is_ok());
    }
    thread_cpu_ns() - before
}

/// The running calibrator thread.
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, u64)>>,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let unit_ns = one_unit();
                samples.push((Instant::now(), unit_ns));
                std::thread::sleep(IDLE);
            }
            samples
        });
        Calibrator { stop, thread }
    }

    pub fn finish(self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        Speed {
            samples: self.thread.join().expect("the calibrator panicked"),
        }
    }
}

/// Every unit timed during a run.
pub struct Speed {
    samples: Vec<(Instant, u64)>,
}

impl Speed {
    /// How many times slower than the reference the machine was between
    /// `from` and `to`: the mean unit time over [`REFERENCE_UNIT_NS`].  The
    /// mean, not the median — time taken away comes in bursts, and a burst
    /// costs the daemon throughput whether or not a typical unit saw it.
    pub fn slowdown(&self, from: Instant, to: Instant) -> Result<f64, String> {
        let units: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| (from..to).contains(at))
            .map(|(_, ns)| *ns as f64)
            .collect();
        if units.len() < 5 {
            return Err(format!(
                "only {} calibration units in {:?}",
                units.len(),
                to - from
            ));
        }
        Ok(units.iter().sum::<f64>() / units.len() as f64 / REFERENCE_UNIT_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_takes_cpu_time_and_the_document_parses() {
        assert!(Value::parse(DOCUMENT).is_ok());
        let ns = one_unit();
        assert!(ns > 10_000, "a unit took {ns} ns");
    }

    #[test]
    fn slowdown_is_the_mean_over_the_window() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let speed = Speed {
            samples: (0..40u64)
                .map(|i| (at(i * 10), if i < 20 { 400_000 } else { 800_000 }))
                .collect(),
        };
        assert_eq!(speed.slowdown(at(0), at(200)), Ok(1.0));
        assert_eq!(speed.slowdown(at(200), at(400)), Ok(2.0));
        assert_eq!(speed.slowdown(at(0), at(400)), Ok(1.5));
        assert!(speed.slowdown(at(0), at(40)).is_err());
    }
}
