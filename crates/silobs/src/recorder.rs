//! The flight recorder: a bounded ring of periodic metrics samples.
//!
//! A point-in-time `metrics` snapshot answers "what has happened since
//! boot"; it cannot answer "what is happening *now*" — req/s, how many
//! connections are open, the p99 of the last second.  The flight recorder closes that
//! gap: a background sampler feeds it one [`RawMetrics`] read per tick
//! (default 1 Hz), and it retains the most recent `capacity` samples
//! (default 256 — about four minutes of history) as [`HistorySample`]s.
//!
//! Counters and gauges are stored cumulative — consumers diff adjacent
//! samples to get rates, and a monotone counter series is the recorder's
//! own consistency check.  Histograms are stored as **interval** quantile
//! summaries: each sample keeps the previous tick's full bucket array and
//! subtracts it ([`crate::HistogramSnapshot::delta`]), so a sample's p99
//! is the p99 of that tick alone, not an ever-flattening lifetime
//! quantile.

use crate::metrics::{MetricsSnapshot, RawMetrics};
use std::collections::VecDeque;
use std::sync::Mutex;

/// One recorder tick: when it was taken (process ticks, µs — see
/// [`crate::ticks`]) and the metrics view at that moment (cumulative
/// counters/gauges, interval histogram summaries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistorySample {
    pub at_us: u64,
    pub metrics: MetricsSnapshot,
}

#[derive(Debug, Default)]
struct RecorderState {
    samples: VecDeque<HistorySample>,
    /// The previous tick's raw read, kept with full histogram buckets so
    /// the next tick can compute exact interval deltas.
    last_raw: Option<RawMetrics>,
}

/// A bounded ring of metrics samples; see the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    capacity: usize,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(256)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` (at least 2 — one sample
    /// has no deltas) recent samples.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            state: Mutex::new(RecorderState::default()),
            capacity: capacity.max(2),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ingest one raw read taken at `at_us`, evicting the oldest sample
    /// when full.  Histograms are summarized against the previous tick's
    /// buckets; the first tick summarizes its lifetime distribution.
    pub fn sample_at(&self, at_us: u64, raw: RawMetrics) {
        let mut state = self.state.lock().unwrap();
        let metrics = match &state.last_raw {
            Some(last) => raw.summarize_interval(last),
            None => raw.summarize(),
        };
        if state.samples.len() == self.capacity {
            state.samples.pop_front();
        }
        state.samples.push_back(HistorySample { at_us, metrics });
        state.last_raw = Some(raw);
    }

    /// Ingest one raw read stamped with the current tick clock.
    pub fn sample(&self, raw: RawMetrics) {
        self.sample_at(crate::ticks(), raw);
    }

    /// The retained samples, oldest first.
    pub fn history(&self) -> Vec<HistorySample> {
        self.state.lock().unwrap().samples.iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.state.lock().unwrap().samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use std::sync::Arc;

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let recorder = FlightRecorder::new(3);
        let registry = Registry::new();
        let requests = registry.counter("server.requests");
        for tick in 1..=5u64 {
            requests.incr();
            recorder.sample_at(tick * 1000, registry.collect());
        }
        let history = recorder.history();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history.iter().map(|s| s.at_us).collect::<Vec<_>>(),
            vec![3000, 4000, 5000]
        );
        assert_eq!(history[2].metrics.counter("server.requests"), Some(5));
    }

    #[test]
    fn histogram_samples_are_intervals_not_lifetimes() {
        let recorder = FlightRecorder::new(8);
        let registry = Registry::new();
        let hist = registry.histogram("server.serve_us");
        for _ in 0..100 {
            hist.record(10);
        }
        recorder.sample_at(1000, registry.collect());
        for _ in 0..100 {
            hist.record(10_000);
        }
        recorder.sample_at(2000, registry.collect());
        let history = recorder.history();
        let first = history[0].metrics.histogram("server.serve_us").unwrap();
        let second = history[1].metrics.histogram("server.serve_us").unwrap();
        assert_eq!(first.count, 100);
        assert_eq!(second.count, 100, "interval count, not cumulative 200");
        assert!(second.p50 > 5_000, "interval p50 = {}", second.p50);
        assert!(first.p50 <= 16, "first-tick p50 = {}", first.p50);
    }

    /// Satellite coverage: hammer the instruments from several threads
    /// while sampling runs — no panic, and the counter series every
    /// consumer diffs stays monotone.
    #[test]
    fn concurrent_updates_during_sampling_stay_monotone() {
        let recorder = Arc::new(FlightRecorder::new(64));
        let registry = Arc::new(Registry::new());
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let registry = registry.clone();
            writers.push(std::thread::spawn(move || {
                let requests = registry.counter("server.requests");
                let depth = registry.gauge("server.queue_depth");
                let hist = registry.histogram("server.serve_us");
                for i in 0..5_000u64 {
                    requests.incr();
                    depth.set((i % 7) as i64);
                    hist.record(t * 100 + i % 97);
                }
            }));
        }
        let sampler = {
            let recorder = recorder.clone();
            let registry = registry.clone();
            std::thread::spawn(move || {
                for tick in 0..200u64 {
                    recorder.sample_at(tick, registry.collect());
                }
            })
        };
        for writer in writers {
            writer.join().unwrap();
        }
        sampler.join().unwrap();
        recorder.sample(registry.collect());

        let history = recorder.history();
        assert!(history.len() >= 2);
        let series: Vec<u64> = history
            .iter()
            .filter_map(|s| s.metrics.counter("server.requests"))
            .collect();
        assert_eq!(series.len(), history.len());
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "counter series must be monotone: {series:?}"
        );
        assert_eq!(*series.last().unwrap(), 20_000);
    }
}
