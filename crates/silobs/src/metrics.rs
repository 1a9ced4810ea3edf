//! The metrics registry: named atomic instruments, collected into
//! mergeable raw form and summarized into the compact shape that crosses
//! the wire.
//!
//! Instruments are cheap clonable handles (an `Arc` around an atomic);
//! registration takes a lock, but a handle obtained once is lock-free to
//! update forever — callers register at construction time and update on
//! the hot path.

use crate::hist::{HistogramSnapshot, ShardedHistogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: a signed level that moves both ways (queue depths,
/// in-flight request counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Arc<ShardedHistogram>>,
}

/// A named collection of instruments.
///
/// `counter`/`gauge`/`histogram` get-or-create by name, so independent
/// components can share an instrument by agreeing on its name.  Collection
/// ([`Registry::collect`]) walks the `BTreeMap`s, so output order is
/// deterministic (sorted by name).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<ShardedHistogram> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(ShardedHistogram::default()))
            .clone()
    }

    /// Read every instrument into mergeable raw form, sorted by name.
    pub fn collect(&self) -> RawMetrics {
        let inner = self.inner.lock().unwrap();
        RawMetrics {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time read of a registry, still carrying full histogram
/// bucket arrays so two reads of the same instruments give an exact
/// interval distribution before quantile extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawMetrics {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl RawMetrics {
    pub fn new() -> RawMetrics {
        RawMetrics::default()
    }

    /// Add (or bump) a counter by name — for exporting values that live
    /// outside any registry, like the store's per-namespace totals.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(at) => self.counters[at].1 += value,
            Err(at) => self.counters.insert(at, (name.to_string(), value)),
        }
    }

    /// Add (or accumulate into) a gauge by name.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(at) => self.gauges[at].1 += value,
            Err(at) => self.gauges.insert(at, (name.to_string(), value)),
        }
    }

    /// Add (or merge into) a histogram by name — for exporting latency
    /// distributions that live outside any registry, like the store's
    /// peer-fetch timings.
    pub fn push_histogram(&mut self, name: &str, snapshot: &HistogramSnapshot) {
        match self
            .histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(at) => self.histograms[at].1.merge(snapshot),
            Err(at) => self
                .histograms
                .insert(at, (name.to_string(), snapshot.clone())),
        }
    }

    /// Collapse to the compact wire shape with **interval** histogram
    /// summaries: counters and gauges stay cumulative (consumers diff
    /// them between samples), but each histogram is summarized over only
    /// the samples recorded since `earlier` (a previous read of the same
    /// instruments), via [`HistogramSnapshot::delta`].  This is the
    /// flight recorder's sample shape — a true per-interval p99 instead
    /// of an ever-flattening lifetime quantile.
    pub fn summarize_interval(&self, earlier: &RawMetrics) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, snapshot)| {
                    let interval = match earlier
                        .histograms
                        .binary_search_by(|(n, _)| n.as_str().cmp(name))
                    {
                        Ok(at) => snapshot.delta(&earlier.histograms[at].1),
                        Err(_) => snapshot.clone(),
                    };
                    (name.clone(), HistogramSummary::of(&interval))
                })
                .collect(),
        }
    }

    /// Collapse to the compact wire shape: histograms become quantile
    /// summaries.
    pub fn summarize(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, snapshot)| (name.clone(), HistogramSummary::of(snapshot)))
                .collect(),
        }
    }
}

/// The quantile summary of one histogram, as shipped over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistogramSummary {
    pub fn of(snapshot: &HistogramSnapshot) -> HistogramSummary {
        HistogramSummary {
            count: snapshot.count(),
            sum: snapshot.sum(),
            min: snapshot.min(),
            max: snapshot.max(),
            p50: snapshot.p50(),
            p90: snapshot.p90(),
            p99: snapshot.p99(),
            p999: snapshot.p999(),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The compact metrics view that crosses the wire: sorted name/value
/// pairs plus per-histogram quantile summaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| self.counters[at].1)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| self.gauges[at].1)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| &self.histograms[at].1)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let registry = Registry::new();
        let a = registry.counter("requests");
        let b = registry.counter("requests");
        a.incr();
        b.add(2);
        assert_eq!(registry.counter("requests").get(), 3);

        let g = registry.gauge("depth");
        g.set(5);
        g.sub(2);
        assert_eq!(registry.gauge("depth").get(), 3);

        registry.histogram("lat").record(100);
        assert_eq!(registry.histogram("lat").count(), 1);
    }

    #[test]
    fn collect_is_sorted_and_summarizes() {
        let registry = Registry::new();
        registry.counter("z.last").add(9);
        registry.counter("a.first").add(1);
        registry.gauge("depth").set(-2);
        let h = registry.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let raw = registry.collect();
        let snap = raw.summarize();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("z.last".to_string(), 9)]
        );
        assert_eq!(snap.gauge("depth"), Some(-2));
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 100);
        assert_eq!(lat.min, 1);
        assert_eq!(lat.max, 100);
        assert!(lat.p50 >= 45 && lat.p50 <= 55, "p50 = {}", lat.p50);
        assert!(snap.histogram("nope").is_none());
    }
}
