//! One typed namespace of the store: a content-addressed, lock-striped,
//! capacity-bounded cache that evicts the least recently used entry of the
//! full stripe.
//!
//! Keys are stable 64-bit fingerprints (see `sil_lang::hash`); values are
//! cheaply cloneable (the store holds `Arc`s).  The namespace is split into
//! `stripes` independently locked segments; a key's stripe is a mix of its
//! fingerprint bits, so concurrent engines contend only when they touch the
//! same sliver of the key space.  Each stripe keeps its own counters; the
//! namespace aggregates them on demand.
//!
//! Lookups and insertions are O(1); eviction is an O(stripe) scan.
//! Capacities here are small (hundreds of analysis results per namespace)
//! and the guarded sections never run an analysis — engines compute outside
//! the lock and only then insert.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default stripe count of a namespace (clamped to its capacity).
pub const DEFAULT_STRIPES: usize = 8;

/// Hit/miss/eviction counters of one cache (or one stripe of one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// New entries admitted (re-inserting a resident key does not count).
    pub insertions: u64,
    /// Entries sacrificed to the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Field-wise accumulate (aggregating stripes or namespaces).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }

    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counter snapshot of one namespace: the aggregate and the per-stripe
/// split.  The default is an absent namespace: no entries, capacity 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NamespaceStats {
    /// All stripes' counters, field-wise summed.
    pub totals: CacheStats,
    /// Resident entries right now.
    pub entries: usize,
    /// The configured capacity bound.
    pub capacity: usize,
    /// Per-stripe counters, in stripe order.
    pub stripes: Vec<CacheStats>,
}

impl NamespaceStats {
    /// Fraction of lookups served from the namespace.
    pub fn hit_rate(&self) -> f64 {
        self.totals.hit_rate()
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Logical timestamp of the last hit or (re)insertion.
    last_used: u64,
}

#[derive(Debug)]
struct Stripe<V> {
    entries: HashMap<u64, Entry<V>>,
    stats: CacheStats,
    /// Logical clock, bumped on every touch.
    tick: u64,
    /// This stripe's share of the namespace capacity.
    capacity: usize,
}

/// A content-addressed memoization cache — one namespace of the
/// [`super::SummaryStore`], usable standalone.
#[derive(Debug)]
pub struct NamespaceCache<V> {
    stripes: Vec<Mutex<Stripe<V>>>,
    capacity: usize,
}

/// Take a stripe's lock, recovering the guard if a thread panicked while
/// holding it.  Sound because the guarded sections that run foreign code
/// ([`NamespaceCache::merge`], [`NamespaceCache::get_if`]) call it before
/// mutating anything, and no other guarded section can unwind between two
/// mutations — so a poisoned stripe is still a valid one, and a panicking
/// caller must not take an eighth of the key space down with it.
fn lock<V>(stripe: &Mutex<Stripe<V>>) -> MutexGuard<'_, Stripe<V>> {
    stripe.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V: Clone> NamespaceCache<V> {
    /// A cache holding at most `capacity` entries across
    /// [`DEFAULT_STRIPES`] stripes (`capacity == 0` disables caching
    /// entirely: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> NamespaceCache<V> {
        NamespaceCache::with_stripes(capacity, DEFAULT_STRIPES)
    }

    /// A cache with an explicit stripe count (clamped to `1..=capacity` so
    /// every stripe owns at least one slot).  Stripe count 1 reproduces a
    /// single globally ordered LRU exactly — tests that reason about
    /// precise victim order use it.
    pub fn with_stripes(capacity: usize, stripes: usize) -> NamespaceCache<V> {
        let stripe_count = stripes.clamp(1, capacity.max(1));
        let base = capacity / stripe_count;
        let remainder = capacity % stripe_count;
        let stripes = (0..stripe_count)
            .map(|index| {
                Mutex::new(Stripe {
                    entries: HashMap::new(),
                    stats: CacheStats::default(),
                    tick: 0,
                    capacity: base + usize::from(index < remainder),
                })
            })
            .collect();
        NamespaceCache { stripes, capacity }
    }

    fn stripe(&self, key: u64) -> MutexGuard<'_, Stripe<V>> {
        // Fibonacci multiplicative mix: stripe selection keys off
        // well-scrambled high bits rather than the fingerprint's low bits.
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        lock(&self.stripes[(mixed % self.stripes.len() as u64) as usize])
    }

    /// Look up a fingerprint, recording a hit or miss.
    pub fn get(&self, key: u64) -> Option<V> {
        self.get_if(key, |_| true)
    }

    /// [`NamespaceCache::get`] for a key that does not prove its value: a
    /// resident entry `accept` rejects is a miss, and keeps its recency.
    pub fn get_if(&self, key: u64, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut guard = self.stripe(key);
        let stripe = &mut *guard;
        match stripe.entries.get_mut(&key) {
            Some(entry) if accept(&entry.value) => {
                stripe.tick += 1;
                entry.last_used = stripe.tick;
                stripe.stats.hits += 1;
                Some(entry.value.clone())
            }
            _ => {
                stripe.stats.misses += 1;
                None
            }
        }
    }

    /// Look up a fingerprint without recording a hit or miss and without
    /// touching recency — for internal merge reads that must not skew the
    /// reuse accounting.
    pub fn peek(&self, key: u64) -> Option<V> {
        self.stripe(key).entries.get(&key).map(|e| e.value.clone())
    }

    /// Every resident fingerprint, sorted — the store's peer-inventory
    /// digest.  Stripes are snapshotted one at a time, so the set is
    /// consistent per stripe but only approximately consistent across
    /// them; gossip tolerates that (every advertised key is re-verified
    /// at fetch time anyway).
    pub fn keys(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            keys.extend(lock(stripe).entries.keys().copied());
        }
        keys.sort_unstable();
        keys
    }

    /// Insert a value, evicting the key's stripe's least recently used
    /// entry if the stripe is full.
    ///
    /// Inserting an already-present key refreshes the entry in place —
    /// value and recency — without growing the cache, double-counting the
    /// insertion, or evicting anything.
    ///
    /// The value this displaces, evicted or replaced, is dropped after the
    /// stripe lock is released: freeing a large entry does not hold up
    /// the stripe's other lookups, and a value's `Drop` may use the cache.
    pub fn insert(&self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let displaced = self.stripe(key).insert(key, value);
        drop(displaced);
    }

    /// Atomically merge a value into the cache: `merge` sees the resident
    /// value (if any) and produces the replacement, all under the key's
    /// stripe lock, so concurrent read-merge-write cycles cannot drop each
    /// other's contributions.  The walk-record namespace uses this to fold
    /// freshly recorded walks into a cone's retained set.
    pub fn merge(&self, key: u64, merge: impl FnOnce(Option<&V>) -> V) {
        if self.capacity == 0 {
            return;
        }
        let mut stripe = self.stripe(key);
        let merged = merge(stripe.entries.get(&key).map(|e| &e.value));
        let displaced = stripe.insert(key, merged);
        drop(stripe);
        drop(displaced);
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Aggregate counters only (cheaper than [`NamespaceCache::stats`]).
    pub fn totals(&self) -> CacheStats {
        let mut totals = CacheStats::default();
        for stripe in &self.stripes {
            totals.absorb(&lock(stripe).stats);
        }
        totals
    }

    /// Full snapshot: aggregate and per-stripe counters.
    pub fn stats(&self) -> NamespaceStats {
        let mut totals = CacheStats::default();
        let mut entries = 0;
        let mut stripes = Vec::with_capacity(self.stripes.len());
        for stripe in &self.stripes {
            let stripe = lock(stripe);
            totals.absorb(&stripe.stats);
            entries += stripe.entries.len();
            stripes.push(stripe.stats);
        }
        NamespaceStats {
            totals,
            entries,
            capacity: self.capacity,
            stripes,
        }
    }

    /// Drop every entry (the counters survive), each stripe's after its
    /// lock is released.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let entries = std::mem::take(&mut lock(stripe).entries);
            drop(entries);
        }
    }
}

impl<V> Stripe<V> {
    /// Insert or refresh `key`, returning the value that displaced (the
    /// key's old value, or the evicted victim's) for the caller to drop
    /// once the lock is released.
    #[must_use = "drop the displaced value after releasing the stripe lock"]
    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(existing) = self.entries.get_mut(&key) {
            existing.last_used = tick;
            return Some(std::mem::replace(&mut existing.value, value));
        }
        let mut displaced = None;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                displaced = self.entries.remove(&victim).map(|e| e.value);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        self.stats.insertions += 1;
        displaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-stripe cache: globally ordered eviction.
    fn cache<V: Clone>(capacity: usize) -> NamespaceCache<V> {
        NamespaceCache::with_stripes(capacity, 1)
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = cache(4);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "one");
        assert_eq!(cache.get(1), Some("one"));
        let stats = cache.stats();
        assert_eq!(stats.totals.hits, 1);
        assert_eq!(stats.totals.misses, 1);
        assert_eq!(stats.totals.insertions, 1);
        assert_eq!(stats.totals.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_handles_the_empty_cache() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let cache = cache(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.peek(1), Some(1));
        assert_eq!(cache.totals().hits, 0);
        // peek(1) must not have refreshed 1: it is still the LRU victim.
        cache.insert(3, 3);
        assert_eq!(cache.peek(1), None, "1 was evicted despite the peek");
        assert_eq!(cache.peek(2), Some(2));
    }

    #[test]
    fn a_rejected_entry_is_a_miss_and_keeps_its_recency() {
        let cache = cache(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.get_if(1, |v| *v == "uno"), None);
        assert_eq!(cache.get_if(2, |v| *v == "two"), Some("two"));
        assert_eq!(cache.totals().hits, 1);
        assert_eq!(cache.totals().misses, 1);
        // The rejected lookup did not refresh 1: it is still the LRU victim.
        cache.insert(3, "three");
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.peek(2), Some("two"));
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = cache(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.get(1); // 2 is now the least recently used
        cache.insert(3, 3);
        assert_eq!(cache.get(2), None, "2 should have been evicted");
        assert_eq!(cache.get(1), Some(1));
        assert_eq!(cache.get(3), Some(3));
        assert_eq!(cache.totals().evictions, 1);
    }

    #[test]
    fn capacity_bound_holds_across_stripes() {
        for stripes in [1, 3, 8] {
            let cache: NamespaceCache<u64> = NamespaceCache::with_stripes(12, stripes);
            for key in 0..300u64 {
                cache.insert(key, key);
            }
            assert_eq!(cache.len(), 12, "{stripes} stripes");
            assert_eq!(cache.totals().evictions, 288, "{stripes} stripes");
            let stats = cache.stats();
            assert_eq!(stats.stripes.len(), stripes.min(12));
            assert_eq!(stats.stripes.iter().map(|s| s.insertions).sum::<u64>(), 300);
        }
    }

    #[test]
    fn stripe_count_is_clamped_to_capacity() {
        let tiny: NamespaceCache<u64> = NamespaceCache::with_stripes(2, 64);
        assert_eq!(tiny.stats().stripes.len(), 2);
        for key in 0..50u64 {
            tiny.insert(key, key);
        }
        assert!(tiny.len() <= 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: NamespaceCache<u64> = NamespaceCache::new(0);
        cache.insert(1, 1);
        cache.merge(2, |_| 2);
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.len(), 0);
    }

    /// Re-inserting a resident key refreshes it in place — no entry
    /// growth, no double-counted insertion, no eviction — and makes it the
    /// most recently used.
    #[test]
    fn reinsert_refreshes_recency_under_lru() {
        let cache = cache(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(1, 10);
        cache.insert(1, 11); // 2 is now the stalest
        assert_eq!(cache.len(), 2, "re-inserts must not grow the cache");
        let stats = cache.totals();
        assert_eq!(stats.insertions, 2, "re-inserts are not new insertions");
        assert_eq!(stats.evictions, 0);

        cache.insert(3, 3);
        assert_eq!(cache.peek(1), Some(11));
        assert_eq!(cache.peek(2), None, "2 was the LRU victim");
        assert_eq!(cache.totals().evictions, 1);
    }

    /// A displaced value is dropped after its stripe lock is released, so
    /// a value whose `Drop` uses the cache it was in neither deadlocks nor
    /// sees the stripe mid-update.  Run on a thread with a deadline: a
    /// drop under the lock would wait on it forever.
    #[test]
    fn a_displaced_value_is_dropped_outside_the_stripe_lock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::OnceLock;
        static CACHE: OnceLock<NamespaceCache<ReadsCache>> = OnceLock::new();
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct ReadsCache(u64);
        impl Drop for ReadsCache {
            fn drop(&mut self) {
                if let Some(cache) = CACHE.get() {
                    SEEN.fetch_add(cache.len(), Ordering::SeqCst);
                }
            }
        }

        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let cache = CACHE.get_or_init(|| NamespaceCache::with_stripes(1, 1));
            cache.insert(1, ReadsCache(1));
            cache.insert(2, ReadsCache(2)); // evicts 1
            cache.insert(2, ReadsCache(3)); // replaces 2
            cache.merge(2, |old| ReadsCache(old.map_or(0, |v| v.0) + 1)); // replaces 3
            cache.clear();
            done.send(SEEN.load(Ordering::SeqCst))
                .expect("the test waits");
        });
        let seen = finished
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a displaced value was dropped under its stripe lock");
        worker.join().expect("the worker finished");
        // Each of the four displaced values saw one resident entry but
        // the last, dropped after `clear` emptied the stripe.
        assert_eq!(seen, 3);
    }

    #[test]
    fn merge_sees_the_resident_value_and_replaces_it() {
        let cache: NamespaceCache<Vec<u64>> = cache(4);
        cache.merge(7, |existing| {
            assert!(existing.is_none());
            vec![1]
        });
        cache.merge(7, |existing| {
            let mut merged = existing.cloned().unwrap();
            merged.push(2);
            merged
        });
        assert_eq!(cache.get(7), Some(vec![1, 2]));
        assert_eq!(cache.totals().insertions, 1, "second merge was a refresh");
    }

    /// `merge` runs its caller's closure under the stripe lock.  A panic
    /// there poisons the mutex; the stripe must keep serving every later
    /// operation, with the resident value intact and the counters showing
    /// exactly the operations that completed.
    #[test]
    fn a_panic_under_the_stripe_lock_does_not_take_the_stripe_down() {
        let cache: NamespaceCache<u64> = cache(4);
        cache.insert(7, 70);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.merge(7, |_| panic!("caller's merge closure failed"))
        }));
        assert!(unwound.is_err());
        assert!(
            cache.stripes[0].is_poisoned(),
            "the panic was under the lock"
        );

        assert_eq!(cache.get(7), Some(70), "the failed merge changed nothing");
        cache.insert(7, 71);
        cache.merge(7, |resident| resident.copied().unwrap_or(0) + 1);
        assert_eq!(cache.peek(7), Some(72));
        assert_eq!(cache.keys(), [7]);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(
            stats.totals,
            CacheStats {
                hits: 1,
                misses: 0,
                insertions: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.totals(), stats.totals);
        cache.clear();
        assert_eq!(cache.get(7), None);
        assert_eq!(cache.totals().misses, 1);
    }

    /// The committed reference for any later eviction-policy proposal: the
    /// deployed shape (256 entries, 8 stripes) over the three request
    /// shapes the service sees, 60 000 get-then-insert-on-miss requests
    /// each.  The ratios are what recency measures on these exact streams
    /// (± 0.02 allows for a different stripe mix, not a different rule).
    /// On the same streams the least-frequently-used rule this store once
    /// offered scored 0.78 / 0.47 / 0.04: ahead on stationary popularity,
    /// far behind once popularity drifts or clients move on.
    #[test]
    fn lru_hit_ratio_on_three_traffic_shapes() {
        use rand::distributions::{Distribution, Zipf};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const REQUESTS: u64 = 60_000;
        let zipf = Zipf::new(1024, 1.0).unwrap();
        // Zipf(1.0) over 1 024 programs — the `disk_spill` shape.
        let mut stationary = |rng: &mut StdRng, _: u64| zipf.sample(rng);
        // The same law with the rank → program map shifted by 128 every
        // 10 000 requests: yesterday's hot programs go cold.
        let mut drifting =
            |rng: &mut StdRng, i: u64| (zipf.sample(rng) + 128 * (i / 10_000)) % 1024;
        // 512 clients, each submitting its current version 8 times and
        // then moving on to a never-seen one.
        let mut versions: Vec<(u64, u64)> = (0..512).map(|client| (client, 0)).collect();
        let mut next_version = 512;
        let mut edit_sessions = |rng: &mut StdRng, _: u64| {
            let current = &mut versions[rng.gen_range(0..512usize)];
            if current.1 == 8 {
                *current = (next_version, 0);
                next_version += 1;
            }
            current.1 += 1;
            current.0
        };
        // Store keys are content fingerprints, so the small integers the
        // generators produce are scrambled (one SplitMix64 step each).
        let replay = |next: &mut dyn FnMut(&mut StdRng, u64) -> u64| {
            let cache: NamespaceCache<u64> = NamespaceCache::new(256);
            let mut rng = StdRng::seed_from_u64(1);
            for i in 0..REQUESTS {
                let key = StdRng::seed_from_u64(next(&mut rng, i)).gen_u64();
                if cache.get(key).is_none() {
                    cache.insert(key, key);
                }
            }
            cache.totals().hit_rate()
        };
        for (shape, ratio, expected) in [
            ("stationary Zipf", replay(&mut stationary), 0.736),
            ("drifting Zipf", replay(&mut drifting), 0.733),
            ("edit sessions", replay(&mut edit_sessions), 0.420),
        ] {
            assert!(
                (ratio - expected).abs() <= 0.02,
                "{shape}: hit ratio {ratio:.4}, expected {expected} ± 0.02"
            );
        }
    }
}
