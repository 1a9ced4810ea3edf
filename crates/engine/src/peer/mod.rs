//! Program-cache peering: a ring of `sild` daemons that gossip digest
//! inventories and fetch each other's whole-program misses before
//! recomputing.
//!
//! The NDN caching literature (see PAPERS.md) treats a network of caches
//! as one storage fabric: content is fetched from the nearest replica and
//! admitted locally per the node's own policy.  This module applies that
//! model to analyzed programs, the one kind of entry worth a round trip
//! (see [`crate::store`]).  A [`PeerRing`] holds typed handles to N peer
//! daemons; an anti-entropy gossip loop ([`gossip`]) periodically
//! exchanges compact inventories (store generation + held program
//! fingerprints) over the additive `peer_inventory` protocol kind, and the
//! store's miss path calls into [`fetch`] so a program analyzed anywhere
//! in the cluster is a warm hit everywhere — memory → disk → **peer** →
//! recompute.
//!
//! Trust is identical to the disk tier: a fetched body is the same codec
//! document the durable tier persists, and it is re-verified (stored
//! fingerprint, re-parsed source fingerprint, recomputed analysis digest)
//! before admission, so a corrupt or lying peer degrades to a miss, never
//! to a wrong answer.  Robustness is built in: per-fetch deadlines reuse
//! the [`RemoteService`] timeout plumbing, a failure-count breaker
//! quarantines a dead peer and probes it back on expiry, single-flight
//! dedup collapses a thundering herd on one program into one fetch, and a
//! peer answers fetches from its own store only — never by recomputing,
//! never by re-forwarding to *its* peers — so fetch chains cannot loop.

pub mod fetch;
pub mod gossip;

use crate::service::{Addr, RemoteService};
use silobs::{HistogramSnapshot, ShardedHistogram, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Peering parameters.  The defaults suit a LAN cluster; tests shrink the
/// intervals to keep breaker trips and probes fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerConfig {
    /// The peer daemons to gossip with and fetch from.
    pub peers: Vec<Addr>,
    /// How often the gossip loop exchanges inventories.
    pub gossip_interval: Duration,
    /// Per-fetch deadline, applied as the [`RemoteService`] connect, read,
    /// and write timeout on every peer connection.
    pub fetch_timeout: Duration,
    /// Consecutive transport failures before a peer is quarantined.
    pub failure_threshold: u32,
    /// How long a quarantined peer sits out before the gossip loop probes
    /// it again.
    pub quarantine: Duration,
}

impl PeerConfig {
    pub fn new(peers: Vec<Addr>) -> PeerConfig {
        PeerConfig {
            peers,
            gossip_interval: Duration::from_secs(2),
            fetch_timeout: Duration::from_secs(2),
            failure_threshold: 3,
            quarantine: Duration::from_secs(10),
        }
    }

    pub fn with_gossip_interval(mut self, interval: Duration) -> PeerConfig {
        self.gossip_interval = interval;
        self
    }

    pub fn with_fetch_timeout(mut self, timeout: Duration) -> PeerConfig {
        self.fetch_timeout = timeout;
        self
    }

    pub fn with_failure_threshold(mut self, threshold: u32) -> PeerConfig {
        self.failure_threshold = threshold.max(1);
        self
    }

    pub fn with_quarantine(mut self, quarantine: Duration) -> PeerConfig {
        self.quarantine = quarantine;
        self
    }
}

/// Counter snapshot of the peering tier, carried as the optional `peer`
/// member of a `stats` response.  The fetch-side counters come from the
/// ring; `serves`/`bytes_out` count what this daemon answered *to* its
/// peers and live on the store, so a daemon that only serves (no `--peer`
/// flags of its own) still reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Peers configured in the ring.
    pub peers: u64,
    /// Peers currently quarantined by the failure breaker.
    pub quarantined: u64,
    /// Store misses served by a verified peer fetch.
    pub hits: u64,
    /// Fetches no live peer could satisfy (the miss path falls through to
    /// recompute).
    pub misses: u64,
    /// Completed gossip rounds.
    pub gossip_rounds: u64,
    /// Times the breaker moved a peer into quarantine.
    pub quarantines: u64,
    /// Reply bytes read off the wire from peers (inventories + bodies),
    /// as counted by the transport — not a re-encoding estimate.
    pub bytes_in: u64,
    /// Entry bytes this daemon served to fetching peers.
    pub bytes_out: u64,
    /// Peer inventory/fetch requests this daemon answered.
    pub serves: u64,
    /// Remote program fingerprints currently advertised to this ring by
    /// gossip.
    pub known_keys: u64,
}

/// Everything the ring knows about one peer, guarded by one lock: the
/// cached connection, the breaker state, and the advertised inventory.
#[derive(Debug, Default)]
pub(crate) struct PeerInner {
    pub(crate) conn: Option<RemoteService>,
    /// Consecutive transport failures since the last success.
    pub(crate) failures: u32,
    /// `Some(t)` while quarantined; an attempt after `t` is the probe.
    pub(crate) quarantined_until: Option<Instant>,
    /// The peer answered a peer kind with `malformed`: it is alive but
    /// does not speak the peering extension.  Not a breaker event.
    pub(crate) unsupported: bool,
    /// The store generation the advertised set belongs to.  Fetch replies
    /// carry the serving store's current generation; on mismatch the
    /// advertised set is discarded as a stale snapshot (see [`fetch`]).
    pub(crate) generation: u64,
    /// The program fingerprints the peer last advertised.
    pub(crate) programs: HashSet<u64>,
}

impl PeerInner {
    /// Quarantined right now (the breaker is open and not yet due for a
    /// probe)?
    pub(crate) fn in_quarantine(&self, now: Instant) -> bool {
        self.quarantined_until.is_some_and(|until| now < until)
    }
}

#[derive(Debug)]
pub(crate) struct Peer {
    pub(crate) addr: Addr,
    pub(crate) inner: Mutex<PeerInner>,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) gossip_rounds: AtomicU64,
    pub(crate) quarantines: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
}

/// Shared stop signal between the ring and its gossip thread.
#[derive(Debug, Default)]
pub(crate) struct Stop {
    pub(crate) flag: Mutex<bool>,
    pub(crate) wake: Condvar,
}

/// Typed handles to N peer daemons plus the machinery that keeps them
/// useful: gossip bookkeeping, the fetch path, the breaker, and counters.
///
/// The ring never touches the local [`crate::store::SummaryStore`] — the
/// store calls *into* the ring on a miss and admits what comes back — so
/// there is no reference cycle and serving a peer request cannot recurse
/// into another peer request.
#[derive(Debug)]
pub struct PeerRing {
    pub(crate) config: PeerConfig,
    pub(crate) peers: Vec<Peer>,
    pub(crate) counters: Counters,
    pub(crate) fetch_us: ShardedHistogram,
    pub(crate) flights: Mutex<HashMap<u64, Arc<fetch::Flight>>>,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) stop: Arc<Stop>,
    gossip_thread: Mutex<Option<JoinHandle<()>>>,
}

impl PeerRing {
    /// A ring over `config.peers`, recording spans into `tracer`, with the
    /// gossip loop running.  Call [`PeerRing::shutdown`] (or drop the last
    /// `Arc`) to stop the loop.
    pub fn spawn(config: PeerConfig, tracer: Arc<Tracer>) -> Arc<PeerRing> {
        let ring = Arc::new(PeerRing::new(config, tracer));
        let handle = gossip::spawn_loop(&ring);
        *ring.gossip_thread.lock().unwrap() = Some(handle);
        ring
    }

    /// A ring without the background loop — tests drive gossip explicitly
    /// via [`PeerRing::gossip_once`].
    pub fn new(config: PeerConfig, tracer: Arc<Tracer>) -> PeerRing {
        let peers = config
            .peers
            .iter()
            .map(|addr| Peer {
                addr: addr.clone(),
                inner: Mutex::new(PeerInner::default()),
            })
            .collect();
        PeerRing {
            config,
            peers,
            counters: Counters::default(),
            fetch_us: ShardedHistogram::default(),
            flights: Mutex::new(HashMap::new()),
            tracer,
            stop: Arc::new(Stop::default()),
            gossip_thread: Mutex::new(None),
        }
    }

    /// Stop the gossip loop and join it.  Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut stop = self.stop.flag.lock().unwrap();
            *stop = true;
        }
        self.stop.wake.notify_all();
        if let Some(handle) = self.gossip_thread.lock().unwrap().take() {
            // When the last `Arc<PeerRing>` is the gossip loop's own
            // temporary upgrade, this Drop-driven shutdown runs *on* the
            // gossip thread — joining its own handle would deadlock, so
            // detach instead (the loop is already on its way out: it only
            // reaches here by returning from `gossip_once`).
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    /// The fetch-latency distribution, for the `store.peer.fetch_us`
    /// histogram in metrics responses.
    pub fn fetch_us(&self) -> HistogramSnapshot {
        self.fetch_us.snapshot()
    }

    /// Counter snapshot.  `serves`/`bytes_out` are store-side numbers the
    /// caller passes in (see [`PeerStats`]).
    pub fn stats(&self, serves: u64, bytes_out: u64) -> PeerStats {
        let now = Instant::now();
        let mut quarantined = 0u64;
        let mut known_keys = 0u64;
        for peer in &self.peers {
            let inner = peer.inner.lock().unwrap();
            if inner.in_quarantine(now) {
                quarantined += 1;
            }
            known_keys += inner.programs.len() as u64;
        }
        PeerStats {
            peers: self.peers.len() as u64,
            quarantined,
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            gossip_rounds: self.counters.gossip_rounds.load(Ordering::Relaxed),
            quarantines: self.counters.quarantines.load(Ordering::Relaxed),
            bytes_in: self.counters.bytes_in.load(Ordering::Relaxed),
            bytes_out,
            serves,
            known_keys,
        }
    }
}

impl Drop for PeerRing {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ring(peers: Vec<Addr>) -> PeerRing {
        PeerRing::new(PeerConfig::new(peers), Arc::new(Tracer::default()))
    }

    #[test]
    fn config_builders_clamp_and_apply() {
        let config = PeerConfig::new(vec![])
            .with_gossip_interval(Duration::from_millis(50))
            .with_fetch_timeout(Duration::from_millis(200))
            .with_failure_threshold(0)
            .with_quarantine(Duration::from_millis(100));
        assert_eq!(config.gossip_interval, Duration::from_millis(50));
        assert_eq!(config.fetch_timeout, Duration::from_millis(200));
        assert_eq!(config.failure_threshold, 1, "threshold clamps to >= 1");
        assert_eq!(config.quarantine, Duration::from_millis(100));
    }

    #[test]
    fn empty_ring_reports_zeroed_stats() {
        let ring = test_ring(vec![]);
        let stats = ring.stats(0, 0);
        assert_eq!(stats, PeerStats::default());
    }

    #[test]
    fn known_keys_counts_advertised_programs() {
        let peers = ["/tmp/a.sock", "/tmp/b.sock"].map(|p| Addr::Unix(p.into()));
        let ring = test_ring(peers.to_vec());
        ring.peers[0].inner.lock().unwrap().programs.extend([7, 9]);
        ring.peers[1].inner.lock().unwrap().programs.insert(7);
        let stats = ring.stats(0, 0);
        assert_eq!((stats.peers, stats.known_keys), (2, 3));
    }

    #[test]
    fn quarantine_window_is_instant_bounded() {
        let mut inner = PeerInner::default();
        let now = Instant::now();
        assert!(!inner.in_quarantine(now), "fresh peers are live");
        inner.quarantined_until = Some(now + Duration::from_secs(5));
        assert!(inner.in_quarantine(now));
        assert!(
            !inner.in_quarantine(now + Duration::from_secs(6)),
            "an expired quarantine invites the probe"
        );
    }
}
