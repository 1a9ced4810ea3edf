//! The peer fetch path: single-flight, deadline-bounded, breaker-guarded
//! retrieval of one whole-program entry from the ring.
//!
//! The store calls [`PeerRing::fetch_program`] after both local tiers
//! miss — for a program, the only thing the ring is ever asked for, so a
//! never-seen program costs one ask per live peer.  Candidate peers are
//! ordered by gossip knowledge — peers advertising the key first, every
//! other live peer as fallback — and each is asked over a connection whose
//! connect, read, and write timeouts are all the configured fetch
//! deadline, so a hung peer costs one bounded wait, never a stall.  A
//! returned body is the same entry document (`store/entry.rs`) the durable
//! tier persists, and it is verified the same way before it counts as a
//! hit; a body that fails verification is discarded and the next peer is
//! tried.
//!
//! Every `peer_entry` reply also carries the serving store's generation,
//! which is reconciled against the gossiped inventory snapshot: a
//! mismatch means the peer cleared (or restarted) since it advertised,
//! so its whole advertised key set is discarded rather than trusted; a
//! matching generation with an empty body means the one key was evicted
//! and only that advertisement is dropped.
//!
//! Single-flight: concurrent misses on one key elect a leader; followers
//! block on the leader's `Flight` slot and share its verified result, so a
//! thundering herd on one hot program issues exactly one network fetch.
//! The leader publishes through a drop guard — if it unwinds (or is torn
//! down) mid-fetch, the guard publishes a miss and clears the flight
//! entry, so followers can never hang on a dead leader and the key never
//! wedges.  Followers additionally bound their wait at the leader's
//! worst-case deadline across all candidates.

use super::{Peer, PeerRing};
use crate::service::proto::{ErrorKind, PeerNamespace, Request, Response, TraceSpan};
use crate::service::RemoteService;
use crate::store::entry;
use crate::AnalyzedProgram;
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The single-flight rendezvous for one in-progress fetch: the leader
/// publishes its result (hit or miss) and every follower clones it.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    slot: Mutex<Option<Option<Arc<AnalyzedProgram>>>>,
    ready: Condvar,
}

impl Flight {
    /// Wait for the leader's result, at most `limit` — a follower whose
    /// leader has silently died (see [`FlightGuard`]) degrades to a miss
    /// instead of waiting forever.
    fn wait(&self, limit: Duration) -> Option<Arc<AnalyzedProgram>> {
        let deadline = Instant::now().checked_add(limit);
        let mut slot = self.slot.lock().unwrap();
        while slot.is_none() {
            match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _) = self.ready.wait_timeout(slot, deadline - now).unwrap();
                    slot = guard;
                }
                // A limit too large to represent as an instant is
                // effectively unbounded.
                None => slot = self.ready.wait(slot).unwrap(),
            }
        }
        slot.clone().unwrap()
    }

    fn publish(&self, result: Option<Arc<AnalyzedProgram>>) {
        *self.slot.lock().unwrap() = Some(result);
        self.ready.notify_all();
    }
}

/// Completes the leader's flight exactly once, however the leader exits:
/// [`FlightGuard::complete`] publishes the real result, and dropping an
/// incomplete guard (the leader panicked or was otherwise torn down)
/// publishes a miss — either way the flights-map entry is removed, so
/// followers always wake and a later fetch of the same key starts fresh.
struct FlightGuard<'a> {
    ring: &'a PeerRing,
    key: u64,
    flight: Arc<Flight>,
    done: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, result: Option<Arc<AnalyzedProgram>>) {
        self.done = true;
        self.finish(result);
    }

    fn finish(&self, result: Option<Arc<AnalyzedProgram>>) {
        self.flight.publish(result);
        // `lock().ok()`: this also runs during unwinding, where a
        // poisoned map must not turn a panic into an abort.
        if let Ok(mut flights) = self.ring.flights.lock() {
            flights.remove(&self.key);
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.finish(None);
        }
    }
}

/// What one request/response exchange with a peer amounted to.
pub(crate) enum Exchange {
    /// A well-formed reply from a live, peering-capable daemon.
    Reply(Box<Response>),
    /// Transport failure (or active quarantine); the breaker was updated.
    Failed,
    /// The daemon is alive but answered the peering kind with an error: it
    /// predates the extension.  Not a breaker event — the daemon is
    /// healthy, just not a cache peer.
    Unsupported,
}

/// One exchange with `peer`, reusing its cached connection when possible.
/// The connection is taken out of the peer's lock for the duration of the
/// network call, so stats snapshots never block behind a slow peer.
pub(crate) fn exchange(ring: &PeerRing, peer: &Peer, request: Request) -> Exchange {
    let conn = {
        let mut inner = peer.inner.lock().unwrap();
        if inner.in_quarantine(Instant::now()) {
            return Exchange::Failed;
        }
        match inner.conn.take() {
            Some(conn) => conn,
            None => {
                drop(inner);
                match RemoteService::dial_with_timeout(&peer.addr, Some(ring.config.fetch_timeout))
                {
                    Ok(conn) => conn,
                    Err(_) => {
                        note_failure(ring, peer);
                        return Exchange::Failed;
                    }
                }
            }
        }
    };
    // `call_counted` reports the reply line's length as read off the
    // wire, so metering costs nothing — no re-encoding of the response.
    let (response, wire_bytes) = conn.call_counted(request);
    ring.counters
        .bytes_in
        .fetch_add(wire_bytes, Ordering::Relaxed);
    match response {
        Response::Error { error, .. } if error.kind == ErrorKind::Transport => {
            // The pipe poisons itself after any transport fault; drop it
            // so the next attempt re-dials.
            note_failure(ring, peer);
            Exchange::Failed
        }
        Response::Error { .. } => {
            // The daemon answered — it is alive — but rejected the peer
            // kind (`malformed` on builds from before peering, version
            // skew).  Flag it and stop advertising its keys.
            let mut inner = peer.inner.lock().unwrap();
            inner.unsupported = true;
            inner.failures = 0;
            inner.quarantined_until = None;
            inner.programs.clear();
            inner.conn = Some(conn);
            Exchange::Unsupported
        }
        response => {
            let mut inner = peer.inner.lock().unwrap();
            inner.conn = Some(conn);
            inner.failures = 0;
            inner.quarantined_until = None;
            inner.unsupported = false;
            Exchange::Reply(Box::new(response))
        }
    }
}

/// Book one transport failure against `peer`: drop its connection, bump
/// the consecutive-failure count, and trip the breaker at the threshold
/// (also re-arming it when a post-quarantine probe fails).
pub(crate) fn note_failure(ring: &PeerRing, peer: &Peer) {
    let mut inner = peer.inner.lock().unwrap();
    inner.conn = None;
    inner.failures = inner.failures.saturating_add(1);
    let now = Instant::now();
    if inner.failures >= ring.config.failure_threshold && !inner.in_quarantine(now) {
        inner.quarantined_until = Some(now + ring.config.quarantine);
        inner.generation = 0;
        inner.programs.clear();
        ring.counters.quarantines.fetch_add(1, Ordering::Relaxed);
    }
}

impl PeerRing {
    /// The longest a well-behaved leader can take: each candidate costs
    /// at most a dial, a write, and a read, each bounded by the fetch
    /// timeout — plus slack for scheduling.  Followers give up (and fall
    /// through to recompute) past this point.
    fn follower_deadline(&self) -> Duration {
        self.config
            .fetch_timeout
            .saturating_mul(3)
            .saturating_mul(self.peers.len().max(1) as u32)
            .saturating_add(Duration::from_secs(1))
    }

    /// Fetch and verify one whole-program entry from the ring.
    pub fn fetch_program(&self, key: u64) -> Option<Arc<AnalyzedProgram>> {
        if self.peers.is_empty() {
            return None;
        }
        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap();
            match flights.entry(key) {
                Entry::Occupied(entry) => (entry.get().clone(), false),
                Entry::Vacant(entry) => {
                    let flight = Arc::new(Flight::default());
                    entry.insert(flight.clone());
                    (flight, true)
                }
            }
        };
        if !leader {
            return flight.wait(self.follower_deadline());
        }
        let guard = FlightGuard {
            ring: self,
            key,
            flight,
            done: false,
        };
        let result = {
            let _span = self.tracer.start("peer-fetch");
            let start = silobs::ticks();
            let result = self.fetch_from_peers(key);
            self.fetch_us.record(silobs::ticks().saturating_sub(start));
            result
        };
        match &result {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        guard.complete(result.clone());
        result
    }

    fn fetch_from_peers(&self, key: u64) -> Option<Arc<AnalyzedProgram>> {
        let now = Instant::now();
        // Gossip-informed candidate order: advertisers of the key first,
        // then every other live peer (gossip lags reality by up to one
        // interval, so "not advertised" is a hint, not a verdict).
        let mut advertisers = Vec::new();
        let mut fallback = Vec::new();
        for (index, peer) in self.peers.iter().enumerate() {
            let inner = peer.inner.lock().unwrap();
            if inner.unsupported || inner.in_quarantine(now) {
                continue;
            }
            if inner.programs.contains(&key) {
                advertisers.push((index, true));
            } else {
                fallback.push((index, false));
            }
        }
        advertisers.extend(fallback);
        for (index, advertised) in advertisers {
            let peer = &self.peers[index];
            let fetch = Request::peer_fetch(PeerNamespace::Programs, key);
            let reply = match exchange(self, peer, fetch) {
                Exchange::Reply(reply) => reply,
                Exchange::Failed | Exchange::Unsupported => continue,
            };
            let Response::PeerEntry {
                generation,
                body,
                trace_spans,
                ..
            } = *reply
            else {
                continue;
            };
            // The serving peer piggybacked its spans for this trace (the
            // exchange forwarded our ambient context on the wire).  Adopt
            // them into our tracer so the origin daemon's trace dump shows
            // the whole cross-daemon tree — and so a further piggyback
            // toward *our* caller re-ships them on multi-hop chains.
            if !trace_spans.is_empty() {
                self.tracer
                    .adopt(trace_spans.iter().map(TraceSpan::to_record).collect());
            }
            {
                let mut inner = peer.inner.lock().unwrap();
                if inner.generation != generation {
                    // The inventory snapshot predates a clear (or a
                    // restart): every key it advertised belongs to a
                    // store that no longer exists.  Forget the lot; the
                    // next gossip round rebuilds it against the new
                    // generation.
                    inner.generation = generation;
                    inner.programs.clear();
                } else if advertised && body.is_none() {
                    // Same snapshot, entry gone: evicted.  Drop just this
                    // advertisement so candidate ordering stops
                    // preferring the peer for a key it no longer holds.
                    inner.programs.remove(&key);
                }
            }
            // A body that fails verification — another entry version or
            // analysis epoch, a wrong fingerprint or digest — is dropped
            // on the floor, and the peer that sent it stays healthy; some
            // other peer may hold a good copy.
            if let Some(body) = body {
                let _span = self.tracer.start("entry-decode");
                if let Some(entry) = entry::program_from_document(&body, key) {
                    return Some(entry);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PeerConfig;
    use silobs::Tracer;
    use std::time::Duration;

    fn empty_ring() -> PeerRing {
        PeerRing::new(PeerConfig::new(vec![]), Arc::new(Tracer::default()))
    }

    /// A leader that dies without publishing (panic, teardown) must not
    /// wedge the key: the guard's drop publishes a miss and clears the
    /// flights entry, so waiting followers wake and later fetches run.
    #[test]
    fn dropped_leader_guard_publishes_a_miss_and_clears_the_flight() {
        let ring = empty_ring();
        let key = 42;
        let flight = Arc::new(Flight::default());
        ring.flights.lock().unwrap().insert(key, flight.clone());

        let follower = {
            let flight = flight.clone();
            std::thread::spawn(move || flight.wait(Duration::from_secs(30)))
        };
        drop(FlightGuard {
            ring: &ring,
            key,
            flight,
            done: false,
        });
        assert!(
            follower.join().unwrap().is_none(),
            "followers of a dead leader see a miss, not a hang"
        );
        assert!(
            ring.flights.lock().unwrap().is_empty(),
            "the stale flight entry is cleaned up"
        );
    }

    /// `complete` consumes the guard; its drop must not then double-toggle
    /// the published slot.
    #[test]
    fn completed_guard_keeps_its_published_result() {
        let ring = empty_ring();
        let key = 7;
        let flight = Arc::new(Flight::default());
        ring.flights.lock().unwrap().insert(key, flight.clone());
        let source = sil_workloads::Workload::TreeSum.source(3);
        let entry = crate::Engine::default().analyze_source(&source).unwrap();
        FlightGuard {
            ring: &ring,
            key,
            flight: flight.clone(),
            done: false,
        }
        .complete(Some(entry.clone()));
        let published = flight.wait(Duration::from_millis(10)).expect("published");
        assert!(Arc::ptr_eq(&published, &entry));
        assert!(ring.flights.lock().unwrap().is_empty());
    }

    /// A follower's wait is bounded even when nothing is ever published.
    #[test]
    fn follower_wait_times_out_instead_of_hanging() {
        let flight = Flight::default();
        let started = Instant::now();
        assert!(flight.wait(Duration::from_millis(50)).is_none());
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
