//! The anti-entropy gossip loop: periodically exchange digest inventories
//! with every peer, which doubles as the breaker's health probe.
//!
//! Each round sends `peer_inventory` to every peer that is not sitting in
//! quarantine and replaces that peer's advertised program set wholesale (the
//! inventory is a full snapshot, not a delta — a few thousand 8-byte
//! fingerprints per round is cheap, and full replacement means a missed
//! round can never leave a tombstone behind).  The snapshot is tagged
//! with the peer store's generation; between rounds, fetch replies carry
//! the current generation and [`super::fetch`] discards the whole
//! snapshot on mismatch — a cleared (or restarted) store stops being
//! preferred the moment it answers, not a gossip interval later.  A peer
//! whose quarantine has expired is contacted like any other: a
//! successful exchange closes the breaker, a failed one re-arms it.

use super::fetch::{self, Exchange};
use super::{Peer, PeerRing};
use crate::service::proto::{Request, Response};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spawn the background loop for `ring`.  The thread holds only a `Weak`
/// reference, so dropping the last `Arc<PeerRing>` (which signals the stop
/// flag) also ends the loop.
pub(crate) fn spawn_loop(ring: &Arc<PeerRing>) -> JoinHandle<()> {
    let weak = Arc::downgrade(ring);
    let stop = ring.stop.clone();
    let interval = ring.config.gossip_interval;
    std::thread::Builder::new()
        .name("sil-peer-gossip".to_string())
        .spawn(move || loop {
            {
                let guard = stop.flag.lock().unwrap();
                if *guard {
                    return;
                }
                let (guard, _) = stop.wake.wait_timeout(guard, interval).unwrap();
                if *guard {
                    return;
                }
            }
            match weak.upgrade() {
                Some(ring) => ring.gossip_once(),
                None => return,
            }
        })
        .expect("spawn the peer gossip thread")
}

impl PeerRing {
    /// One anti-entropy round, synchronously: exchange inventories with
    /// every peer that is not currently quarantined (a peer whose
    /// quarantine has expired gets probed here).  The background loop
    /// calls this on its interval; tests call it directly.
    pub fn gossip_once(&self) {
        let _span = self.tracer.start("peer-gossip");
        for peer in &self.peers {
            self.gossip_peer(peer);
        }
        self.counters.gossip_rounds.fetch_add(1, Ordering::Relaxed);
    }

    fn gossip_peer(&self, peer: &Peer) {
        let reply = match fetch::exchange(self, peer, Request::peer_inventory()) {
            Exchange::Reply(reply) => reply,
            // `Unsupported` and `Failed` already did their bookkeeping in
            // `exchange` (feature flagging and breaker counting).
            Exchange::Unsupported | Exchange::Failed => return,
        };
        match *reply {
            // The `summaries` list a daemon older than PR 23 still fills is
            // ignored: tables are never fetched.
            Response::PeerInventory {
                generation,
                programs,
                ..
            } => {
                let mut inner = peer.inner.lock().unwrap();
                inner.generation = generation;
                inner.programs = programs.into_iter().collect();
            }
            // A well-formed reply of the wrong shape means the peer is
            // confused; count it against the breaker like a transport
            // fault rather than trusting anything it advertises.
            _ => fetch::note_failure(self, peer),
        }
    }
}
