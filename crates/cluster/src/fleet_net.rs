//! The fleet's shared plumbing: node aliases, the connectivity map
//! ([`FleetNet`]), the per-node status block, and the [`SeatSignal`] that
//! wakes whoever waits on those blocks.
//!
//! The driving itself lives in [`crate::runtime`]: a fixed pool of worker
//! threads, each driving one [`recraft_core::Shard`] of nodes — event in,
//! `step`, `tick` on the wall clock, then each seat's write-ahead barrier,
//! then route — and owning those nodes' I/O. This module holds what the rest of the crate (harness, control
//! plane, tests) shares with that runtime.
//!
//! Readiness is pushed, not polled. A worker that publishes a seat whose
//! leader flag, cluster or retirement changed moves the fleet's one
//! [`SeatSignal`], and a thread blocked in a `Cluster::wait_for_*` call
//! re-reads the status blocks when it moves — so a harness sees a leader,
//! a split child or a merged cluster in the round that produced it, not at
//! its next timer.

use crate::CLIENT_BASE;
use recraft_core::Node;
use recraft_kv::KvMachine;
use recraft_storage::LogStore;
use recraft_types::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// The store a harness node runs on: any [`LogStore`] behind a box, so one
/// cluster type covers `mem` and `wal` backends (and the workers can move
/// it across threads).
pub type HarnessStore = Box<dyn LogStore + Send>;

/// The node type the harness deploys.
pub type HarnessNode = Node<KvMachine, HarnessStore>;

/// The fleet's shared connectivity state: the live node-id → listen-address
/// map, plus the fault-injection block list.
///
/// Every node keeps its own *front-door* listener (a socket, not a thread)
/// owned by the worker that hosts it; this map publishes those addresses.
/// Clients and the admin plane resolve through it at dial time, so the
/// topology can change under a running fleet: a joiner
/// [`register`](FleetNet::register)s before its worker adopts it, a killed
/// node [`deregister`](FleetNet::deregister)s (its listener closes, so
/// dials are refused — which is what tells a blindly-rotating client to
/// move on), and a restarted node re-registers on a *new* port, which
/// peers pick up on their next send without any worker restart.
///
/// The block list models severed links: a blocked pair's traffic is dropped
/// in both directions — outbound before batching, inbound before stepping —
/// while client and admin connections (ids at or above [`CLIENT_BASE`])
/// always pass. That is a network-level partition, not a process fault: the
/// node keeps running and keeps answering its own admin plane.
///
/// It also owns the fleet's [`SeatSignal`], which every worker moves and
/// every seat-status waiter blocks on.
#[derive(Debug, Default)]
pub struct FleetNet {
    addrs: RwLock<BTreeMap<NodeId, SocketAddr>>,
    blocked: RwLock<BTreeSet<(NodeId, NodeId)>>,
    /// Fast-path flag so the per-envelope block check is one relaxed load
    /// while no partition is injected.
    any_blocked: AtomicBool,
    signal: SeatSignal,
}

/// Normalizes an unordered node pair for the block set.
fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FleetNet {
    /// An empty map with no blocks.
    #[must_use]
    pub fn new() -> Arc<FleetNet> {
        Arc::new(FleetNet::default())
    }

    /// Publishes (or moves) a node's listen address.
    pub fn register(&self, id: NodeId, addr: SocketAddr) {
        self.addrs.write().expect("addr map lock").insert(id, addr);
    }

    /// Withdraws a node's address; subsequent sends to it are dropped.
    pub fn deregister(&self, id: NodeId) {
        self.addrs.write().expect("addr map lock").remove(&id);
    }

    /// The node's current listen address, if it is up.
    #[must_use]
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.addrs.read().expect("addr map lock").get(&id).copied()
    }

    /// A snapshot of every live node's address.
    #[must_use]
    pub fn snapshot(&self) -> BTreeMap<NodeId, SocketAddr> {
        self.addrs.read().expect("addr map lock").clone()
    }

    /// Severs the link between `a` and `b` (both directions).
    pub fn block(&self, a: NodeId, b: NodeId) {
        self.blocked
            .write()
            .expect("block set lock")
            .insert(pair(a, b));
        self.any_blocked.store(true, Ordering::Release);
    }

    /// Heals every severed link.
    pub fn unblock_all(&self) {
        self.blocked.write().expect("block set lock").clear();
        self.any_blocked.store(false, Ordering::Release);
    }

    /// Whether peer traffic between `a` and `b` is currently dropped.
    /// Client and admin endpoints are never blocked.
    #[must_use]
    pub fn is_blocked(&self, a: NodeId, b: NodeId) -> bool {
        if !self.any_blocked.load(Ordering::Acquire) || a.0 >= CLIENT_BASE || b.0 >= CLIENT_BASE {
            return false;
        }
        self.blocked
            .read()
            .expect("block set lock")
            .contains(&pair(a, b))
    }

    /// The signal that moves when a seat's published placement changes.
    #[must_use]
    pub fn seat_signal(&self) -> &SeatSignal {
        &self.signal
    }
}

/// The fleet's one seat-status change signal: a generation counter under a
/// lock, a condition variable, and a count of registered waiters.
///
/// A worker [`notify`](SeatSignal::notify)s after it stores a seat status
/// whose leader flag, cluster or retirement changed (and the harness does
/// after it withdraws a seat). While nobody waits that costs one fence and
/// one relaxed load, and only in a round that changed a seat's placement —
/// commit and load counters move every loaded round, are read by no wait,
/// and never notify. With a waiter registered, the notifier bumps the
/// generation and wakes every waiter, which re-runs its probe.
#[derive(Debug, Default)]
pub struct SeatSignal {
    generation: Mutex<u64>,
    changed: Condvar,
    waiters: AtomicUsize,
}

impl SeatSignal {
    /// Announces that a seat's status changed. Call it *after* storing the
    /// change, so a woken waiter's probe reads it.
    pub fn notify(&self) {
        // Orders the status stores before the waiter count is read; pairs
        // with the fence in `watch`. Either the waiter's probe sees the
        // stores, or this load sees the waiter.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return;
        }
        *self.generation.lock().expect("seat signal lock") += 1;
        self.changed.notify_all();
    }

    /// Registers a waiter. Every change notified after this call — and so
    /// every change its next probe could miss — wakes the returned watch.
    #[must_use]
    pub fn watch(&self) -> SeatWatch<'_> {
        self.waiters.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let seen = *self.generation.lock().expect("seat signal lock");
        SeatWatch { signal: self, seen }
    }
}

/// A registered [`SeatSignal`] waiter; dropping it unregisters.
#[derive(Debug)]
pub struct SeatWatch<'a> {
    signal: &'a SeatSignal,
    seen: u64,
}

impl SeatWatch<'_> {
    /// Blocks until a change is notified that this watch has not yet
    /// returned for, or until `deadline`. Returns whether a change came.
    pub fn wait(&mut self, deadline: Instant) -> bool {
        let mut generation = self.signal.generation.lock().expect("seat signal lock");
        loop {
            if *generation != self.seen {
                self.seen = *generation;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            generation = self
                .signal
                .changed
                .wait_timeout(generation, deadline - now)
                .expect("seat signal lock")
                .0;
        }
    }
}

impl Drop for SeatWatch<'_> {
    fn drop(&mut self) {
        self.signal.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker-visible protocol state, updated once per loop round. The harness
/// reads it without locking the node, and a change to the leader flag, the
/// cluster or retirement is announced on the fleet's [`SeatSignal`].
#[derive(Debug, Default)]
pub struct NodeStatus {
    /// Whether the node currently believes it is leader.
    pub is_leader: AtomicBool,
    /// The cluster the node currently belongs to (changes when a split or
    /// merge completes — the harness watches this to see a reconfiguration
    /// land without locking the node).
    pub cluster: AtomicU64,
    /// The node's commit index.
    pub commit: AtomicU64,
    /// The node's applied index.
    pub applied: AtomicU64,
    /// Elections this node has won ([`recraft_core::NodeEvent::BecameLeader`]
    /// count). More than one per run means leadership churned mid-load.
    pub elections: AtomicU64,
    /// Full snapshot installs this node accepted from a leader
    /// ([`recraft_core::NodeEvent::SnapshotInstalled`] count). Nonzero under
    /// steady load means a follower fell behind the leader's compaction
    /// horizon.
    pub snapshot_installs: AtomicU64,
    /// Whether the node has retired ([`recraft_core::Role::Removed`]): a
    /// merge or membership change removed it and the removal committed. The
    /// harness reaps retired nodes into its spare pool.
    pub retired: AtomicBool,
    /// Cumulative envelopes stepped into the node plus messages it
    /// externalized — the seat's load signal. The control plane differences
    /// successive readings to find hot seats worth migrating.
    pub steps: AtomicU64,
    /// Cumulative bytes read off the seat's own front-door connections
    /// (client/admin traffic; mux peer traffic is accounted via `steps`).
    pub net_bytes: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;
    use std::time::Duration;

    /// The waiter registers, then the other thread notifies: the wake-up
    /// must arrive however the two interleave after that. Nothing re-checks
    /// on a timer, so a lost wake-up runs into the 5 s deadline and fails.
    #[test]
    fn a_blocked_waiter_wakes_when_another_thread_notifies() {
        let signal = SeatSignal::default();
        let (registered, ready) = channel();
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut watch = signal.watch();
                registered.send(()).expect("main thread alive");
                let began = Instant::now();
                (watch.wait(began + Duration::from_secs(5)), began.elapsed())
            });
            ready.recv().expect("waiter registered");
            signal.notify();
            let (woke, waited) = waiter.join().expect("waiter thread");
            assert!(woke, "the waiter never saw the change");
            assert!(waited < Duration::from_secs(5), "woke at the deadline");
        });
        assert_eq!(signal.waiters.load(Ordering::Relaxed), 0);
    }

    /// A change notified before anyone registers is not replayed to a later
    /// watch: its first probe reads the change directly.
    #[test]
    fn a_watch_waits_only_for_changes_after_it_registered() {
        let signal = SeatSignal::default();
        signal.notify();
        let mut watch = signal.watch();
        assert!(!watch.wait(Instant::now() + Duration::from_millis(20)));
        drop(watch);
        let mut watch = signal.watch();
        let other = signal.watch();
        signal.notify();
        drop(other);
        assert!(watch.wait(Instant::now() + Duration::from_secs(5)));
        assert!(!watch.wait(Instant::now()));
    }
}
