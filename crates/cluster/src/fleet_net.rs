//! The fleet's shared plumbing: node aliases, the connectivity map
//! ([`FleetNet`]), and the per-node status block the harness polls.
//!
//! The driving itself lives in [`crate::runtime`]: a fixed pool of worker
//! threads, each owning a *shard* of nodes and running the canonical
//! embedding loop — event in, `step`, `tick` on the wall clock, then the
//! `take_outputs` write-ahead barrier, then route — for every node it
//! hosts. This module holds what the rest of the crate (harness, control
//! plane, tests) shares with that runtime.

use crate::CLIENT_BASE;
use recraft_core::Node;
use recraft_kv::KvMachine;
use recraft_storage::LogStore;
use recraft_types::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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
#[derive(Debug, Default)]
pub struct FleetNet {
    addrs: RwLock<BTreeMap<NodeId, SocketAddr>>,
    blocked: RwLock<BTreeSet<(NodeId, NodeId)>>,
    /// Fast-path flag so the per-envelope block check is one relaxed load
    /// while no partition is injected.
    any_blocked: AtomicBool,
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
}

/// Worker-visible protocol state, updated once per loop round. The harness
/// polls this to find a leader without locking the node.
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
