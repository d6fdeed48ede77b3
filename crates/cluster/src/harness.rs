//! Launching, watching, faulting, and tearing down a loopback-TCP fleet.
//!
//! [`Cluster::launch`] binds every node's front-door listener first and
//! publishes the full address map (a [`FleetNet`]) before any node is
//! adopted by the sharded [`DriverRuntime`] — peers can dial each other
//! from the first heartbeat — and builds every member of a cluster before
//! it seats any. The smallest id of a fresh cluster campaigns on its first
//! tick, so the first leader costs one vote round (a few milliseconds over
//! loopback); the other members keep real randomized timeouts
//! ([`recraft_core::Timing::default`]: 150–300 ms), which elect someone
//! else when that node is down or cut off.
//! [`Cluster::launch_fleet`] boots many single-range clusters partitioning
//! one keyspace — the multi-raft shape the runtime exists to host on a
//! fixed thread budget.
//!
//! The fleet is mutable while it runs, under `&self`: a long-lived
//! controller thread (and a test injecting faults) reshape it concurrently
//! with client load —
//!
//! * [`Cluster::spawn_joiner`] boots a node in joiner mode for controller
//!   staffing (`AddAndResize`), recycling a retired node id from the spare
//!   pool when one is available;
//! * [`Cluster::reap_retired`] decommissions nodes whose removal committed
//!   ([`recraft_core::Role::Removed`]): their seat leaves the runtime,
//!   their WAL directory is reclaimed under a bumped directory generation,
//!   and the id returns to the spare pool — long campaigns neither leak
//!   disk nor mint ids forever;
//! * [`Cluster::kill`] is a process fault: the node leaves its shard and
//!   its address is withdrawn, but its store survives — the WAL directory,
//!   or on `mem` the in-memory log itself;
//! * [`Cluster::restart`] reboots a killed node from that store via
//!   [`recraft_core::Node::reopen`] on a **new** port and a fresh shard
//!   seat — peers re-resolve it through the shared address map;
//! * [`Cluster::isolate`] / [`Cluster::heal_all`] are network faults: peer
//!   traffic between the isolated node and every other is dropped in both
//!   directions while clients and the admin plane still reach every node.
//!
//! [`Cluster::shutdown`] returns the actual [`HarnessNode`] values for
//! post-run inspection; [`verify_sessions`] checks exactly-once delivery
//! against the server-side session table — every client session's
//! `last_seq` must equal the number of operations that client issued.

use crate::clients::{run_open_loop, ClientOptions, ClientReport};
use crate::fleet_net::{FleetNet, HarnessNode, HarnessStore, NodeStatus};
use crate::runtime::{DriverRuntime, WireStats};
use recraft_core::{Node, Timing};
use recraft_fleet::boot_range;
use recraft_kv::{KvMachine, KvStore};
use recraft_storage::{MemLog, WalLog, WalOptions};
use recraft_types::{ClusterConfig, ClusterId, NodeId, RangeSet, SessionId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Which [`recraft_storage::LogStore`] each node runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessBackend {
    /// In-memory log: no durability cost, the network-bound ceiling.
    Mem,
    /// Segmented write-ahead log with real fsync at every output barrier.
    Wal,
}

impl HarnessBackend {
    /// The name used in CLI flags, env vars, and bench summaries.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HarnessBackend::Mem => "mem",
            HarnessBackend::Wal => "wal",
        }
    }

    /// Parses `"mem"` / `"wal"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(HarnessBackend::Mem),
            "wal" => Some(HarnessBackend::Wal),
            _ => None,
        }
    }
}

/// What to deploy.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Cluster size (1, 3, 5, ...).
    pub nodes: usize,
    /// Storage backend for every node.
    pub backend: HarnessBackend,
    /// Protocol timers; the default (150–300 ms elections, 50 ms
    /// heartbeats) is viable wall-clock timing.
    pub timing: Timing,
    /// Whether `wal` nodes physically fsync at the barrier. On by default —
    /// that is the durability cost the harness exists to measure.
    pub fsync: bool,
    /// Worker threads in the driver runtime; `None` uses the host's
    /// available parallelism.
    pub workers: Option<usize>,
}

impl ClusterSpec {
    /// A spec with default timing, real fsync, and the default worker pool.
    #[must_use]
    pub fn new(nodes: usize, backend: HarnessBackend) -> Self {
        ClusterSpec {
            nodes,
            backend,
            timing: Timing::default(),
            fsync: true,
            workers: None,
        }
    }
}

/// A multi-range deployment: `ranges` single-range clusters partitioning
/// the `k{:08}`-formatted keyspace, `replication` nodes each.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Raft groups to boot (cluster ids `1..=ranges`).
    pub ranges: usize,
    /// Nodes per group.
    pub replication: usize,
    /// Storage backend for every node.
    pub backend: HarnessBackend,
    /// Protocol timers.
    pub timing: Timing,
    /// Whether `wal` nodes physically fsync at the barrier.
    pub fsync: bool,
    /// Worker threads in the driver runtime (`None` = default pool).
    pub workers: Option<usize>,
    /// Size of the keyspace the range boundaries partition; must match the
    /// clients' [`ClientOptions::key_count`] universe for even spread.
    pub key_space: u64,
}

impl FleetSpec {
    /// A fleet spec with default timing and real fsync.
    #[must_use]
    pub fn new(ranges: usize, replication: usize, backend: HarnessBackend) -> Self {
        FleetSpec {
            ranges,
            replication,
            backend,
            timing: Timing::default(),
            fsync: true,
            workers: None,
            key_space: 10_000,
        }
    }
}

/// Distinguishes concurrent clusters (and runs within one process) in the
/// scratch-directory namespace.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One node's slot in the fleet registry. `status` is `None` while the node
/// is killed or reaped; the WAL directory (if any) outlives a process fault
/// so a restart can recover from it. `generation` counts how many lives the
/// id has had — it names the WAL directory, so a reclaimed directory can
/// never be confused with (or resurrect into) a later life of the same id.
struct Slot {
    status: Option<Arc<NodeStatus>>,
    dir: Option<PathBuf>,
    /// A killed `mem` node's store, kept for [`Cluster::restart`] (a `wal`
    /// node's store is `dir`).
    kept: Option<HarnessStore>,
    generation: u64,
}

/// A running fleet on the sharded driver runtime, all on loopback TCP.
///
/// Every mutating operation takes `&self` — the fleet is designed to be
/// shared (`Arc<Cluster>`) between client threads, a controller thread, and
/// a fault injector, all reshaping it concurrently.
pub struct Cluster {
    spec: ClusterSpec,
    net: Arc<FleetNet>,
    runtime: DriverRuntime,
    slots: Mutex<BTreeMap<NodeId, Slot>>,
    /// Retired node ids awaiting reuse by [`Cluster::spawn_joiner`].
    spares: Mutex<Vec<NodeId>>,
    next_node: AtomicU64,
    data_root: Option<PathBuf>,
}

impl Cluster {
    /// Boots `spec.nodes` nodes as one cluster over `RangeSet::full()` on a
    /// fresh runtime. Returns once every node is adopted (not once a leader
    /// exists — see [`Cluster::wait_for_leader`]); node 1 campaigns in the
    /// round that seats it and normally leads one vote round later.
    ///
    /// # Panics
    /// Panics on listener/bind, scratch-directory, or WAL-open failure.
    #[must_use]
    pub fn launch(spec: &ClusterSpec) -> Cluster {
        assert!(spec.nodes >= 1, "cluster needs at least one node");
        let ids: Vec<NodeId> = (1..=spec.nodes as u64).map(NodeId).collect();
        let config = ClusterConfig::new(ClusterId(1), ids.iter().copied(), RangeSet::full())
            .expect("bootstrap config");
        let cluster = Cluster::empty(spec, spec.nodes as u64 + 1);
        cluster.boot_group(&ids, &config);
        cluster
    }

    /// Boots [`FleetSpec::ranges`] single-range clusters partitioning the
    /// keyspace, `replication` nodes each, all on one fixed worker pool —
    /// the deployment shape where thread-per-node stops being possible.
    ///
    /// # Panics
    /// Panics on listener/bind, scratch-directory, or WAL-open failure.
    #[must_use]
    pub fn launch_fleet(fleet: &FleetSpec) -> Cluster {
        assert!(fleet.ranges >= 1 && fleet.replication >= 1, "empty fleet");
        let spec = ClusterSpec {
            nodes: fleet.replication,
            backend: fleet.backend,
            timing: fleet.timing,
            fsync: fleet.fsync,
            workers: fleet.workers,
        };
        let total = (fleet.ranges * fleet.replication) as u64;
        let cluster = Cluster::empty(&spec, total + 1);
        for r in 1..=fleet.ranges {
            let ids: Vec<NodeId> = (0..fleet.replication)
                .map(|i| NodeId(((r - 1) * fleet.replication + i) as u64 + 1))
                .collect();
            let ranges = boot_range(r, fleet.ranges, fleet.key_space);
            let config = ClusterConfig::new(ClusterId(r as u64), ids.iter().copied(), ranges)
                .expect("fleet range config");
            cluster.boot_group(&ids, &config);
        }
        cluster
    }

    /// An empty fleet: runtime up, no nodes yet.
    fn empty(spec: &ClusterSpec, next_node: u64) -> Cluster {
        let net = FleetNet::new();
        let runtime = DriverRuntime::start(Arc::clone(&net), spec.workers);
        let data_root = match spec.backend {
            HarnessBackend::Mem => None,
            HarnessBackend::Wal => {
                let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
                let root = std::env::temp_dir()
                    .join(format!("recraft-cluster-{}-{run}", std::process::id()));
                let _ = std::fs::remove_dir_all(&root);
                std::fs::create_dir_all(&root).expect("create harness data root");
                Some(root)
            }
        };
        Cluster {
            spec: spec.clone(),
            net,
            runtime,
            slots: Mutex::new(BTreeMap::new()),
            spares: Mutex::new(Vec::new()),
            next_node: AtomicU64::new(next_node),
            data_root,
        }
    }

    /// Boots the members of one cluster config: bind and register every
    /// front door first (the address map must be complete before the first
    /// heartbeat), build every node (store open, boot snapshot synced),
    /// then seat them as one group. The smallest id campaigns in the round
    /// that seats it, and a vote addressed to a member with no seat yet is
    /// dropped — which would leave the election to the timers.
    fn boot_group(&self, ids: &[NodeId], config: &ClusterConfig) {
        let listeners: Vec<TcpListener> = ids
            .iter()
            .map(|id| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
                self.net
                    .register(*id, l.local_addr().expect("listener addr"));
                l
            })
            .collect();
        let mut slots = self.slots.lock().expect("slot registry lock");
        let mut group = Vec::with_capacity(ids.len());
        for (id, listener) in ids.iter().copied().zip(listeners) {
            let dir = self.node_dir(id, 0);
            let store = self.open_store(dir.as_deref());
            let node: HarnessNode = Node::with_store(
                id,
                config.clone(),
                KvMachine::Mem(KvStore::new()),
                store,
                self.spec.timing,
                harness_seed(id),
            );
            let status = Arc::new(NodeStatus::default());
            slots.insert(
                id,
                Slot {
                    status: Some(Arc::clone(&status)),
                    dir,
                    kept: None,
                    generation: 0,
                },
            );
            group.push((node, status, listener));
        }
        self.runtime.adopt_group(group);
    }

    /// The WAL directory for life `generation` of node `id` (`None` on the
    /// `mem` backend).
    fn node_dir(&self, id: NodeId, generation: u64) -> Option<PathBuf> {
        self.data_root
            .as_ref()
            .map(|root| root.join(format!("node-{}.g{generation}", id.0)))
    }

    fn open_store(&self, dir: Option<&std::path::Path>) -> HarnessStore {
        match dir {
            None => Box::new(MemLog::new()),
            Some(dir) => Box::new(
                WalLog::open_with(
                    dir,
                    WalOptions {
                        fsync: self.spec.fsync,
                        segment_bytes: 8 * 1024 * 1024,
                    },
                )
                .expect("open node wal"),
            ),
        }
    }

    /// A snapshot of the live node-id → listen-address map, for client
    /// drivers. Killed nodes are absent; restarted ones appear on their new
    /// port.
    #[must_use]
    pub fn addrs(&self) -> BTreeMap<NodeId, SocketAddr> {
        self.net.snapshot()
    }

    /// The shared connectivity state (address map + block list) — what the
    /// control plane's router resolves member addresses through.
    #[must_use]
    pub fn net(&self) -> Arc<FleetNet> {
        Arc::clone(&self.net)
    }

    /// Worker threads in the driver runtime.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.runtime.worker_count()
    }

    /// Lifetime wire counters (mux batches and the envelopes they carried).
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.runtime.wire_stats()
    }

    /// A snapshot of every hosted seat's cumulative load counters, as
    /// published by its hosting worker, beside the worker the runtime's
    /// assignment map names for it. The control plane differences
    /// successive snapshots to find hot seats worth migrating; the counters
    /// are cumulative so a missed round never loses load.
    #[must_use]
    pub fn seat_loads(&self) -> Vec<SeatLoad> {
        self.with_statuses(|it| {
            it.filter_map(|(id, st)| {
                Some(SeatLoad {
                    id,
                    worker: self.runtime.owner_of(id)?,
                    steps: st.steps.load(Ordering::Acquire),
                    bytes: st.net_bytes.load(Ordering::Acquire),
                })
            })
            .collect()
        })
    }

    /// Hands the seat for `id` to worker `target`: its node, listener, and
    /// live connections quiesce at the source worker's next barrier and
    /// re-register on the target's poller. Returns `false` if the seat is
    /// unknown or already hosted there.
    pub fn migrate_seat(&self, id: NodeId, target: usize) -> bool {
        self.runtime.migrate(id, target)
    }

    /// The worker currently assigned the seat for `id`.
    #[must_use]
    pub fn seat_owner(&self, id: NodeId) -> Option<usize> {
        self.runtime.owner_of(id)
    }

    /// Retired node ids currently awaiting reuse.
    #[must_use]
    pub fn spare_count(&self) -> usize {
        self.spares.lock().expect("spare pool lock").len()
    }

    /// The scratch directory holding per-node WAL directories (`None` on
    /// the `mem` backend). Tests watch it to see retired-node reclaim
    /// actually delete from disk.
    #[must_use]
    pub fn data_root(&self) -> Option<&std::path::Path> {
        self.data_root.as_deref()
    }

    /// Runs `f` over the live nodes' `(id, status)` pairs.
    fn with_statuses<T>(
        &self,
        f: impl FnOnce(&mut dyn Iterator<Item = (NodeId, &NodeStatus)>) -> T,
    ) -> T {
        let slots = self.slots.lock().expect("slot registry lock");
        let mut iter = slots
            .iter()
            .filter_map(|(id, s)| s.status.as_ref().map(|st| (*id, &**st)));
        f(&mut iter)
    }

    /// Boots a fresh node in joiner mode aimed at `target` and seats it on
    /// the runtime. The node idles (persisting only its identity) until the
    /// target cluster's leader commits an `AddAndResize` naming it, then
    /// pulls a snapshot and joins. A retired id from the spare pool is
    /// recycled when one is available (its WAL directory generation was
    /// bumped at reap time, so the new life starts on a clean directory);
    /// otherwise a fresh id is minted. Returns the node id.
    ///
    /// # Panics
    /// Panics on listener/bind or WAL-open failure.
    pub fn spawn_joiner(&self, target: ClusterId) -> NodeId {
        let recycled = self.spares.lock().expect("spare pool lock").pop();
        let id = recycled.unwrap_or_else(|| NodeId(self.next_node.fetch_add(1, Ordering::Relaxed)));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind joiner listener");
        let generation = {
            let slots = self.slots.lock().expect("slot registry lock");
            slots.get(&id).map_or(0, |s| s.generation)
        };
        let dir = self.node_dir(id, generation);
        let store = self.open_store(dir.as_deref());
        let node: HarnessNode = Node::joiner_with_store(
            id,
            Some(target),
            KvMachine::Mem(KvStore::new()),
            store,
            self.spec.timing,
            harness_seed(id) ^ generation.wrapping_mul(0x9E37_79B9),
        );
        // Publish the address before the seat exists: the target leader
        // may heartbeat the joiner the moment the AddAndResize commits.
        self.net
            .register(id, listener.local_addr().expect("listener addr"));
        let status = Arc::new(NodeStatus::default());
        self.runtime.adopt(node, Arc::clone(&status), listener);
        self.slots.lock().expect("slot registry lock").insert(
            id,
            Slot {
                status: Some(status),
                dir,
                kept: None,
                generation,
            },
        );
        id
    }

    /// Decommissions every node whose removal has committed
    /// ([`NodeStatus::retired`]): the seat leaves the runtime (final
    /// barrier flushed, front door closed), the address is withdrawn, the
    /// WAL directory is deleted under a bumped generation, and the id joins
    /// the spare pool for [`Cluster::spawn_joiner`] to recycle. Returns how
    /// many nodes were reaped.
    pub fn reap_retired(&self) -> usize {
        let retired: Vec<NodeId> = self.with_statuses(|it| {
            it.filter(|(_, s)| s.retired.load(Ordering::Relaxed))
                .map(|(id, _)| id)
                .collect()
        });
        let mut reaped = 0;
        for id in retired {
            self.net.deregister(id);
            let Some(node) = self.runtime.remove(id) else {
                continue; // raced with a kill; the killer owns the slot
            };
            drop(node);
            let mut slots = self.slots.lock().expect("slot registry lock");
            if let Some(slot) = slots.get_mut(&id) {
                slot.status = None;
                // The generation guard: reclaim this life's directory and
                // advance, so a concurrent late write to the old path can
                // never leak into the id's next life.
                if let Some(dir) = slot.dir.take() {
                    let _ = std::fs::remove_dir_all(dir);
                }
                slot.generation += 1;
            }
            drop(slots);
            self.spares.lock().expect("spare pool lock").push(id);
            reaped += 1;
        }
        reaped
    }

    /// A process fault: stops `id`'s seat and withdraws its address. The
    /// node's store is kept for [`Cluster::restart`]: its WAL directory, or
    /// on `mem` the in-memory log as the node left it. Returns whether the
    /// node was alive.
    pub fn kill(&self, id: NodeId) -> bool {
        self.net.deregister(id);
        let Some(node) = self.runtime.remove(id) else {
            return false;
        };
        // Everything but the store dies with the process.
        let (store, _machine) = node.into_parts();
        if let Some(slot) = self.slots.lock().expect("slot registry lock").get_mut(&id) {
            slot.status = None;
            if slot.dir.is_none() {
                slot.kept = Some(store);
            }
        }
        true
    }

    /// Reboots a killed node from the store it left —
    /// [`recraft_core::Node::reopen`]: hard state, snapshot, and log prefix
    /// come back from it. The node listens on a **new** port and is adopted
    /// onto a (possibly different) shard; peers re-resolve it through the
    /// shared address map.
    ///
    /// # Panics
    /// Panics if the node is still running or was never launched.
    pub fn restart(&self, id: NodeId) {
        let (kept, dir) = {
            let mut slots = self.slots.lock().expect("slot registry lock");
            let slot = slots.get_mut(&id).expect("restart of an unknown node");
            assert!(slot.status.is_none(), "restart of a running node");
            (slot.kept.take(), slot.dir.clone())
        };
        let store = kept.unwrap_or_else(|| self.open_store(dir.as_deref()));
        let node: HarnessNode = Node::reopen(
            id,
            store,
            KvMachine::Mem(KvStore::new()),
            self.spec.timing,
            // A different seed than the first boot: a rebooted process
            // draws fresh election jitter.
            harness_seed(id) ^ 0x5EED_B007,
        )
        .expect("reopen killed node from its store");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind restart listener");
        self.net
            .register(id, listener.local_addr().expect("listener addr"));
        let status = Arc::new(NodeStatus::default());
        self.runtime.adopt(node, Arc::clone(&status), listener);
        self.slots
            .lock()
            .expect("slot registry lock")
            .get_mut(&id)
            .expect("slot exists")
            .status = Some(status);
    }

    /// Severs `id` from every other live node — a full network partition of
    /// one node (it still answers clients and admin queries, so its stats
    /// remain observable).
    pub fn isolate(&self, id: NodeId) {
        let others: Vec<NodeId> = self.addrs().keys().copied().filter(|n| *n != id).collect();
        for other in others {
            self.net.block(id, other);
        }
    }

    /// Heals every severed link.
    pub fn heal_all(&self) {
        self.net.unblock_all();
    }

    /// The cluster id each live node currently reports (from seat status).
    /// After a split completes, this partitions the nodes into the
    /// subclusters; after a merge, it converges on the merged cluster's id.
    #[must_use]
    pub fn node_clusters(&self) -> BTreeMap<NodeId, ClusterId> {
        self.with_statuses(|it| {
            it.map(|(id, s)| (id, ClusterId(s.cluster.load(Ordering::Relaxed))))
                .collect()
        })
    }

    /// The addresses of the live nodes currently reporting membership of
    /// `cluster` — admin-command candidates for that cluster's leader.
    #[must_use]
    pub fn members_of(&self, cluster: ClusterId) -> BTreeMap<NodeId, SocketAddr> {
        let members: Vec<NodeId> = self.with_statuses(|it| {
            it.filter(|(_, s)| s.cluster.load(Ordering::Relaxed) == cluster.0)
                .map(|(id, _)| id)
                .collect()
        });
        members
            .into_iter()
            .filter_map(|id| self.net.addr_of(id).map(|a| (id, a)))
            .collect()
    }

    /// Polls until some live node reports leadership of `cluster`.
    pub fn wait_for_leader_of(&self, cluster: ClusterId, timeout: Duration) -> Option<NodeId> {
        wait_until(timeout, || {
            self.with_statuses(|it| {
                it.filter(|(_, s)| {
                    s.cluster.load(Ordering::Relaxed) == cluster.0
                        && s.is_leader.load(Ordering::Relaxed)
                })
                .map(|(id, _)| id)
                .next()
            })
        })
    }

    /// Polls until every live node reports one of `want` as its cluster and
    /// each member of `want` has a leader, or the timeout elapses. Returns
    /// whether the fleet converged.
    pub fn wait_for_clusters(&self, want: &[ClusterId], timeout: Duration) -> bool {
        wait_until(timeout, || {
            self.with_statuses(|it| {
                let mut placed = true;
                let mut led: Vec<bool> = vec![false; want.len()];
                for (_, s) in it {
                    let c = s.cluster.load(Ordering::Relaxed);
                    match want.iter().position(|w| w.0 == c) {
                        Some(i) => led[i] |= s.is_leader.load(Ordering::Relaxed),
                        None => placed = false,
                    }
                }
                (placed && led.into_iter().all(|l| l)).then_some(())
            })
        })
        .is_some()
    }

    /// Polls seat status until some live node reports leadership.
    pub fn wait_for_leader(&self, timeout: Duration) -> Option<NodeId> {
        wait_until(timeout, || {
            self.with_statuses(|it| {
                it.filter(|(_, s)| s.is_leader.load(Ordering::Relaxed))
                    .map(|(id, _)| id)
                    .next()
            })
        })
    }

    /// Elections won across the live fleet so far (from seat status). A
    /// value above the node count's natural single election means
    /// leadership churned — on oversubscribed hosts usually scheduler
    /// starvation tripping election timeouts.
    #[must_use]
    pub fn elections(&self) -> u64 {
        self.with_statuses(|it| it.map(|(_, s)| s.elections.load(Ordering::Relaxed)).sum())
    }

    /// Full snapshot installs accepted across the live fleet so far.
    /// Nonzero under steady load means a follower fell behind the leader's
    /// compaction horizon and had to be re-imaged.
    #[must_use]
    pub fn snapshot_installs(&self) -> u64 {
        self.with_statuses(|it| {
            it.map(|(_, s)| s.snapshot_installs.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// One line per known node — id, liveness, address, cluster, role, and
    /// progress counters — for failure logs.
    #[must_use]
    pub fn debug_dump(&self) -> String {
        let slots = self.slots.lock().expect("slot registry lock");
        let mut out = String::new();
        for (id, slot) in slots.iter() {
            match &slot.status {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "node {:>3} up   {} cluster={} leader={} commit={} applied={} \
                         elections={} snap_installs={} retired={}",
                        id.0,
                        self.net
                            .addr_of(*id)
                            .map_or_else(|| "(unregistered)".to_string(), |a| a.to_string()),
                        s.cluster.load(Ordering::Relaxed),
                        s.is_leader.load(Ordering::Relaxed),
                        s.commit.load(Ordering::Relaxed),
                        s.applied.load(Ordering::Relaxed),
                        s.elections.load(Ordering::Relaxed),
                        s.snapshot_installs.load(Ordering::Relaxed),
                        s.retired.load(Ordering::Relaxed),
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "node {:>3} DOWN gen={} wal={}",
                        id.0,
                        slot.generation,
                        slot.dir.as_ref().map_or("none", |_| "kept")
                    );
                }
            }
        }
        out
    }

    /// Runs `clients` concurrent open-loop sessions to completion and
    /// measures the wall-clock span of the whole fleet.
    #[must_use]
    pub fn run_clients(&self, clients: u64, opts: &ClientOptions) -> ClientsRun {
        let start = Instant::now();
        let reports = run_open_loop(&self.addrs(), clients, opts);
        ClientsRun {
            reports,
            elapsed: start.elapsed(),
        }
    }

    /// Stops the runtime (every seat flushes a final storage barrier) and
    /// returns the hosted nodes for inspection. Scratch WAL directories are
    /// removed when the `Cluster` value drops at the end of this call —
    /// the returned nodes' in-memory state (session tables, counters)
    /// survives that. Killed and reaped nodes are simply absent.
    #[must_use]
    pub fn shutdown(self) -> Vec<HarnessNode> {
        self.runtime.shutdown_collect()
    }
}

/// Polls `probe` every 5 ms until it yields a value or `timeout` has passed
/// (the probe always runs at least once).
fn wait_until<T>(timeout: Duration, probe: impl Fn() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        let found = probe();
        if found.is_some() || Instant::now() >= deadline {
            return found;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// The deterministic per-node seed the harness boots nodes with.
///
/// The constant must differ from the `0x9E37_79B9_7F4A_7C15` the node
/// constructor itself mixes in: with the same multiplier the two XORs
/// cancel and every node boots on one shared RNG stream — identical
/// election deadlines, which a shared-clock runtime turns into a permanent
/// lockstep split vote (per-thread clock skew used to hide this).
fn harness_seed(id: NodeId) -> u64 {
    0xC1A5 ^ id.0.wrapping_mul(0xD129_42F2_D3A3_2E25)
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The runtime's own Drop joins the workers (idempotent if
        // `shutdown` already ran); then the scratch tree goes.
        let _ = self.runtime.shutdown_collect();
        if let Some(root) = self.data_root.take() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// One seat's cumulative load counters, read from its
/// [`crate::fleet_net::NodeStatus`] block ([`Cluster::seat_loads`]).
#[derive(Debug, Clone, Copy)]
pub struct SeatLoad {
    /// The seat's node.
    pub id: NodeId,
    /// Index of the worker the seat is assigned to.
    pub worker: usize,
    /// Envelopes stepped plus messages externalized, since adoption.
    pub steps: u64,
    /// Bytes read off the seat's front-door connections, since adoption.
    pub bytes: u64,
}

/// The result of one [`Cluster::run_clients`] fleet run.
#[derive(Debug)]
pub struct ClientsRun {
    /// Per-client outcomes.
    pub reports: Vec<ClientReport>,
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
}

impl ClientsRun {
    /// Whether every client confirmed every operation.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.reports.iter().all(|r| r.completed)
    }

    /// Operations confirmed across the fleet (each by one reply).
    #[must_use]
    pub fn confirmed_ops(&self) -> u64 {
        self.reports.iter().map(|r| r.replies).sum()
    }
}

/// Exactly-once check against the server-side session table: on the
/// most-applied node, every client session's `last_seq` (its highest
/// applied number) must equal the number of operations that client
/// issued — no session behind its last write. A lower write that never
/// applied would not move `last_seq`; the clients' `completed` flag (one
/// reply per operation) is what rules that out.
///
/// # Panics
/// Panics if any session's recorded `last_seq` differs from `ops`.
pub fn verify_sessions(nodes: &[HarnessNode], clients: u64, ops: u64) {
    let node = nodes
        .iter()
        .max_by_key(|n| n.applied_index().0)
        .expect("at least one node");
    for c in 0..clients {
        let last = node.sessions().last_seq(SessionId(c));
        assert_eq!(
            last,
            Some(ops),
            "client {c}: session table records last_seq {last:?}, expected {ops}"
        );
    }
}
