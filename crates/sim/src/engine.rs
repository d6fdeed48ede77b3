//! The discrete-event engine.

use crate::client::{Client, Outstanding, Workload};
use crate::config::{Backend, SimConfig, SmKind};
use crate::metrics::Metrics;
use crate::Directory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recraft_core::events::{fingerprint, read_fingerprint};
use recraft_core::{Node, NodeEvent, Role};
use recraft_kv::lin::{self, Op, OpId, OpKind};
use recraft_kv::{DurableKv, DurableKvOptions, KvMachine, KvResp, KvStore};
use recraft_net::{AdminCmd, Envelope, Message};
use recraft_storage::{LogStore, MemLog, WalLog, WalOptions};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterConfig, ClusterId, EpochTerm,
    Error, NodeId, RangeSet, SessionId,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Client endpoints live at ids `CLIENT_BASE + client_id`.
pub const CLIENT_BASE: u64 = 1_000_000;
/// The administrative endpoint's address.
pub const ADMIN_ADDR: NodeId = NodeId(2_000_000);
/// The session id shared by every one-shot [`Sim::execute`] operation,
/// far outside the closed-loop clients' session space.
const INJECT_SESSION_BASE: u64 = 0xF_0000_0000;
/// Timeout-driven retries before a write is abandoned as incomplete.
const WRITE_RETRY_LIMIT: u32 = 8;

/// A scheduled fault or administrative action.
#[derive(Debug, Clone)]
pub enum Action {
    /// Crash a node: its process dies, its store keeps everything synced.
    Crash(NodeId),
    /// Restart a crashed node through [`Sim::reboot`] (a no-op on a node
    /// that is up).
    Restart(NodeId),
    /// Partition the network into groups; links across groups are cut.
    Partition(Vec<Vec<NodeId>>),
    /// Remove all partitions and link cuts.
    Heal,
    /// Cut specific links (both directions).
    CutLinks(Vec<(NodeId, NodeId)>),
    /// Issue an administrative command to a cluster's leader (retried until
    /// acknowledged or permanently rejected).
    Admin {
        /// Target cluster.
        cluster: ClusterId,
        /// The command.
        cmd: AdminCmd,
        /// Identifier for tracking completion.
        req_id: u64,
    },
    /// Stop all clients issuing new operations.
    StopClients,
    /// Resume client traffic.
    StartClients,
    /// Power-cut a node mid-write: its store loses what its last sync did
    /// not cover — on the WAL the unsynced tail is torn at a random byte
    /// (the classic partial-write crash), in memory it is dropped.
    PowerCut(NodeId),
    /// Reboot a node, up or down, through [`Sim::reboot`]: full storage
    /// recovery (torn records dropped, state machine restored from the
    /// snapshot or its own durable image).
    RebootFromDisk(NodeId),
}

#[derive(Debug)]
enum EvKind {
    Deliver(Envelope),
    NodeTick(NodeId),
    ClientRetry { client: u64, seq: u64 },
    ClientResend { client: u64, seq: u64 },
    ClientKick(u64),
    Act(Action),
    AdminCheck(u64),
    DirectoryRefresh,
}

#[derive(Debug)]
struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The storage backend simulated nodes run behind (chosen at runtime).
pub type SimStore = Box<dyn LogStore>;

struct SimNode {
    node: Node<KvMachine, SimStore>,
    up: bool,
}

/// Distinguishes concurrent sims (parallel test binaries share a temp dir).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The deterministic simulator. See the [crate documentation](crate).
pub struct Sim {
    cfg: SimConfig,
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<Ev>>,
    nodes: BTreeMap<NodeId, SimNode>,
    clients: BTreeMap<u64, Client>,
    cut: HashSet<(NodeId, NodeId)>,
    /// Per-link FIFO clock: links model TCP connections, so a message never
    /// overtakes an earlier one on the same link.
    link_clock: HashMap<(NodeId, NodeId), u64>,
    /// Per-node serial-processing clock (the server CPU bottleneck).
    node_busy: HashMap<NodeId, u64>,
    rng: StdRng,
    trace: Vec<(u64, NodeId, NodeEvent)>,
    metrics: Metrics,
    directory: Directory,
    history: Vec<Op>,
    /// First-apply order of unique command digests (the linearization
    /// witness).
    applies: Vec<u64>,
    applied_digests: HashSet<u64>,
    digest_ops: HashMap<u64, OpId>,
    admin_pending: HashMap<u64, (ClusterId, AdminCmd)>,
    admin_done: BTreeMap<u64, u64>,
    admin_failed: BTreeMap<u64, Error>,
    next_admin_req: u64,
    /// Responses to one-shot [`Sim::execute`] sessions, keyed by
    /// `(session, seq)`.
    inject_responses: HashMap<(u64, u64), ClientOutcome>,
    next_inject_seq: u64,
    // Safety trackers (Theorem 1 and Election Safety), checked online.
    applied_at: HashMap<(ClusterId, u64), u64>,
    leaders_at: HashMap<(ClusterId, EpochTerm), NodeId>,
    /// Per-run root of node data dirs (WAL backend only); removed on drop.
    data_root: Option<PathBuf>,
}

impl Sim {
    /// Creates an empty simulation. On the WAL backend (or with the durable
    /// state machine) a per-run data root is created under the system temp
    /// dir and removed when the sim drops.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let data_root = (cfg.backend == Backend::Wal || cfg.sm == SmKind::Durable).then(|| {
            let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
            let root = std::env::temp_dir().join(format!(
                "recraft-sim-{}-{run}-{:x}",
                std::process::id(),
                cfg.seed
            ));
            let _ = std::fs::remove_dir_all(&root);
            root
        });
        Sim {
            cfg,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            nodes: BTreeMap::new(),
            clients: BTreeMap::new(),
            cut: HashSet::new(),
            link_clock: HashMap::new(),
            node_busy: HashMap::new(),
            rng,
            trace: Vec::new(),
            metrics: Metrics::default(),
            directory: Directory::default(),
            history: Vec::new(),
            applies: Vec::new(),
            applied_digests: HashSet::new(),
            digest_ops: HashMap::new(),
            admin_pending: HashMap::new(),
            admin_done: BTreeMap::new(),
            admin_failed: BTreeMap::new(),
            next_admin_req: 1,
            inject_responses: HashMap::new(),
            next_inject_seq: 1,
            applied_at: HashMap::new(),
            leaders_at: HashMap::new(),
            data_root,
        }
    }

    // ---- Storage backends --------------------------------------------------

    /// The data directory of `id` (present when either the WAL backend or
    /// the durable state machine is selected).
    fn node_dir(&self, id: NodeId) -> Option<PathBuf> {
        self.data_root
            .as_ref()
            .map(|r| r.join(format!("node-{id}")))
    }

    /// Opens the configured backend for `id`. `fresh` wipes any state a
    /// previous incarnation of the id left behind (boot semantics); a reboot
    /// passes `false` to recover it instead.
    fn make_store(&self, id: NodeId, fresh: bool) -> SimStore {
        match self.cfg.backend {
            Backend::Mem => Box::new(MemLog::new()),
            Backend::Wal => {
                let dir = self.node_dir(id).expect("wal backend has a data root");
                if fresh {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                Box::new(
                    WalLog::open_with(
                        &dir,
                        WalOptions {
                            // Virtual time makes physical fsyncs pure
                            // overhead; the durable watermark (what a power
                            // cut can tear) is tracked identically.
                            fsync: false,
                            segment_bytes: 32 * 1024,
                        },
                    )
                    .expect("open node WAL"),
                )
            }
        }
    }

    /// Builds the configured state machine for `id`, seeded with `preload`
    /// (the TC baseline restarts nodes preloaded with migrated data). A
    /// boot (`fresh`) wipes and re-creates the machine's data dir; a reboot
    /// recovers it — exercising `DurableKv`'s manifest/segment recovery,
    /// torn-tail handling included.
    fn make_machine(&self, id: NodeId, preload: KvStore, fresh: bool) -> KvMachine {
        match self.cfg.sm {
            SmKind::Mem => KvMachine::Mem(preload),
            SmKind::Durable => {
                let dir = self
                    .node_dir(id)
                    .expect("durable machine has a data root")
                    .join("kv");
                let opts = DurableKvOptions {
                    // Same rationale as the WAL: virtual time makes physical
                    // fsyncs pure overhead; the commit protocol (write-tmp +
                    // rename) is identical either way.
                    fsync: false,
                    chunk_bytes: 32 * 1024,
                    memtable_bytes: 2 * 1024 * 1024,
                };
                let kv = if fresh {
                    DurableKv::create(&dir, preload, opts)
                } else {
                    debug_assert!(preload.is_empty(), "reboot recovers, not preloads");
                    DurableKv::open(&dir, opts)
                }
                .expect("open node kv machine");
                KvMachine::Durable(kv)
            }
        }
    }

    fn node_seed(&self, id: NodeId) -> u64 {
        self.cfg.seed ^ id.0.wrapping_mul(0x517C_C1B7_2722_0A95)
    }

    // ---- Topology ---------------------------------------------------------

    /// Boots a fresh cluster of nodes sharing `ranges`.
    pub fn boot_cluster(&mut self, cluster: ClusterId, ids: &[NodeId], ranges: RangeSet) {
        let config =
            ClusterConfig::new(cluster, ids.iter().copied(), ranges).expect("valid cluster config");
        for id in ids {
            self.boot_node_with_store(*id, config.clone(), KvStore::new());
        }
        self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
    }

    /// Boots one node with a preloaded store (the TC baseline's restart-as-
    /// subcluster path). Under `RECRAFT_SM=durable` the preload seeds the
    /// node's on-disk machine.
    pub fn boot_node_with_store(&mut self, id: NodeId, config: ClusterConfig, store: KvStore) {
        let backend = self.make_store(id, true);
        let machine = self.make_machine(id, store, true);
        let node = Node::with_store(
            id,
            config,
            machine,
            backend,
            self.cfg.timing,
            self.node_seed(id),
        );
        self.nodes.insert(id, SimNode { node, up: true });
        self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
        self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
    }

    /// Boots a node that will join an existing cluster: it has no
    /// configuration, never campaigns, and adopts identity from the first
    /// leader that contacts it (after an `AddAndResize` or a vanilla member
    /// add names it).
    pub fn boot_joiner(&mut self, id: NodeId) {
        let backend = self.make_store(id, true);
        let machine = self.make_machine(id, KvStore::new(), true);
        let node = Node::joiner_with_store(
            id,
            None,
            machine,
            backend,
            self.cfg.timing,
            self.node_seed(id),
        );
        self.nodes.insert(id, SimNode { node, up: true });
        self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
    }

    /// Boots a fresh joiner provisioned for one specific cluster: contact
    /// from any other cluster is ignored. Use when re-purposing a node whose
    /// former cluster is still alive (it would otherwise re-adopt it).
    pub fn boot_joiner_into(&mut self, id: NodeId, target: ClusterId) {
        let backend = self.make_store(id, true);
        let machine = self.make_machine(id, KvStore::new(), true);
        let node = Node::joiner_with_store(
            id,
            Some(target),
            machine,
            backend,
            self.cfg.timing,
            self.node_seed(id),
        );
        self.nodes.insert(id, SimNode { node, up: true });
        self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
    }

    /// Permanently removes a node from the simulation (TC terminates and
    /// re-purposes nodes).
    pub fn decommission(&mut self, id: NodeId) {
        self.nodes.remove(&id);
    }

    /// Adds `n` closed-loop clients running `workload`.
    pub fn add_clients(&mut self, n: u64, workload: Workload) {
        let start = self.clients.len() as u64;
        for i in start..start + n {
            let addr = NodeId(CLIENT_BASE + i);
            let seed = self.cfg.seed ^ (i + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
            self.clients.insert(
                i,
                Client {
                    id: i,
                    addr,
                    session: SessionId(i),
                    rng: StdRng::seed_from_u64(seed),
                    workload: workload.clone(),
                    next_seq: 1,
                    outstanding: BTreeMap::new(),
                    leader_cache: BTreeMap::new(),
                    active: true,
                    zipf: None,
                },
            );
            self.schedule(1, EvKind::ClientKick(i));
        }
    }

    /// Mutates every client's workload in place (mid-run skew flips, hot
    /// spot moves). Takes effect from each client's next issued operation;
    /// operations already in flight keep their original keys.
    pub fn update_workloads(&mut self, f: impl Fn(&mut Workload)) {
        for client in self.clients.values_mut() {
            f(&mut client.workload);
        }
    }

    // ---- Scheduling --------------------------------------------------------

    fn schedule(&mut self, delay: u64, kind: EvKind) {
        self.seq += 1;
        self.heap.push(Reverse(Ev {
            at: self.now + delay,
            seq: self.seq,
            kind,
        }));
    }

    /// Schedules a fault/admin action at an absolute virtual time.
    pub fn schedule_action(&mut self, at: u64, action: Action) {
        let delay = at.saturating_sub(self.now);
        self.schedule(delay, EvKind::Act(action));
    }

    /// Issues an administrative command now (retried until acknowledged).
    /// Returns the request id to correlate with [`Sim::admin_completed_at`].
    pub fn admin(&mut self, cluster: ClusterId, cmd: AdminCmd) -> u64 {
        let req_id = self.next_admin_req;
        self.next_admin_req += 1;
        self.schedule(
            0,
            EvKind::Act(Action::Admin {
                cluster,
                cmd,
                req_id,
            }),
        );
        req_id
    }

    /// Builds an admin action with a fresh request id (for
    /// [`Sim::schedule_action`]).
    pub fn admin_action(&mut self, cluster: ClusterId, cmd: AdminCmd) -> (u64, Action) {
        let req_id = self.next_admin_req;
        self.next_admin_req += 1;
        (
            req_id,
            Action::Admin {
                cluster,
                cmd,
                req_id,
            },
        )
    }

    // ---- Run loop ----------------------------------------------------------

    /// Advances virtual time to `t`, processing every event before it.
    pub fn run_until(&mut self, t: u64) {
        while let Some(Reverse(ev)) = self.heap.peek() {
            if ev.at > t {
                break;
            }
            let Reverse(ev) = self.heap.pop().expect("peeked");
            self.now = ev.at;
            self.dispatch(ev.kind);
        }
        self.now = t;
    }

    /// Advances virtual time by `dt`.
    pub fn run_for(&mut self, dt: u64) {
        let t = self.now + dt;
        self.run_until(t);
    }

    /// Runs until `pred` holds, checking every millisecond of virtual time.
    ///
    /// # Panics
    /// Panics if the predicate does not hold within `max` µs.
    pub fn run_until_pred<F: Fn(&Sim) -> bool>(&mut self, max: u64, pred: F) {
        let deadline = self.now + max;
        while self.now < deadline {
            if pred(self) {
                return;
            }
            self.run_for(1_000);
        }
        assert!(pred(self), "predicate not reached after {max}us");
    }

    /// Runs until `cluster` has a leader.
    pub fn run_until_leader(&mut self, cluster: ClusterId) {
        self.run_until_pred(10_000_000, |sim| sim.leader_of(cluster).is_some());
    }

    fn dispatch(&mut self, kind: EvKind) {
        match kind {
            EvKind::Deliver(env) => {
                let to = env.to;
                if to.0 >= CLIENT_BASE && to != ADMIN_ADDR {
                    if let Message::ClientResp { resp } = env.msg {
                        self.handle_client_resp(to.0 - CLIENT_BASE, env.from, resp);
                    }
                    return;
                }
                let size = env.wire_size() as u64;
                let mut stepped = false;
                if let Some(sn) = self.nodes.get_mut(&to) {
                    if sn.up {
                        let now = self.now;
                        sn.node.step(now, env.from, env.msg);
                        stepped = true;
                    }
                }
                if stepped {
                    self.metrics.messages_delivered += 1;
                    self.metrics.bytes_delivered += size;
                    self.collect(to);
                }
            }
            EvKind::NodeTick(id) => {
                let mut alive = false;
                if let Some(sn) = self.nodes.get_mut(&id) {
                    alive = true;
                    if sn.up {
                        let now = self.now;
                        sn.node.tick(now);
                    }
                }
                if alive {
                    self.collect(id);
                    self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
                }
            }
            EvKind::ClientKick(id) => self.client_issue(id),
            EvKind::ClientRetry { client, seq } => self.client_timeout(client, seq),
            EvKind::ClientResend { client, seq } => {
                let current = self
                    .clients
                    .get(&client)
                    .is_some_and(|c| c.outstanding.contains_key(&seq));
                if current {
                    self.send_outstanding(client, seq, None);
                }
            }
            EvKind::AdminCheck(req_id) => {
                if let Some((cluster, cmd)) = self.admin_pending.remove(&req_id) {
                    // No acknowledgement: retry against the (possibly new)
                    // leader.
                    self.schedule(
                        0,
                        EvKind::Act(Action::Admin {
                            cluster,
                            cmd,
                            req_id,
                        }),
                    );
                }
            }
            EvKind::Act(action) => self.apply_action(action),
            EvKind::DirectoryRefresh => self.refresh_directory(),
        }
    }

    // ---- Faults and admin ---------------------------------------------------

    fn apply_action(&mut self, action: Action) {
        match action {
            Action::Crash(id) => {
                if let Some(sn) = self.nodes.get_mut(&id) {
                    sn.up = false;
                    // Volatile outputs die with the process — without the
                    // write-ahead flush take_outputs would run (a crash must
                    // not promote unacknowledged writes to durable).
                    sn.node.discard_outputs();
                }
            }
            Action::Restart(id) => {
                if self.nodes.get(&id).is_some_and(|sn| !sn.up) {
                    self.reboot(id);
                }
            }
            Action::PowerCut(id) => {
                let tear = self.rng.gen_range(0..64);
                if let Some(sn) = self.nodes.get_mut(&id) {
                    sn.up = false;
                    // The process dies mid-write: unsent outputs vanish and
                    // the store loses what lies past its last sync (a WAL
                    // tail is torn at an arbitrary byte past it). No flush:
                    // the power was already gone.
                    sn.node.power_cut(tear);
                }
            }
            Action::RebootFromDisk(id) => self.reboot(id),
            Action::Partition(groups) => {
                self.cut.clear();
                for (i, a) in groups.iter().enumerate() {
                    for (j, b) in groups.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        for x in a {
                            for y in b {
                                self.cut.insert((*x, *y));
                            }
                        }
                    }
                }
            }
            Action::Heal => self.cut.clear(),
            Action::CutLinks(links) => {
                for (a, b) in links {
                    self.cut.insert((a, b));
                    self.cut.insert((b, a));
                }
            }
            Action::StopClients => {
                for c in self.clients.values_mut() {
                    c.active = false;
                }
            }
            Action::StartClients => {
                let ids: Vec<u64> = self.clients.keys().copied().collect();
                for id in &ids {
                    self.clients.get_mut(id).unwrap().active = true;
                }
                for id in ids {
                    self.schedule(1, EvKind::ClientKick(id));
                }
            }
            Action::Admin {
                cluster,
                cmd,
                req_id,
            } => {
                if self.admin_done.contains_key(&req_id) || self.admin_failed.contains_key(&req_id)
                {
                    return;
                }
                let target = self
                    .leader_of(cluster)
                    .or_else(|| self.any_member_of(cluster));
                let Some(target) = target else {
                    // The cluster does not exist (yet); retry later.
                    self.admin_pending.insert(req_id, (cluster, cmd));
                    self.schedule(200_000, EvKind::AdminCheck(req_id));
                    return;
                };
                self.admin_pending.insert(req_id, (cluster, cmd.clone()));
                let env = Envelope::new(ADMIN_ADDR, target, Message::AdminReq { req_id, cmd });
                self.transmit(env);
                self.schedule(500_000, EvKind::AdminCheck(req_id));
            }
        }
    }

    /// Immediately reboots `id` (see [`Action::RebootFromDisk`]) — the one
    /// reboot path, which [`Action::Restart`] takes too. The node's process
    /// dies, if it has not already, and [`Node::reopen`] recovers a new one
    /// from what outlived it. The in-memory log and machine are kept as they
    /// were left; the WAL and the durable machine are their data dirs, so
    /// those objects are dropped (closing their handles) and recovery runs
    /// over the files, torn tail included.
    pub fn reboot(&mut self, id: NodeId) {
        let Some(sn) = self.nodes.remove(&id) else {
            return;
        };
        let (store, machine) = sn.node.into_parts();
        let store = match self.cfg.backend {
            Backend::Mem => store,
            Backend::Wal => {
                drop(store);
                self.make_store(id, false)
            }
        };
        let machine = match self.cfg.sm {
            SmKind::Mem => machine,
            SmKind::Durable => {
                drop(machine);
                self.make_machine(id, KvStore::new(), false)
            }
        };
        let node = Node::reopen(id, store, machine, self.cfg.timing, self.node_seed(id))
            .expect("recover node from its store");
        // The id never left the map between two events, so its tick chain
        // carries on.
        self.nodes.insert(id, SimNode { node, up: true });
        self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
    }

    /// Immediately power-cuts `id` (see [`Action::PowerCut`]).
    pub fn power_cut(&mut self, id: NodeId) {
        self.apply_action(Action::PowerCut(id));
    }

    fn handle_admin_resp(&mut self, req_id: u64, result: Result<(), Error>) {
        let Some((cluster, cmd)) = self.admin_pending.remove(&req_id) else {
            return;
        };
        match result {
            Ok(()) => {
                self.admin_done.insert(req_id, self.now);
            }
            Err(
                Error::NotLeader(_)
                | Error::PreconditionP1
                | Error::PreconditionP3
                | Error::MergeBlocked,
            ) => {
                // Transient: retry shortly.
                self.admin_pending.insert(req_id, (cluster, cmd));
                self.schedule(100_000, EvKind::AdminCheck(req_id));
            }
            Err(e) => {
                self.admin_failed.insert(req_id, e);
            }
        }
    }

    // ---- Message plumbing ----------------------------------------------------

    /// Sends an envelope through the simulated network.
    fn transmit(&mut self, env: Envelope) {
        if self.cut.contains(&(env.from, env.to)) {
            self.metrics.messages_dropped += 1;
            return;
        }
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            self.metrics.messages_dropped += 1;
            return;
        }
        let latency = self
            .rng
            .gen_range(self.cfg.latency_min..=self.cfg.latency_max);
        let transfer = env.wire_size() as u64 / self.cfg.bandwidth.max(1);
        let mut at = self.now + latency + transfer;
        // FIFO per link (TCP semantics): no overtaking.
        let clock = self.link_clock.entry((env.from, env.to)).or_insert(0);
        at = at.max(*clock);
        *clock = at;
        // Serial processing at the receiving node: a busy server queues
        // incoming messages (the saturation bottleneck).
        if env.to.0 < CLIENT_BASE {
            let busy = self.node_busy.entry(env.to).or_insert(0);
            at = at.max(*busy);
            *busy = at + self.cfg.proc_time;
        }
        let delay = at - self.now;
        self.schedule(delay, EvKind::Deliver(env));
    }

    /// Drains a node's outbox and trace events.
    fn collect(&mut self, id: NodeId) {
        let Some(sn) = self.nodes.get_mut(&id) else {
            return;
        };
        let (msgs, events) = sn.node.take_outputs();
        let inflight_depth = sn.node.max_inflight_depth();
        // Pipeline observability: every non-empty AppendEntries batch feeds
        // the batch-size histogram, and any append traffic samples the
        // sender's deepest in-flight window.
        let mut append_traffic = false;
        for env in &msgs {
            if let Message::AppendEntries { entries, .. } = &env.msg {
                if !entries.is_empty() {
                    self.metrics.record_batch(entries.len());
                    append_traffic = true;
                }
            }
        }
        if append_traffic {
            self.metrics.record_inflight(inflight_depth);
        }
        for ev in events {
            self.observe(id, ev);
        }
        for env in msgs {
            if env.to.0 >= CLIENT_BASE && env.to != ADMIN_ADDR {
                // Client-bound: deliver with latency but without faults (the
                // client plane models an external LAN).
                let latency = self
                    .rng
                    .gen_range(self.cfg.latency_min..=self.cfg.latency_max);
                self.schedule(latency, EvKind::Deliver(env));
            } else if env.to == ADMIN_ADDR {
                match env.msg {
                    Message::AdminResp { req_id, result } => {
                        self.handle_admin_resp(req_id, result);
                    }
                    Message::ClientResp { resp } => {
                        // A one-shot session opened by Sim::execute.
                        self.inject_responses
                            .insert((resp.session.0, resp.seq), resp.outcome);
                    }
                    _ => {}
                }
            } else {
                self.transmit(env);
            }
        }
    }

    /// Records a node event: trace, safety checks, witness, directory
    /// refreshes.
    fn observe(&mut self, id: NodeId, ev: NodeEvent) {
        match &ev {
            NodeEvent::AppliedCommand {
                cluster,
                index,
                digest,
            } => {
                // Theorem 1 (state machine safety), checked online.
                if let Some(prev) = self.applied_at.insert((*cluster, index.0), *digest) {
                    assert_eq!(
                        prev, *digest,
                        "STATE MACHINE SAFETY VIOLATED at {cluster}/{index} by {id}"
                    );
                }
                if self.applied_digests.insert(*digest) {
                    self.applies.push(*digest);
                }
            }
            NodeEvent::ServedRead { digest, .. } => {
                // A ReadIndex-served read takes its place in the apply-order
                // witness without any log entry backing it.
                let digest = *digest;
                if self.applied_digests.insert(digest) {
                    self.applies.push(digest);
                }
            }
            NodeEvent::BecameLeader { cluster, eterm } => {
                // Definition 2 (election safety): one leader per cluster,
                // epoch and term.
                if let Some(prev) = self.leaders_at.insert((*cluster, *eterm), id) {
                    assert_eq!(
                        prev, id,
                        "ELECTION SAFETY VIOLATED: two leaders for {cluster} at {eterm}"
                    );
                }
            }
            NodeEvent::SplitCompleted { .. }
            | NodeEvent::MergeResumed { .. }
            | NodeEvent::MembershipCommitted { .. }
            | NodeEvent::RangesChanged { .. }
            | NodeEvent::Removed { .. } => {
                self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
            }
            _ => {}
        }
        self.trace.push((self.now, id, ev));
    }

    /// Rebuilds the naming service from the live nodes' views (taking the
    /// most-applied node's word per cluster).
    fn refresh_directory(&mut self) {
        let mut best: BTreeMap<ClusterId, (u64, RangeSet, BTreeSet<NodeId>, u32)> = BTreeMap::new();
        for sn in self.nodes.values() {
            if !sn.up || sn.node.role() == Role::Removed {
                continue;
            }
            let cluster = sn.node.cluster();
            let applied = sn.node.applied_index().0;
            let epoch = sn.node.cluster_epoch();
            let entry = best.entry(cluster);
            let cfg = sn.node.config();
            match entry {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert((applied, cfg.ranges().clone(), cfg.members().clone(), epoch));
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if applied > o.get().0 {
                        o.insert((applied, cfg.ranges().clone(), cfg.members().clone(), epoch));
                    }
                }
            }
        }
        self.directory.clear();
        for (cluster, (_, ranges, members, epoch)) in best {
            self.directory.upsert(cluster, ranges, members, epoch);
        }
    }

    // ---- Clients --------------------------------------------------------------

    /// Issues operations until the client's in-flight window is full (one
    /// iteration for the classic closed-loop client, several for an
    /// open-loop window).
    fn client_issue(&mut self, id: u64) {
        loop {
            let Some(c) = self.clients.get_mut(&id) else {
                return;
            };
            if !c.active || c.outstanding.len() >= c.workload.pipeline.max(1) {
                return;
            }
            let (key, op, kind) = c.next_op();
            let seq = c.next_seq;
            c.next_seq += 1;
            // Register the operation's identity in the apply-order witness:
            // commands by their bytes, ReadIndex reads by their (session,
            // seq).
            let digest = match &op {
                ClientOp::Command { cmd, .. } => fingerprint(cmd),
                ClientOp::Get { .. } => read_fingerprint(c.session, seq),
            };
            self.digest_ops.insert(digest, (id, seq));
            let c = self.clients.get_mut(&id).unwrap();
            c.outstanding.insert(
                seq,
                Outstanding {
                    seq,
                    key,
                    op,
                    kind,
                    cluster: None,
                    invoked_at: self.now,
                    attempts: 0,
                },
            );
            self.send_outstanding(id, seq, None);
            let timeout = self.cfg.client_timeout;
            self.schedule(timeout, EvKind::ClientRetry { client: id, seq });
        }
    }

    /// (Re)transmits one of a client's outstanding requests, resolving the
    /// target through the preferred hint, the cached leader, or the
    /// directory. Writes may be deliberately delivered twice
    /// (`Workload::dup_prob`).
    fn send_outstanding(&mut self, id: u64, seq: u64, prefer: Option<NodeId>) {
        let Some(c) = self.clients.get(&id) else {
            return;
        };
        let Some(o) = c.outstanding.get(&seq) else {
            return;
        };
        let key = o.key.clone();
        let (cluster, members): (Option<ClusterId>, Vec<NodeId>) = match self.directory.lookup(&key)
        {
            Some((cl, m)) => (Some(cl), m.iter().copied().collect()),
            None => (None, Vec::new()),
        };
        let cached = cluster
            .and_then(|cl| c.leader_cache.get(&cl).copied())
            .filter(|t| members.contains(t) || self.nodes.contains_key(t));
        let target = prefer
            .or(cached)
            // No cached leader: rotate through members over time so a dead
            // or ignorant first member cannot blackhole the session.
            .or_else(|| {
                if members.is_empty() {
                    None
                } else {
                    Some(members[(self.now as usize / 1000) % members.len()])
                }
            })
            // Directory still empty: try any live node.
            .or_else(|| self.nodes.iter().find(|(_, sn)| sn.up).map(|(n, _)| *n));
        let c = self.clients.get_mut(&id).unwrap();
        if cluster.is_some() {
            if let Some(o) = c.outstanding.get_mut(&seq) {
                o.cluster = cluster;
            }
        }
        let Some(target) = target else {
            return; // nobody to talk to; the retry timer will try again
        };
        let o = c.outstanding.get(&seq).expect("checked");
        let req = ClientRequest {
            session: c.session,
            seq: o.seq,
            op: o.op.clone(),
        };
        let duplicate =
            !o.op.is_read() && c.workload.dup_prob > 0.0 && c.rng.gen_bool(c.workload.dup_prob);
        let addr = c.addr;
        self.transmit(Envelope::new(
            addr,
            target,
            Message::ClientReq { req: req.clone() },
        ));
        if duplicate {
            // Deliver a second copy — to another member when the cluster has
            // one (a retry racing a leader change), else to the same node (a
            // duplicated packet). The session table must absorb both.
            let alt = members
                .iter()
                .copied()
                .find(|m| *m != target)
                .unwrap_or(target);
            self.transmit(Envelope::new(addr, alt, Message::ClientReq { req }));
        }
    }

    fn client_timeout(&mut self, id: u64, seq: u64) {
        let Some(c) = self.clients.get_mut(&id) else {
            return;
        };
        let Some(o) = c.outstanding.get_mut(&seq) else {
            return;
        };
        let is_write = !o.op.is_read();
        if is_write && o.attempts < WRITE_RETRY_LIMIT {
            // Retry under the same (session, seq): even if an earlier
            // attempt was appended, the session table applies it once.
            o.attempts += 1;
            self.send_outstanding(id, seq, None);
            let timeout = self.cfg.client_timeout;
            self.schedule(timeout, EvKind::ClientRetry { client: id, seq });
            return;
        }
        // Reads are idempotent — a retry is simply a fresh operation — and
        // writes out of retries are abandoned as incomplete.
        let o = c.outstanding.remove(&seq).expect("checked");
        self.history.push(Op {
            id: (id, o.seq),
            key: o.key,
            kind: o.kind,
            invoked_at: o.invoked_at,
            responded_at: None,
        });
        self.client_issue(id);
    }

    fn handle_client_resp(&mut self, client: u64, from: NodeId, resp: ClientResponse) {
        let Some(c) = self.clients.get_mut(&client) else {
            return;
        };
        if resp.session != c.session {
            return;
        }
        if !c.outstanding.contains_key(&resp.seq) {
            return; // stale response for an abandoned attempt
        }
        match resp.outcome {
            ClientOutcome::Reply { payload } => {
                let mut o = c.outstanding.remove(&resp.seq).expect("checked");
                if let OpKind::Read { value } = &mut o.kind {
                    if let Ok(KvResp::Value { value: v, .. }) = KvResp::decode(&payload) {
                        *value = v;
                    }
                }
                if let Some(cluster) = o.cluster {
                    c.leader_cache.insert(cluster, from);
                }
                self.history.push(Op {
                    id: (client, resp.seq),
                    key: o.key,
                    kind: o.kind,
                    invoked_at: o.invoked_at,
                    responded_at: Some(self.now),
                });
                self.metrics
                    .completions
                    .push((self.now, self.now - o.invoked_at));
                self.client_issue(client);
            }
            ClientOutcome::Redirect {
                leader_hint,
                cluster,
            } => {
                // Fix the routing table and retry immediately — against the
                // hint when one was given, else through the directory (the
                // responder's cluster may no longer own the key after a
                // split or merge).
                if let (Some(cl), Some(h)) = (cluster, leader_hint) {
                    c.leader_cache.insert(cl, h);
                }
                self.metrics.redirects += 1;
                self.send_outstanding(client, resp.seq, leader_hint);
            }
            ClientOutcome::Rejected { error } => {
                if Self::retryable(&error) {
                    // The topology is changing under us: re-resolve via the
                    // directory after a short backoff (the reconfiguration
                    // window is about one commit round-trip).
                    let seq = resp.seq;
                    self.schedule(10_000, EvKind::ClientResend { client, seq });
                } else {
                    // SessionStale and friends: abandon as incomplete.
                    let o = c.outstanding.remove(&resp.seq).expect("checked");
                    self.history.push(Op {
                        id: (client, resp.seq),
                        key: o.key,
                        kind: o.kind,
                        invoked_at: o.invoked_at,
                        responded_at: None,
                    });
                    self.client_issue(client);
                }
            }
        }
    }

    // ---- Inspection -------------------------------------------------------------

    /// Current virtual time (µs).
    #[must_use]
    pub fn time(&self) -> u64 {
        self.now
    }

    /// The simulation parameters.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Asks a specific node to start an election now (leadership placement
    /// in tests and benches — operators use leadership transfer similarly).
    pub fn campaign(&mut self, node: NodeId) {
        let req_id = 0xFFFF_0000_0000 + self.seq;
        let env = Envelope::new(
            ADMIN_ADDR,
            node,
            Message::AdminReq {
                req_id,
                cmd: AdminCmd::Campaign,
            },
        );
        self.transmit(env);
    }

    /// Sends one typed client request from the admin endpoint without
    /// waiting for the answer (tests exercising duplicate and reordered
    /// deliveries use this to aim the *same* `(session, seq)` at several
    /// nodes). Any response lands in the [`Sim::execute`] response buffer.
    pub fn post_request(&mut self, target: NodeId, req: ClientRequest) {
        let env = Envelope::new(ADMIN_ADDR, target, Message::ClientReq { req });
        self.transmit(env);
    }

    /// Opens a one-shot session and drives an exactly-once write to
    /// completion: the command is routed to the cluster owning `key`,
    /// retried under the same `(session, seq)` through redirects, leader
    /// changes, and reconfiguration windows, and applied exactly once.
    ///
    /// This is the typed replacement for the old raw-bytes injection entry
    /// point (the TC baseline's cluster-manager data path uses it).
    ///
    /// # Errors
    /// Returns the last rejection when the request cannot complete within
    /// the internal deadline.
    pub fn execute(&mut self, key: Vec<u8>, cmd: bytes::Bytes) -> Result<bytes::Bytes, Error> {
        self.execute_request(ClientOp::Command { key, cmd })
    }

    /// Opens a one-shot session and drives a linearizable ReadIndex read to
    /// completion, returning the value (or `None` when the key is absent).
    ///
    /// # Errors
    /// Returns the last rejection when the read cannot complete within the
    /// internal deadline.
    pub fn execute_get(&mut self, key: Vec<u8>) -> Result<Option<bytes::Bytes>, Error> {
        let raw = self.execute_request(ClientOp::Get { key })?;
        match KvResp::decode(&raw) {
            Ok(KvResp::Value { value, .. }) => Ok(value),
            Ok(other) => Err(Error::Codec(format!(
                "expected a read response, got {other:?}"
            ))),
            Err(e) => Err(e),
        }
    }

    /// Whether a rejection is worth a re-resolve-and-retry (reconfiguration
    /// windows and routing misses) — shared by the closed-loop clients and
    /// the one-shot sessions so the two retry policies never diverge.
    fn retryable(error: &Error) -> bool {
        matches!(
            error,
            Error::MergeBlocked
                | Error::PreconditionP3
                | Error::WrongRange(_)
                | Error::NotLeader(_)
                | Error::ProposalDropped
        )
    }

    fn execute_request(&mut self, op: ClientOp) -> Result<bytes::Bytes, Error> {
        // All one-shot operations share one session with increasing
        // sequence numbers (calls are serial), so the replicated session
        // table holds a single entry for the admin endpoint instead of
        // growing with every call.
        let session = SessionId(INJECT_SESSION_BASE);
        let seq = self.next_inject_seq;
        self.next_inject_seq += 1;
        let key = op.key().to_vec();
        let deadline = self.now + 60_000_000;
        let mut prefer: Option<NodeId> = None;
        let mut last_error = Error::ProposalDropped;
        while self.now < deadline {
            let target = prefer
                .or_else(|| {
                    self.directory.lookup(&key).and_then(|(cluster, members)| {
                        self.leader_of(cluster).or_else(|| {
                            members
                                .iter()
                                .copied()
                                .find(|m| self.nodes.get(m).is_some_and(|sn| sn.up))
                        })
                    })
                })
                .or_else(|| self.nodes.iter().find(|(_, sn)| sn.up).map(|(n, _)| *n));
            let Some(target) = target else {
                self.run_for(100_000);
                continue;
            };
            self.post_request(
                target,
                ClientRequest {
                    session,
                    seq,
                    op: op.clone(),
                },
            );
            // Wait for this attempt's answer (or give up and retry — the
            // session table keeps the retry exactly-once).
            let attempt_deadline = self.now + 2_000_000;
            while self.now < attempt_deadline
                && !self.inject_responses.contains_key(&(session.0, seq))
            {
                self.run_for(1_000);
            }
            match self.inject_responses.remove(&(session.0, seq)) {
                None => prefer = None,
                Some(ClientOutcome::Reply { payload }) => return Ok(payload),
                Some(ClientOutcome::Redirect { leader_hint, .. }) => {
                    prefer = leader_hint;
                    self.run_for(5_000);
                }
                Some(ClientOutcome::Rejected { error }) => {
                    if Self::retryable(&error) {
                        last_error = error;
                        prefer = None;
                        self.run_for(50_000);
                    } else {
                        return Err(error);
                    }
                }
            }
        }
        Err(last_error)
    }

    /// The current leader of `cluster`, if any.
    #[must_use]
    pub fn leader_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.nodes
            .values()
            .find(|sn| sn.up && sn.node.is_leader() && sn.node.cluster() == cluster)
            .map(|sn| sn.node.id())
    }

    fn any_member_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.nodes
            .values()
            .find(|sn| sn.up && sn.node.cluster() == cluster && sn.node.role() != Role::Removed)
            .map(|sn| sn.node.id())
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node<KvMachine, SimStore>> {
        self.nodes.get(&id).map(|sn| &sn.node)
    }

    /// Whether the node is currently up.
    #[must_use]
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|sn| sn.up)
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node<KvMachine, SimStore>> {
        self.nodes.values().map(|sn| &sn.node)
    }

    /// The ids of every node currently part of `cluster`.
    #[must_use]
    pub fn members_of(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.nodes
            .values()
            .filter(|sn| sn.node.cluster() == cluster && sn.node.role() != Role::Removed)
            .map(|sn| sn.node.id())
            .collect()
    }

    /// The run's metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The recorded trace of node events.
    #[must_use]
    pub fn trace(&self) -> &[(u64, NodeId, NodeEvent)] {
        &self.trace
    }

    /// Time of the first trace event matching `pred`, if any.
    #[must_use]
    pub fn first_event<F: Fn(&NodeEvent) -> bool>(&self, pred: F) -> Option<u64> {
        self.trace
            .iter()
            .find(|(_, _, e)| pred(e))
            .map(|(t, _, _)| *t)
    }

    /// Time of the last trace event matching `pred`, if any.
    #[must_use]
    pub fn last_event<F: Fn(&NodeEvent) -> bool>(&self, pred: F) -> Option<u64> {
        self.trace
            .iter()
            .rev()
            .find(|(_, _, e)| pred(e))
            .map(|(t, _, _)| *t)
    }

    /// When the admin request completed, if it has.
    #[must_use]
    pub fn admin_completed_at(&self, req_id: u64) -> Option<u64> {
        self.admin_done.get(&req_id).copied()
    }

    /// The permanent failure recorded for an admin request, if any.
    #[must_use]
    pub fn admin_failure(&self, req_id: u64) -> Option<&Error> {
        self.admin_failed.get(&req_id)
    }

    /// The naming service contents.
    #[must_use]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Writes the recorded trace as text to `path` (one event per line) —
    /// crash-recovery soak jobs upload this as a CI artifact on failure.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn dump_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "# recraft sim trace: seed={:#x} backend={:?} t={}us events={}",
            self.cfg.seed,
            self.cfg.backend,
            self.now,
            self.trace.len()
        )?;
        for (t, node, ev) in &self.trace {
            writeln!(f, "{t:>12} {node} {ev:?}")?;
        }
        Ok(())
    }

    // ---- Verification -------------------------------------------------------------

    /// Asserts the paper's safety definitions over everything observed so
    /// far. (They are also asserted online while running; this pass
    /// re-derives both maps from the trace.)
    pub fn check_invariants(&self) {
        let mut applied: HashMap<(ClusterId, u64), u64> = HashMap::new();
        let mut leaders: HashMap<(ClusterId, EpochTerm), NodeId> = HashMap::new();
        for (_, node, ev) in &self.trace {
            match ev {
                // Theorem 1: no two nodes apply different entries at the
                // same (cluster, index). Replays after restart re-apply the
                // same digests, which the equality admits.
                NodeEvent::AppliedCommand {
                    cluster,
                    index,
                    digest,
                } => {
                    if let Some(prev) = applied.insert((*cluster, index.0), *digest) {
                        assert_eq!(prev, *digest, "state machine safety at {cluster}/{index}");
                    }
                }
                // Definition 2: at most one leader per (cluster, epoch,
                // term).
                NodeEvent::BecameLeader { cluster, eterm } => {
                    if let Some(prev) = leaders.insert((*cluster, *eterm), *node) {
                        assert_eq!(prev, *node, "election safety at {cluster}/{eterm}");
                    }
                }
                _ => {}
            }
        }
    }

    /// Verifies client-visible linearizability of the run.
    ///
    /// # Panics
    /// Panics with the violations when the history is not linearizable.
    pub fn check_linearizability(&self) {
        let mut history = self.history.clone();
        // Outstanding requests count as incomplete operations.
        for c in self.clients.values() {
            for o in c.outstanding.values() {
                history.push(Op {
                    id: (c.id, o.seq),
                    key: o.key.clone(),
                    kind: o.kind.clone(),
                    invoked_at: o.invoked_at,
                    responded_at: None,
                });
            }
        }
        let witness: Vec<OpId> = self
            .applies
            .iter()
            .filter_map(|digest| self.digest_ops.get(digest).copied())
            .collect();
        let violations = lin::check_history(&history, &witness);
        assert!(
            violations.is_empty(),
            "linearizability violated: {:?}",
            violations
        );
    }

    /// The number of completed client operations.
    #[must_use]
    pub fn completed_ops(&self) -> usize {
        self.metrics.completions.len()
    }

    /// Asserts the exactly-once contract: every command digest ever applied
    /// occupies exactly one log slot across the whole run. Duplicate
    /// deliveries and retried `(session, seq)` pairs may append twice, but
    /// the session dedup table must let only one entry reach the state
    /// machine — on the original cluster or on whichever cluster survived a
    /// split or merge.
    ///
    /// The slot is one log position in one log *lineage*. A split's
    /// subclusters continue the parent log's numbering (the trace's
    /// `SplitCompleted` events record exactly which clusters share a
    /// lineage), so a node that reboots mid-split legitimately re-applies
    /// the shared pre-`Cnew` prefix under its new cluster identity — same
    /// slot, renamed cluster. A merge renumbers the log and starts a *new*
    /// lineage, so a same-digest application in a merged cluster is a
    /// violation even if the index happens to coincide.
    ///
    /// # Panics
    /// Panics when a command applied at more than one slot.
    pub fn assert_exactly_once(&self) {
        // Union split parent/child clusters into lineage components.
        let mut lineage: HashMap<ClusterId, ClusterId> = HashMap::new();
        fn root(lineage: &HashMap<ClusterId, ClusterId>, mut c: ClusterId) -> ClusterId {
            while let Some(p) = lineage.get(&c) {
                if *p == c {
                    break;
                }
                c = *p;
            }
            c
        }
        for (_, _, ev) in &self.trace {
            if let NodeEvent::SplitCompleted {
                old_cluster,
                new_cluster,
                ..
            } = ev
            {
                let a = root(&lineage, *old_cluster);
                let b = root(&lineage, *new_cluster);
                lineage.insert(a, b);
            }
        }
        let mut sites: HashMap<u64, BTreeSet<(ClusterId, u64)>> = HashMap::new();
        for (_, _, ev) in &self.trace {
            if let NodeEvent::AppliedCommand {
                cluster,
                index,
                digest,
            } = ev
            {
                sites
                    .entry(*digest)
                    .or_default()
                    .insert((*cluster, index.0));
            }
        }
        for (digest, s) in sites {
            let slots: BTreeSet<(ClusterId, u64)> =
                s.iter().map(|(c, i)| (root(&lineage, *c), *i)).collect();
            assert_eq!(
                slots.len(),
                1,
                "command {digest:#x} applied at multiple slots: {s:?}"
            );
        }
    }

    /// How many reads were served through the ReadIndex path (no log entry).
    #[must_use]
    pub fn read_index_served(&self) -> usize {
        self.trace
            .iter()
            .filter(|(_, _, e)| matches!(e, NodeEvent::ServedRead { .. }))
            .count()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Nodes hold open WAL handles into the data root; close them first.
        self.nodes.clear();
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
