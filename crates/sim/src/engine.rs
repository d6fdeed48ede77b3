//! The discrete-event engine.
//!
//! Every running node is seated in a [`recraft_core::Shard`], the round the
//! TCP runtime's workers run: a delivery steps one seat, a tick ticks its
//! shard, and the shard's flush takes each seat's write-ahead barrier before
//! handing its outbox to the network model here. A node has a shard of its
//! own unless [`Sim::co_host`] placed it beside another, whose traffic is
//! then stepped in the round that produced it. Latency, loss, partitions,
//! clients and the safety checks stay in this module.

use crate::client::{Client, Workload};
use crate::config::{Backend, SimConfig, SmKind};
use crate::metrics::Metrics;
use crate::Directory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recraft_core::events::{fingerprint, read_fingerprint};
use recraft_core::{Flushed, Node, NodeEvent, Role, Shard, Timing};
use recraft_fleet::{seen_leader, AdminCall, ClientAction, RoutedClient};
use recraft_kv::lin::{self, Op, OpId, OpKind};
use recraft_kv::{DurableKv, DurableKvOptions, KvMachine, KvResp, KvStore};
use recraft_net::{AdminCmd, Envelope, Message};
use recraft_storage::{LogStore, MemLog, WalLog, WalOptions};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterConfig, ClusterId, EpochTerm,
    Error, NodeId, RangeSet, SessionId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Client endpoints live at ids `CLIENT_BASE + client_id`.
pub const CLIENT_BASE: u64 = 1_000_000;
/// The administrative endpoint's address.
pub const ADMIN_ADDR: NodeId = NodeId(2_000_000);
/// The session id shared by every one-shot [`Sim::execute`] operation,
/// far outside the closed-loop clients' session space.
const INJECT_SESSION_BASE: u64 = 0xF_0000_0000;
/// How long a one-shot operation waits for an answer before it is resent.
const INJECT_RESEND_US: u64 = 2_000_000;

/// A scheduled fault or client-traffic action.
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
    ClientWake(u64),
    Act(Action),
    AdminAttempt(u64, u64),
    DirectoryRefresh,
}

/// The storage backend simulated nodes run behind (chosen at runtime).
pub type SimStore = Box<dyn LogStore>;

type SimNode = Node<KvMachine, SimStore>;

/// A [`Sim::admin`] request under way: its call, and its attempt — a
/// number that supersedes the earlier attempts' checks, and the node it
/// went to until that answers.
struct AdminRequest {
    cluster: ClusterId,
    call: AdminCall,
    attempt: u64,
    to: Option<NodeId>,
}

/// Where a node is: seated in a shard while its process runs, keyed by the
/// shard's home id, or as its process left it after a crash.
enum Place {
    Up(NodeId),
    Down(Box<SimNode>),
}

/// The paper's safety definitions over the events seen so far.
#[derive(Default)]
struct Safety {
    applied: HashMap<(ClusterId, u64), u64>,
    leaders: HashMap<(ClusterId, EpochTerm), NodeId>,
}

impl Safety {
    /// Theorem 1: no two nodes apply different entries at the same
    /// (cluster, index); replays after restart re-apply the same digests,
    /// which the equality admits. Definition 2: at most one leader per
    /// cluster, epoch and term.
    fn check(&mut self, id: NodeId, ev: &NodeEvent) {
        match ev {
            NodeEvent::AppliedCommand {
                cluster,
                index,
                digest,
            } => {
                if let Some(prev) = self.applied.insert((*cluster, index.0), *digest) {
                    assert_eq!(
                        prev, *digest,
                        "STATE MACHINE SAFETY VIOLATED at {cluster}/{index} by {id}"
                    );
                }
            }
            NodeEvent::BecameLeader { cluster, eterm } => {
                if let Some(prev) = self.leaders.insert((*cluster, *eterm), id) {
                    assert_eq!(
                        prev, id,
                        "ELECTION SAFETY VIOLATED: two leaders for {cluster} at {eterm}"
                    );
                }
            }
            _ => {}
        }
    }
}

/// Distinguishes concurrent sims (parallel test binaries share a temp dir).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The deterministic simulator. See the [crate documentation](crate).
pub struct Sim {
    cfg: SimConfig,
    now: u64,
    seq: u64,
    /// Pending events by (time, sequence number): ties run in the order
    /// they were scheduled.
    queue: BTreeMap<(u64, u64), EvKind>,
    nodes: BTreeMap<NodeId, Place>,
    /// Every node boots into the shard of its own id; [`Sim::co_host`]
    /// seats nodes together.
    shards: BTreeMap<NodeId, Shard<KvMachine, SimStore>>,
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
    admin_calls: HashMap<u64, AdminRequest>,
    /// When each ended [`Sim::admin`] request ended, and how.
    admin_ended: BTreeMap<u64, (u64, Result<(), Error>)>,
    next_admin_req: u64,
    /// Answers no [`Sim::admin`] request waits for — those to
    /// [`Sim::admin_to`] sends — not yet read, by request id.
    admin_inbox: BTreeMap<u64, Result<(), Error>>,
    /// The one-shot [`Sim::execute`] session: a window-1 client on the
    /// admin endpoint, and the answers it has yet to read.
    inject: RoutedClient,
    inject_inbox: Vec<(NodeId, ClientResponse)>,
    /// Theorem 1 and Definition 2, checked online.
    safety: Safety,
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
            queue: BTreeMap::new(),
            nodes: BTreeMap::new(),
            shards: BTreeMap::new(),
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
            admin_calls: HashMap::new(),
            admin_ended: BTreeMap::new(),
            next_admin_req: 1,
            admin_inbox: BTreeMap::new(),
            inject: RoutedClient::new(SessionId(INJECT_SESSION_BASE), 1, INJECT_RESEND_US),
            inject_inbox: Vec::new(),
            safety: Safety::default(),
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
        self.boot(id, store, |store, sm, timing, seed| {
            Node::with_store(id, config, sm, store, timing, seed)
        });
        self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
    }

    /// Boots a node that will join an existing cluster: it has no
    /// configuration, never campaigns, and adopts identity from the first
    /// leader that contacts it (after an `AddAndResize` or a vanilla member
    /// add names it).
    pub fn boot_joiner(&mut self, id: NodeId) {
        self.boot(id, KvStore::new(), |store, sm, timing, seed| {
            Node::joiner_with_store(id, None, sm, store, timing, seed)
        });
    }

    /// Boots a fresh joiner provisioned for one specific cluster: contact
    /// from any other cluster is ignored. Use when re-purposing a node whose
    /// former cluster is still alive (it would otherwise re-adopt it).
    pub fn boot_joiner_into(&mut self, id: NodeId, target: ClusterId) {
        self.boot(id, KvStore::new(), |store, sm, timing, seed| {
            Node::joiner_with_store(id, Some(target), sm, store, timing, seed)
        });
    }

    /// Builds `id` over a fresh store and machine and seats it in its own
    /// shard, with its tick chain.
    fn boot(
        &mut self,
        id: NodeId,
        preload: KvStore,
        node: impl FnOnce(SimStore, KvMachine, Timing, u64) -> SimNode,
    ) {
        let store = self.make_store(id, true);
        let machine = self.make_machine(id, preload, true);
        self.seat(
            node(store, machine, self.cfg.timing, self.node_seed(id)),
            id,
        );
        self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
    }

    /// Permanently removes a node from the simulation (TC terminates and
    /// re-purposes nodes).
    pub fn decommission(&mut self, id: NodeId) {
        self.take_node(id);
    }

    /// Seats a running node in the shard `home`, replacing any node of its
    /// id.
    fn seat(&mut self, node: SimNode, home: NodeId) {
        let id = node.id();
        self.take_node(id);
        self.shards.entry(home).or_default().adopt(node);
        self.nodes.insert(id, Place::Up(home));
    }

    /// Takes `id` out of the simulation, up (at its barrier) or down.
    fn take_node(&mut self, id: NodeId) -> Option<SimNode> {
        match self.nodes.remove(&id)? {
            Place::Up(home) => self.shards.get_mut(&home)?.take_out(id),
            Place::Down(node) => Some(*node),
        }
    }

    /// Moves the running node `id` into the shard that hosts `with`, as the
    /// runtime migrates a seat between workers: it leaves its shard at its
    /// barrier, and from then on the traffic between the two is stepped in
    /// the round that produced it. By default every node has a shard of its
    /// own; tests place seats together with this. Returns whether both are
    /// up (and the move was made).
    pub fn co_host(&mut self, id: NodeId, with: NodeId) -> bool {
        let (true, Some(Place::Up(home))) = (self.is_up(id), self.nodes.get(&with)) else {
            return false;
        };
        let home = *home;
        let node = self.take_node(id).expect("an up node is seated");
        self.seat(node, home);
        true
    }

    /// Adds `n` closed-loop clients running `workload`.
    pub fn add_clients(&mut self, n: u64, workload: Workload) {
        let start = self.clients.len() as u64;
        for i in start..start + n {
            let seed = self.cfg.seed ^ (i + 1).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let machine =
                RoutedClient::new(SessionId(i), workload.pipeline, self.cfg.client_timeout);
            self.clients.insert(
                i,
                Client {
                    id: i,
                    rng: StdRng::seed_from_u64(seed),
                    workload: workload.clone(),
                    machine,
                    invoked: BTreeMap::new(),
                    active: true,
                    wake_at: None,
                    zipf: None,
                },
            );
            self.schedule(1, EvKind::ClientWake(i));
        }
    }

    /// Mutates every client's workload in place (mid-run skew flips, hot
    /// spot moves). Takes effect from each client's next issued operation;
    /// operations already in flight keep their original keys. The window
    /// (`pipeline`) is fixed when a client is added.
    pub fn update_workloads(&mut self, f: impl Fn(&mut Workload)) {
        for client in self.clients.values_mut() {
            f(&mut client.workload);
        }
    }

    // ---- Scheduling --------------------------------------------------------

    fn schedule(&mut self, delay: u64, kind: EvKind) {
        self.seq += 1;
        self.queue.insert((self.now + delay, self.seq), kind);
    }

    /// Schedules a fault or client-traffic action at an absolute virtual
    /// time.
    pub fn schedule_action(&mut self, at: u64, action: Action) {
        let delay = at.saturating_sub(self.now);
        self.schedule(delay, EvKind::Act(action));
    }

    /// Issues an administrative command now under the one admin rule,
    /// [`AdminCall`], one attempt at a time: to [`Sim::leader_of`], else
    /// where the last answer pointed, else to the next up member in turn;
    /// again 500 ms after an unanswered attempt, 100 ms after a transient
    /// rejection, 200 ms after a round with nobody to ask. Returns the
    /// request id for [`Sim::admin_completed_at`] and [`Sim::admin_failure`].
    pub fn admin(&mut self, cluster: ClusterId, cmd: AdminCmd) -> u64 {
        let req_id = self.next_admin_req;
        self.next_admin_req += 1;
        let request = AdminRequest {
            cluster,
            call: AdminCall::new(cmd),
            attempt: 0,
            to: None,
        };
        self.admin_calls.insert(req_id, request);
        self.schedule(0, EvKind::AdminAttempt(req_id, 0));
        req_id
    }

    /// Makes the next attempt of admin request `req_id`, unless `attempt`
    /// is no longer its latest: the one in flight, if any, went unanswered.
    fn admin_attempt(&mut self, req_id: u64, attempt: u64) {
        let cluster = match self.admin_calls.get(&req_id) {
            Some(r) if r.attempt == attempt => r.cluster,
            _ => return,
        };
        let leader = self.leader_of(cluster);
        let mut members = self.members_of(cluster);
        members.retain(|n| self.is_up(*n));
        let r = self.admin_calls.get_mut(&req_id).expect("under way");
        if let Some(to) = r.to.take() {
            r.call.on_answer(to, None);
        }
        r.attempt += 1;
        r.to = r.call.target(leader, members);
        let check = EvKind::AdminAttempt(req_id, r.attempt);
        let Some(to) = r.to else {
            return self.schedule(200_000, check);
        };
        let cmd = r.call.cmd.clone();
        let env = Envelope::new(ADMIN_ADDR, to, Message::AdminReq { req_id, cmd });
        self.transmit(env);
        self.schedule(500_000, check);
    }

    // ---- Run loop ----------------------------------------------------------

    /// Advances virtual time to `t`, processing every event before it.
    pub fn run_until(&mut self, t: u64) {
        while let Some(ev) = self.queue.first_entry().filter(|ev| ev.key().0 <= t) {
            let ((at, _), kind) = ev.remove_entry();
            self.now = at;
            self.dispatch(kind);
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
                        self.client_step(to.0 - CLIENT_BASE, Some((env.from, resp)));
                    }
                    return;
                }
                let Some(Place::Up(home)) = self.nodes.get(&to) else {
                    return;
                };
                let home = *home;
                self.metrics.messages_delivered += 1;
                self.metrics.bytes_delivered += env.wire_size() as u64;
                let shard = self.shards.get_mut(&home).expect("seated");
                let unseated = shard.step(self.now, env);
                assert!(unseated.is_none(), "an up node is seated");
                self.flush(home);
            }
            EvKind::NodeTick(id) => {
                let Some(place) = self.nodes.get(&id) else {
                    return;
                };
                if let Place::Up(home) = *place {
                    self.shards.get_mut(&home).expect("seated").tick(self.now);
                    self.flush(home);
                }
                self.schedule(self.cfg.tick_interval, EvKind::NodeTick(id));
            }
            EvKind::ClientWake(id) => self.client_step(id, None),
            EvKind::AdminAttempt(req_id, attempt) => self.admin_attempt(req_id, attempt),
            EvKind::Act(action) => self.apply_action(action),
            EvKind::DirectoryRefresh => self.refresh_directory(),
        }
    }

    // ---- Faults and admin ---------------------------------------------------

    fn apply_action(&mut self, action: Action) {
        match action {
            Action::Crash(id) => {
                self.crash(id);
            }
            Action::Restart(id) => {
                if matches!(self.nodes.get(&id), Some(Place::Down(_))) {
                    self.reboot(id);
                }
            }
            Action::PowerCut(id) => {
                let tear = self.rng.gen_range(0..64);
                if let Some(node) = self.crash(id) {
                    // The store loses what lies past its last sync (a WAL
                    // tail is torn at an arbitrary byte past it).
                    node.power_cut(tear);
                }
            }
            Action::RebootFromDisk(id) => self.reboot(id),
            Action::Partition(groups) => {
                self.cut.clear();
                for (i, a) in groups.iter().enumerate() {
                    for b in &groups[i + 1..] {
                        let links = a.iter().flat_map(|x| b.iter().map(|y| (*x, *y)));
                        self.cut.extend(links.flat_map(|(x, y)| [(x, y), (y, x)]));
                    }
                }
            }
            Action::Heal => self.cut.clear(),
            Action::CutLinks(links) => {
                self.cut
                    .extend(links.into_iter().flat_map(|(a, b)| [(a, b), (b, a)]));
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
                    self.schedule(1, EvKind::ClientWake(id));
                }
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
        let Some(node) = self.take_node(id) else {
            return;
        };
        let (store, machine) = node.into_parts();
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
        self.seat(node, id);
        self.schedule(self.cfg.directory_delay, EvKind::DirectoryRefresh);
    }

    /// Stops `id`'s process, leaving the node as the process left it. A
    /// running node leaves its shard between rounds, when it holds no
    /// unsent output, so its barrier promotes nothing a peer was told.
    fn crash(&mut self, id: NodeId) -> Option<&mut SimNode> {
        let node = Box::new(self.take_node(id)?);
        match self.nodes.entry(id).or_insert(Place::Down(node)) {
            Place::Down(node) => Some(node),
            Place::Up(_) => None,
        }
    }

    /// Immediately power-cuts `id` (see [`Action::PowerCut`]).
    pub fn power_cut(&mut self, id: NodeId) {
        self.apply_action(Action::PowerCut(id));
    }

    /// Takes `from`'s answer to `req_id`: to a [`Sim::admin`] request's
    /// attempt in flight, else to an [`Sim::admin_to`] send, for the inbox.
    fn handle_admin_resp(&mut self, from: NodeId, req_id: u64, result: Result<(), Error>) {
        let Some(r) = self.admin_calls.get_mut(&req_id) else {
            self.admin_inbox.insert(req_id, result);
            return;
        };
        if r.to.take_if(|to| *to == from).is_none() {
            return;
        }
        let Some(end) = r.call.on_answer(from, Some(result)) else {
            r.attempt += 1;
            let next = EvKind::AdminAttempt(req_id, r.attempt);
            return self.schedule(100_000, next);
        };
        self.admin_calls.remove(&req_id);
        self.admin_ended.insert(req_id, (self.now, end));
    }

    // ---- Message plumbing ----------------------------------------------------

    /// Sends an envelope through the simulated network.
    fn transmit(&mut self, env: Envelope) {
        // A cut link drops before the loss draw, so a cut costs no random
        // number.
        if self.cut.contains(&(env.from, env.to))
            || (self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob))
        {
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

    /// Runs the round of the shard `home` (its seats already stepped or
    /// ticked): traffic between its seats is stepped in the round unless the
    /// link is cut, and what the round leaves is delivered next.
    fn flush(&mut self, home: NodeId) {
        let (now, cut) = (self.now, &self.cut);
        let shard = self.shards.get_mut(&home).expect("seated");
        let mut flushed = Vec::new();
        let left = shard.flush(
            now,
            |env| !cut.contains(&(env.from, env.to)),
            |_, pass| flushed.extend(pass),
        );
        for f in flushed {
            self.metrics.local_deliveries += f.local;
            self.collect(f);
        }
        for env in left {
            self.schedule(0, EvKind::Deliver(env));
        }
    }

    /// Observes a seat's events and routes its outbox.
    fn collect(
        &mut self,
        Flushed {
            seat,
            outbox,
            events,
            ..
        }: Flushed,
    ) {
        let inflight_depth = self.node(seat).map_or(0, |n| n.max_inflight_depth());
        // Pipeline observability: every non-empty AppendEntries batch feeds
        // the batch-size histogram, and any append traffic samples the
        // sender's deepest in-flight window.
        let mut append_traffic = false;
        for env in &outbox {
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
            self.observe(seat, ev);
        }
        for env in outbox {
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
                        self.handle_admin_resp(env.from, req_id, result);
                    }
                    Message::ClientResp { resp } if resp.session.0 == INJECT_SESSION_BASE => {
                        self.inject_inbox.push((env.from, resp));
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
        self.safety.check(id, &ev);
        match &ev {
            // A ReadIndex-served read takes its place in the apply-order
            // witness without any log entry backing it.
            NodeEvent::AppliedCommand { digest, .. } | NodeEvent::ServedRead { digest, .. }
                if self.applied_digests.insert(*digest) =>
            {
                self.applies.push(*digest);
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
        let mut best: BTreeMap<ClusterId, (u64, RangeSet, BTreeSet<NodeId>)> = BTreeMap::new();
        for node in self.up_nodes().filter(|n| n.role() != Role::Removed) {
            let applied = node.applied_index().0;
            if best
                .get(&node.cluster())
                .is_none_or(|(seen, ..)| applied > *seen)
            {
                let cfg = node.config();
                let view = (applied, cfg.ranges().clone(), cfg.members().clone());
                best.insert(node.cluster(), view);
            }
        }
        self.directory.clear();
        for (cluster, (_, ranges, members)) in best {
            self.directory.upsert(cluster, ranges, members);
        }
    }

    // ---- Clients --------------------------------------------------------------

    /// Hands client `id`'s machine an answer from a node, or (with none)
    /// its deadline.
    fn client_step(&mut self, id: u64, answer: Option<(NodeId, ClientResponse)>) {
        let Some(c) = self.clients.get_mut(&id) else {
            return;
        };
        let actions = match answer {
            Some((from, resp)) => {
                let redirect = matches!(resp.outcome, ClientOutcome::Redirect { .. });
                self.metrics.redirects += u64::from(redirect);
                c.machine.on_response(self.now, from, resp, &self.directory)
            }
            None => {
                c.wake_at = c.wake_at.filter(|at| *at > self.now);
                c.machine.on_timeout(self.now, &self.directory)
            }
        };
        self.client_act(id, actions);
    }

    /// Carries out client `id`'s actions, issues operations while its
    /// machine has room, and schedules its next deadline.
    fn client_act(&mut self, id: u64, mut actions: Vec<ClientAction>) {
        let now = self.now;
        loop {
            for action in actions {
                match action {
                    ClientAction::Send { to, req } => self.client_send(id, to, req),
                    ClientAction::Done { seq, result } => self.client_done(id, seq, result.ok()),
                    ClientAction::Duplicate { .. } => {}
                }
            }
            let c = self.clients.get_mut(&id).expect("acting client");
            if !c.active || !c.machine.can_issue() {
                break;
            }
            let seq = c.machine.next_seq();
            let (key, op, kind) = c.next_op();
            // Register the operation's identity in the apply-order witness:
            // commands by their bytes, ReadIndex reads by their (session,
            // seq).
            let digest = match &op {
                ClientOp::Command { cmd, .. } => fingerprint(cmd),
                ClientOp::Get { .. } => read_fingerprint(SessionId(id), seq),
            };
            self.digest_ops.insert(digest, (id, seq));
            let invoked = Op {
                id: (id, seq),
                key,
                kind,
                invoked_at: now,
                responded_at: None,
            };
            c.invoked.insert(seq, invoked);
            actions = c.machine.issue(now, op, &self.directory);
        }
        let c = self.clients.get_mut(&id).expect("acting client");
        let Some(at) = c.machine.next_deadline().map(|d| d.max(now)) else {
            return;
        };
        if c.wake_at.is_none_or(|w| at < w) {
            c.wake_at = Some(at);
            self.schedule(at - now, EvKind::ClientWake(id));
        }
    }

    /// Sends one client request — twice, with the workload's `dup_prob`,
    /// for a write: the second copy goes to another member of the key's
    /// cluster when it has one (a retry racing a leader change), else to
    /// the same node (a duplicated packet). The session table must absorb
    /// both.
    fn client_send(&mut self, id: u64, to: NodeId, req: ClientRequest) {
        let c = self.clients.get_mut(&id).expect("sending client");
        let duplicate =
            !req.op.is_read() && c.workload.dup_prob > 0.0 && c.rng.gen_bool(c.workload.dup_prob);
        let addr = NodeId(CLIENT_BASE + id);
        let alt = duplicate.then(|| {
            self.directory
                .lookup(req.key())
                .and_then(|(_, members)| members.iter().copied().find(|m| *m != to))
                .unwrap_or(to)
        });
        self.transmit(Envelope::new(
            addr,
            to,
            Message::ClientReq { req: req.clone() },
        ));
        if let Some(alt) = alt {
            self.transmit(Envelope::new(addr, alt, Message::ClientReq { req }));
        }
    }

    /// Records operation `seq`'s end in the history: answered with
    /// `payload`, or given up unconfirmed.
    fn client_done(&mut self, id: u64, seq: u64, payload: Option<bytes::Bytes>) {
        let c = self.clients.get_mut(&id).expect("client");
        let Some(mut op) = c.invoked.remove(&seq) else {
            return;
        };
        if let Some(payload) = payload {
            if let OpKind::Read { value } = &mut op.kind {
                if let Ok(KvResp::Value { value: v, .. }) = KvResp::decode(&payload) {
                    *value = v;
                }
            }
            op.responded_at = Some(self.now);
            self.metrics
                .completions
                .push((self.now, self.now - op.invoked_at));
        }
        self.history.push(op);
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
        self.admin_to(node, AdminCmd::Campaign);
    }

    /// Sends `cmd` once to `node` from the admin endpoint: no leader lookup
    /// and no retry, unlike [`Sim::admin`]. The answer, if one comes, waits
    /// for [`Sim::take_admin_answers`]. Returns the request id it carries.
    pub fn admin_to(&mut self, node: NodeId, cmd: AdminCmd) -> u64 {
        let req_id = self.next_admin_req;
        self.next_admin_req += 1;
        let env = Envelope::new(ADMIN_ADDR, node, Message::AdminReq { req_id, cmd });
        self.transmit(env);
        req_id
    }

    /// Takes the answers to [`Sim::admin_to`] sends that arrived since the
    /// last call, by request id.
    pub fn take_admin_answers(&mut self) -> BTreeMap<u64, Result<(), Error>> {
        std::mem::take(&mut self.admin_inbox)
    }

    /// Sends one typed client request from the admin endpoint without
    /// waiting for the answer (tests exercising duplicate and reordered
    /// deliveries use this to aim the *same* `(session, seq)` at several
    /// nodes). The answer is dropped unless it belongs to the
    /// [`Sim::execute`] session.
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
    /// Returns a rejection no retry can cure, or
    /// [`Error::DeadlineExceeded`] when no answer came within 60 s.
    pub fn execute(&mut self, key: Vec<u8>, cmd: bytes::Bytes) -> Result<bytes::Bytes, Error> {
        self.execute_request(ClientOp::Command { key, cmd })
    }

    /// Opens a one-shot session and drives a linearizable ReadIndex read to
    /// completion, returning the value (or `None` when the key is absent).
    ///
    /// # Errors
    /// As [`Sim::execute`].
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

    /// Drives one operation of the one-shot session to its answer: a
    /// window-1 [`RoutedClient`] on the admin endpoint, routed by the
    /// naming service and resent until answered, like every client.
    fn execute_request(&mut self, op: ClientOp) -> Result<bytes::Bytes, Error> {
        let seq = self.inject.next_seq();
        let deadline = self.now + 60_000_000;
        let mut actions = self.inject.issue(self.now, op, &self.directory);
        while self.now < deadline {
            for action in std::mem::take(&mut actions) {
                match action {
                    ClientAction::Send { to, req } => self.post_request(to, req),
                    ClientAction::Done { seq: s, result } if s == seq => return result,
                    _ => {}
                }
            }
            self.run_for(1_000);
            let now = self.now;
            for (from, resp) in std::mem::take(&mut self.inject_inbox) {
                actions.extend(self.inject.on_response(now, from, resp, &self.directory));
            }
            actions.extend(self.inject.on_timeout(now, &self.directory));
        }
        self.inject.abandon(seq);
        Err(Error::DeadlineExceeded(format!(
            "one-shot operation {seq} unanswered after 60s"
        )))
    }

    /// The current leader of `cluster`, if any: of its up nodes that claim
    /// to lead, the most committed ([`seen_leader`]).
    #[must_use]
    pub fn leader_of(&self, cluster: ClusterId) -> Option<NodeId> {
        let claims = (self.up_nodes()).filter(|n| n.is_leader() && n.cluster() == cluster);
        seen_leader(claims.map(|n| (n.commit_index().0, n.id())))
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node<KvMachine, SimStore>> {
        match self.nodes.get(&id)? {
            Place::Up(home) => self.shards.get(home)?.node(id),
            Place::Down(node) => Some(node),
        }
    }

    /// Whether the node is currently up.
    #[must_use]
    pub fn is_up(&self, id: NodeId) -> bool {
        matches!(self.nodes.get(&id), Some(Place::Up(_)))
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node<KvMachine, SimStore>> {
        self.nodes.keys().filter_map(|id| self.node(*id))
    }

    /// The running nodes, by id.
    fn up_nodes(&self) -> impl Iterator<Item = &Node<KvMachine, SimStore>> {
        self.nodes().filter(|node| self.is_up(node.id()))
    }

    /// The ids of every node currently part of `cluster`.
    #[must_use]
    pub fn members_of(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.nodes()
            .filter(|n| n.cluster() == cluster && n.role() != Role::Removed)
            .map(Node::id)
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

    /// The client operations that ended, answered or given up, in order.
    #[must_use]
    pub fn history(&self) -> &[Op] {
        &self.history
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
        let (at, end) = self.admin_ended.get(&req_id)?;
        end.is_ok().then_some(*at)
    }

    /// The permanent failure recorded for an admin request, if any.
    #[must_use]
    pub fn admin_failure(&self, req_id: u64) -> Option<&Error> {
        self.admin_ended.get(&req_id)?.1.as_ref().err()
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
        let mut safety = Safety::default();
        for (_, node, ev) in &self.trace {
            safety.check(*node, ev);
        }
    }

    /// Verifies client-visible linearizability of the run.
    ///
    /// # Panics
    /// Panics with the violations when the history is not linearizable.
    pub fn check_linearizability(&self) {
        let mut history = self.history.clone();
        // Pending operations count as incomplete.
        for c in self.clients.values() {
            history.extend(c.invoked.values().cloned());
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
        self.shards.clear();
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
