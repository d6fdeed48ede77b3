//! The traced run: the same workload inputs on a single-threaded loop the
//! benchmark hosts itself, with a span around every call into a layer.
//!
//! The loop is the canonical embedding — event in, `step`, `tick`, the
//! `take_outputs` write-ahead barrier, route — for every node, on a logical
//! clock, with every message moved through `recraft_net`'s `Envelope` codec
//! (`mux::encode_batch` / `MuxReader` between nodes, plain frames to and
//! from the client). One thread + a logical clock + a seed means every
//! *count* reported here repeats exactly; the times are this machine's.
//!
//! The client is closed-loop (64 sessions, one operation each) and routes by
//! looking at the nodes directly — it lives in the same process, so it needs
//! no directory. `wal6-reconfig` traces split → merge → staffing at fixed
//! operation counts, without the kill step (a kill is a process fault; here
//! every node is covered by the power-cut check at the end instead).

use crate::schedule::{self, Schedule, KEYS, SESSIONS};
use crate::trace::{self, Timed};
use crate::{out_dir, Workload};
use bytes::Bytes;
use recraft_cluster::{HarnessBackend, ADMIN_BASE, CLIENT_BASE};
use recraft_core::{LogStore, MemLog, Node, Role, Timing, WalLog, WalOptions};
use recraft_kv::{KvCmd, KvMachine, KvResp, KvStore};
use recraft_net::frame::encode_frame;
use recraft_net::mux::{encode_batch, MuxReader};
use recraft_net::{AdminCmd, Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClusterConfig, ClusterId, KeyRange, MergeParticipant,
    MergeTx, NodeId, RangeSet, SessionId, SplitSpec, TxId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

type Store = Timed<Box<dyn LogStore + Send>>;
type TNode = Node<Timed<KvMachine>, Store>;

/// Operations traced after the preload.
const TRACED_OPS: u64 = 4_000;
/// Logical time one loop round takes.
const ROUND_US: u64 = 200;
/// A request unanswered for this many rounds is sent again.
const RESEND_ROUNDS: u64 = 2_000;
/// Rounds between repeats of an admin command whose effect is not visible yet.
const ADMIN_RESEND_ROUNDS: u64 = 250;
/// Rounds the loop may spin without confirming anything before the run is
/// declared stuck (10 s of logical time).
const STUCK_ROUNDS: u64 = 50_000;
const CLIENT: NodeId = NodeId(CLIENT_BASE + 700_001);
const ADMIN: NodeId = NodeId(ADMIN_BASE + 9);

pub struct TracedRun {
    pub correct: bool,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
}

/// Message and byte counts taken where the loop encodes.
#[derive(Default)]
struct Counts {
    msgs: u64,
    wire_bytes: u64,
    appends: u64,
    appended_entries: u64,
    /// Distinct `(leader, probe serial)` pairs seen on the wire: each is one
    /// ReadIndex confirmation round.
    probe_rounds: BTreeSet<(NodeId, u64)>,
}

impl Counts {
    fn note(&mut self, env: &Envelope) {
        self.msgs += 1;
        if let Message::AppendEntries { entries, probe, .. } = &env.msg {
            if !entries.is_empty() {
                self.appends += 1;
                self.appended_entries += entries.len() as u64;
            }
            if *probe > 0 {
                self.probe_rounds.insert((env.from, *probe));
            }
        }
    }
}

/// The hosted fleet.
struct World {
    backend: HarnessBackend,
    root: PathBuf,
    timing: Timing,
    now: u64,
    nodes: BTreeMap<NodeId, TNode>,
    generation: BTreeMap<NodeId, u64>,
    /// Encoded traffic produced this round, delivered next round.
    wires: Vec<(NodeId, Bytes)>,
    counts: Counts,
    /// Group commits of nodes since reaped (their stores are gone).
    reaped_syncs: u64,
}

fn node_seed(id: NodeId) -> u64 {
    0xBE7C ^ id.0.wrapping_mul(0xD129_42F2_D3A3_2E25)
}

impl World {
    fn new(w: &Workload, tag: &str) -> World {
        let root = out_dir()
            .join("data")
            .join(format!("traced-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create traced data root");
        let mut world = World {
            backend: w.backend,
            root,
            timing: Timing::default(),
            now: 0,
            nodes: BTreeMap::new(),
            generation: BTreeMap::new(),
            wires: Vec::new(),
            counts: Counts::default(),
            reaped_syncs: 0,
        };
        let ids: Vec<NodeId> = (1..=w.nodes as u64).map(NodeId).collect();
        let config = ClusterConfig::new(ClusterId(1), ids.iter().copied(), RangeSet::full())
            .expect("bootstrap config");
        for id in ids {
            let store = world.open_store(id);
            let node = Node::with_store(
                id,
                config.clone(),
                Timed(KvMachine::Mem(KvStore::new())),
                store,
                world.timing,
                node_seed(id),
            );
            world.nodes.insert(id, node);
        }
        world
    }

    fn dir_of(&self, id: NodeId) -> PathBuf {
        let generation = self.generation.get(&id).copied().unwrap_or(0);
        self.root.join(format!("node-{}.g{generation}", id.0))
    }

    fn open_store(&self, id: NodeId) -> Store {
        Timed(match self.backend {
            HarnessBackend::Mem => Box::new(MemLog::new()),
            HarnessBackend::Wal => Box::new(
                WalLog::open_with(
                    self.dir_of(id),
                    WalOptions {
                        fsync: true,
                        segment_bytes: 8 * 1024 * 1024,
                    },
                )
                .expect("open traced wal"),
            ),
        })
    }

    /// Group commits (`sync_count`) across every store the run has had.
    fn syncs(&self) -> u64 {
        self.reaped_syncs
            + self
                .nodes
                .values()
                .map(|n| n.log().sync_count())
                .sum::<u64>()
    }

    /// The node leading the cluster that serves `key`, if one does right now.
    fn leader_for(&self, key: &[u8]) -> Option<NodeId> {
        self.nodes
            .values()
            .find(|n| n.is_leader() && n.config().ranges().contains(key))
            .map(Node::id)
    }

    fn leader_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.nodes
            .values()
            .find(|n| n.is_leader() && n.cluster() == cluster)
            .map(Node::id)
    }

    /// One loop round: deliver what the last round produced plus `inbound`
    /// from the client, tick, drain every node through its barrier, route.
    /// Returns the envelopes addressed to the client and admin endpoints.
    fn round(&mut self, inbound: Vec<(NodeId, Bytes)>) -> Vec<Envelope> {
        let now = self.now;
        let mut deliveries = std::mem::take(&mut self.wires);
        deliveries.extend(inbound);
        for (to, bytes) in deliveries {
            let Some(node) = self.nodes.get_mut(&to) else {
                continue; // reaped: the protocol retransmits elsewhere
            };
            for env in decode(&bytes) {
                trace::span("core.step", || node.step(now, env.from, env.msg));
            }
        }
        let mut outside: Vec<Bytes> = Vec::new();
        for node in self.nodes.values_mut() {
            trace::span("core.tick", || node.tick(now));
            if !node.has_outputs() {
                continue;
            }
            let (outbox, _events) = trace::span("core.take_outputs", || node.take_outputs());
            let mut by_dest: BTreeMap<NodeId, Vec<Envelope>> = BTreeMap::new();
            for env in outbox {
                self.counts.note(&env);
                by_dest.entry(env.to).or_default().push(env);
            }
            for (dest, envs) in by_dest {
                if dest.0 >= CLIENT_BASE {
                    for env in &envs {
                        let frame = trace::span("net.encode", || encode_frame(env));
                        self.counts.wire_bytes += frame.len() as u64;
                        outside.push(frame);
                    }
                } else {
                    for batch in encode_chunked(&envs) {
                        self.counts.wire_bytes += batch.len() as u64;
                        self.wires.push((dest, batch));
                    }
                }
            }
        }
        self.now += ROUND_US;
        outside.iter().flat_map(decode).collect()
    }

    /// Whether nothing is in flight between nodes.
    fn quiet(&self) -> bool {
        self.wires.is_empty()
    }

    /// Jumps the logical clock to the earliest armed protocol deadline (used
    /// while nothing is in flight, so idle time costs no rounds).
    fn skip_to_next_deadline(&mut self) {
        let due = self.nodes.values().map(Node::next_deadline).min();
        if let Some(due) = due.filter(|d| *d != u64::MAX && *d > self.now) {
            self.now = due;
        }
    }
}

/// Encodes `envs` as mux batches, halving any that would not fit one frame
/// (a leader re-sending its snapshot to a lagging peer once per request can
/// put hundreds of megabytes into one round).
fn encode_chunked(envs: &[Envelope]) -> Vec<Bytes> {
    match trace::span("net.encode", || encode_batch(envs)) {
        Ok(batch) => vec![batch],
        Err(_) if envs.len() > 1 => {
            let (a, b) = envs.split_at(envs.len() / 2);
            let mut out = encode_chunked(a);
            out.extend(encode_chunked(b));
            out
        }
        Err(e) => panic!("one envelope exceeds the frame cap: {e}"),
    }
}

/// Decodes every envelope in `bytes` (plain frames or a mux batch).
fn decode(bytes: &Bytes) -> Vec<Envelope> {
    trace::span("net.decode", || {
        let mut reader = MuxReader::new();
        reader.feed(bytes);
        let mut out = Vec::new();
        while let Some(env) = reader
            .next_envelope()
            .expect("the loop only carries what it encoded")
        {
            out.push(env);
        }
        out
    })
}

struct TOp {
    seq: u64,
    key: u64,
    read: bool,
    /// Round the request was last put on the wire, if it is in flight.
    sent_at: Option<u64>,
}

/// The closed-loop client of the traced run.
struct Client {
    sessions: Vec<(u64, Option<TOp>)>,
    confirmed: Vec<u64>,
    issued: u64,
    done: u64,
    reads: u64,
    retries: u64,
    round: u64,
    violations: Vec<String>,
}

impl Client {
    fn new() -> Client {
        Client {
            sessions: (0..SESSIONS).map(|_| (0, None)).collect(),
            confirmed: vec![0; KEYS as usize],
            issued: 0,
            done: 0,
            reads: 0,
            retries: 0,
            round: 0,
            violations: Vec::new(),
        }
    }

    /// Starts operations on free sessions (while `more` yields them) and
    /// encodes every operation that is not in flight towards its leader.
    fn offer(
        &mut self,
        world: &World,
        mut more: impl FnMut(u64) -> Option<(bool, u64)>,
    ) -> Vec<(NodeId, Bytes)> {
        self.round += 1;
        let mut frames = Vec::new();
        for s in 0..SESSIONS {
            let (last_seq, slot) = &mut self.sessions[s as usize];
            if slot.is_none() {
                let Some((read, draw)) = more(s) else {
                    continue;
                };
                *last_seq += 1;
                self.issued += 1;
                trace::set_request(self.issued);
                *slot = Some(TOp {
                    seq: *last_seq,
                    key: schedule::key_index(s, draw % schedule::keys_owned(s)),
                    read,
                    sent_at: None,
                });
            }
            let op = slot.as_mut().expect("filled above");
            if op.sent_at.is_some_and(|at| self.round - at < RESEND_ROUNDS) {
                continue;
            }
            let key = schedule::key_bytes(op.key);
            let Some(leader) = world.leader_for(&key) else {
                continue; // nobody serves the key this round
            };
            self.retries += u64::from(op.sent_at.is_some());
            op.sent_at = Some(self.round);
            let body = if op.read {
                ClientOp::Get { key }
            } else {
                ClientOp::Command {
                    key: key.clone(),
                    cmd: KvCmd::Put {
                        key,
                        value: Bytes::from(schedule::value_bytes(s, op.seq)),
                    }
                    .encode(),
                }
            };
            let env = Envelope::new(
                CLIENT,
                leader,
                Message::ClientReq {
                    req: ClientRequest {
                        session: SessionId(s),
                        seq: op.seq,
                        op: body,
                    },
                },
            );
            frames.push((leader, trace::span("net.encode", || encode_frame(&env))));
        }
        frames
    }

    fn absorb(&mut self, responses: &[Envelope]) {
        for env in responses {
            let Message::ClientResp { resp } = &env.msg else {
                continue;
            };
            let s = resp.session.0;
            let Some((_, slot)) = self.sessions.get_mut(s as usize) else {
                continue;
            };
            let Some(op) = slot.as_mut().filter(|op| op.seq == resp.seq) else {
                continue;
            };
            match &resp.outcome {
                ClientOutcome::Reply { payload } => {
                    if op.read {
                        self.reads += 1;
                        let want = self.confirmed[op.key as usize];
                        let ok = matches!(
                            KvResp::decode(payload),
                            Ok(KvResp::Value { value: Some(v), .. })
                                if v[..] == schedule::value_bytes(s, want)[..]
                        );
                        if !ok {
                            self.violations.push(format!(
                                "traced read of key {} missed its owner's write seq {want}",
                                op.key
                            ));
                        }
                    } else {
                        self.confirmed[op.key as usize] = op.seq;
                    }
                    self.done += 1;
                    *slot = None;
                }
                // Redirects and rejections: offer it again next round.
                _ => op.sent_at = None,
            }
        }
    }

    fn outstanding(&self) -> bool {
        self.sessions.iter().any(|(_, op)| op.is_some())
    }
}

/// Where the traced reconfiguration script stands.
#[derive(Clone)]
enum Stage {
    Steady,
    Splitting {
        low: ClusterId,
        high: ClusterId,
    },
    Split {
        low: ClusterId,
        high: ClusterId,
    },
    Merging {
        merged: ClusterId,
    },
    Merged {
        merged: ClusterId,
    },
    Staffing {
        merged: ClusterId,
        joiners: BTreeSet<NodeId>,
    },
    Done,
}

/// Drives split → merge → staffing at fixed operation counts by sending the
/// admin commands through the same loop.
struct Plan {
    stage: Stage,
    whole: ClusterId,
    next_cluster: u64,
    /// The current stage's command and the round it was last sent (0: not
    /// yet). It is re-sent every [`ADMIN_RESEND_ROUNDS`] until the stage's
    /// completion shows in the nodes — an accepted proposal can still be
    /// dropped by a leader change, and a repeat is rejected (P1) or
    /// idempotent (same merge transaction id).
    pending: Option<(ClusterId, AdminCmd, u64)>,
    req_id: u64,
}

impl Plan {
    fn new() -> Plan {
        Plan {
            stage: Stage::Steady,
            whole: ClusterId(1),
            next_cluster: 2,
            pending: None,
            req_id: 0,
        }
    }

    fn fresh(&mut self) -> ClusterId {
        self.next_cluster += 1;
        ClusterId(self.next_cluster - 1)
    }

    fn members(world: &World, c: ClusterId) -> BTreeSet<NodeId> {
        world
            .nodes
            .values()
            .filter(|n| n.cluster() == c && n.role() != Role::Removed)
            .map(Node::id)
            .collect()
    }

    /// Advances the script; returns admin frames to deliver this round.
    fn step(&mut self, world: &mut World, done: u64, round: u64) -> Vec<(NodeId, Bytes)> {
        let quarter = TRACED_OPS / 4;
        match &self.stage.clone() {
            Stage::Steady if done >= quarter => {
                let members: Vec<NodeId> = Self::members(world, self.whole).into_iter().collect();
                let (lo, hi) = KeyRange::full().split_at(b"k00005000").expect("split key");
                let (low, high) = (self.fresh(), self.fresh());
                let sub = |id, nodes: &[NodeId], r| {
                    ClusterConfig::new(id, nodes.iter().copied(), RangeSet::from(r))
                        .expect("subcluster config")
                };
                let spec = SplitSpec::new(
                    vec![sub(low, &members[..3], lo), sub(high, &members[3..], hi)],
                    &members.iter().copied().collect(),
                    &RangeSet::full(),
                )
                .expect("split plan");
                self.pending = Some((self.whole, AdminCmd::Split(spec), 0));
                self.stage = Stage::Splitting { low, high };
            }
            Stage::Splitting { low, high }
                if world.leader_of(*low).is_some() && world.leader_of(*high).is_some() =>
            {
                self.pending = None;
                self.stage = Stage::Split {
                    low: *low,
                    high: *high,
                };
            }
            Stage::Split { low, high } if done >= 2 * quarter => {
                let merged = self.fresh();
                let resume = Self::members(world, *low);
                let tx = MergeTx {
                    id: TxId(1),
                    coordinator: *low,
                    participants: vec![
                        MergeParticipant {
                            cluster: *low,
                            members: resume.clone(),
                        },
                        MergeParticipant {
                            cluster: *high,
                            members: Self::members(world, *high),
                        },
                    ],
                    new_cluster: merged,
                    resume_members: Some(resume),
                };
                self.pending = Some((*low, AdminCmd::Merge(tx), 0));
                self.stage = Stage::Merging { merged };
            }
            Stage::Merging { merged } if world.leader_of(*merged).is_some() => {
                self.pending = None;
                self.whole = *merged;
                self.stage = Stage::Merged { merged: *merged };
            }
            Stage::Merged { merged } if done >= 3 * quarter => {
                let retired: Vec<NodeId> = world
                    .nodes
                    .values()
                    .filter(|n| n.role() == Role::Removed)
                    .map(Node::id)
                    .collect();
                if retired.len() == 3 {
                    // Reap, then boot three joiners on the recycled ids.
                    for id in &retired {
                        if let Some(node) = world.nodes.remove(id) {
                            world.reaped_syncs += node.log().sync_count();
                        }
                        *world.generation.entry(*id).or_insert(0) += 1;
                    }
                    for id in &retired {
                        let store = world.open_store(*id);
                        let joiner = Node::joiner_with_store(
                            *id,
                            Some(*merged),
                            Timed(KvMachine::Mem(KvStore::new())),
                            store,
                            world.timing,
                            node_seed(*id) ^ 0x9E37_79B9,
                        );
                        world.nodes.insert(*id, joiner);
                    }
                    let joiners: BTreeSet<NodeId> = retired.into_iter().collect();
                    self.pending = Some((*merged, AdminCmd::AddAndResize(joiners.clone()), 0));
                    self.stage = Stage::Staffing {
                        merged: *merged,
                        joiners,
                    };
                }
            }
            Stage::Staffing { merged, joiners } => {
                let joined = joiners.iter().all(|j| {
                    world
                        .nodes
                        .get(j)
                        .is_some_and(|n| n.cluster() == *merged && n.config().members().len() == 6)
                });
                if joined {
                    self.pending = None;
                    self.stage = Stage::Done;
                }
            }
            _ => {}
        }
        // (Re)send the pending command to whoever leads its target now.
        let mut frames = Vec::new();
        if let Some((target, cmd, sent)) = &mut self.pending {
            if *sent == 0 || round - *sent >= ADMIN_RESEND_ROUNDS {
                if let Some(leader) = world.leader_of(*target) {
                    *sent = round;
                    self.req_id += 1;
                    let env = Envelope::new(
                        ADMIN,
                        leader,
                        Message::AdminReq {
                            req_id: self.req_id,
                            cmd: cmd.clone(),
                        },
                    );
                    frames.push((leader, trace::span("net.encode", || encode_frame(&env))));
                }
            }
        }
        frames
    }

    fn finished(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }
}

/// Runs the loop until `client` has nothing left to do (and the script, if
/// any, is finished). Returns `false` if it got stuck.
fn drive(
    world: &mut World,
    client: &mut Client,
    plan: &mut Option<Plan>,
    mut more: impl FnMut(u64) -> Option<(bool, u64)>,
) -> bool {
    let mut idle_rounds = 0u64;
    let mut last_done = client.done;
    loop {
        let mut inbound = client.offer(world, &mut more);
        if let Some(p) = plan.as_mut() {
            inbound.extend(p.step(world, client.done, client.round));
        }
        let script_done = plan.as_ref().is_none_or(Plan::finished);
        if inbound.is_empty() && !client.outstanding() && script_done && world.quiet() {
            return true;
        }
        if inbound.is_empty() && world.quiet() {
            world.skip_to_next_deadline();
        }
        let responses = world.round(inbound);
        client.absorb(&responses);
        if client.done == last_done {
            idle_rounds += 1;
            if idle_rounds > STUCK_ROUNDS {
                return false;
            }
        } else {
            last_done = client.done;
            idle_rounds = 0;
        }
    }
}

/// What one execution of the traced workload produced.
struct Execution {
    wall_s: f64,
    ops: u64,
    reads: u64,
    spans: Vec<trace::Span>,
    snapshot_bytes: u64,
    counts: Counts,
    syncs: u64,
    misses: Vec<String>,
}

/// Boots, preloads (unrecorded), runs the traced window, then power-cuts and
/// reopens every node and checks that every confirmed write survived.
fn execute(w: &Workload, seed: u64, recording: bool) -> Execution {
    let mut world = World::new(w, if recording { "on" } else { "off" });
    let mut client = Client::new();
    let mut misses = Vec::new();

    // Preload: every session writes each key it owns once.
    let mut next_key = vec![0u64; SESSIONS as usize];
    let preloaded = drive(&mut world, &mut client, &mut None, |s| {
        let at = next_key[s as usize];
        (at < schedule::keys_owned(s)).then(|| {
            next_key[s as usize] += 1;
            (false, at)
        })
    });
    if !preloaded {
        misses.push("traced preload got stuck".into());
    }

    let syncs0 = world.syncs();
    let done0 = client.done;
    let reads0 = client.reads;
    world.counts = Counts::default();
    let mut schedule = Schedule::new(seed, w.rate, w.read_pct);
    let mut plan = w.reconfig.then(Plan::new);
    let mut budget = TRACED_OPS;
    trace::record(recording);
    let began = Instant::now();
    let ran = drive(&mut world, &mut client, &mut plan, |_| {
        (budget > 0).then(|| {
            budget -= 1;
            schedule.draw_op()
        })
    });
    let wall_s = began.elapsed().as_secs_f64();
    trace::record(false);
    let (spans, snapshot_bytes) = trace::take();
    if !ran {
        misses.push("traced window got stuck".into());
    }
    let syncs = world.syncs() - syncs0;
    let counts = std::mem::take(&mut world.counts);
    misses.append(&mut client.violations);

    // Durability: discard everything unsynced (a process kill would keep
    // the OS cache — this is harsher), reboot every node from what is left,
    // let the fleet re-elect and re-apply, then look for every write.
    let ids: Vec<NodeId> = world.nodes.keys().copied().collect();
    for id in ids {
        let mut node = world.nodes.remove(&id).expect("listed above");
        node.power_cut(0);
        let rebooted = match world.backend {
            HarnessBackend::Mem => {
                node.restart(world.now);
                node
            }
            HarnessBackend::Wal => {
                drop(node);
                let store = world.open_store(id);
                Node::reopen(
                    id,
                    store,
                    Timed(KvMachine::Mem(KvStore::new())),
                    world.timing,
                    node_seed(id) ^ 0x5EED_B007,
                )
                .expect("reopen power-cut node from its wal")
            }
        };
        world.nodes.insert(id, rebooted);
    }
    world.wires.clear();
    let mut recovered = false;
    for _ in 0..STUCK_ROUNDS {
        if world.quiet() {
            world.skip_to_next_deadline();
        }
        let _ = world.round(Vec::new());
        let serving: Vec<&TNode> = world
            .nodes
            .values()
            .filter(|n| n.role() != Role::Removed)
            .collect();
        let top = serving.iter().map(|n| n.commit_index()).max();
        recovered = serving.iter().any(|n| n.is_leader())
            && serving
                .iter()
                .all(|n| Some(n.applied_index()) == top && !n.state_machine().0.is_empty());
        if recovered && world.quiet() {
            break;
        }
    }
    if !recovered {
        misses.push("fleet did not recover after the power cut".into());
    }
    for node in world.nodes.values().filter(|n| n.role() != Role::Removed) {
        for key in 0..KEYS {
            let bytes = schedule::key_bytes(key);
            if !node.config().ranges().contains(&bytes) {
                continue;
            }
            let want =
                schedule::value_bytes(schedule::owner_of(key), client.confirmed[key as usize]);
            if node
                .state_machine()
                .0
                .get(&bytes)
                .is_none_or(|v| v[..] != want[..])
            {
                misses.push(format!(
                    "after power cut node {} lost key {key} (confirmed write seq {})",
                    node.id().0,
                    client.confirmed[key as usize]
                ));
            }
        }
    }
    misses.truncate(20);
    drop(world.nodes);
    let _ = std::fs::remove_dir_all(&world.root);
    Execution {
        wall_s,
        ops: client.done - done0,
        reads: client.reads - reads0,
        spans,
        snapshot_bytes,
        counts,
        syncs,
        misses,
    }
}

fn write_trace(w: &Workload, spans: &[trace::Span]) -> std::io::Result<PathBuf> {
    let path = out_dir().join(format!("trace-{}.json", w.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(
        out,
        "{{\"workload\": \"{}\", \"unit\": \"ns\", \"spans\": [",
        w.name
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = if s.parent == trace::ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            out,
            "{sep}\n{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(path)
}

/// Runs the workload twice on the traced loop — pass-through decorators
/// first, recording second — and reports the per-layer attribution.
/// `socket_cpu_us_per_op` is the untraced socket run's process CPU per
/// operation, for the residual.
pub fn run(w: &Workload, seed: u64, socket_cpu_us_per_op: f64) -> TracedRun {
    let plain = execute(w, seed, false);
    let traced = execute(w, seed, true);
    let ops = traced.ops.max(1) as f64;
    let totals = trace::totals(&traced.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_us = |name: &str| get(name).self_ns as f64 / 1e3 / ops;
    let total_us = |name: &str| get(name).total_ns as f64 / 1e3 / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    match write_trace(w, &traced.spans) {
        Ok(path) => println!(
            "trace: {} spans written to {}",
            traced.spans.len(),
            path.display()
        ),
        Err(e) => println!("trace: could not write the span file: {e}"),
    }
    for m in plain.misses.iter().chain(&traced.misses) {
        println!("gate MISS (traced): {m}");
    }
    println!(
        "traced: {} operations ({} reads) in {:.3} s recording, {:.3} s pass-through; \
         power cut + reopen checked on both",
        traced.ops, traced.reads, traced.wall_s, plain.wall_s
    );

    let c = &traced.counts;
    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        ("net.encode_us_per_op", self_us("net.encode"), "us/op"),
        ("net.decode_us_per_op", self_us("net.decode"), "us/op"),
        ("net.wire_bytes_per_op", c.wire_bytes as f64 / ops, "B/op"),
        ("net.msgs_per_op", c.msgs as f64 / ops, "1/op"),
        ("core.step_self_us_per_op", self_us("core.step"), "us/op"),
        ("core.tick_self_us_per_op", self_us("core.tick"), "us/op"),
        (
            "core.outputs_self_us_per_op",
            self_us("core.take_outputs"),
            "us/op",
        ),
        (
            "core.entries_per_append",
            ratio(c.appended_entries as f64, c.appends as f64),
            "count",
        ),
        (
            "core.read_probe_rounds_per_read",
            ratio(c.probe_rounds.len() as f64, traced.reads as f64),
            "ratio",
        ),
        (
            "storage.append_us_per_op",
            total_us("storage.append"),
            "us/op",
        ),
        ("storage.sync_us_per_op", total_us("storage.sync"), "us/op"),
        ("storage.syncs_per_op", traced.syncs as f64 / ops, "1/op"),
        ("storage.meta_us_per_op", total_us("storage.meta"), "us/op"),
        ("storage.read_us_per_op", total_us("storage.read"), "us/op"),
        ("kv.apply_us_per_op", total_us("kv.apply"), "us/op"),
        ("kv.query_us_per_op", total_us("kv.query"), "us/op"),
        ("kv.snapshot_us_per_op", total_us("kv.snapshot"), "us/op"),
        ("kv.snapshots", get("kv.snapshot").count as f64, "count"),
        (
            "kv.install_us",
            get("kv.install").total_ns as f64 / 1e3,
            "us",
        ),
        ("kv.snapshot_bytes", traced.snapshot_bytes as f64, "B"),
        (
            "trace.overhead_ratio",
            ratio(traced.wall_s, plain.wall_s),
            "ratio",
        ),
    ];
    // What the socket run spends per operation beyond the layers traced
    // here: reactor, TCP, and the generator. Time inside fsync is waiting,
    // not CPU, so it is not subtracted.
    let layers_us: f64 = totals
        .iter()
        .filter(|(name, _)| **name != "storage.sync")
        .map(|(_, t)| t.self_ns as f64 / 1e3 / ops)
        .sum();
    // Only where both runs do the same work: the traced `wal6-reconfig`
    // window includes the reconfigurations, its socket counterpart's steady
    // phase does not.
    let residual = if w.reconfig {
        0.0
    } else {
        socket_cpu_us_per_op - layers_us
    };
    m.push(("cluster.residual_cpu_us_per_op", residual, "us/op"));
    TracedRun {
        correct: plain.misses.is_empty() && traced.misses.is_empty(),
        per_layer: m,
    }
}
