//! The ReCraft node: a sans-io replica state machine.
//!
//! A [`Node`] owns its hard state, log, snapshot, state machine, and the
//! [`ConfigStack`](crate::stack) that tracks in-flight
//! reconfigurations. It is driven entirely by [`Node::step`] (a message
//! arrived) and [`Node::tick`] (time passed); outbound messages and trace
//! events accumulate in an outbox drained with [`Node::take_outputs`].
//!
//! The submodules implement the protocol planes:
//!
//! * [`election`](self) / replication — vanilla Raft with epoch-prefixed
//!   terms and segmented commit rules,
//! * split — §III-B including `NotifyCommit` and completion,
//! * merge — §III-C including the 2PC driver and snapshot exchange,
//! * pull — the split/merge recovery path,
//! * admin — client proposals and reconfiguration commands.

mod admin;
mod election;
mod merge;
mod pull;
mod replication;
mod split;

use crate::events::NodeEvent;
use crate::sm::StateMachine;
use crate::stack::{ConfigStack, Derived};
use crate::timing::Timing;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use recraft_net::{Envelope, Message};
use recraft_storage::{EntryPayload, HardState, LogEntry, LogStore, MemLog, NodeMeta, Snapshot};
use recraft_types::{
    ClientOutcome, ClientResponse, ClusterConfig, ClusterId, ConfigChange, EpochTerm, Error,
    LogIndex, MergeOutcome, MergeTx, NodeId, RangeSet, SessionCheck, SessionId, SessionTable, TxId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The role a node currently plays in its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica following a leader.
    Follower,
    /// Soliciting votes for leadership.
    Candidate,
    /// The (unique per epoch-term per cluster) leader.
    Leader,
    /// Retired: left out of a split plan or a merge resumption subset. The
    /// node still answers pull and snapshot-fetch requests so peers can
    /// recover history through it.
    Removed,
}

/// One AppendEntries batch the leader has sent but not yet seen
/// acknowledged: the consistency point it was anchored at, how many entries
/// it carried, and when it left (per-peer send timestamp, driving the
/// stale-probe retransmit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightProbe {
    pub(crate) prev_index: LogIndex,
    pub(crate) len: u64,
    pub(crate) sent_at: u64,
}

/// The per-follower pipeline window: every in-flight AppendEntries batch,
/// oldest first. The leader streams new batches until the window holds
/// `PipelineConfig::max_inflight` probes, acks drain it (out-of-order safe:
/// `match_index` is cumulative, so one response can retire many probes), and
/// a nack or a stale probe rewinds it wholesale — everything in flight past
/// a failed consistency check is doomed anyway.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplicationWindow {
    probes: std::collections::VecDeque<InflightProbe>,
}

impl ReplicationWindow {
    /// Number of batches currently in flight.
    pub(crate) fn depth(&self) -> usize {
        self.probes.len()
    }

    /// Records a freshly sent batch.
    pub(crate) fn record(&mut self, prev_index: LogIndex, len: u64, sent_at: u64) {
        self.probes.push_back(InflightProbe {
            prev_index,
            len,
            sent_at,
        });
    }

    /// Retires every probe the cumulative `match_index` covers. Responses
    /// may arrive duplicated or out of order; covering probes by their end
    /// position keeps the accounting monotonic either way.
    pub(crate) fn ack(&mut self, match_index: LogIndex) {
        while let Some(p) = self.probes.front() {
            if p.prev_index.0 + p.len <= match_index.0 {
                self.probes.pop_front();
            } else {
                break;
            }
        }
    }

    /// Drops all in-flight accounting (nack rewind, truncation, step-down).
    pub(crate) fn rewind(&mut self) {
        self.probes.clear();
    }

    /// Whether the oldest probe has been in flight longer than `timeout` —
    /// the loss signal that triggers a retransmit rewind.
    pub(crate) fn stale(&self, now: u64, timeout: u64) -> bool {
        self.probes
            .front()
            .is_some_and(|p| now.saturating_sub(p.sent_at) > timeout)
    }
}

/// Per-peer replication progress kept by leaders.
#[derive(Debug, Clone)]
pub(crate) struct Progress {
    pub(crate) next: LogIndex,
    pub(crate) matched: LogIndex,
    pub(crate) window: ReplicationWindow,
    /// Active binary search for the peer's real match point after a failed
    /// consistency check: `(lo, hi)` brackets it as `lo <= match < hi`,
    /// where `lo` is the best lower bound (the confirmed `matched`, or the
    /// unverified compaction base) and `hi` the lowest index the peer
    /// provably does not match. While set, the leader probes interval
    /// midpoints with empty appends instead of streaming entries, so a
    /// far-divergent follower reconciles in O(log n) round trips instead of
    /// one `next_index` step per nack.
    pub(crate) search: Option<(LogIndex, LogIndex)>,
    /// When the snapshot stream was last sent to this peer; cleared by its
    /// `InstallSnapshotResp`. While the stream is younger than one heartbeat
    /// interval the peer gets heartbeats, not the whole snapshot again.
    pub(crate) snapshot_sent: Option<u64>,
    /// How fast the peer answers probes: the ranking a read round picks
    /// its recipients by.
    pub(crate) clock: ProbeClock,
}

impl Progress {
    /// A peer the leader has heard nothing from yet, streamed from `next`.
    pub(crate) fn new(next: LogIndex) -> Self {
        Progress {
            next,
            matched: LogIndex::ZERO,
            window: ReplicationWindow::default(),
            search: None,
            snapshot_sent: None,
            clock: ProbeClock::default(),
        }
    }
}

/// A peer's probe round trip, timed on the ReadIndex serial. The clock
/// starts at the first message that carries a serial the peer has not been
/// sent before, and stops at the first successful response echoing that
/// serial or a later one — so a response still in flight for an older
/// serial (a late write ack) never passes for the answer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProbeClock {
    /// The highest serial sent to the peer.
    sent: u64,
    /// The timed probe awaiting its answer: `(serial, sent_at)`.
    pending: Option<(u64, u64)>,
    /// The last measured round trip.
    rtt: Option<u64>,
}

impl ProbeClock {
    /// A message carrying `serial` left for the peer at `now`.
    pub(crate) fn sent(&mut self, serial: u64, now: u64) {
        if serial > self.sent {
            self.sent = serial;
            self.pending.get_or_insert((serial, now));
        }
    }

    /// A successful response echoing `serial` arrived at `now`.
    pub(crate) fn answered(&mut self, serial: u64, now: u64) {
        if let Some((timed, at)) = self.pending {
            if serial >= timed {
                self.rtt = Some(now.saturating_sub(at));
                self.pending = None;
            }
        }
    }

    /// The round trip to rank the peer by at `now`: the last measurement,
    /// or how long the timed probe has gone unanswered if that is longer —
    /// a peer that died or slowed down sinks in the ranking without waiting
    /// for an answer. `None` until the first measurement.
    pub(crate) fn rank(&self, now: u64) -> Option<u64> {
        let waited = self.pending.map_or(0, |(_, at)| now.saturating_sub(at));
        self.rtt.map(|rtt| rtt.max(waited))
    }
}

/// What a slot of an in-progress apply batch is: a plain command or a
/// session-tracked one whose response must be recorded for dedup.
#[derive(Debug, Clone, Copy)]
enum BatchTag {
    Plain,
    Session(SessionId, u64),
}

/// A run of committed commands being gathered for one
/// [`StateMachine::apply_batch`] call (see [`Node::advance_apply`] for the
/// flush boundaries that keep batching invisible to every other layer).
#[derive(Debug, Default)]
struct ApplyBatch {
    entries: Vec<(LogIndex, bytes::Bytes)>,
    tags: Vec<BatchTag>,
    /// Sessions with a command in the run — a second command of the same
    /// session forces a flush so its dedup check sees recorded state.
    sessions: BTreeSet<SessionId>,
}

impl ApplyBatch {
    fn push(&mut self, index: LogIndex, cmd: bytes::Bytes, tag: BatchTag) {
        if let BatchTag::Session(session, _) = tag {
            self.sessions.insert(session);
        }
        self.entries.push((index, cmd));
        self.tags.push(tag);
    }

    fn touches(&self, session: SessionId) -> bool {
        self.sessions.contains(&session)
    }
}

/// A client write proposal awaiting its entry's application.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingClient {
    pub(crate) client: NodeId,
    pub(crate) session: SessionId,
    pub(crate) seq: u64,
}

/// A linearizable read awaiting its ReadIndex quorum confirmation.
#[derive(Debug, Clone)]
pub(crate) struct PendingRead {
    pub(crate) client: NodeId,
    pub(crate) session: SessionId,
    pub(crate) seq: u64,
    pub(crate) key: Vec<u8>,
    /// The leader's commit index when the read arrived; serving waits until
    /// `applied_index` covers it.
    pub(crate) read_index: LogIndex,
    /// The probe serial current when the read arrived: only heartbeat
    /// responses echoing a serial at or above it confirm leadership at a
    /// time after the read was accepted.
    pub(crate) serial: u64,
    /// Nodes that confirmed leadership since the read arrived.
    pub(crate) acks: BTreeSet<NodeId>,
}

/// Pull-based recovery state (§III-B).
#[derive(Debug, Clone)]
pub(crate) struct PullState {
    /// Candidate source nodes, rotated on retry.
    pub(crate) targets: Vec<NodeId>,
    pub(crate) cursor: usize,
    pub(crate) next_retry: u64,
}

/// A chunked snapshot install being assembled on a follower. Volatile by
/// design: a crash mid-stream drops the partial image wholesale and the
/// leader re-streams from scratch — a partial snapshot is never installed
/// and never persisted.
#[derive(Debug, Clone)]
pub(crate) struct PendingInstall {
    /// Who is streaming (a new sender restarts assembly).
    pub(crate) from: NodeId,
    /// Stream identity: the snapshot's tail position.
    pub(crate) last_index: LogIndex,
    pub(crate) last_eterm: EpochTerm,
    /// Stream identity: the producing cluster and frame count.
    pub(crate) cluster: ClusterId,
    pub(crate) total: u32,
    /// The configuration at the snapshot point (rides every frame).
    pub(crate) config: ClusterConfig,
    pub(crate) ranges: RangeSet,
    /// The session table from the stream's first frame.
    pub(crate) sessions: Option<SessionTable>,
    /// Collected chunks by sequence number.
    pub(crate) chunks: BTreeMap<u32, bytes::Bytes>,
}

impl PendingInstall {
    /// Whether `frame` belongs to this assembly.
    fn matches(&self, from: NodeId, frame: &recraft_storage::SnapshotFrame) -> bool {
        self.from == from
            && self.last_index == frame.last_index
            && self.last_eterm == frame.last_eterm
            && self.cluster == frame.cluster
            && self.total == frame.total
    }
}

/// Snapshot-exchange state after a merge outcome commits (§III-C2).
#[derive(Debug, Clone)]
pub(crate) struct Exchange {
    pub(crate) tx: MergeTx,
    pub(crate) outcome: MergeOutcome,
    pub(crate) ranges: RangeSet,
    pub(crate) new_epoch: u32,
    /// Collected snapshot parts, keyed by source cluster.
    pub(crate) parts: BTreeMap<ClusterId, Snapshot>,
    /// Per-peer-cluster rotation cursor for fetch retries.
    pub(crate) cursors: BTreeMap<ClusterId, usize>,
    pub(crate) next_retry: u64,
}

/// Stage of the cluster-level 2PC as seen by the coordinator's leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DriverStage {
    /// Waiting for the local `MergePrepare` entry to commit.
    LocalPrepare,
    /// Broadcasting prepares, collecting decisions.
    AwaitPrepare,
    /// Broadcasting the outcome, collecting acknowledgements.
    SpreadOutcome,
}

/// The merge coordinator driver (leader of the coordinating cluster).
#[derive(Debug, Clone)]
pub(crate) struct MergeDriver {
    pub(crate) tx: MergeTx,
    pub(crate) stage: DriverStage,
    /// Collected prepare responses: decision, epoch, ranges.
    pub(crate) responses: BTreeMap<ClusterId, (bool, u32, RangeSet)>,
    pub(crate) outcome: Option<MergeOutcome>,
    pub(crate) acks: BTreeSet<ClusterId>,
    /// Per-cluster member rotation for retries.
    pub(crate) cursors: BTreeMap<ClusterId, usize>,
    pub(crate) next_retry: u64,
}

// The §V reconfiguration-history record now lives in `recraft-storage`: it
// is persisted inside [`NodeMeta`], so history survives real reboots.
pub use recraft_storage::ReconfigRecord;

/// A ReCraft replica, generic over its state machine `SM` and durable
/// storage backend `LS` (defaulting to the in-memory [`MemLog`]).
///
/// See the [crate documentation](crate) for a quickstart.
#[derive(Debug)]
pub struct Node<SM, LS = MemLog> {
    // Identity.
    pub(crate) id: NodeId,
    pub(crate) cluster: ClusterId,

    // Persistent state (survives crash/restart).
    pub(crate) hard: HardState,
    pub(crate) log: LS,
    pub(crate) snapshot: Snapshot,
    pub(crate) snap_config: ClusterConfig,
    pub(crate) cfg: ConfigStack,
    pub(crate) history: Vec<ReconfigRecord>,

    // The application state machine (rebuilt from the snapshot on restart).
    pub(crate) sm: SM,

    /// The exactly-once client session table. Part of the *applied state*:
    /// it advances only when session commands apply, restarts from the
    /// snapshot's copy, and travels through split parts and merge exchange.
    pub(crate) sessions: SessionTable,

    // Volatile state.
    pub(crate) role: Role,
    pub(crate) leader_hint: Option<NodeId>,
    pub(crate) commit_index: LogIndex,
    pub(crate) applied_index: LogIndex,
    pub(crate) committed_in_term: bool,
    pub(crate) votes: BTreeSet<NodeId>,
    pub(crate) progress: BTreeMap<NodeId, Progress>,
    pub(crate) pending_clients: BTreeMap<LogIndex, PendingClient>,
    /// Reads awaiting their ReadIndex quorum round (leader only).
    pub(crate) pending_reads: Vec<PendingRead>,
    /// Monotonic serial carried by AppendEntries probes and echoed by
    /// responses, correlating probe rounds with pending reads (and timing
    /// each peer's round trip). Every accepted read and every heartbeat
    /// raises it.
    pub(crate) read_serial: u64,
    /// The serial included in the most recent probe round, so read batches
    /// that formed since then trigger exactly one follow-up round.
    pub(crate) last_probe_serial: u64,
    pub(crate) pull: Option<PullState>,
    /// A chunked snapshot install mid-assembly (follower side). Volatile:
    /// crashes and restarts drop it, forcing a re-stream from scratch.
    pub(crate) pending_install: Option<PendingInstall>,
    pub(crate) exchange: Option<Exchange>,
    pub(crate) driver: Option<MergeDriver>,
    /// Pending 2PC replies: once the entry at the index commits, answer the
    /// requester.
    pub(crate) pending_2pc: HashMap<TxId, NodeId>,
    /// Snapshot parts retained for peers still exchanging (also after this
    /// node resumed or retired).
    pub(crate) merge_parts: HashMap<TxId, Snapshot>,
    /// Peers whose snapshot fetch arrived before our part existed; answered
    /// as soon as the part is produced.
    pub(crate) pending_fetches: HashMap<TxId, BTreeSet<NodeId>>,

    // Timers.
    pub(crate) timing: Timing,
    pub(crate) rng: StdRng,
    /// When a follower campaigns: an offset from the first clock the node
    /// sees until `clock_seen`, an absolute instant after.
    pub(crate) election_deadline: u64,
    /// Whether a `tick` or `step` has handed this node a clock yet.
    pub(crate) clock_seen: bool,
    pub(crate) heartbeat_due: u64,

    // Cached derived quorum state, keyed by the config stack's version.
    pub(crate) derived_cache: Option<(u64, std::sync::Arc<Derived>)>,

    /// Whether this node has a real configuration. Joiners (created with
    /// [`Node::new_joiner`]) boot without one and never campaign until a
    /// leader contacts them — etcd's `initial-cluster-state=existing`
    /// semantics, which prevents fresh nodes from electing each other into a
    /// split brain.
    pub(crate) bootstrapped: bool,

    /// For a joiner provisioned into a specific cluster (etcd's cluster
    /// token): only that cluster's leader may bootstrap it. `None` accepts
    /// the first cluster that makes contact. Cleared once bootstrapped.
    pub(crate) join_target: Option<ClusterId>,

    /// The epoch at which this node's cluster identity was created (0 for a
    /// booted cluster, bumped by split completion / merge resumption /
    /// snapshot adoption). Scopes message acceptance: traffic from a foreign
    /// cluster is processed only when its epoch is strictly greater — a
    /// *descendant* reconfiguration generation reclaiming a straggler —
    /// never from a sibling or stale cluster. Unlike `hard.eterm`'s epoch,
    /// this only advances together with the cluster identity itself, so a
    /// half-adopted straggler can still be rescued.
    pub(crate) cluster_epoch: u32,

    /// Client operations answered with a reply since this node object was
    /// created (volatile; resets on reboot). The sampling plane reports it
    /// cumulatively and the fleet controller differences successive samples,
    /// so a reset only costs one understated interval.
    pub(crate) ops_served: u64,

    // Outbox.
    pub(crate) outbox: Vec<Envelope>,
    pub(crate) events: Vec<NodeEvent>,

    /// Whether the durable node metadata (hard state + cluster identity)
    /// changed since the last flush. The write-ahead barrier in
    /// [`Node::take_outputs`] persists it before any output leaves.
    pub(crate) meta_dirty: bool,
}

impl<SM: StateMachine> Node<SM, MemLog> {
    /// Boots a node with an initial configuration and the in-memory backend.
    /// Every member of a new cluster must boot with the same `config`.
    #[must_use]
    pub fn new(id: NodeId, config: ClusterConfig, sm: SM, timing: Timing, seed: u64) -> Self {
        Node::with_store(id, config, sm, MemLog::new(), timing, seed)
    }

    /// Boots an in-memory node that will *join* an existing cluster (via
    /// `AddAndResize`, a vanilla membership change, or a TC rejoin). It
    /// holds no real configuration, never starts elections, and adopts the
    /// cluster's identity from the first leader that contacts it.
    #[must_use]
    pub fn new_joiner(id: NodeId, sm: SM, timing: Timing, seed: u64) -> Self {
        Node::joiner_with_store(id, None, sm, MemLog::new(), timing, seed)
    }

    /// Boots an in-memory joiner provisioned for one specific cluster:
    /// contact from any other cluster is ignored (etcd's cluster-token
    /// semantics). Required when a node is re-purposed while its former
    /// cluster is still alive and would otherwise re-adopt it first.
    #[must_use]
    pub fn new_joiner_into(
        id: NodeId,
        target: ClusterId,
        sm: SM,
        timing: Timing,
        seed: u64,
    ) -> Self {
        Node::joiner_with_store(id, Some(target), sm, MemLog::new(), timing, seed)
    }
}

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Boots a node with an initial configuration on an explicit storage
    /// backend. The initial identity and snapshot are persisted immediately,
    /// so a node that crashes before its first output still reboots with its
    /// configuration. To *recover* an existing data dir instead, use
    /// [`Node::reopen`].
    #[must_use]
    pub fn with_store(
        id: NodeId,
        config: ClusterConfig,
        sm: SM,
        store: LS,
        timing: Timing,
        seed: u64,
    ) -> Self {
        Node::boot(id, true, None, config, sm, store, timing, seed)
    }

    /// Boots a joiner (optionally provisioned for `target`) on an explicit
    /// storage backend. See [`Node::new_joiner`] / [`Node::new_joiner_into`].
    #[must_use]
    pub fn joiner_with_store(
        id: NodeId,
        target: Option<ClusterId>,
        sm: SM,
        store: LS,
        timing: Timing,
        seed: u64,
    ) -> Self {
        let placeholder =
            ClusterConfig::new(ClusterId(0), [id], RangeSet::empty()).expect("placeholder config");
        Node::boot(id, false, target, placeholder, sm, store, timing, seed)
    }

    /// The one boot path: the identity is whole before anything is written,
    /// so the first durable metadata a joiner has says it is a joiner.
    #[allow(clippy::too_many_arguments)]
    fn boot(
        id: NodeId,
        bootstrapped: bool,
        join_target: Option<ClusterId>,
        config: ClusterConfig,
        sm: SM,
        store: LS,
        timing: Timing,
        seed: u64,
    ) -> Self {
        let meta = NodeMeta {
            hard: HardState::default(),
            cluster: config.id(),
            cluster_epoch: 0,
            bootstrapped,
            retired: false,
            join_target,
            history: Vec::new(),
        };
        let empty = Snapshot::empty(config.id(), config.ranges().clone());
        let designated = bootstrapped && config.members().first() == Some(&id);
        let mut node = Node::assemble(id, meta, store, sm, (empty, config.clone()), timing, seed);
        if designated {
            // A new cluster's smallest id leads after one vote round.
            node.campaign_on_next_tick();
        }
        // Boot state is durable before the node says anything to anyone.
        node.stamp_snapshot(LogIndex::ZERO, EpochTerm::ZERO, config);
        node.persist_meta_now();
        node.log.sync();
        node
    }

    /// Recovers a node from the persisted state in `store` — the one reboot
    /// path, for every backend: hard state, cluster identity, snapshot, and
    /// the log's surviving prefix come back from the store; the state
    /// machine restores from the snapshot; and committed-but-uncompacted
    /// entries are re-applied once a leader re-confirms them (exactly Raft's
    /// durability contract). Nothing volatile survives: a half-assembled
    /// snapshot stream, merge parts, client and read queues all start empty.
    ///
    /// # Errors
    /// Returns [`Error::Storage`] when the store holds no node metadata
    /// (i.e. this directory never booted a node), and a codec error when the
    /// snapshot payload does not decode.
    pub fn reopen(
        id: NodeId,
        mut store: LS,
        mut sm: SM,
        timing: Timing,
        seed: u64,
    ) -> recraft_types::Result<Self> {
        let meta = store
            .load_meta()
            .ok_or_else(|| Error::Storage("no persisted node metadata".into()))?;
        let (snapshot, snap_config) = store
            .load_snapshot()
            .ok_or_else(|| Error::Storage("no persisted snapshot (boot state missing)".into()))?;
        // The snapshot outranks an inconsistent log: if the log does not
        // contain the snapshot's tail (a crash between making a snapshot
        // durable and resetting the log under it), the log is superseded
        // history. No backend reconciles the two itself; the rule is here.
        if !store.matches(snapshot.last_index, snapshot.last_eterm) {
            store.reset(snapshot.last_index, snapshot.last_eterm);
        }
        // O(delta) reboot (ROADMAP item 4b): a durable machine recovers its
        // own image on open, so re-installing the consensus snapshot over it
        // would be a redundant O(keyspace) rewrite. Trust the machine's
        // persisted applied-index watermark `w` instead — and replay only
        // the log suffix past it — when the image provably belongs here:
        //   - its lineage token matches this node's persisted identity
        //     (splits and merges re-tag the image through `note_lineage`; a
        //     mismatch means the identity moved after the machine's last
        //     flush, so the image's indexes may be from another numbering),
        //   - `commit_floor <= w <= last_index` (below the floor the
        //     snapshot is strictly newer; above the durable tail the
        //     machine absorbed writes a torn log no longer vouches for),
        //   - the replay suffix `(commit_floor, w]` holds no Config entries
        //     (their application does identity/range bookkeeping a suffix
        //     replay cannot reconstruct — rare, fall back to the snapshot).
        // Applied implies committed, so adopting `w` as the commit floor is
        // safe.
        let commit_floor = snapshot.last_index.max(store.base_index());
        let expected_lineage = lineage_token(meta.cluster, meta.cluster_epoch);
        let trusted = match sm.recovered_watermark() {
            Some((lineage, w))
                if lineage == expected_lineage && w >= commit_floor && w <= store.last_index() =>
            {
                store
                    .tail(store.first_index())
                    .iter()
                    .filter(|e| e.index > commit_floor && e.index <= w)
                    .all(|e| e.as_config().is_none())
                    .then_some(w)
            }
            _ => None,
        };
        let mut sessions = snapshot.sessions.clone();
        let recovered_floor = match trusted {
            Some(w) => {
                // The image already contains the suffix's effects; replay
                // only the exactly-once bookkeeping. The recorded responses
                // are not recoverable from the durable image, so a duplicate
                // retried across this reboot is answered with an empty reply
                // payload — clients treat any recorded reply as completion
                // (the same inference the SessionStale path relies on).
                for entry in store.tail(commit_floor.next()) {
                    if entry.index > w {
                        break;
                    }
                    if let EntryPayload::SessionCommand { session, seq, .. } = &entry.payload {
                        if matches!(sessions.check(*session, *seq), SessionCheck::Fresh) {
                            sessions.record(*session, *seq, bytes::Bytes::new());
                        }
                    }
                }
                w
            }
            None => {
                sm.restore_chunks(&snapshot.chunks)?;
                sm.retain_ranges(snap_config.ranges());
                commit_floor
            }
        };
        let mut node = Node::assemble(id, meta, store, sm, (snapshot, snap_config), timing, seed);
        node.sessions = sessions;
        node.commit_index = recovered_floor;
        node.applied_index = recovered_floor;
        // Replay config entries from the surviving log onto the stack rooted
        // at the snapshot; they re-fold when their commit is re-confirmed
        // by a leader.
        for entry in node.log.tail(node.log.first_index()) {
            if entry.index <= node.snapshot.last_index {
                continue;
            }
            if let Some(change) = entry.as_config() {
                node.cfg.push(entry.index, change.clone());
            }
        }
        // The fallback restore path rebuilt the image without a lineage tag;
        // either way the machine now carries the recovered identity.
        node.refresh_sm_lineage();
        Ok(node)
    }

    /// A follower at rest on the given durable identity and snapshot: the
    /// config stack rooted at the snapshot, sessions and the commit floor
    /// taken from it, every volatile field empty. Both boot paths start
    /// here and adjust what they recovered beyond the snapshot.
    fn assemble(
        id: NodeId,
        meta: NodeMeta,
        store: LS,
        sm: SM,
        (snapshot, snap_config): (Snapshot, ClusterConfig),
        timing: Timing,
        seed: u64,
    ) -> Self {
        timing.validate();
        let mut rng = StdRng::seed_from_u64(seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // An offset, armed by the first clock (see `arm_timers`): a node
        // built on a host clock already past the timeout — a reboot — must
        // not campaign on its first tick and depose a live leader.
        let election_deadline = Self::random_timeout(&mut rng, &timing, 0);
        Node {
            id,
            cluster: meta.cluster,
            hard: meta.hard,
            log: store,
            cfg: ConfigStack::new(snap_config.clone(), snapshot.last_index),
            snap_config,
            history: meta.history,
            sm,
            sessions: snapshot.sessions.clone(),
            role: if meta.retired {
                Role::Removed
            } else {
                Role::Follower
            },
            leader_hint: None,
            commit_index: snapshot.last_index,
            applied_index: snapshot.last_index,
            snapshot,
            committed_in_term: false,
            votes: BTreeSet::new(),
            progress: BTreeMap::new(),
            pending_clients: BTreeMap::new(),
            pending_reads: Vec::new(),
            read_serial: 0,
            last_probe_serial: 0,
            pull: None,
            pending_install: None,
            exchange: None,
            driver: None,
            pending_2pc: HashMap::new(),
            merge_parts: HashMap::new(),
            pending_fetches: HashMap::new(),
            timing,
            rng,
            election_deadline,
            clock_seen: false,
            heartbeat_due: 0,
            derived_cache: None,
            bootstrapped: meta.bootstrapped,
            join_target: meta.join_target,
            cluster_epoch: meta.cluster_epoch,
            ops_served: 0,
            outbox: Vec::new(),
            events: Vec::new(),
            meta_dirty: false,
        }
    }

    /// The durable node metadata as of right now. The §V reconfiguration
    /// history rides along, so it survives reboots even after the log
    /// entries that produced it were compacted away.
    pub(crate) fn node_meta(&self) -> NodeMeta {
        NodeMeta {
            hard: self.hard,
            cluster: self.cluster,
            cluster_epoch: self.cluster_epoch,
            bootstrapped: self.bootstrapped,
            retired: self.role == Role::Removed,
            join_target: self.join_target,
            history: self.history.clone(),
        }
    }

    /// Marks the durable node metadata changed; flushed at the write-ahead
    /// barrier before any output is externalized.
    pub(crate) fn touch_meta(&mut self) {
        self.meta_dirty = true;
    }

    /// Writes the node metadata to the store, ahead of whatever the caller
    /// writes next: the barrier uses it, and so does every identity change
    /// that goes on to persist a snapshot (boot, merge resumption, snapshot
    /// adoption). The store keeps its writes in order — a snapshot is
    /// durable only after everything written before it — so a crash finds
    /// the identity at least as new as the content: new identity over old
    /// content is self-healing (the new cluster's leader reinstalls its
    /// snapshot), whereas old identity over renumbered content would leave
    /// `hard.eterm` below the log's base epoch-term.
    pub(crate) fn persist_meta_now(&mut self) {
        self.refresh_sm_lineage();
        let meta = self.node_meta();
        self.log.save_meta(&meta);
        self.meta_dirty = false;
    }

    /// Re-tags the state machine with the current lineage token. Called
    /// whenever the durable identity is persisted, so a durable machine's
    /// image and the node metadata agree on whom they belong to — the
    /// precondition for the O(delta) reboot path in [`Node::reopen`].
    pub(crate) fn refresh_sm_lineage(&mut self) {
        self.sm
            .note_lineage(lineage_token(self.cluster, self.cluster_epoch));
    }

    /// Stamps a snapshot from the live machine — its image over `config`'s
    /// ranges and the session table, as of `(index, eterm)` under the
    /// current cluster identity — and makes it durable: *before* the log
    /// operation (compact, reset) that depends on it.
    pub(crate) fn stamp_snapshot(
        &mut self,
        index: LogIndex,
        eterm: EpochTerm,
        config: ClusterConfig,
    ) {
        self.snapshot = Snapshot {
            last_index: index,
            last_eterm: eterm,
            cluster: self.cluster,
            ranges: config.ranges().clone(),
            chunks: self.sm.snapshot_chunks(config.ranges()),
            sessions: self.sessions.clone(),
        };
        self.snap_config = config;
        self.log.save_snapshot(&self.snapshot, &self.snap_config);
    }

    /// The write-ahead barrier: everything buffered becomes durable.
    fn flush_storage(&mut self) {
        if self.meta_dirty {
            self.persist_meta_now();
        }
        self.log.sync();
    }

    // ---- Accessors -------------------------------------------------------

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cluster this node currently belongs to.
    #[must_use]
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The cluster's reconfiguration epoch: bumped by every completed split
    /// (children = parent + 1) and merge (max participant + 1). Directory
    /// records carry it so routed clients can fence cross-lineage retry
    /// inferences.
    #[must_use]
    pub fn cluster_epoch(&self) -> u32 {
        self.cluster_epoch
    }

    /// The node's role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// Whether this node currently leads its cluster.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The believed leader, if any.
    #[must_use]
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// The node's current epoch-prefixed term.
    #[must_use]
    pub fn current_eterm(&self) -> EpochTerm {
        self.hard.eterm
    }

    /// The highest committed log index.
    #[must_use]
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// The highest applied log index.
    #[must_use]
    pub fn applied_index(&self) -> LogIndex {
        self.applied_index
    }

    /// The folded base configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        self.cfg.base()
    }

    /// The effective quorum state right now.
    #[must_use]
    pub fn derived(&self) -> Derived {
        self.cfg.derive(self.id)
    }

    /// Cached variant of [`Node::derived`], recomputed only when the config
    /// stack changed (this sits on the per-message hot path).
    pub(crate) fn derived_cached(&mut self) -> std::sync::Arc<Derived> {
        let d = self.derived_current();
        self.derived_cache = Some((self.cfg.version(), d.clone()));
        d
    }

    /// The cached derivation when it is current, else a fresh one (which
    /// a `&self` caller cannot store).
    pub(crate) fn derived_current(&self) -> std::sync::Arc<Derived> {
        match &self.derived_cache {
            Some((v, d)) if *v == self.cfg.version() => d.clone(),
            _ => std::sync::Arc::new(self.cfg.derive(self.id)),
        }
    }

    /// The application state machine.
    #[must_use]
    pub fn state_machine(&self) -> &SM {
        &self.sm
    }

    /// Client operations answered with a reply since this node object was
    /// created.
    #[must_use]
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// The node's answer to a [`Message::StatsReq`]: the live-load and
    /// placement facts the fleet controller plans from. Also callable
    /// directly by in-process harnesses.
    ///
    /// A retired node (left out by a merge's resumption resize) and a joiner
    /// that has not adopted a configuration yet (whose own is a placeholder
    /// naming only itself) report an **empty member set** — samplers skip
    /// both, so neither a phantom of the pre-merge cluster nor the joiner's
    /// placeholder ever reaches controller plans or the shard directory.
    #[must_use]
    pub fn stats(&self) -> recraft_net::NodeStats {
        let config = self.cfg.base();
        let ranges = config.ranges().clone();
        let members = if self.role == Role::Removed || !self.bootstrapped {
            BTreeSet::new()
        } else {
            config.members().clone()
        };
        recraft_net::NodeStats {
            cluster: self.cluster,
            epoch: self.cluster_epoch,
            split_key: self.sm.split_hint(&ranges),
            ranges,
            members,
            is_leader: self.role == Role::Leader,
            leader_hint: self.leader_hint,
            commit: self.commit_index.0,
            applied: self.applied_index.0,
            ops: self.ops_served,
            bytes: self.sm.resident_bytes() as u64,
        }
    }

    /// The exactly-once client session table (applied state).
    #[must_use]
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The replicated log and durable store (read-only).
    #[must_use]
    pub fn log(&self) -> &LS {
        &self.log
    }

    /// Crash-injection passthrough: power-cuts the storage backend (see
    /// [`LogStore::power_cut`]) and discards unsent outputs *without* the
    /// write-ahead flush — the process died before either happened. The node
    /// object is dead afterwards; the caller reboots from the data dir via
    /// [`Node::reopen`].
    pub fn power_cut(&mut self, keep_unsynced: usize) {
        self.log.power_cut(keep_unsynced);
        self.sm.power_cut(keep_unsynced);
        self.discard_outputs();
    }

    /// Drops unsent outputs *without* the write-ahead flush — what a crash
    /// does to them. ([`Node::take_outputs`] is the clean-path drain.)
    pub fn discard_outputs(&mut self) {
        self.outbox.clear();
        self.events.clear();
    }

    /// Completed reconfigurations this node witnessed (§V recovery history).
    #[must_use]
    pub fn history(&self) -> &[ReconfigRecord] {
        &self.history
    }

    /// Whether the node is blocked in the merge data-exchange phase.
    #[must_use]
    pub fn is_exchanging(&self) -> bool {
        self.exchange.is_some()
    }

    /// Whether a [`Node::take_outputs`] drain would return anything.
    ///
    /// An embedding that hosts many nodes on one thread uses this to skip
    /// the write-ahead barrier for nodes that externalized nothing this
    /// round: with no message leaving, nothing is promised, so deferring
    /// the flush (and its fsync) to the round that does produce output is
    /// safe.
    #[must_use]
    pub fn has_outputs(&self) -> bool {
        !self.outbox.is_empty() || !self.events.is_empty()
    }

    /// Drains accumulated outbound messages and trace events.
    ///
    /// This is the *write-ahead barrier*: all storage writes (log entries,
    /// hard state, identity) are made durable before any message leaves, so
    /// a vote or acknowledgement is never externalized ahead of the state it
    /// promises. A crash can then only lose writes nobody ever heard about.
    pub fn take_outputs(&mut self) -> (Vec<Envelope>, Vec<NodeEvent>) {
        self.flush_storage();
        (
            std::mem::take(&mut self.outbox),
            std::mem::take(&mut self.events),
        )
    }

    // ---- Lifecycle -------------------------------------------------------

    /// What outlives the node's process: its store and its state machine.
    /// A reboot hands both back to [`Node::reopen`]; everything else the
    /// node held dies here.
    pub fn into_parts(self) -> (LS, SM) {
        (self.log, self.sm)
    }

    /// A crash-restart in place: [`Node::reopen`] over this node's own store
    /// and machine, with a seed drawn from its generator. Timers arm on the
    /// next clock, so `now` is not needed.
    ///
    /// Kept for callers that hold the node behind `&mut` (the traced
    /// benchmark run); everything else reboots by value through
    /// [`Node::into_parts`] and [`Node::reopen`].
    ///
    /// # Panics
    /// Aborts the process if the node's own store does not reopen — the
    /// node cannot be left half moved out.
    pub fn restart(&mut self, now: u64) {
        let _ = now;
        replace_or_abort(self, |mut node| {
            let (id, timing, seed) = (node.id, node.timing, node.rng.next_u64());
            let (store, sm) = node.into_parts();
            Node::reopen(id, store, sm, timing, seed).expect("a node reopens its own store")
        });
    }

    // ---- Time ------------------------------------------------------------

    fn random_timeout(rng: &mut StdRng, timing: &Timing, now: u64) -> u64 {
        now + rng.gen_range(timing.election_timeout_min..=timing.election_timeout_max)
    }

    pub(crate) fn reset_election_timer(&mut self, now: u64) {
        self.election_deadline = Self::random_timeout(&mut self.rng, &self.timing, now);
        self.clock_seen = true;
    }

    /// Turns the constructor's election offset into a deadline on the
    /// first clock the node is handed.
    fn arm_timers(&mut self, now: u64) {
        if !self.clock_seen {
            self.election_deadline += now;
            self.clock_seen = true;
        }
    }

    /// Makes this node campaign on its next tick instead of waiting out a
    /// randomized timeout (0 is due on any clock, armed or not).
    ///
    /// When a campaign starts is never a safety matter — terms, votes and
    /// the log comparison decide who leads — only how long a configuration
    /// serves nobody. So where a configuration is born without a leader
    /// (a bootstrapped cluster, a split child the old leader is not in, a
    /// merged cluster), one designated member campaigns at once: one, so
    /// the others do not split the vote; members yet to learn of the new
    /// configuration vote as stragglers of it. Everyone else keeps the
    /// randomized timer, which is what elects when the designated node is
    /// down or cut off. A joiner or a rebooted member is never designated:
    /// it cannot know whether its cluster already has a leader, and without
    /// pre-vote its campaign would depose one.
    pub(crate) fn campaign_on_next_tick(&mut self) {
        self.election_deadline = 0;
    }

    /// Advances the node's timers to `now`.
    pub fn tick(&mut self, now: u64) {
        self.arm_timers(now);
        match self.role {
            Role::Removed => {}
            Role::Leader => {
                if now >= self.heartbeat_due {
                    self.heartbeat_due = now + self.timing.heartbeat_interval;
                    // A fresh serial times every peer again, so the read
                    // ranking is never older than one heartbeat interval.
                    self.read_serial += 1;
                    self.broadcast_append(now);
                }
                self.driver_tick(now);
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.campaign(now);
                }
                self.pull_tick(now);
            }
        }
        self.exchange_tick(now);
    }

    /// The earliest future instant at which [`tick`](Node::tick) would do
    /// anything: the leader's next heartbeat, a follower's election
    /// deadline, or a sub-protocol retry timer (merge 2PC driver, pull
    /// recovery, snapshot exchange). A readiness-driven host sleeps until
    /// this instant instead of polling on a fixed cadence; `u64::MAX`
    /// means no timer is armed (a retired node). Before the node has seen a
    /// clock its election offset is answered as is — never later than the
    /// deadline it arms to.
    #[must_use]
    pub fn next_deadline(&self) -> u64 {
        let mut due = u64::MAX;
        match self.role {
            Role::Removed => {}
            Role::Leader => {
                due = due.min(self.heartbeat_due);
                if let Some(d) = &self.driver {
                    due = due.min(d.next_retry);
                }
            }
            Role::Follower | Role::Candidate => {
                due = due.min(self.election_deadline);
                if let Some(p) = &self.pull {
                    due = due.min(p.next_retry);
                }
            }
        }
        if let Some(ex) = &self.exchange {
            due = due.min(ex.next_retry);
        }
        due
    }

    /// Feeds one inbound message to the node.
    pub fn step(&mut self, now: u64, from: NodeId, msg: Message) {
        self.arm_timers(now);
        // Retired nodes keep serving history (pull/fetch) and answer the
        // request planes — clients and admins with a rejection, samplers
        // with an empty member set — but take no part in the protocol.
        if self.role == Role::Removed
            && !matches!(
                msg,
                Message::PullReq { .. }
                    | Message::FetchSnapshotReq { .. }
                    | Message::ClientReq { .. }
                    | Message::AdminReq { .. }
                    | Message::StatsReq { .. }
            )
        {
            return;
        }
        match msg {
            Message::AppendEntries {
                cluster,
                eterm,
                prev_index,
                prev_eterm,
                entries,
                leader_commit,
                probe,
            } => self.handle_append(
                now,
                from,
                cluster,
                eterm,
                prev_index,
                prev_eterm,
                entries,
                leader_commit,
                probe,
            ),
            Message::AppendResp {
                cluster,
                eterm,
                success,
                match_index,
                conflict,
                probe,
            } => self.handle_append_resp(
                now,
                from,
                cluster,
                eterm,
                success,
                match_index,
                conflict,
                probe,
            ),
            Message::RequestVote {
                cluster,
                eterm,
                last_index,
                last_eterm,
            } => self.handle_request_vote(now, from, cluster, eterm, last_index, last_eterm),
            Message::VoteResp {
                cluster,
                eterm,
                granted,
                pull,
            } => self.handle_vote_resp(now, from, cluster, eterm, granted, pull),
            Message::NotifyCommit {
                cnew_index,
                cnew_eterm,
                ..
            } => self.handle_notify_commit(now, from, cnew_index, cnew_eterm),
            Message::PullReq { commit_index } => self.handle_pull_req(from, commit_index),
            Message::PullResp {
                epoch,
                entries,
                commit_index,
                snapshot,
                snapshot_config,
            } => self.handle_pull_resp(
                now,
                from,
                epoch,
                entries,
                commit_index,
                snapshot,
                snapshot_config,
            ),
            Message::InstallSnapshot {
                eterm,
                frame,
                config,
                ..
            } => self.handle_install_snapshot_frame(now, from, eterm, *frame, config),
            Message::InstallSnapshotResp { eterm, last_index } => {
                self.handle_install_snapshot_resp(now, from, eterm, last_index);
            }
            Message::MergePrepareReq { tx } => self.handle_merge_prepare_req(now, from, tx),
            Message::MergePrepareResp {
                tx_id,
                cluster,
                decision,
                epoch,
                ranges,
            } => self.handle_merge_prepare_resp(now, from, tx_id, cluster, decision, epoch, ranges),
            Message::MergeCommitReq { outcome } => {
                self.handle_merge_commit_req(now, from, outcome);
            }
            Message::MergeCommitResp { tx_id, cluster } => {
                self.handle_merge_commit_resp(now, tx_id, cluster);
            }
            Message::MergeRedirect { tx_id, leader } => {
                self.handle_merge_redirect(now, tx_id, leader);
            }
            Message::FetchSnapshotReq { tx_id } => self.handle_fetch_snapshot_req(from, tx_id),
            Message::FetchSnapshotResp { tx_id, part } => {
                self.handle_fetch_snapshot_resp(now, tx_id, part.map(|b| *b));
            }
            Message::ClientReq { req } => {
                self.handle_client_req(now, from, req);
            }
            Message::AdminReq { req_id, cmd } => self.handle_admin_req(now, from, req_id, cmd),
            // The sampling plane: any node answers for itself, leader or
            // not — the controller picks its witness per cluster.
            Message::StatsReq { req_id } => {
                let stats = Box::new(self.stats());
                self.send(from, Message::StatsResp { req_id, stats });
            }
            // Responses addressed to clients/admins are not consumed by
            // nodes.
            Message::ClientResp { .. } | Message::AdminResp { .. } | Message::StatsResp { .. } => {}
        }
    }

    // ---- Outbox helpers --------------------------------------------------

    pub(crate) fn send(&mut self, to: NodeId, msg: Message) {
        self.outbox.push(Envelope::new(self.id, to, msg));
    }

    /// Answers a client request.
    pub(crate) fn reply(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
    ) {
        if matches!(outcome, ClientOutcome::Reply { .. }) {
            self.ops_served += 1;
        }
        self.send(
            to,
            Message::ClientResp {
                resp: ClientResponse {
                    session,
                    seq,
                    outcome,
                },
            },
        );
    }

    pub(crate) fn emit(&mut self, event: NodeEvent) {
        self.events.push(event);
    }

    // ---- Shared state transitions ----------------------------------------

    /// Advances the hard epoch-term if `eterm` is newer, resetting the
    /// per-term bookkeeping.
    pub(crate) fn advance_eterm(&mut self, eterm: EpochTerm) {
        if eterm > self.hard.eterm {
            self.hard.advance(eterm);
            self.committed_in_term = false;
            self.touch_meta();
        }
    }

    /// Converts to follower at `eterm` (stepping down if leading).
    pub(crate) fn become_follower(&mut self, now: u64, eterm: EpochTerm, hint: Option<NodeId>) {
        self.advance_eterm(eterm);
        if self.role == Role::Leader {
            self.emit(NodeEvent::SteppedDown {
                cluster: self.cluster,
            });
            // Pending proposals will be resolved by the new leader; tell the
            // clients to retry there. Retried writes stay exactly-once
            // through the session table.
            let pending: Vec<(LogIndex, PendingClient)> = std::mem::take(&mut self.pending_clients)
                .into_iter()
                .collect();
            let cluster = self.cluster;
            for (_, p) in pending {
                self.reply(
                    p.client,
                    p.session,
                    p.seq,
                    ClientOutcome::Redirect {
                        leader_hint: hint,
                        cluster: Some(cluster),
                    },
                );
            }
            self.fail_pending_reads(hint);
            self.driver = None;
        }
        if self.role != Role::Removed {
            self.role = Role::Follower;
        }
        self.votes.clear();
        // A leader stepping down with no successor named must not keep
        // pointing clients at itself until the new leader's first append.
        if hint.is_some() || self.leader_hint == Some(self.id) {
            self.leader_hint = hint;
        }
        self.reset_election_timer(now);
    }

    /// Appends an entry to the log, keeping the config stack in sync.
    pub(crate) fn log_append(&mut self, entry: LogEntry) {
        if let Some(change) = entry.as_config() {
            self.cfg.push(entry.index, change.clone());
            self.emit(NodeEvent::ConfigAppended {
                kind: change.kind(),
                index: entry.index,
            });
        }
        self.log.append(entry);
    }

    /// Appends a contiguous run of entries, keeping the config stack in sync
    /// per entry while handing the storage layer the whole run at once — on
    /// a durable backend that is one group-commit record instead of one per
    /// entry.
    pub(crate) fn log_append_batch(&mut self, entries: Vec<LogEntry>) {
        if entries.is_empty() {
            return;
        }
        for entry in &entries {
            if let Some(change) = entry.as_config() {
                self.cfg.push(entry.index, change.clone());
                self.emit(NodeEvent::ConfigAppended {
                    kind: change.kind(),
                    index: entry.index,
                });
            }
        }
        self.log.append_batch(entries);
    }

    /// Truncates the log from `index`, rolling back config entries and
    /// failing any client proposals that lived there.
    pub(crate) fn log_truncate(&mut self, index: LogIndex) {
        assert!(
            index > self.commit_index,
            "attempted to truncate committed entries at {index} (commit {})",
            self.commit_index
        );
        self.log
            .truncate_from(index)
            .expect("truncation point above base");
        // The store only buffers the cut (see `LogStore::truncate_from`),
        // and this same step may go on to apply the entries that replace
        // the suffix. What apply makes durable on its own — a state-machine
        // flush, a compaction snapshot — must never sit on top of a suffix
        // a crash could still bring back, so the cut is made durable now
        // rather than at the barrier.
        self.log.sync();
        self.cfg.truncate_from(index);
        // Replication cursors must not point past the shortened log, or the
        // next send would look up a prev entry that no longer exists. The
        // in-flight accounting for any rolled-back cursor is void with it.
        for pr in self.progress.values_mut() {
            if pr.next > index {
                pr.next = index;
                pr.window.rewind();
            }
        }
        let dropped: Vec<(LogIndex, PendingClient)> =
            self.pending_clients.split_off(&index).into_iter().collect();
        for (_, p) in dropped {
            self.reply(
                p.client,
                p.session,
                p.seq,
                ClientOutcome::Rejected {
                    error: Error::ProposalDropped,
                },
            );
        }
    }

    /// Fails every pending ReadIndex read with a redirect (step-down, merge
    /// resumption, snapshot install): the client retries the idempotent read
    /// against the hinted or re-resolved leader.
    pub(crate) fn fail_pending_reads(&mut self, hint: Option<NodeId>) {
        let cluster = self.cluster;
        let reads = std::mem::take(&mut self.pending_reads);
        for r in reads {
            self.reply(
                r.client,
                r.session,
                r.seq,
                ClientOutcome::Redirect {
                    leader_hint: hint,
                    cluster: Some(cluster),
                },
            );
        }
    }

    /// Raises the commit index (monotonic) and applies what became
    /// committed.
    pub(crate) fn set_commit(&mut self, now: u64, index: LogIndex) {
        let mut index = index.min(self.log.last_index());
        // A pending merge outcome caps the commit: entries after it (e.g. a
        // fresh leader's no-op) are discarded by the exchange ("log entries
        // that come after the Cnew entry are discarded", §III-C2), so they
        // must never commit.
        if let Some(cap) = self.derived_cached().merge_outcome_index {
            index = index.min(cap);
        }
        if index <= self.commit_index {
            return;
        }
        self.commit_index = index;
        // A snapshot stream mid-assembly whose tail the commit just passed
        // can never usefully install (the handler would reject it as
        // "nothing newer"); free the buffered chunks now.
        if self
            .pending_install
            .as_ref()
            .is_some_and(|p| p.last_index <= self.commit_index && p.cluster == self.cluster)
        {
            self.pending_install = None;
        }
        if !self.committed_in_term {
            // Precondition P3 bookkeeping: did an entry of our own epoch-term
            // just commit?
            let mut i = self.applied_index.next();
            while i <= self.commit_index {
                if self.log.eterm_at(i) == Some(self.hard.eterm) {
                    self.committed_in_term = true;
                    break;
                }
                i = i.next();
            }
        }
        self.advance_apply(now);
    }

    /// Applies committed entries in order, processing configuration commits
    /// (folds, split completion, merge phases).
    ///
    /// Plain and session commands are gathered into runs handed to
    /// [`StateMachine::apply_batch`] in one call. Three things flush a
    /// pending run early, preserving exactly the one-at-a-time semantics:
    ///
    /// * a **configuration entry** — batches never straddle a
    ///   reconfiguration barrier, so split range retention, merge
    ///   resumption, and membership folds observe the same state boundaries
    ///   as the unbatched loop;
    /// * a **same-session command** — the dedup verdict for `(session,
    ///   seq)` may depend on a command still sitting in the batch, so the
    ///   batch applies (and records) first;
    /// * crossing the config stack's **fold point** during replay, whose
    ///   range re-pruning must see the batch applied.
    pub(crate) fn advance_apply(&mut self, now: u64) {
        let mut batch = ApplyBatch::default();
        while self.applied_index < self.commit_index {
            let index = self.applied_index.next();
            let entry = self
                .log
                .entry(index)
                .expect("committed entry missing from log")
                .clone();
            self.applied_index = index;
            match entry.payload {
                EntryPayload::Noop => {}
                EntryPayload::Command(ref cmd) => {
                    batch.push(index, cmd.clone(), BatchTag::Plain);
                }
                EntryPayload::SessionCommand {
                    session,
                    seq,
                    ref cmd,
                } => {
                    if batch.touches(session) {
                        self.flush_apply_batch(&mut batch);
                    }
                    match self.sessions.check(session, seq) {
                        SessionCheck::Fresh => {
                            batch.push(index, cmd.clone(), BatchTag::Session(session, seq));
                        }
                        // A duplicate entry: answer from the table without
                        // re-applying.
                        SessionCheck::Duplicate(recorded) => {
                            if let Some(p) = self.pending_clients.remove(&index) {
                                self.reply(
                                    p.client,
                                    p.session,
                                    p.seq,
                                    ClientOutcome::Reply { payload: recorded },
                                );
                            }
                        }
                        SessionCheck::Stale => {
                            if let Some(p) = self.pending_clients.remove(&index) {
                                self.reply(
                                    p.client,
                                    p.session,
                                    p.seq,
                                    ClientOutcome::Rejected {
                                        error: Error::SessionStale,
                                    },
                                );
                            }
                        }
                    }
                }
                EntryPayload::Config(ref change) => {
                    // Reconfiguration barrier: whatever is pending applies
                    // BEFORE the barrier's state transitions run.
                    self.flush_apply_batch(&mut batch);
                    if index > self.cfg.base_from() {
                        let reset = self.on_config_committed(now, index, &entry, &change.clone());
                        if reset {
                            // The log was renumbered (merge resumption) or
                            // the node retired; stop this apply pass.
                            return;
                        }
                    }
                }
            }
            if index == self.cfg.base_from() {
                // Crossing a fold point during replay after restart: re-prune
                // state outside the folded configuration's ranges — after the
                // commands up to the fold point have applied.
                self.flush_apply_batch(&mut batch);
                let ranges = self.cfg.base().ranges().clone();
                self.sm.retain_ranges(&ranges);
            }
        }
        self.flush_apply_batch(&mut batch);
        self.maybe_compact();
        // Reads whose read_index just became covered can now be served.
        self.flush_ready_reads(now);
    }

    /// Applies the gathered run through [`StateMachine::apply_batch`], then
    /// settles the per-entry bookkeeping: session records (the apply-time
    /// exactly-once check every replica runs), safety-witness events, and
    /// client replies.
    fn flush_apply_batch(&mut self, batch: &mut ApplyBatch) {
        if batch.entries.is_empty() {
            return;
        }
        let responses = self.sm.apply_batch(&batch.entries);
        debug_assert_eq!(responses.len(), batch.entries.len());
        let entries = std::mem::take(&mut batch.entries);
        let tags = std::mem::take(&mut batch.tags);
        batch.sessions.clear();
        for (((index, cmd), tag), resp) in entries.into_iter().zip(tags).zip(responses) {
            if let BatchTag::Session(session, seq) = tag {
                self.sessions.record(session, seq, resp.clone());
            }
            let digest = crate::events::fingerprint(&cmd);
            self.emit(NodeEvent::AppliedCommand {
                cluster: self.cluster,
                index,
                digest,
            });
            if let Some(p) = self.pending_clients.remove(&index) {
                self.reply(
                    p.client,
                    p.session,
                    p.seq,
                    ClientOutcome::Reply { payload: resp },
                );
            }
        }
    }

    /// Handles a configuration entry whose commit just became known. Returns
    /// `true` when the node's log was reset (further applying must stop).
    fn on_config_committed(
        &mut self,
        now: u64,
        index: LogIndex,
        entry: &LogEntry,
        change: &ConfigChange,
    ) -> bool {
        match change {
            ConfigChange::Simple { members } => {
                self.fold_membership(now, index, "simple", members, None);
                false
            }
            ConfigChange::Resize { members, quorum } => {
                self.fold_membership(now, index, "resize", members, Some(*quorum));
                // Auto-issue the ResizeQuorum step when the intermediate
                // quorum is above the majority (§IV-A).
                if self.role == Role::Leader && self.committed_in_term {
                    let n = members.len();
                    let maj = recraft_types::config::majority(n);
                    if *quorum != maj {
                        self.propose_config(
                            now,
                            ConfigChange::Resize {
                                members: members.clone(),
                                quorum: maj,
                            },
                        );
                    }
                }
                false
            }
            ConfigChange::JointEnter { new, .. } => {
                if self.role == Role::Leader && self.committed_in_term {
                    self.propose_config(now, ConfigChange::JointLeave { new: new.clone() });
                }
                false
            }
            ConfigChange::JointLeave { new } => {
                self.fold_membership(now, index, "joint", new, None);
                false
            }
            ConfigChange::SplitJoint(spec) => {
                self.emit(NodeEvent::SplitJointCommitted { index });
                if self.role == Role::Leader && self.committed_in_term {
                    self.propose_config(now, ConfigChange::SplitNew(spec.clone()));
                }
                false
            }
            ConfigChange::SplitNew(spec) => self.complete_split(now, index, entry, spec),
            ConfigChange::MergePrepare { tx, decision } => {
                self.on_merge_prepare_committed(now, tx, *decision);
                false
            }
            ConfigChange::MergeCommit(outcome) => {
                self.on_merge_outcome_committed(now, index, entry, &outcome.clone())
            }
            ConfigChange::SetRanges(ranges) => {
                let members = self.cfg.base().members().clone();
                let base = ClusterConfig::new(self.cluster, members, ranges.clone())
                    .expect("member set unchanged");
                self.cfg.fold(base, index);
                self.sm.retain_ranges(ranges);
                self.emit(NodeEvent::RangesChanged {
                    index,
                    ranges: ranges.clone(),
                });
                false
            }
        }
    }

    /// Folds a committed single-cluster membership change into the base
    /// configuration.
    fn fold_membership(
        &mut self,
        now: u64,
        index: LogIndex,
        kind: &'static str,
        members: &BTreeSet<NodeId>,
        quorum: Option<usize>,
    ) {
        let ranges = self.cfg.base().ranges().clone();
        let base = match quorum {
            Some(q) => ClusterConfig::with_quorum(self.cluster, members.clone(), ranges, q),
            None => ClusterConfig::new(self.cluster, members.clone(), ranges),
        }
        .expect("validated at proposal time");
        let members_before = self.cfg.base().members().clone();
        let quorum_size = base.quorum_size();
        self.cfg.fold(base, index);
        self.touch_meta(); // the history is part of the durable metadata
        self.history.push(ReconfigRecord {
            kind,
            old_cluster: self.cluster,
            new_cluster: self.cluster,
            members_before,
            members_after: members.clone(),
            at: self.hard.eterm,
            tx: None,
        });
        self.emit(NodeEvent::MembershipCommitted {
            kind,
            members: members.clone(),
            quorum: quorum_size,
            index,
        });
        if !members.contains(&self.id) && !self.readmitted_above_base() {
            // Removed from the cluster: retire once the removal commits.
            self.role = Role::Removed;
            self.emit(NodeEvent::Removed {
                cluster: self.cluster,
            });
            return;
        }
        if self.role == Role::Leader {
            // Best-effort: tell peers leaving the configuration about the
            // commit that removes them so they can retire instead of
            // campaigning forever.
            let leaving: Vec<NodeId> = self
                .progress
                .keys()
                .copied()
                .filter(|n| !members.contains(n))
                .collect();
            for peer in leaving {
                self.send_append(now, peer);
            }
            // broadcast_append resyncs the progress map to the new members.
            self.broadcast_append(now);
        }
    }

    /// Whether a membership entry above the folded base lists this node. A
    /// node replaying an older removal of its id — a joiner recycled from
    /// the spare pool catches up through its predecessor's
    /// `RemoveAndResize` — is a member again by an entry further up the log
    /// it already holds; only the last word retires it.
    fn readmitted_above_base(&self) -> bool {
        self.cfg.entries().iter().any(|(_, change)| match change {
            ConfigChange::Simple { members }
            | ConfigChange::Resize { members, .. }
            | ConfigChange::JointEnter { new: members, .. }
            | ConfigChange::JointLeave { new: members } => members.contains(&self.id),
            _ => false,
        })
    }

    /// Re-arms reconfiguration continuations after winning an election or
    /// satisfying P3: a committed `Cjoint` without `Cnew`, a committed
    /// `JointEnter` without `JointLeave`, an intermediate fixed quorum
    /// without its `ResizeQuorum`, or an unresolved merge transaction this
    /// cluster coordinates.
    pub(crate) fn resume_reconfig_drivers(&mut self, now: u64) {
        if self.role != Role::Leader || !self.committed_in_term {
            return;
        }
        let derived = self.derived_cached();
        // Split: joint committed, leave not yet proposed.
        if let Some(crate::stack::SplitPhase::Joint { spec, joint_index }) = &derived.split {
            if *joint_index <= self.commit_index {
                self.propose_config(now, ConfigChange::SplitNew(spec.clone()));
                return;
            }
        }
        // Vanilla JC: enter committed, leave missing.
        let mut propose: Option<ConfigChange> = None;
        for (index, change) in self.cfg.entries() {
            if *index > self.commit_index {
                continue;
            }
            if let ConfigChange::JointEnter { new, .. } = change {
                propose = Some(ConfigChange::JointLeave { new: new.clone() });
            }
            if let ConfigChange::JointLeave { .. } = change {
                propose = None;
            }
        }
        if let Some(change) = propose {
            self.propose_config(now, change);
            return;
        }
        // ReCraft resize: base left at a fixed quorum.
        if self.cfg.is_quiescent() {
            let base = self.cfg.base();
            if let recraft_types::QuorumRule::Fixed(_) = base.quorum_rule() {
                let members = base.members().clone();
                let maj = recraft_types::config::majority(members.len());
                self.propose_config(
                    now,
                    ConfigChange::Resize {
                        members,
                        quorum: maj,
                    },
                );
                return;
            }
        }
        // Merge: this cluster coordinates an unresolved transaction.
        self.rebuild_merge_driver(now);
    }

    /// Takes a snapshot and compacts the log when it grows beyond the
    /// threshold and no multi-cluster reconfiguration is in flight.
    pub(crate) fn maybe_compact(&mut self) {
        if self.log.len() <= self.timing.compaction_threshold {
            return;
        }
        if !self.cfg.is_quiescent() || self.exchange.is_some() {
            // Never compact away in-flight reconfiguration entries; pull
            // recovery and 2PC failover need them.
            return;
        }
        let to = self.applied_index;
        if to <= self.log.base_index() {
            return;
        }
        let eterm = self.log.eterm_at(to).expect("applied entry present");
        self.stamp_snapshot(to, eterm, self.cfg.base().clone());
        self.log.compact_to(to, eterm).expect("compaction bounds");
    }

    /// Re-stamps the retained snapshot from the live machine when it still
    /// describes a pre-split lineage.
    ///
    /// A split keeps the old log and the old snapshot: siblings and
    /// stragglers of the parent cluster still recover from them. But a node
    /// that joins the *child* cluster later must reject that snapshot as
    /// foreign (its config names the parent cluster at the same epoch), so
    /// catching such a joiner up would wedge forever. Called just before
    /// streaming a snapshot; rebuilds it at `applied_index` under the
    /// current cluster identity, without compacting the log — the old
    /// entries stay available for the parent lineage's recovery paths.
    pub(crate) fn refresh_stale_snapshot(&mut self) {
        if self.snapshot.cluster == self.cluster {
            return;
        }
        // Pending *membership* entries are fine: they all sit above
        // `applied_index`, so `cfg.base()` is exactly the configuration at
        // the snapshot point. An in-flight split or merge is not — the
        // cluster identity itself is in motion, and `maybe_compact` has the
        // same rule.
        let reshaping = self.cfg.entries().iter().any(|(_, c)| {
            matches!(
                c,
                recraft_types::ConfigChange::SplitJoint(_)
                    | recraft_types::ConfigChange::SplitNew(_)
                    | recraft_types::ConfigChange::MergePrepare { .. }
                    | recraft_types::ConfigChange::MergeCommit(_)
            )
        });
        if reshaping || self.exchange.is_some() {
            return;
        }
        let to = self.applied_index;
        let Some(eterm) = self.log.eterm_at(to) else {
            return; // applied point no longer in the log: nothing newer to stamp
        };
        self.stamp_snapshot(to, eterm, self.cfg.base().clone());
    }

    /// Appends a proposal to the leader's log and replicates it.
    pub(crate) fn propose_entry(&mut self, now: u64, payload: EntryPayload) -> LogIndex {
        self.propose_entry_replying(now, payload, None)
    }

    /// Appends a proposal with a client responder registered *before* the
    /// commit index can advance: on a single-node cluster the append
    /// commits and applies synchronously inside this call, and the
    /// apply-time reply looks the responder up by index.
    pub(crate) fn propose_entry_replying(
        &mut self,
        now: u64,
        payload: EntryPayload,
        pending: Option<PendingClient>,
    ) -> LogIndex {
        debug_assert_eq!(self.role, Role::Leader);
        let index = self.log.last_index().next();
        self.log_append(LogEntry {
            index,
            eterm: self.hard.eterm,
            payload,
        });
        if let Some(p) = pending {
            self.pending_clients.insert(index, p);
        }
        self.heartbeat_due = now + self.timing.heartbeat_interval;
        self.broadcast_append(now);
        // A single-node cluster commits immediately.
        self.leader_advance_commit(now);
        index
    }

    /// Appends a configuration change (leader only, preconditions already
    /// checked by the caller).
    pub(crate) fn propose_config(&mut self, now: u64, change: ConfigChange) -> LogIndex {
        self.propose_entry(now, EntryPayload::Config(change))
    }
}

/// A compact digest of a node's cluster identity and epoch — the lineage
/// token durable state machines tag their image with (FNV-1a over the two
/// words). Splits and merges change `(cluster, epoch)` without rewriting
/// the machine's image, so a reboot compares this token against the
/// persisted metadata to decide whether the recovered image's applied-index
/// watermark still speaks for this log's numbering.
fn lineage_token(cluster: ClusterId, epoch: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [cluster.0, u64::from(epoch)] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Replaces `*slot` with `f(*slot)`, moving the value out for the call.
/// A panic inside `f` aborts the process instead of unwinding past the
/// moved-out slot.
fn replace_or_abort<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    let armed = AbortOnUnwind;
    // SAFETY: the value is read out of `slot` once and a replacement is
    // written back before anything else can touch `slot`; if `f` unwinds,
    // `armed` aborts before the moved-out slot could be observed or dropped.
    unsafe {
        let value = std::ptr::read(slot);
        std::ptr::write(slot, f(value));
    }
    std::mem::forget(armed);
}

#[cfg(test)]
mod tests;
