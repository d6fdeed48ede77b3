//! The message vocabulary.

use recraft_storage::{LogEntry, SnapshotFrame};
use recraft_types::{
    ClientRequest, ClientResponse, ClusterConfig, ClusterId, EpochTerm, Error, LogIndex,
    MergeDecision, MergeOutcome, MergeTx, NodeId, RangeSet, SplitSpec, TxId,
};
use std::collections::BTreeSet;

/// A message in flight from one node (or client/admin endpoint) to another.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub msg: Message,
}

impl Envelope {
    /// Creates an envelope.
    #[must_use]
    pub fn new(from: NodeId, to: NodeId, msg: Message) -> Self {
        Envelope { from, to, msg }
    }

    /// Approximate wire size in bytes, used by the simulator to model
    /// transfer time for bulk payloads (snapshots dominate).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
}

/// The hint a higher-epoch node returns instead of a vote, telling the
/// requester to pull committed log entries (Fig. 2, `respondPull`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullHint {
    /// The responder's commit index: everything up to here can be pulled.
    pub commit_index: LogIndex,
    /// The responder's epoch, proving it has moved on.
    pub epoch: u32,
}

/// Administrative reconfiguration commands, addressed to a cluster leader.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminCmd {
    /// ReCraft split: enter the joint mode for this plan; the leader leaves
    /// automatically once `Cjoint` commits (§III-B).
    Split(SplitSpec),
    /// ReCraft merge: this cluster becomes the 2PC coordinator (§III-C).
    Merge(MergeTx),
    /// ReCraft membership change: add the given nodes in one step at quorum
    /// `Q_new-q`, then auto-`ResizeQuorum` if needed (§IV-A).
    AddAndResize(BTreeSet<NodeId>),
    /// ReCraft membership change: remove the given nodes (must be fewer than
    /// `Q_old`), then auto-`ResizeQuorum` if needed.
    RemoveAndResize(BTreeSet<NodeId>),
    /// Explicitly reset the quorum to the majority (normally automatic).
    ResizeQuorum,
    /// Baseline: vanilla Raft Add/RemoveServer RPC (one-node delta).
    SimpleChange(BTreeSet<NodeId>),
    /// Baseline: vanilla Raft joint consensus toward this member set (two
    /// automatic steps).
    JointChange(BTreeSet<NodeId>),
    /// Ask the node to start an election now (test/ops aid).
    Campaign,
    /// Ask the leader to commit a no-op (fulfils precondition P3).
    ProposeNoop,
    /// Replace the served key ranges (the TC baseline's "subrange command";
    /// not used by ReCraft's own reconfigurations).
    SetRanges(recraft_types::RangeSet),
}

/// A node's answer to a [`Message::StatsReq`]: the live-load and placement
/// facts a fleet controller needs to plan splits, merges, and staffing. Any
/// node answers for itself — the sampling plane does not require a leader —
/// and the controller picks the most-applied member per cluster as that
/// cluster's witness, exactly as the sim harness samples node state
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// The responder's cluster.
    pub cluster: ClusterId,
    /// The cluster's reconfiguration epoch (bumped by every split and
    /// merge). Reported for observability only: nothing routes or retries
    /// on it.
    pub epoch: u32,
    /// Key ranges the responder's configuration serves.
    pub ranges: RangeSet,
    /// Member set of the responder's configuration.
    pub members: BTreeSet<NodeId>,
    /// Whether the responder currently leads its cluster.
    pub is_leader: bool,
    /// Who the responder believes leads, if anyone.
    pub leader_hint: Option<NodeId>,
    /// The responder's commit index.
    pub commit: u64,
    /// The responder's applied index.
    pub applied: u64,
    /// Client operations this node has answered with a reply since boot
    /// (cumulative; the controller differences successive samples).
    pub ops: u64,
    /// Resident state-machine bytes.
    pub bytes: u64,
    /// The median resident key — the state machine's suggested split point.
    pub split_key: Option<Vec<u8>>,
}

impl AdminCmd {
    /// A short tag for traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AdminCmd::Split(_) => "split",
            AdminCmd::Merge(_) => "merge",
            AdminCmd::AddAndResize(_) => "add-and-resize",
            AdminCmd::RemoveAndResize(_) => "remove-and-resize",
            AdminCmd::ResizeQuorum => "resize-quorum",
            AdminCmd::SimpleChange(_) => "simple-change",
            AdminCmd::JointChange(_) => "joint-change",
            AdminCmd::Campaign => "campaign",
            AdminCmd::ProposeNoop => "noop",
            AdminCmd::SetRanges(_) => "set-ranges",
        }
    }
}

/// Every protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ---- Raft core ----
    /// Leader → follower log replication / heartbeat.
    AppendEntries {
        /// Sender's cluster.
        cluster: ClusterId,
        /// Leader's epoch-term.
        eterm: EpochTerm,
        /// Index of the entry preceding `entries`.
        prev_index: LogIndex,
        /// Epoch-term of that entry.
        prev_eterm: EpochTerm,
        /// Entries to append (empty for heartbeats).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: LogIndex,
        /// ReadIndex probe serial: the follower echoes it so the leader can
        /// attribute the acknowledgement to read batches accepted before the
        /// probe went out (Raft §6.4's leadership confirmation).
        probe: u64,
    },
    /// Follower → leader replication result.
    AppendResp {
        /// Responder's cluster.
        cluster: ClusterId,
        /// Responder's epoch-term.
        eterm: EpochTerm,
        /// Whether the entries were appended.
        success: bool,
        /// Highest index known replicated on the responder (on success).
        match_index: LogIndex,
        /// On failure, a hint for the leader to back up `next_index` to.
        conflict: Option<LogIndex>,
        /// Echo of the request's ReadIndex probe serial.
        probe: u64,
    },
    /// Candidate → all members vote solicitation.
    RequestVote {
        /// Candidate's cluster.
        cluster: ClusterId,
        /// Candidate's epoch-term.
        eterm: EpochTerm,
        /// Index of the candidate's last log entry.
        last_index: LogIndex,
        /// Epoch-term of the candidate's last log entry.
        last_eterm: EpochTerm,
    },
    /// Vote response; `pull` is set instead of a grant when the responder's
    /// epoch is newer (split recovery, Fig. 2 line 55).
    VoteResp {
        /// Responder's cluster.
        cluster: ClusterId,
        /// Responder's epoch-term.
        eterm: EpochTerm,
        /// Whether the vote was granted.
        granted: bool,
        /// Pull hint for a lower-epoch requester.
        pull: Option<PullHint>,
    },

    // ---- Split (§III-B) ----
    /// Completing leader → all `C_old` members: `Cnew` at `cnew_index` is
    /// committed ("notifyCommit", Fig. 2 line 30).
    NotifyCommit {
        /// Sender's (pre-completion) cluster.
        cluster: ClusterId,
        /// The committed `Cnew` entry's position.
        cnew_index: LogIndex,
        /// The committed `Cnew` entry's epoch-term.
        cnew_eterm: EpochTerm,
    },
    /// Missed-out node → higher-epoch peer: send me committed entries after
    /// my commit index (Fig. 2 line 43, `pullLog`).
    PullReq {
        /// The puller's commit index (entries at or below are immutable).
        commit_index: LogIndex,
    },
    /// Committed entries, or — when the responder compacted past the
    /// puller's position — its snapshot as a stream of these: one response
    /// per frame, the capped entries riding the last. The puller assembles
    /// the frames like an install stream's and installs the image only if
    /// it is newer than its commit index and its configuration lists it.
    PullResp {
        /// Responder's epoch.
        epoch: u32,
        /// Committed entries after the puller's commit index.
        entries: Vec<LogEntry>,
        /// Responder's commit index.
        commit_index: LogIndex,
        /// One frame of the responder's snapshot, when its log no longer
        /// retains the needed prefix.
        frame: Option<Box<SnapshotFrame>>,
        /// The configuration in effect at the snapshot, with every frame.
        snapshot_config: Option<ClusterConfig>,
    },

    // ---- Snapshot installation (leader → laggard) ----
    /// Raft InstallSnapshot extended with the configuration at the snapshot
    /// point (also used to restore nodes coming from other subclusters after
    /// a merge, §III-C2). The snapshot streams as a sequence of these
    /// bounded-size frames sharing one stream identity; the receiver
    /// assembles them and installs atomically once every frame arrived, so
    /// no single message (or allocation) ever holds the whole keyspace. The
    /// session table rides only the stream's first frame.
    InstallSnapshot {
        /// Leader's cluster.
        cluster: ClusterId,
        /// Leader's epoch-term.
        eterm: EpochTerm,
        /// One frame of the chunked snapshot stream.
        frame: Box<SnapshotFrame>,
        /// Configuration in effect at the snapshot point.
        config: ClusterConfig,
    },
    /// Acknowledgement of snapshot installation.
    InstallSnapshotResp {
        /// Responder's epoch-term.
        eterm: EpochTerm,
        /// The responder's new last index.
        last_index: LogIndex,
    },

    // ---- Merge 2PC (cluster ↔ cluster, §III-C1) ----
    /// Coordinator leader → participant cluster: 2PC prepare.
    MergePrepareReq {
        /// The transaction intent `C_TX`.
        tx: MergeTx,
    },
    /// Participant leader → coordinator: recorded (committed) local decision.
    /// Sent when the decision commits or a prepare request finds it, and
    /// re-sent every retry interval while no outcome has arrived.
    MergePrepareResp {
        /// The transaction.
        tx_id: TxId,
        /// Responding cluster.
        cluster: ClusterId,
        /// The committed local decision.
        decision: MergeDecision,
        /// Responder's current epoch (for `E_new = max + 1`).
        epoch: u32,
        /// Responder's key ranges (for the combined range).
        ranges: RangeSet,
    },
    /// Coordinator leader → participant cluster: 2PC commit/abort. A
    /// coordinator node without a driver sends it too, answering a re-sent
    /// decision with the outcome its cluster committed.
    MergeCommitReq {
        /// The finalized outcome (`Cnew` or `Cabort`).
        outcome: MergeOutcome,
    },
    /// Participant leader → coordinator: outcome recorded (committed).
    MergeCommitResp {
        /// The transaction.
        tx_id: TxId,
        /// Responding cluster.
        cluster: ClusterId,
    },
    /// Not-the-leader bounce for cluster-level merge RPCs, with a hint.
    MergeRedirect {
        /// The transaction the request belonged to.
        tx_id: TxId,
        /// Believed leader of the contacted cluster, if known.
        leader: Option<NodeId>,
    },

    // ---- Merge data exchange (§III-C2) ----
    /// Node of one subcluster → node of a peer subcluster: send me your
    /// subcluster's pre-merge snapshot for transaction `tx_id`.
    FetchSnapshotReq {
        /// The merge transaction.
        tx_id: TxId,
    },
    /// One frame of the peer subcluster's snapshot part; the whole part
    /// answers a fetch as one stream of these. A responder whose part does
    /// not exist yet sends nothing: it parks the requester while it has
    /// prepared the transaction and streams the part once it is made.
    FetchSnapshotResp {
        /// The merge transaction.
        tx_id: TxId,
        /// One frame of the responder's subcluster snapshot.
        frame: Box<SnapshotFrame>,
    },

    // ---- Clients ----
    /// Client → node: a typed session request — an exactly-once write
    /// ([`recraft_types::ClientOp::Command`]) or a ReadIndex-served read
    /// ([`recraft_types::ClientOp::Get`]).
    ClientReq {
        /// The request: session, sequence number, and operation.
        req: ClientRequest,
    },
    /// Node → client: the typed outcome — a reply, a structured
    /// [`recraft_types::ClientOutcome::Redirect`] with leader and cluster
    /// hints, or a rejection with an [`Error`].
    ClientResp {
        /// The response, echoing the request's `(session, seq)`.
        resp: ClientResponse,
    },

    // ---- Administration ----
    /// Admin → leader: a reconfiguration command.
    AdminReq {
        /// Request id for matching responses.
        req_id: u64,
        /// The command.
        cmd: AdminCmd,
    },
    /// Node → admin: whether the reconfiguration was accepted (acceptance,
    /// not completion — completion is observable through trace events).
    AdminResp {
        /// Echoed request id.
        req_id: u64,
        /// Acceptance or the precondition/routing error.
        result: Result<(), Error>,
    },
    /// Admin → node: report your load and placement facts (the sampling
    /// plane). Answered by any node, leader or not.
    StatsReq {
        /// Request id for matching responses.
        req_id: u64,
    },
    /// Node → admin: the requested sample.
    StatsResp {
        /// Echoed request id.
        req_id: u64,
        /// The sample.
        stats: Box<NodeStats>,
    },
}

impl Message {
    /// A short tag for traces and metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Message::AppendEntries { .. } => "append",
            Message::AppendResp { .. } => "append-resp",
            Message::RequestVote { .. } => "vote-req",
            Message::VoteResp { .. } => "vote-resp",
            Message::NotifyCommit { .. } => "notify-commit",
            Message::PullReq { .. } => "pull-req",
            Message::PullResp { .. } => "pull-resp",
            Message::InstallSnapshot { .. } => "install-snapshot",
            Message::InstallSnapshotResp { .. } => "install-snapshot-resp",
            Message::MergePrepareReq { .. } => "merge-prepare-req",
            Message::MergePrepareResp { .. } => "merge-prepare-resp",
            Message::MergeCommitReq { .. } => "merge-commit-req",
            Message::MergeCommitResp { .. } => "merge-commit-resp",
            Message::MergeRedirect { .. } => "merge-redirect",
            Message::FetchSnapshotReq { .. } => "fetch-snapshot-req",
            Message::FetchSnapshotResp { .. } => "fetch-snapshot-resp",
            Message::ClientReq { .. } => "client-req",
            Message::ClientResp { .. } => "client-resp",
            Message::AdminReq { .. } => "admin-req",
            Message::AdminResp { .. } => "admin-resp",
            Message::StatsReq { .. } => "stats-req",
            Message::StatsResp { .. } => "stats-resp",
        }
    }

    /// Approximate wire size in bytes. Control messages count a small fixed
    /// overhead; bulk payloads (entries, snapshots, commands) count their
    /// data so the simulator can model transfer time.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        const HDR: usize = 48;
        match self {
            Message::AppendEntries { entries, .. } => {
                HDR + entries
                    .iter()
                    .map(|e| {
                        16 + match &e.payload {
                            recraft_storage::EntryPayload::Command(c) => c.len(),
                            recraft_storage::EntryPayload::SessionCommand { cmd, .. } => {
                                16 + cmd.len()
                            }
                            recraft_storage::EntryPayload::Noop => 0,
                            recraft_storage::EntryPayload::Config(_) => 128,
                        }
                    })
                    .sum::<usize>()
            }
            Message::PullResp { entries, frame, .. } => {
                HDR + entries.len() * 64 + frame.as_ref().map_or(0, |f| f.size_bytes())
            }
            Message::InstallSnapshot { frame, .. } | Message::FetchSnapshotResp { frame, .. } => {
                HDR + frame.size_bytes()
            }
            Message::ClientReq { req } => HDR + req.op.size_bytes(),
            Message::ClientResp { resp } => HDR + resp.outcome.size_bytes(),
            Message::StatsResp { stats, .. } => {
                HDR + stats.members.len() * 8 + stats.split_key.as_ref().map_or(0, Vec::len)
            }
            _ => HDR,
        }
    }

    /// Whether this is a client- or admin-plane message (as opposed to
    /// node-to-node protocol traffic).
    #[must_use]
    pub fn is_external(&self) -> bool {
        matches!(
            self,
            Message::ClientReq { .. }
                | Message::ClientResp { .. }
                | Message::AdminReq { .. }
                | Message::AdminResp { .. }
                | Message::StatsReq { .. }
                | Message::StatsResp { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bytes::Bytes;
    use recraft_types::{ClientOp, ClientOutcome, SessionId};

    #[test]
    fn wire_size_counts_bulk_payloads() {
        let small = Message::RequestVote {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(0, 1),
            last_index: LogIndex(1),
            last_eterm: EpochTerm::new(0, 1),
        };
        let big = Message::ClientReq {
            req: ClientRequest {
                session: SessionId(1),
                seq: 1,
                op: ClientOp::Command {
                    key: b"k".to_vec(),
                    cmd: Bytes::from(vec![0u8; 4096]),
                },
            },
        };
        assert!(big.wire_size() > small.wire_size() + 4000);
    }

    #[test]
    fn kinds_are_distinct_for_planes() {
        let m = Message::ClientResp {
            resp: ClientResponse {
                session: SessionId(1),
                seq: 1,
                outcome: ClientOutcome::Reply {
                    payload: Bytes::new(),
                },
            },
        };
        assert!(m.is_external());
        assert_eq!(m.kind(), "client-resp");
        let n = Message::PullReq {
            commit_index: LogIndex(4),
        };
        assert!(!n.is_external());
    }

    #[test]
    fn envelope_wire_size_delegates() {
        let env = Envelope::new(
            NodeId(1),
            NodeId(2),
            Message::PullReq {
                commit_index: LogIndex(0),
            },
        );
        assert_eq!(env.wire_size(), env.msg.wire_size());
    }

    #[test]
    fn admin_kinds() {
        assert_eq!(AdminCmd::ResizeQuorum.kind(), "resize-quorum");
        assert_eq!(AdminCmd::Campaign.kind(), "campaign");
    }
}
