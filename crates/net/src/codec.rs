//! The binary layout of the wire vocabulary.
//!
//! One `codec!` list per type: the tag of every [`Message`] and [`AdminCmd`]
//! variant and the order of its fields, which is the whole wire format above
//! the frame layer ([`crate::frame`] prefixes a length, [`crate::mux`] packs
//! frames into batches). Field types bring their own layouts — log entries
//! and snapshot frames from `recraft-storage`, configurations and the client
//! protocol from `recraft-types` — and their own validation: nothing here
//! inspects a value, so a decoded envelope is exactly as trustworthy as the
//! decoders of its parts. This is what crosses a TCP connection in the
//! real-deployment harness; the simulator passes `Envelope` values in memory.
//!
//! Adding a message is one variant in `message.rs` and one line group here,
//! under a tag no earlier build used; `tests/format_golden.rs` pins the
//! bytes of every existing one.

use crate::message::{AdminCmd, Envelope, Message, NodeStats, PullHint};
use recraft_storage::{LogEntry, SnapshotFrame};
use recraft_types::{
    codec, ClientRequest, ClientResponse, ClusterConfig, ClusterId, EpochTerm, Error, LogIndex,
    MergeDecision, MergeOutcome, MergeTx, NodeId, RangeSet, SplitSpec, TxId,
};
use std::collections::BTreeSet;

codec!(
    struct Envelope {
        from: NodeId,
        to: NodeId,
        msg: Message,
    }
);

codec!(
    struct PullHint {
        commit_index: LogIndex,
        epoch: u32,
    }
);

codec!(enum AdminCmd {
    0 => Split(SplitSpec),
    1 => Merge(MergeTx),
    2 => AddAndResize(BTreeSet<NodeId>),
    3 => RemoveAndResize(BTreeSet<NodeId>),
    4 => ResizeQuorum,
    5 => SimpleChange(BTreeSet<NodeId>),
    6 => JointChange(BTreeSet<NodeId>),
    7 => Campaign,
    8 => ProposeNoop,
    9 => SetRanges(RangeSet),
});

codec!(
    struct NodeStats {
        cluster: ClusterId,
        epoch: u32,
        ranges: RangeSet,
        members: BTreeSet<NodeId>,
        is_leader: bool,
        leader_hint: Option<NodeId>,
        commit: u64,
        applied: u64,
        ops: u64,
        bytes: u64,
        split_key: Option<Vec<u8>>,
    }
);

codec!(enum Message {
    0 => AppendEntries {
        cluster: ClusterId,
        eterm: EpochTerm,
        prev_index: LogIndex,
        prev_eterm: EpochTerm,
        entries: Vec<LogEntry>,
        leader_commit: LogIndex,
        probe: u64,
    },
    1 => AppendResp {
        cluster: ClusterId,
        eterm: EpochTerm,
        success: bool,
        match_index: LogIndex,
        conflict: Option<LogIndex>,
        probe: u64,
    },
    2 => RequestVote {
        cluster: ClusterId,
        eterm: EpochTerm,
        last_index: LogIndex,
        last_eterm: EpochTerm,
    },
    3 => VoteResp {
        cluster: ClusterId,
        eterm: EpochTerm,
        granted: bool,
        pull: Option<PullHint>,
    },
    4 => NotifyCommit {
        cluster: ClusterId,
        cnew_index: LogIndex,
        cnew_eterm: EpochTerm,
    },
    5 => PullReq {
        commit_index: LogIndex,
    },
    6 => PullResp {
        epoch: u32,
        entries: Vec<LogEntry>,
        commit_index: LogIndex,
        frame: Option<Box<SnapshotFrame>>,
        snapshot_config: Option<ClusterConfig>,
    },
    7 => InstallSnapshot {
        cluster: ClusterId,
        eterm: EpochTerm,
        frame: Box<SnapshotFrame>,
        config: ClusterConfig,
    },
    8 => InstallSnapshotResp {
        eterm: EpochTerm,
        last_index: LogIndex,
    },
    9 => MergePrepareReq {
        tx: MergeTx,
    },
    10 => MergePrepareResp {
        tx_id: TxId,
        cluster: ClusterId,
        decision: MergeDecision,
        epoch: u32,
        ranges: RangeSet,
    },
    11 => MergeCommitReq {
        outcome: MergeOutcome,
    },
    12 => MergeCommitResp {
        tx_id: TxId,
        cluster: ClusterId,
    },
    13 => MergeRedirect {
        tx_id: TxId,
        leader: Option<NodeId>,
    },
    14 => FetchSnapshotReq {
        tx_id: TxId,
    },
    15 => FetchSnapshotResp {
        tx_id: TxId,
        frame: Box<SnapshotFrame>,
    },
    16 => ClientReq {
        req: ClientRequest,
    },
    17 => ClientResp {
        resp: ClientResponse,
    },
    18 => AdminReq {
        req_id: u64,
        cmd: AdminCmd,
    },
    19 => AdminResp {
        req_id: u64,
        result: Result<(), Error>,
    },
    20 => StatsReq {
        req_id: u64,
    },
    21 => StatsResp {
        req_id: u64,
        stats: Box<NodeStats>,
    },
});

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use recraft_types::codec::testing;

    fn roundtrip(msg: Message) {
        testing::roundtrip(Envelope::new(NodeId(1), NodeId(2), msg));
    }

    #[test]
    fn raft_core_roundtrip() {
        roundtrip(Message::AppendEntries {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, 3),
            prev_index: LogIndex(7),
            prev_eterm: EpochTerm::new(1, 2),
            entries: vec![LogEntry::command(
                LogIndex(8),
                EpochTerm::new(1, 3),
                Bytes::from_static(b"cmd"),
            )],
            leader_commit: LogIndex(7),
            probe: 5,
        });
        roundtrip(Message::AppendResp {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, 3),
            success: false,
            match_index: LogIndex(0),
            conflict: Some(LogIndex(4)),
            probe: 5,
        });
        roundtrip(Message::RequestVote {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(2, 4),
            last_index: LogIndex(9),
            last_eterm: EpochTerm::new(1, 3),
        });
        roundtrip(Message::VoteResp {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(2, 4),
            granted: false,
            pull: Some(PullHint {
                commit_index: LogIndex(11),
                epoch: 3,
            }),
        });
    }

    #[test]
    fn admin_plane_roundtrip() {
        roundtrip(Message::AdminReq {
            req_id: 9,
            cmd: AdminCmd::Campaign,
        });
        roundtrip(Message::AdminResp {
            req_id: 9,
            result: Ok(()),
        });
        roundtrip(Message::AdminResp {
            req_id: 10,
            result: Err(Error::NotLeader(Some(NodeId(3)))),
        });
    }

    #[test]
    fn stats_plane_roundtrip() {
        roundtrip(Message::StatsReq { req_id: 4 });
        roundtrip(Message::StatsResp {
            req_id: 4,
            stats: Box::new(NodeStats {
                cluster: ClusterId(7),
                epoch: 3,
                ranges: RangeSet::full(),
                members: [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect(),
                is_leader: true,
                leader_hint: Some(NodeId(1)),
                commit: 42,
                applied: 41,
                ops: 1000,
                bytes: 65536,
                split_key: Some(b"k00005000".to_vec()),
            }),
        });
        roundtrip(Message::StatsResp {
            req_id: 5,
            stats: Box::new(NodeStats {
                cluster: ClusterId(1),
                epoch: 0,
                ranges: RangeSet::full(),
                members: BTreeSet::new(),
                is_leader: false,
                leader_hint: None,
                commit: 0,
                applied: 0,
                ops: 0,
                bytes: 0,
                split_key: None,
            }),
        });
    }
}
