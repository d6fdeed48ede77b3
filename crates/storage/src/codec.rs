//! The binary layout of the persisted storage types.
//!
//! Everything the [`WalLog`](crate::WalLog) writes — log entries, node
//! metadata, snapshots — is declared here, one `codec!` list per type, in
//! the workspace format of `recraft_types::codec` (the segment record that
//! wraps them is declared beside its writer, in `wal.rs`); the same lists are
//! what `AppendEntries` and `InstallSnapshot` put on the wire. `ReconfigRecord`
//! alone is written out by hand: its `kind` is a `&'static str` in memory,
//! so its decoder has to intern what it read.

use crate::entry::{EntryPayload, LogEntry};
use crate::snapshot::{Snapshot, SnapshotFrame};
use crate::state::HardState;
use crate::store::{NodeMeta, ReconfigRecord};
use bytes::{Bytes, BytesMut};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{
    codec, ClusterId, ConfigChange, EpochTerm, LogIndex, NodeId, RangeSet, Result, SessionId,
    SessionTable, TxId,
};
use std::collections::BTreeSet;

codec!(enum EntryPayload {
    0 => Noop,
    1 => Command(Bytes),
    2 => SessionCommand {
        session: SessionId,
        seq: u64,
        cmd: Bytes,
    },
    3 => Config(ConfigChange),
});

codec!(
    struct LogEntry {
        index: LogIndex,
        eterm: EpochTerm,
        payload: EntryPayload,
    }
);

codec!(
    struct HardState {
        eterm: EpochTerm,
        voted_for: Option<NodeId>,
    }
);

/// The §V reconfiguration-history record kinds a decode can produce. The
/// `kind` field is a `&'static str` in memory; on disk it travels as a
/// string and is interned back through this table (unknown kinds from a
/// newer writer degrade to `"unknown"` instead of failing the whole meta).
const RECONFIG_KINDS: &[&str] = &[
    "simple",
    "resize",
    "joint",
    "split",
    "split-removed",
    "merge",
    "merge-abort",
];

impl Encode for ReconfigRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.kind.to_string().encode(buf);
        self.old_cluster.encode(buf);
        self.new_cluster.encode(buf);
        self.members_before.encode(buf);
        self.members_after.encode(buf);
        self.at.encode(buf);
        self.tx.encode(buf);
    }
}

impl Decode for ReconfigRecord {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let kind = String::decode(buf)?;
        let kind = RECONFIG_KINDS
            .iter()
            .find(|k| **k == kind)
            .copied()
            .unwrap_or("unknown");
        Ok(ReconfigRecord {
            kind,
            old_cluster: ClusterId::decode(buf)?,
            new_cluster: ClusterId::decode(buf)?,
            members_before: BTreeSet::<NodeId>::decode(buf)?,
            members_after: BTreeSet::<NodeId>::decode(buf)?,
            at: EpochTerm::decode(buf)?,
            tx: Option::<TxId>::decode(buf)?,
        })
    }
}

codec!(
    struct NodeMeta {
        hard: HardState,
        cluster: ClusterId,
        cluster_epoch: u32,
        bootstrapped: bool,
        join_target: Option<ClusterId>,
        history: Vec<ReconfigRecord>,
    }
);

codec!(
    struct Snapshot {
        last_index: LogIndex,
        last_eterm: EpochTerm,
        cluster: ClusterId,
        ranges: RangeSet,
        chunks: Vec<Bytes>,
        sessions: SessionTable,
    }
);

codec!(
    struct SnapshotFrame {
        last_index: LogIndex,
        last_eterm: EpochTerm,
        cluster: ClusterId,
        ranges: RangeSet,
        seq: u32,
        total: u32,
        chunk: Bytes,
        sessions: Option<SessionTable>,
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::codec::testing::roundtrip;
    use recraft_types::ClusterConfig;
    use std::collections::BTreeSet;

    #[test]
    fn entry_payloads_roundtrip() {
        roundtrip(LogEntry::noop(LogIndex(1), EpochTerm::new(0, 1)));
        roundtrip(LogEntry::command(
            LogIndex(2),
            EpochTerm::new(1, 4),
            Bytes::from_static(b"k=v"),
        ));
        roundtrip(LogEntry::session_command(
            LogIndex(3),
            EpochTerm::new(1, 4),
            SessionId(7),
            42,
            Bytes::from_static(b"k=v"),
        ));
        roundtrip(LogEntry::config(
            LogIndex(4),
            EpochTerm::new(1, 4),
            ConfigChange::Simple {
                members: BTreeSet::from([NodeId(1), NodeId(2)]),
            },
        ));
    }

    #[test]
    fn hard_state_and_meta_roundtrip() {
        roundtrip(HardState {
            eterm: EpochTerm::new(3, 9),
            voted_for: Some(NodeId(2)),
        });
        roundtrip(NodeMeta {
            hard: HardState::default(),
            cluster: ClusterId(5),
            cluster_epoch: 2,
            bootstrapped: false,
            join_target: Some(ClusterId(6)),
            history: vec![ReconfigRecord {
                kind: "split",
                old_cluster: ClusterId(5),
                new_cluster: ClusterId(7),
                members_before: BTreeSet::from([NodeId(1), NodeId(2)]),
                members_after: BTreeSet::from([NodeId(1)]),
                at: EpochTerm::new(1, 2),
                tx: Some(TxId(3)),
            }],
        });
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut sessions = SessionTable::new();
        sessions.record(SessionId(1), 3, Bytes::from_static(b"ok"));
        let config =
            ClusterConfig::new(ClusterId(9), [NodeId(1), NodeId(2)], RangeSet::full()).unwrap();
        roundtrip(Snapshot {
            last_index: LogIndex(17),
            last_eterm: EpochTerm::new(2, 5),
            cluster: config.id(),
            ranges: RangeSet::full(),
            chunks: vec![Bytes::from_static(b"payload"), Bytes::from_static(b"more")],
            sessions,
        });
    }

    #[test]
    fn snapshot_frames_roundtrip() {
        let mut sessions = SessionTable::new();
        sessions.record(SessionId(4), 11, Bytes::from_static(b"done"));
        let snap = Snapshot {
            last_index: LogIndex(23),
            last_eterm: EpochTerm::new(3, 8),
            cluster: ClusterId(2),
            ranges: RangeSet::full(),
            chunks: vec![Bytes::from_static(b"aa"), Bytes::from_static(b"bb")],
            sessions,
        };
        for frame in snap.frames() {
            roundtrip(frame);
        }
    }
}
