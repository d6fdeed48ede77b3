//! What every top-level format owes bytes it did not write, stated once
//! (`recraft_types::codec::testing`) and run over all nine: the envelope a
//! socket delivers, the four things a WAL directory holds, the two halves
//! of the client protocol, and the state machine's command and reply —
//! and, spelled out by hand, over the image a snapshot chunk carries.
//!
//! * every strict prefix of a valid encoding is an error,
//! * inverting any one byte — tag, length or payload — is an error or a
//!   different value,
//! * arbitrary bytes never panic a decoder.

use bytes::Bytes;
use proptest::prelude::*;
use recraft_core::StateMachine;
use recraft_kv::{KvCmd, KvResp, KvStore};
use recraft_net::{Envelope, Message};
use recraft_storage::{HardState, LogEntry, NodeMeta, ReconfigRecord, Snapshot, SnapshotFrame};
use recraft_types::codec::testing::{assert_robust, decode_garbage};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterConfig, ClusterId, ConfigChange,
    EpochTerm, Error, KeyRange, LogIndex, NodeId, RangeSet, SessionId, SessionTable, TxId,
};
use std::collections::BTreeSet;

fn nodes(ids: &[u64]) -> BTreeSet<NodeId> {
    ids.iter().map(|&i| NodeId(i)).collect()
}

fn snapshot() -> Snapshot {
    let mut sessions = SessionTable::new();
    sessions.record(SessionId(4), 11, Bytes::from_static(b"done"));
    Snapshot {
        last_index: LogIndex(23),
        last_eterm: EpochTerm::new(3, 8),
        cluster: ClusterId(2),
        ranges: RangeSet::from(KeyRange::new("a", "m").unwrap()),
        chunks: vec![Bytes::from_static(b"first"), Bytes::from_static(b"second")],
        sessions,
    }
}

fn entries() -> Vec<LogEntry> {
    let at = EpochTerm::new(1, 4);
    vec![
        LogEntry::noop(LogIndex(1), at),
        LogEntry::command(LogIndex(2), at, Bytes::from_static(b"k=v")),
        LogEntry::session_command(
            LogIndex(3),
            at,
            SessionId(7),
            42,
            Bytes::from_static(b"k=v"),
        ),
        LogEntry::config(
            LogIndex(4),
            at,
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5]),
                quorum: 4,
            },
        ),
    ]
}

fn requests() -> Vec<ClientRequest> {
    let op = [
        ClientOp::Command {
            key: b"k".to_vec(),
            cmd: Bytes::from_static(b"payload"),
        },
        ClientOp::Get { key: b"k".to_vec() },
    ];
    op.into_iter()
        .map(|op| ClientRequest {
            session: SessionId(3),
            seq: 7,
            op,
        })
        .collect()
}

fn responses() -> Vec<ClientResponse> {
    let outcomes = [
        ClientOutcome::Reply {
            payload: Bytes::from_static(b"ok"),
        },
        ClientOutcome::Redirect {
            leader_hint: Some(NodeId(2)),
            cluster: None,
        },
        ClientOutcome::Rejected {
            error: Error::WrongRange(Some(ClusterId(9))),
        },
    ];
    outcomes
        .into_iter()
        .map(|outcome| ClientResponse {
            session: SessionId(3),
            seq: 7,
            outcome,
        })
        .collect()
}

#[test]
fn envelopes() {
    let config = ClusterConfig::new(ClusterId(2), nodes(&[1, 2, 3]), RangeSet::full()).unwrap();
    let msgs = [
        Message::AppendEntries {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, 3),
            prev_index: LogIndex(7),
            prev_eterm: EpochTerm::new(1, 2),
            entries: entries(),
            leader_commit: LogIndex(7),
            probe: 5,
        },
        Message::PullResp {
            epoch: 2,
            entries: Vec::new(),
            commit_index: LogIndex(23),
            snapshot: Some(Box::new(snapshot())),
            snapshot_config: Some(config.clone()),
        },
        Message::InstallSnapshot {
            cluster: ClusterId(2),
            eterm: EpochTerm::new(3, 9),
            frame: Box::new(snapshot().frames().remove(0)),
            config,
        },
        Message::ClientReq {
            req: requests().remove(0),
        },
        Message::AdminResp {
            req_id: 9,
            result: Err(Error::NotLeader(None)),
        },
    ];
    for msg in msgs {
        assert_robust(&Envelope::new(NodeId(1), NodeId(2), msg));
    }
}

#[test]
fn wal_directory() {
    for entry in entries() {
        assert_robust(&entry);
    }
    assert_robust(&NodeMeta {
        hard: HardState {
            eterm: EpochTerm::new(3, 9),
            voted_for: Some(NodeId(2)),
        },
        cluster: ClusterId(5),
        cluster_epoch: 2,
        bootstrapped: true,
        retired: false,
        join_target: Some(ClusterId(6)),
        history: vec![ReconfigRecord {
            kind: "merge",
            old_cluster: ClusterId(5),
            new_cluster: ClusterId(7),
            members_before: nodes(&[1, 2]),
            members_after: nodes(&[1]),
            at: EpochTerm::new(1, 2),
            tx: Some(TxId(3)),
        }],
    });
    // The case `truncated_snapshot_errors` used to pin, and a full one.
    assert_robust(&Snapshot::empty(ClusterId(1), RangeSet::full()));
    assert_robust(&snapshot());
    for frame in snapshot().frames() {
        assert_robust(&frame);
    }
}

#[test]
fn client_protocol_and_state_machine() {
    for req in requests() {
        assert_robust(&req);
    }
    for resp in responses() {
        assert_robust(&resp);
    }
    let cmds = [
        KvCmd::Put {
            key: b"k".to_vec(),
            value: Bytes::from_static(b"value"),
        },
        KvCmd::Get {
            key: b"k".to_vec(),
            nonce: 77,
        },
        KvCmd::Delete {
            key: b"k".to_vec(),
            nonce: 78,
        },
        KvCmd::Ingest {
            data: Bytes::from_static(b"blob"),
        },
    ];
    for cmd in cmds {
        assert_robust(&cmd);
    }
    assert_robust(&KvResp::Ok { revision: 12 });
    assert_robust(&KvResp::Value {
        revision: 13,
        value: Some(Bytes::from_static(b"value")),
    });
}

/// A state-machine image is not an `Encode` value, so the same two
/// properties are spelled out over `KvStore`'s restore paths: a strict
/// prefix is an error, an inverted byte is an error or a different state,
/// and a count the input cannot hold is refused, not reserved.
#[test]
fn state_machine_image() {
    let mut store = KvStore::new();
    for (i, (key, value)) in [("apple", "red"), ("mango", ""), ("zebra", "striped")]
        .into_iter()
        .enumerate()
    {
        let put = KvCmd::Put {
            key: key.as_bytes().to_vec(),
            value: Bytes::from_static(value.as_bytes()),
        };
        store.apply(LogIndex(i as u64 + 1), &put.encode());
    }
    let image = store.snapshot(&RangeSet::full());
    let restore = |bytes: Bytes| {
        let (mut whole, mut merged) = (KvStore::new(), KvStore::new());
        let outcome = whole.restore(&bytes);
        assert_eq!(outcome.is_ok(), merged.restore_merged(&[bytes]).is_ok());
        outcome.map(|()| {
            assert_eq!(whole, merged);
            whole
        })
    };
    assert_eq!(restore(image.clone()).unwrap(), store);
    for cut in 0..image.len() {
        assert!(
            restore(image.slice(..cut)).is_err(),
            "prefix {cut} restored"
        );
    }
    for at in 0..image.len() {
        let mut flipped = image.to_vec();
        flipped[at] ^= 0xFF;
        if let Ok(other) = restore(Bytes::from(flipped)) {
            assert_ne!(other, store, "byte {at} inverted, same state restored");
        }
    }
    let mut huge = image.to_vec();
    huge[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(restore(Bytes::from(huge)).is_err());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(data: Vec<u8>) {
        let _ = KvStore::new().restore(&Bytes::from(data.clone()));
        decode_garbage::<Envelope>(&data);
        decode_garbage::<LogEntry>(&data);
        decode_garbage::<NodeMeta>(&data);
        decode_garbage::<Snapshot>(&data);
        decode_garbage::<SnapshotFrame>(&data);
        decode_garbage::<ClientRequest>(&data);
        decode_garbage::<ClientResponse>(&data);
        decode_garbage::<KvCmd>(&data);
        decode_garbage::<KvResp>(&data);
    }

    /// Garbage behind a plausible first byte reaches the field decoders
    /// instead of dying on the tag.
    #[test]
    fn arbitrary_bytes_behind_a_valid_tag_never_panic(tag in 0u8..22, data: Vec<u8>) {
        let mut env = vec![0; 16];
        env.push(tag);
        env.extend_from_slice(&data);
        decode_garbage::<Envelope>(&env);
        let mut tagged = vec![tag % 4];
        tagged.extend_from_slice(&data);
        decode_garbage::<KvCmd>(&tagged);
        decode_garbage::<ClientResponse>(&[&[0; 16][..], &tagged].concat());
    }
}
