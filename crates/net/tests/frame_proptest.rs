//! Property tests for the loopback frame codec: every `Message` variant
//! round-trips through a length-prefixed frame, and the reader rejects
//! truncated, oversized, and corrupted frames without panicking.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use recraft_net::frame::{decode_frame, encode_frame, read_frame, write_frame, MAX_FRAME_BYTES};
use recraft_net::{AdminCmd, Envelope, Message, NodeStats, PullHint};
use recraft_storage::{LogEntry, Snapshot};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterConfig, ClusterId, EpochTerm,
    Error, KeyRange, LogIndex, MergeDecision, MergeOutcome, MergeParticipant, MergeTx, NodeId,
    RangeSet, SessionId, SessionTable, SplitSpec, TxId,
};
use std::collections::BTreeSet;

/// Number of `Message` variants `build_message` covers (one per tag).
const VARIANTS: usize = 22;

fn sample_config(r: u64) -> ClusterConfig {
    ClusterConfig::new(
        ClusterId(1 + r % 5),
        [NodeId(1), NodeId(2), NodeId(3)],
        RangeSet::full(),
    )
    .unwrap()
}

fn sample_split() -> SplitSpec {
    let low = RangeSet::from_ranges([KeyRange::new(Vec::<u8>::new(), "m").unwrap()]).unwrap();
    let high = RangeSet::from_ranges([KeyRange::from_start("m")]).unwrap();
    let sub1 = ClusterConfig::new(ClusterId(10), [NodeId(1)], low).unwrap();
    let sub2 = ClusterConfig::new(ClusterId(11), [NodeId(2)], high).unwrap();
    let parent: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
    SplitSpec::new(vec![sub1, sub2], &parent, &RangeSet::full()).unwrap()
}

fn sample_tx(r: u64) -> MergeTx {
    MergeTx {
        id: TxId(r % 100),
        coordinator: ClusterId(1),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(1),
                members: [NodeId(1)].into(),
            },
            MergeParticipant {
                cluster: ClusterId(2),
                members: [NodeId(2)].into(),
            },
        ],
        new_cluster: ClusterId(3),
        resume_members: r.is_multiple_of(2).then(|| [NodeId(1), NodeId(2)].into()),
    }
}

fn sample_snapshot(r: u64) -> Snapshot {
    let mut sessions = SessionTable::new();
    sessions.record(SessionId(r % 9), r % 50, Bytes::from_static(b"ok"));
    Snapshot {
        last_index: LogIndex(r % 1000),
        last_eterm: EpochTerm::new((r % 4) as u32, (r % 17) as u32),
        cluster: ClusterId(1 + r % 3),
        ranges: RangeSet::full(),
        chunks: vec![Bytes::from(vec![b'x'; (r % 64) as usize]), Bytes::new()],
        sessions,
    }
}

fn sample_entries(r: u64) -> Vec<LogEntry> {
    vec![
        LogEntry::noop(LogIndex(r % 100 + 1), EpochTerm::new(1, 2)),
        LogEntry::session_command(
            LogIndex(r % 100 + 2),
            EpochTerm::new(1, 2),
            SessionId(r % 7),
            r % 31,
            Bytes::from(vec![b'v'; (r % 33) as usize]),
        ),
    ]
}

fn sample_error(r: u64) -> Error {
    match r % 5 {
        0 => Error::NotLeader(Some(NodeId(r % 5))),
        1 => Error::WrongRange(None),
        2 => Error::MergeBlocked,
        3 => Error::SessionStale,
        _ => Error::PreconditionP1,
    }
}

/// Builds the `Message` variant numbered `tag`, fields derived from `r`.
fn build_message(tag: usize, r: u64) -> Message {
    match tag {
        0 => Message::AppendEntries {
            cluster: ClusterId(1 + r % 3),
            eterm: EpochTerm::new((r % 3) as u32, (r % 9 + 1) as u32),
            prev_index: LogIndex(r % 100),
            prev_eterm: EpochTerm::new(0, (r % 9) as u32),
            entries: sample_entries(r),
            leader_commit: LogIndex(r % 100),
            probe: r,
        },
        1 => Message::AppendResp {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
            success: r.is_multiple_of(2),
            match_index: LogIndex(r % 100),
            conflict: r.is_multiple_of(3).then_some(LogIndex(r % 50)),
            probe: r,
        },
        2 => Message::RequestVote {
            cluster: ClusterId(1),
            eterm: EpochTerm::new((r % 3) as u32, (r % 9 + 1) as u32),
            last_index: LogIndex(r % 100),
            last_eterm: EpochTerm::new(0, (r % 9) as u32),
        },
        3 => Message::VoteResp {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
            granted: r.is_multiple_of(2),
            pull: r.is_multiple_of(3).then_some(PullHint {
                commit_index: LogIndex(r % 60),
                epoch: (r % 4) as u32,
            }),
        },
        4 => Message::NotifyCommit {
            cluster: ClusterId(1),
            cnew_index: LogIndex(r % 100),
            cnew_eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
        },
        5 => Message::PullReq {
            commit_index: LogIndex(r % 100),
        },
        6 => Message::PullResp {
            epoch: (r % 5) as u32,
            entries: sample_entries(r),
            commit_index: LogIndex(r % 100),
            frame: r.is_multiple_of(2).then(|| {
                Box::new(
                    sample_snapshot(r)
                        .frames()
                        .swap_remove((r % 4 / 2) as usize),
                )
            }),
            snapshot_config: r.is_multiple_of(2).then(|| sample_config(r)),
        },
        7 => Message::InstallSnapshot {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
            frame: Box::new(sample_snapshot(r).frames().swap_remove((r % 2) as usize)),
            config: sample_config(r),
        },
        8 => Message::InstallSnapshotResp {
            eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
            last_index: LogIndex(r % 100),
        },
        9 => Message::MergePrepareReq { tx: sample_tx(r) },
        10 => Message::MergePrepareResp {
            tx_id: TxId(r % 100),
            cluster: ClusterId(2),
            decision: if r.is_multiple_of(2) {
                MergeDecision::Ok
            } else {
                MergeDecision::No
            },
            epoch: (r % 6) as u32,
            ranges: RangeSet::full(),
        },
        11 => Message::MergeCommitReq {
            outcome: if r.is_multiple_of(2) {
                MergeOutcome::Commit {
                    tx: sample_tx(r),
                    ranges: RangeSet::full(),
                    new_epoch: (r % 7) as u32,
                }
            } else {
                MergeOutcome::Abort {
                    tx_id: TxId(r % 100),
                }
            },
        },
        12 => Message::MergeCommitResp {
            tx_id: TxId(r % 100),
            cluster: ClusterId(2),
        },
        13 => Message::MergeRedirect {
            tx_id: TxId(r % 100),
            leader: r.is_multiple_of(2).then(|| NodeId(1 + r % 4)),
        },
        14 => Message::FetchSnapshotReq {
            tx_id: TxId(r % 100),
        },
        15 => Message::FetchSnapshotResp {
            tx_id: TxId(r % 100),
            frame: Box::new(sample_snapshot(r).frames().swap_remove((r % 2) as usize)),
        },
        16 => Message::ClientReq {
            req: ClientRequest {
                session: SessionId(r % 9),
                seq: r % 1000,
                op: if r.is_multiple_of(2) {
                    ClientOp::Command {
                        key: vec![b'k'; (r % 9) as usize],
                        cmd: Bytes::from(vec![b'c'; (r % 65) as usize]),
                    }
                } else {
                    ClientOp::Get {
                        key: vec![b'k'; (r % 9) as usize],
                    }
                },
            },
        },
        17 => Message::ClientResp {
            resp: ClientResponse {
                session: SessionId(r % 9),
                seq: r % 1000,
                outcome: match r % 3 {
                    0 => ClientOutcome::Reply {
                        payload: Bytes::from(vec![b'p'; (r % 33) as usize]),
                    },
                    1 => ClientOutcome::Redirect {
                        leader_hint: r.is_multiple_of(2).then(|| NodeId(1 + r % 4)),
                        cluster: Some(ClusterId(1)),
                    },
                    _ => ClientOutcome::Rejected {
                        error: sample_error(r),
                    },
                },
            },
        },
        18 => Message::AdminReq {
            req_id: r,
            cmd: match r % 10 {
                0 => AdminCmd::Split(sample_split()),
                1 => AdminCmd::Merge(sample_tx(r)),
                2 => AdminCmd::AddAndResize([NodeId(4), NodeId(5)].into()),
                3 => AdminCmd::RemoveAndResize([NodeId(3)].into()),
                4 => AdminCmd::ResizeQuorum,
                5 => AdminCmd::SimpleChange([NodeId(1), NodeId(2)].into()),
                6 => AdminCmd::JointChange([NodeId(1), NodeId(4)].into()),
                7 => AdminCmd::Campaign,
                8 => AdminCmd::ProposeNoop,
                _ => AdminCmd::SetRanges(RangeSet::full()),
            },
        },
        19 => Message::AdminResp {
            req_id: r,
            result: if r.is_multiple_of(2) {
                Ok(())
            } else {
                Err(sample_error(r))
            },
        },
        20 => Message::StatsReq { req_id: r },
        21 => Message::StatsResp {
            req_id: r,
            stats: Box::new(NodeStats {
                cluster: ClusterId(1 + r % 5),
                epoch: (r % 7) as u32,
                ranges: RangeSet::full(),
                members: (1..=(r % 5)).map(NodeId).collect(),
                is_leader: r.is_multiple_of(2),
                leader_hint: r.is_multiple_of(3).then(|| NodeId(1 + r % 4)),
                commit: r % 1000,
                applied: r % 900,
                ops: r,
                bytes: r.wrapping_mul(17),
                split_key: r.is_multiple_of(2).then(|| vec![b'k'; (r % 9) as usize]),
            }),
        },
        _ => unreachable!("tag out of range"),
    }
}

fn roundtrip(env: &Envelope) -> Result<(), TestCaseError> {
    // Byte-level frame.
    let mut bytes = encode_frame(env);
    let decoded = decode_frame(&mut bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&decoded, env);
    prop_assert_eq!(bytes.remaining(), 0);

    // Stream-level frame.
    let mut wire = Vec::new();
    write_frame(&mut wire, env).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let mut cursor = std::io::Cursor::new(wire);
    let from_stream = read_frame(&mut cursor).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(from_stream.as_ref(), Some(env));
    let eof = read_frame(&mut cursor).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(eof, None);
    Ok(())
}

/// Deterministic sweep: every variant round-trips (no sampling gaps).
#[test]
fn every_variant_roundtrips() {
    let mut kinds = BTreeSet::new();
    for tag in 0..VARIANTS {
        for r in [0u64, 1, 2, 3, 5, 17, 1000] {
            let msg = build_message(tag, r);
            kinds.insert(msg.kind());
            let env = Envelope::new(NodeId(1 + r % 7), NodeId(1 + (r + 1) % 7), msg);
            roundtrip(&env).unwrap();
        }
    }
    assert_eq!(
        kinds.len(),
        VARIANTS,
        "each tag must hit a distinct variant"
    );
}

proptest! {
    #[test]
    fn random_messages_roundtrip(tag in 0usize..VARIANTS, r: u64) {
        let env = Envelope::new(NodeId(1 + r % 7), NodeId(1 + (r + 3) % 7), build_message(tag, r));
        roundtrip(&env)?;
    }

    #[test]
    fn truncated_frames_rejected(tag in 0usize..VARIANTS, r: u64, frac: u64) {
        let env = Envelope::new(NodeId(1), NodeId(2), build_message(tag, r));
        let full = encode_frame(&env);
        let cut = (frac % full.len() as u64) as usize; // always strictly short
        let mut short = full.slice(..cut);
        prop_assert!(decode_frame(&mut short).is_err(), "byte cut at {}", cut);
        let mut cursor = std::io::Cursor::new(full.slice(..cut).to_vec());
        let streamed = read_frame(&mut cursor);
        if cut == 0 {
            prop_assert!(matches!(streamed, Ok(None)));
        } else {
            prop_assert!(streamed.is_err(), "stream cut at {}", cut);
        }
    }

    #[test]
    fn oversized_frames_rejected(r: u64) {
        let span = u32::MAX as u64 - MAX_FRAME_BYTES as u64;
        let len = MAX_FRAME_BYTES as u64 + 1 + r % span;
        let mut framed = BytesMut::new();
        framed.put_u32(len as u32);
        framed.put_slice(b"payload-much-shorter-than-claimed");
        let wire = framed.freeze();
        let mut bytes = wire.clone();
        prop_assert!(decode_frame(&mut bytes).is_err());
        let mut cursor = std::io::Cursor::new(wire.to_vec());
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn garbage_never_panics(data: Vec<u8>) {
        let mut bytes = Bytes::from(data.clone());
        let _ = decode_frame(&mut bytes);
        let mut cursor = std::io::Cursor::new(data);
        let _ = read_frame(&mut cursor);
    }

    #[test]
    fn corrupted_frames_never_panic(tag in 0usize..VARIANTS, r: u64, at: u64, bit: u64) {
        let env = Envelope::new(NodeId(1), NodeId(2), build_message(tag, r));
        let mut wire = encode_frame(&env).to_vec();
        let at = (at % wire.len() as u64) as usize;
        wire[at] ^= 1 << (bit % 8);
        // A flipped bit may still decode (payload bytes are opaque); the
        // property is only that the reader never panics or over-reads.
        let mut bytes = Bytes::from(wire.clone());
        let _ = decode_frame(&mut bytes);
        let mut cursor = std::io::Cursor::new(wire);
        let _ = read_frame(&mut cursor);
    }
}
