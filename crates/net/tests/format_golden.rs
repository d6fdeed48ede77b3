//! Golden bytes for every wire and disk format.
//!
//! Each fixture builds a value, looks its name up in `format_golden.hex`
//! (one `name hex` pair per line) and asserts both directions: the value
//! encodes to exactly those bytes, and those bytes decode to exactly that
//! value with nothing left over. The hex was generated once, by the
//! hand-written codecs that preceded the `codec!` declarations, and is never
//! regenerated: a failure here means a frame, a WAL record, a `NodeMeta`, a
//! snapshot file or a state-machine command written by an older build no
//! longer reads (or the other way round). A *new* format gets a new line —
//! the failure message of a missing name prints the hex to paste.

use bytes::{Buf, Bytes};
use recraft_core::StateMachine;
use recraft_kv::{DurableKv, DurableKvOptions, KvCmd, KvResp, KvStore};
use recraft_net::frame::{decode_frame, encode_frame};
use recraft_net::mux::{encode_batch, MuxReader};
use recraft_net::{AdminCmd, Envelope, Message, NodeStats, PullHint};
use recraft_storage::{HardState, LogEntry, NodeMeta, ReconfigRecord, Snapshot, SnapshotFrame};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterConfig, ClusterId, ConfigChange,
    EpochTerm, Error, KeyRange, LogIndex, MergeDecision, MergeOutcome, MergeParticipant, MergeTx,
    NodeId, RangeSet, SessionId, SessionTable, SplitSpec, TxId,
};
use std::collections::BTreeSet;
use std::fmt::Debug;

const GOLDEN: &str = include_str!("format_golden.hex");

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The checked-in bytes of fixture `name`; `actual` is only for the message
/// that tells the author of a new fixture what line to add.
fn golden(name: &str, actual: &[u8]) -> Bytes {
    let line = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no golden line; add:\n{name} {}", to_hex(actual)));
    Bytes::from(from_hex(line.trim()))
}

/// Asserts `encode(value) == golden` and `decode(golden) == value`, nothing
/// left over.
fn check<T: Encode + Decode + PartialEq + Debug>(name: &str, value: &T) {
    let actual = value.encode_to_bytes();
    let want = golden(name, &actual);
    assert_eq!(to_hex(&actual), to_hex(&want), "{name}: encoding changed");
    let mut bytes = want;
    let decoded = T::decode(&mut bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(&decoded, value, "{name}: decoded value changed");
    assert_eq!(bytes.remaining(), 0, "{name}: bytes left over");
}

/// The same for an envelope, through the frame layer: the golden bytes are
/// the whole length-prefixed frame.
fn check_frame(name: &str, msg: Message) {
    let env = Envelope::new(NodeId(1), NodeId(2), msg);
    let actual = encode_frame(&env);
    let want = golden(name, &actual);
    assert_eq!(to_hex(&actual), to_hex(&want), "{name}: frame changed");
    let mut bytes = want;
    let decoded = decode_frame(&mut bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(decoded, env, "{name}: decoded envelope changed");
    assert_eq!(bytes.remaining(), 0, "{name}: bytes left over");
}

fn nodes(ids: &[u64]) -> BTreeSet<NodeId> {
    ids.iter().map(|&i| NodeId(i)).collect()
}

fn config() -> ClusterConfig {
    ClusterConfig::with_quorum(ClusterId(7), nodes(&[1, 2, 3, 4, 5]), RangeSet::full(), 4).unwrap()
}

fn split() -> SplitSpec {
    let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
    SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), nodes(&[1, 2, 3]), RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), nodes(&[4, 5, 6]), RangeSet::from(hi)).unwrap(),
        ],
        &nodes(&[1, 2, 3, 4, 5, 6]),
        &RangeSet::full(),
    )
    .unwrap()
}

fn tx(resume: Option<&[u64]>) -> MergeTx {
    MergeTx {
        id: TxId(9),
        coordinator: ClusterId(10),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(10),
                members: nodes(&[1, 2, 3]),
            },
            MergeParticipant {
                cluster: ClusterId(11),
                members: nodes(&[4, 5, 6]),
            },
        ],
        new_cluster: ClusterId(20),
        resume_members: resume.map(nodes),
    }
}

fn snapshot() -> Snapshot {
    // Session 4 holds two replies of its window, session 6 one.
    let mut sessions = SessionTable::new();
    sessions.record(SessionId(4), 11, Bytes::from_static(b"done"));
    sessions.record(SessionId(4), 9, Bytes::from_static(b"nine"));
    sessions.record(SessionId(6), 2, Bytes::new());
    Snapshot {
        last_index: LogIndex(23),
        last_eterm: EpochTerm::new(3, 8),
        cluster: ClusterId(2),
        ranges: RangeSet::from_ranges([
            KeyRange::new("a", "c").unwrap(),
            KeyRange::from_start("x"),
        ])
        .unwrap(),
        chunks: vec![Bytes::from_static(b"first"), Bytes::from_static(b"second")],
        sessions,
    }
}

fn entry() -> LogEntry {
    LogEntry::session_command(
        LogIndex(8),
        EpochTerm::new(1, 3),
        SessionId(5),
        12,
        Bytes::from_static(b"cmd"),
    )
}

fn stats(full: bool) -> NodeStats {
    NodeStats {
        cluster: ClusterId(7),
        epoch: 3,
        ranges: RangeSet::full(),
        members: if full { nodes(&[1, 2, 3]) } else { nodes(&[]) },
        is_leader: full,
        leader_hint: full.then_some(NodeId(1)),
        commit: 42,
        applied: 41,
        ops: 1000,
        bytes: 65536,
        split_key: full.then(|| b"k00005000".to_vec()),
    }
}

#[test]
fn raft_core_frames() {
    let cluster = ClusterId(1);
    let eterm = EpochTerm::new(1, 3);
    check_frame(
        "env.append",
        Message::AppendEntries {
            cluster,
            eterm,
            prev_index: LogIndex(7),
            prev_eterm: EpochTerm::new(1, 2),
            entries: vec![
                entry(),
                LogEntry::noop(LogIndex(9), eterm),
                LogEntry::command(LogIndex(10), eterm, Bytes::from_static(b"raw")),
            ],
            leader_commit: LogIndex(7),
            probe: 5,
        },
    );
    for (name, conflict) in [
        ("env.append-resp.conflict", Some(LogIndex(4))),
        ("env.append-resp.ok", None),
    ] {
        check_frame(
            name,
            Message::AppendResp {
                cluster,
                eterm,
                success: conflict.is_none(),
                match_index: LogIndex(6),
                conflict,
                probe: 5,
            },
        );
    }
    check_frame(
        "env.vote-req",
        Message::RequestVote {
            cluster,
            eterm: EpochTerm::new(2, 4),
            last_index: LogIndex(9),
            last_eterm: eterm,
        },
    );
    let hint = PullHint {
        commit_index: LogIndex(11),
        epoch: 3,
    };
    for (name, pull) in [
        ("env.vote-resp.pull", Some(hint)),
        ("env.vote-resp.grant", None),
    ] {
        check_frame(
            name,
            Message::VoteResp {
                cluster,
                eterm: EpochTerm::new(2, 4),
                granted: pull.is_none(),
                pull,
            },
        );
    }
}

#[test]
fn split_and_snapshot_frames() {
    check_frame(
        "env.notify-commit",
        Message::NotifyCommit {
            cluster: ClusterId(1),
            cnew_index: LogIndex(30),
            cnew_eterm: EpochTerm::new(1, 6),
        },
    );
    check_frame(
        "env.pull-req",
        Message::PullReq {
            commit_index: LogIndex(42),
        },
    );
    // A pulled snapshot streams one frame per response, the entries riding
    // the last.
    check_frame(
        "env.pull-resp.snapshot",
        Message::PullResp {
            epoch: 2,
            entries: vec![entry()],
            commit_index: LogIndex(23),
            frame: snapshot().frames().pop().map(Box::new),
            snapshot_config: Some(config()),
        },
    );
    check_frame(
        "env.pull-resp.entries",
        Message::PullResp {
            epoch: 2,
            entries: vec![entry()],
            commit_index: LogIndex(8),
            frame: None,
            snapshot_config: None,
        },
    );
    for (i, frame) in snapshot().frames().into_iter().enumerate() {
        check_frame(
            &format!("env.install-snapshot.{i}"),
            Message::InstallSnapshot {
                cluster: ClusterId(2),
                eterm: EpochTerm::new(3, 9),
                frame: Box::new(frame),
                config: config(),
            },
        );
    }
    check_frame(
        "env.install-snapshot-resp",
        Message::InstallSnapshotResp {
            eterm: EpochTerm::new(3, 9),
            last_index: LogIndex(23),
        },
    );
}

#[test]
fn merge_frames() {
    check_frame(
        "env.merge-prepare-req",
        Message::MergePrepareReq { tx: tx(None) },
    );
    for (name, decision) in [
        ("env.merge-prepare-resp.ok", MergeDecision::Ok),
        ("env.merge-prepare-resp.no", MergeDecision::No),
    ] {
        check_frame(
            name,
            Message::MergePrepareResp {
                tx_id: TxId(9),
                cluster: ClusterId(11),
                decision,
                epoch: 4,
                ranges: RangeSet::from(KeyRange::from_start("m")),
            },
        );
    }
    check_frame(
        "env.merge-commit-req.commit",
        Message::MergeCommitReq {
            outcome: MergeOutcome::Commit {
                tx: tx(Some(&[1, 2, 3])),
                ranges: RangeSet::full(),
                new_epoch: 5,
            },
        },
    );
    check_frame(
        "env.merge-commit-req.abort",
        Message::MergeCommitReq {
            outcome: MergeOutcome::Abort { tx_id: TxId(9) },
        },
    );
    check_frame(
        "env.merge-commit-resp",
        Message::MergeCommitResp {
            tx_id: TxId(9),
            cluster: ClusterId(11),
        },
    );
    for (name, leader) in [
        ("env.merge-redirect.hint", Some(NodeId(5))),
        ("env.merge-redirect.blind", None),
    ] {
        check_frame(
            name,
            Message::MergeRedirect {
                tx_id: TxId(9),
                leader,
            },
        );
    }
    check_frame(
        "env.fetch-snapshot-req",
        Message::FetchSnapshotReq { tx_id: TxId(9) },
    );
    // A part streams as frames; this is the first, which carries the
    // session table.
    check_frame(
        "env.fetch-snapshot-resp.part",
        Message::FetchSnapshotResp {
            tx_id: TxId(9),
            frame: Box::new(snapshot().frames().remove(0)),
        },
    );
}

#[test]
fn client_frames() {
    let ops = [
        (
            "env.client-req.command",
            ClientOp::Command {
                key: b"k1".to_vec(),
                cmd: Bytes::from_static(b"payload"),
            },
        ),
        (
            "env.client-req.get",
            ClientOp::Get {
                key: b"k1".to_vec(),
            },
        ),
    ];
    for (name, op) in ops {
        let req = ClientRequest {
            session: SessionId(3),
            seq: 7,
            op,
        };
        check(&name.replace("env.", ""), &req);
        check_frame(name, Message::ClientReq { req });
    }
    let outcomes = [
        (
            "env.client-resp.reply",
            ClientOutcome::Reply {
                payload: Bytes::from_static(b"ok"),
            },
        ),
        (
            "env.client-resp.redirect.hints",
            ClientOutcome::Redirect {
                leader_hint: Some(NodeId(2)),
                cluster: Some(ClusterId(9)),
            },
        ),
        (
            "env.client-resp.redirect.blind",
            ClientOutcome::Redirect {
                leader_hint: None,
                cluster: None,
            },
        ),
        (
            "env.client-resp.rejected",
            ClientOutcome::Rejected {
                error: Error::WrongRange(Some(ClusterId(11))),
            },
        ),
    ];
    for (name, outcome) in outcomes {
        let resp = ClientResponse {
            session: SessionId(3),
            seq: 7,
            outcome,
        };
        check(&name.replace("env.", ""), &resp);
        check_frame(name, Message::ClientResp { resp });
    }
}

#[test]
fn admin_frames() {
    let cmds = [
        AdminCmd::Split(split()),
        AdminCmd::Merge(tx(None)),
        AdminCmd::AddAndResize(nodes(&[4, 5])),
        AdminCmd::RemoveAndResize(nodes(&[3])),
        AdminCmd::ResizeQuorum,
        AdminCmd::SimpleChange(nodes(&[1, 2, 3, 4])),
        AdminCmd::JointChange(nodes(&[1, 2, 6])),
        AdminCmd::Campaign,
        AdminCmd::ProposeNoop,
        AdminCmd::SetRanges(RangeSet::from(KeyRange::new("a", "m").unwrap())),
    ];
    for cmd in cmds {
        let name = format!("env.admin-req.{}", cmd.kind());
        check_frame(&name, Message::AdminReq { req_id: 9, cmd });
    }
    for (name, result) in [
        ("env.admin-resp.ok", Ok(())),
        ("env.admin-resp.err", Err(Error::NotLeader(Some(NodeId(3))))),
    ] {
        check_frame(name, Message::AdminResp { req_id: 9, result });
    }
    check_frame("env.stats-req", Message::StatsReq { req_id: 4 });
    for (name, full) in [
        ("env.stats-resp.full", true),
        ("env.stats-resp.bare", false),
    ] {
        check_frame(
            name,
            Message::StatsResp {
                req_id: 4,
                stats: Box::new(stats(full)),
            },
        );
    }
}

#[test]
fn mux_batch_of_three() {
    let envs = vec![
        Envelope::new(
            NodeId(1),
            NodeId(2),
            Message::PullReq {
                commit_index: LogIndex(42),
            },
        ),
        Envelope::new(NodeId(1), NodeId(3), Message::StatsReq { req_id: 4 }),
        Envelope::new(
            NodeId(4),
            NodeId(2),
            Message::InstallSnapshotResp {
                eterm: EpochTerm::new(3, 9),
                last_index: LogIndex(23),
            },
        ),
    ];
    let actual = encode_batch(&envs).unwrap();
    let want = golden("mux.batch3", &actual);
    assert_eq!(to_hex(&actual), to_hex(&want), "batch encoding changed");
    let mut reader = MuxReader::new();
    reader.feed(&want);
    let mut got = Vec::new();
    while let Some(env) = reader.next_envelope().unwrap() {
        got.push(env);
    }
    assert_eq!(got, envs);
    assert_eq!(reader.pending_bytes(), 0);
}

#[test]
fn log_entries() {
    let at = EpochTerm::new(1, 4);
    check("entry.noop", &LogEntry::noop(LogIndex(1), at));
    check(
        "entry.command",
        &LogEntry::command(LogIndex(2), at, Bytes::from_static(b"k=v")),
    );
    check("entry.session-command", &entry());
    let changes = [
        ConfigChange::Simple {
            members: nodes(&[1, 2, 3]),
        },
        ConfigChange::JointEnter {
            old: nodes(&[1, 2]),
            new: nodes(&[1, 2, 3]),
        },
        ConfigChange::JointLeave {
            new: nodes(&[1, 2, 3]),
        },
        ConfigChange::Resize {
            members: nodes(&[1, 2, 3, 4, 5]),
            quorum: 4,
        },
        ConfigChange::SplitJoint(split()),
        ConfigChange::SplitNew(split()),
        ConfigChange::MergePrepare {
            tx: tx(Some(&[4, 5, 6])),
            decision: MergeDecision::Ok,
        },
        ConfigChange::MergeCommit(MergeOutcome::Commit {
            tx: tx(None),
            ranges: RangeSet::full(),
            new_epoch: 5,
        }),
        ConfigChange::SetRanges(RangeSet::from(KeyRange::new("a", "m").unwrap())),
    ];
    for change in changes {
        let name = format!("entry.config.{}", change.kind());
        check(&name, &LogEntry::config(LogIndex(4), at, change));
    }
}

#[test]
fn node_meta() {
    let record = |kind, tx| ReconfigRecord {
        kind,
        old_cluster: ClusterId(5),
        new_cluster: ClusterId(7),
        members_before: nodes(&[1, 2]),
        members_after: nodes(&[1]),
        at: EpochTerm::new(1, 2),
        tx,
    };
    check(
        "meta.history",
        &NodeMeta {
            hard: HardState {
                eterm: EpochTerm::new(3, 9),
                voted_for: Some(NodeId(2)),
            },
            cluster: ClusterId(5),
            cluster_epoch: 2,
            bootstrapped: true,
            retired: false,
            join_target: Some(ClusterId(6)),
            history: vec![record("split", None), record("merge", Some(TxId(3)))],
        },
    );
    check(
        "meta.fresh",
        &NodeMeta {
            hard: HardState::default(),
            cluster: ClusterId(1),
            cluster_epoch: 0,
            bootstrapped: false,
            retired: false,
            join_target: None,
            history: Vec::new(),
        },
    );
}

#[test]
fn snapshots() {
    let snap = snapshot();
    check("snapshot.two-chunk", &snap);
    let frames: Vec<SnapshotFrame> = snap.frames();
    assert_eq!(frames.len(), 2);
    for (i, frame) in frames.iter().enumerate() {
        check(&format!("snapshot.frame.{i}"), frame);
    }
}

/// `KvCmd`/`KvResp` keep their own `encode() -> Bytes` / `decode(&Bytes)`
/// surface (the log carries them as opaque commands).
#[test]
fn kv_commands() {
    let cmds = [
        (
            "kv.cmd.put",
            KvCmd::Put {
                key: b"k".to_vec(),
                value: Bytes::from_static(b"value"),
            },
        ),
        (
            "kv.cmd.get",
            KvCmd::Get {
                key: b"k".to_vec(),
                nonce: 77,
            },
        ),
        (
            "kv.cmd.delete",
            KvCmd::Delete {
                key: b"k".to_vec(),
                nonce: 78,
            },
        ),
        (
            "kv.cmd.ingest",
            KvCmd::Ingest {
                data: Bytes::from_static(b"\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00"),
            },
        ),
    ];
    for (name, cmd) in cmds {
        let actual = cmd.encode();
        let want = golden(name, &actual);
        assert_eq!(to_hex(&actual), to_hex(&want), "{name}: encoding changed");
        assert_eq!(KvCmd::decode(&want).unwrap(), cmd, "{name}");
    }
    let resps = [
        ("kv.resp.ok", KvResp::Ok { revision: 12 }),
        (
            "kv.resp.value.some",
            KvResp::Value {
                revision: 13,
                value: Some(Bytes::from_static(b"value")),
            },
        ),
        (
            "kv.resp.value.none",
            KvResp::Value {
                revision: 14,
                value: None,
            },
        ),
    ];
    for (name, resp) in resps {
        let actual = resp.encode();
        let want = golden(name, &actual);
        assert_eq!(to_hex(&actual), to_hex(&want), "{name}: encoding changed");
        assert_eq!(KvResp::decode(&want).unwrap(), resp, "{name}");
    }
}

/// Asserts that `actual` is exactly the checked-in bytes of `name` (formats
/// that are not an `Encode` value: state-machine images, whole files).
fn check_bytes(name: &str, actual: &[u8]) -> Bytes {
    let want = golden(name, actual);
    assert_eq!(to_hex(actual), to_hex(&want), "{name}: bytes changed");
    want
}

/// The state-machine payload inside a snapshot chunk, and the files a
/// `DurableKv` leaves: opaque to every fixture above, pinned here.
#[test]
fn state_machine_images() {
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
    let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();

    // A full image restores to the store that wrote it.
    let full = check_bytes("kv.image.full", &store.snapshot(&RangeSet::full()));
    let mut restored = KvStore::new();
    restored.restore(&full).unwrap();
    assert_eq!(restored, store, "kv.image.full: restored state changed");

    // A range-filtered image, and the two halves as `restore_merged` input.
    let low = check_bytes("kv.image.low", &store.snapshot(&RangeSet::from(lo)));
    let high = check_bytes("kv.image.high", &store.snapshot(&RangeSet::from(hi)));
    let mut merged = KvStore::new();
    merged.restore_merged(&[low, high]).unwrap();
    assert_eq!(merged, store, "kv.image.low + high: merged state changed");

    // A `DurableKv` directory: the one segment file (frame, checksum and
    // chunk payload) and the manifest, byte for byte; a directory holding
    // exactly those bytes opens to the same state.
    let dir = std::env::temp_dir().join(format!("recraft-golden-kv-{}", std::process::id()));
    let opts = DurableKvOptions {
        fsync: false,
        ..DurableKvOptions::default()
    };
    let durable = DurableKv::create(&dir, store.clone(), opts).unwrap();
    let chunks = durable.snapshot_chunks(&RangeSet::full());
    assert_eq!(chunks.len(), 1);
    check_bytes("kv.durable.chunk", &chunks[0]);
    drop(durable);
    for (name, file) in [
        ("kv.durable.segment-file", "seg-0000000000000001.kvs"),
        ("kv.durable.manifest-file", "MANIFEST.bin"),
    ] {
        check_bytes(name, &std::fs::read(dir.join(file)).unwrap());
    }
    let reopened = DurableKv::open(&dir, opts).unwrap();
    assert_eq!(reopened.len(), 3);
    assert_eq!(reopened.revision(), 3);
    assert_eq!(reopened.get(b"zebra"), store.get(b"zebra"));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors() {
    let all = [
        ("error.invalid-range", Error::InvalidRange("x".into())),
        ("error.invalid-config", Error::InvalidConfig("y".into())),
        ("error.p1", Error::PreconditionP1),
        ("error.p2", Error::PreconditionP2("z".into())),
        ("error.p3", Error::PreconditionP3),
        ("error.not-leader.hint", Error::NotLeader(Some(NodeId(4)))),
        ("error.not-leader.blind", Error::NotLeader(None)),
        (
            "error.wrong-range.hint",
            Error::WrongRange(Some(ClusterId(5))),
        ),
        ("error.wrong-range.blind", Error::WrongRange(None)),
        ("error.merge-blocked", Error::MergeBlocked),
        ("error.index", Error::IndexOutOfRange(LogIndex(6))),
        ("error.codec", Error::Codec("c".into())),
        ("error.dropped", Error::ProposalDropped),
        ("error.invalid-state", Error::InvalidState("s".into())),
        ("error.session-stale", Error::SessionStale),
        ("error.storage", Error::Storage("io".into())),
        (
            "error.deadline",
            Error::DeadlineExceeded("admin split after 12 attempts".into()),
        ),
    ];
    for (name, error) in all {
        check(name, &error);
    }
}
