//! The typed client protocol end to end: sessions with exactly-once writes,
//! deliberate duplicate deliveries, ReadIndex reads, and survival of the
//! session table through a full split and a full merge.

use recraft::core::NodeEvent;
use recraft::kv::KvCmd;
use recraft::net::AdminCmd;
use recraft::sim::{Sim, SimConfig, Workload};
use recraft::types::{
    ClientOp, ClientRequest, ClusterConfig, ClusterId, MergeParticipant, MergeTx, NodeId, RangeSet,
    SessionId, SplitSpec, TxId, SESSION_WINDOW,
};
use recraft_storage::{EntryPayload, LogStore};

const SEC: u64 = 1_000_000;

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn two_way_spec(sim: &Sim, src: ClusterId) -> SplitSpec {
    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00000100").unwrap();
    SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), ids(1..=3), RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), ids(4..=6), RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap()
}

/// The acceptance scenario: several client sessions with injected duplicate
/// deliveries and a ReadIndex read mix drive traffic through a full split
/// and a full merge. The history must linearize, every `(session, seq)`
/// must apply exactly once, and the ReadIndex reads must appear in the
/// history without any corresponding log entry.
#[test]
fn sessions_with_duplicates_through_split_and_merge() {
    let mut sim = Sim::new(SimConfig::with_seed(0x5E55));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    // Four sessions: 30% ReadIndex reads, 25% of writes delivered twice.
    sim.add_clients(
        4,
        Workload {
            key_count: 200,
            value_size: 64,
            get_ratio: 0.3,
            dup_prob: 0.25,
            pipeline: 1,
            ..Workload::default()
        },
    );
    sim.run_for(3 * SEC);

    // Split under load.
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    sim.run_for(3 * SEC);

    // Merge back under load.
    let tx = MergeTx {
        id: TxId(77),
        coordinator: ClusterId(10),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(10),
                members: ids(1..=3).into_iter().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(11),
                members: ids(4..=6).into_iter().collect(),
            },
        ],
        new_cluster: ClusterId(20),
        resume_members: None,
    };
    sim.admin(ClusterId(10), AdminCmd::Merge(tx));
    sim.run_until_pred(60 * SEC, |s| s.leader_of(ClusterId(20)).is_some());
    sim.run_for(3 * SEC);

    assert!(sim.completed_ops() > 500, "traffic flowed throughout");

    // Safety: state machine + election safety, client-visible
    // linearizability, and the exactly-once contract despite the duplicate
    // deliveries and reconfigurations.
    sim.check_invariants();
    sim.check_linearizability();
    sim.assert_exactly_once();

    // ReadIndex actually served reads...
    let served = sim.read_index_served();
    assert!(served > 50, "ReadIndex served reads ({served})");
    // ...and none of them put an entry in any log: with reads off the log,
    // no Get command exists anywhere.
    for node in sim.nodes() {
        for entry in node.log().tail(node.log().first_index()) {
            let cmd = match &entry.payload {
                EntryPayload::Command(cmd) => cmd,
                EntryPayload::SessionCommand { cmd, .. } => cmd,
                _ => continue,
            };
            if let Ok(KvCmd::Get { .. }) = KvCmd::decode(cmd) {
                panic!("a read reached the log on {}", node.id());
            }
        }
    }
    // The merged cluster still remembers every session's progress.
    let leader = sim.leader_of(ClusterId(20)).unwrap();
    let table = sim.node(leader).unwrap().sessions();
    assert!(
        (0..4).any(|s| table.last_seq(SessionId(s)).is_some()),
        "session table survived split + merge"
    );
}

fn put_req(session: u64, seq: u64, key: &[u8], value: &[u8]) -> ClientRequest {
    ClientRequest {
        session: SessionId(session),
        seq,
        op: ClientOp::Command {
            key: key.to_vec(),
            cmd: KvCmd::Put {
                key: key.to_vec(),
                value: bytes::Bytes::copy_from_slice(value),
            }
            .encode(),
        },
    }
}

fn apply_sites(sim: &Sim, digest: u64) -> std::collections::BTreeSet<(ClusterId, u64)> {
    sim.trace()
        .iter()
        .filter_map(|(_, _, e)| match e {
            NodeEvent::AppliedCommand {
                cluster,
                index,
                digest: d,
            } if *d == digest => Some((*cluster, index.0)),
            _ => None,
        })
        .collect()
}

/// The same `(session, seq)` is delivered twice to a leader whose links are
/// then cut (the entry stays uncommitted), retried against the replacement
/// leader, and retried once more against the post-split owner cluster — it
/// must apply exactly once, on the surviving owner.
#[test]
fn duplicate_retry_through_leader_change_and_split_applies_once() {
    let mut sim = Sim::new(SimConfig::with_seed(0xD0D0));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    let leader0 = sim.leader_of(src).unwrap();

    let key = b"k00000042"; // lands in the low (c10) half of the split
    let req = put_req(9000, 1, key, b"exactly-once!");
    let digest = recraft::core::events::fingerprint(
        &KvCmd::decode(match &req.op {
            ClientOp::Command { cmd, .. } => cmd,
            ClientOp::Get { .. } => unreachable!(),
        })
        .unwrap()
        .encode(),
    );

    // Duplicate delivery to the original leader, whose replication links are
    // cut at the same instant: the entry is appended but can never commit.
    sim.post_request(leader0, req.clone());
    sim.post_request(leader0, req.clone());
    let cuts: Vec<(NodeId, NodeId)> = ids(1..=6)
        .into_iter()
        .filter(|n| *n != leader0)
        .map(|n| (leader0, n))
        .collect();
    sim.schedule_action(sim.time(), recraft::sim::Action::CutLinks(cuts));
    sim.run_for(SEC / 2);
    sim.schedule_action(sim.time(), recraft::sim::Action::Crash(leader0));
    sim.schedule_action(sim.time() + 1, recraft::sim::Action::Heal);
    sim.run_until_pred(30 * SEC, |s| s.leader_of(src).is_some_and(|l| l != leader0));
    let leader1 = sim.leader_of(src).unwrap();

    // The retry against the replacement leader: the entry never committed,
    // so the session table accepts (and applies) it here.
    sim.post_request(leader1, req.clone());
    sim.run_for(SEC);
    assert_eq!(apply_sites(&sim, digest).len(), 1, "applied once on retry");
    // The session continues normally afterwards.
    sim.post_request(leader1, put_req(9000, 2, b"k00000043", b"second"));
    sim.run_for(SEC / 2);

    // The crashed ex-leader comes back with its stale duplicate entry; log
    // reconciliation must discard it, not apply it.
    sim.schedule_action(sim.time(), recraft::sim::Action::Restart(leader0));
    sim.run_for(2 * SEC);
    assert_eq!(
        apply_sites(&sim, digest).len(),
        1,
        "no replay after restart"
    );

    // Split, then retry the same (session, seq) against the owner cluster.
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    let owner_leader = sim.leader_of(ClusterId(10)).unwrap();
    sim.post_request(owner_leader, req.clone());
    // And against the non-owner too: it must not apply there either.
    let other_leader = sim.leader_of(ClusterId(11)).unwrap();
    sim.post_request(other_leader, req);
    sim.run_for(2 * SEC);

    let sites = apply_sites(&sim, digest);
    assert_eq!(sites.len(), 1, "exactly once across the split: {sites:?}");
    // The value is live on the owner cluster.
    let store = sim.node(owner_leader).unwrap().state_machine();
    assert_eq!(
        store.get(key).map(|b| b.as_ref()),
        Some(b"exactly-once!".as_ref())
    );
    sim.assert_exactly_once();
    sim.check_invariants();
}

/// Reordered deliveries: once a `(session, seq)` at least `SESSION_WINDOW`
/// newer applied, an older one arriving late lies below the session's
/// window; it is rejected as stale and never reaches the state machine.
/// (An older number *inside* the window is unrecorded, so it still applies
/// once: the table answers every retry a windowed client can send.)
#[test]
fn reordered_stale_seq_never_applies() {
    let mut sim = Sim::new(SimConfig::with_seed(0xBEEF));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(src);
    let leader = sim.leader_of(src).unwrap();

    let newer = put_req(7000, 3 + SESSION_WINDOW, b"k00000001", b"v35");
    let older = put_req(7000, 3, b"k00000001", b"v3");
    let older_digest = recraft::core::events::fingerprint(
        &KvCmd::Put {
            key: b"k00000001".to_vec(),
            value: bytes::Bytes::from_static(b"v3"),
        }
        .encode(),
    );
    sim.post_request(leader, newer);
    sim.run_for(SEC);
    sim.post_request(leader, older);
    sim.run_for(SEC);

    assert!(
        apply_sites(&sim, older_digest).is_empty(),
        "stale request must never apply"
    );
    let store = sim.node(leader).unwrap().state_machine();
    assert_eq!(
        store.get(b"k00000001").map(|b| b.as_ref()),
        Some(b"v35".as_ref())
    );
    sim.assert_exactly_once();
}

/// The one-shot typed API drives exactly-once writes and ReadIndex reads
/// without any raw-bytes escape hatch.
#[test]
fn execute_api_round_trips() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAB1E));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(src);

    let put = KvCmd::Put {
        key: b"k00000007".to_vec(),
        value: bytes::Bytes::from_static(b"lucky"),
    };
    sim.execute(b"k00000007".to_vec(), put.encode())
        .expect("write accepted");
    let got = sim.execute_get(b"k00000007".to_vec()).expect("read served");
    assert_eq!(got, Some(bytes::Bytes::from_static(b"lucky")));
    let missing = sim.execute_get(b"k00000009".to_vec()).expect("read served");
    assert_eq!(missing, None);
    assert!(sim.read_index_served() >= 2);
    sim.check_invariants();
}
