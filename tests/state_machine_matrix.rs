//! The state-machine × log-backend scenario matrix: every lifecycle
//! scenario (split, merge, membership change, crash recovery) runs over all
//! four `RECRAFT_SM` × `RECRAFT_BACKEND` combinations from fixed seeds —
//! pinned in-process via `SimConfig::with_machine` / `with_backend`, so one
//! test binary covers the whole grid regardless of the environment it runs
//! in. Each combination must pass the linearizability witness and the
//! exactly-once contract; the durable machine must additionally keep its
//! snapshot transfer chunked (peak chunk bounded far below the keyspace).

use recraft::kv::KvCmd;
use recraft::net::AdminCmd;
use recraft::sim::{Action, Backend, Sim, SimConfig, SmKind, Workload};
use recraft::types::{
    ClusterConfig, ClusterId, KeyRange, MergeParticipant, MergeTx, NodeId, RangeSet, SplitSpec,
    TxId,
};

const SEC: u64 = 1_000_000;

/// The sim engine's `DurableKv` chunk bound plus frame overhead slack.
const CHUNK_BOUND: usize = 32 * 1024 + 1024;

fn combos() -> [(SmKind, Backend); 4] {
    [
        (SmKind::Mem, Backend::Mem),
        (SmKind::Mem, Backend::Wal),
        (SmKind::Durable, Backend::Mem),
        (SmKind::Durable, Backend::Wal),
    ]
}

fn sim_for(seed: u64, sm: SmKind, backend: Backend) -> Sim {
    Sim::new(
        SimConfig::with_seed(seed)
            .with_machine(sm)
            .with_backend(backend),
    )
}

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn workload() -> Workload {
    Workload {
        key_count: 400,
        value_size: 512,
        get_ratio: 0.2,
        dup_prob: 0.05,
        pipeline: 1,
        ..Workload::default()
    }
}

fn check_all(sim: &Sim, tag: &str) {
    sim.check_invariants();
    sim.check_linearizability();
    sim.assert_exactly_once();
    let _ = tag;
}

/// On the durable machine, the leader's snapshot must partition into many
/// bounded chunks — peak single allocation tracks the chunk size, never the
/// keyspace.
fn check_chunk_bound(sim: &Sim, cluster: ClusterId, sm: SmKind) {
    use recraft::core::StateMachine as _;
    let leader = sim.leader_of(cluster).expect("leader");
    let node = sim.node(leader).expect("node");
    let machine = node.state_machine();
    let chunks = machine.snapshot_chunks(node.config().ranges());
    let total: usize = chunks.iter().map(bytes::Bytes::len).sum();
    match sm {
        SmKind::Durable => {
            let max = chunks.iter().map(bytes::Bytes::len).max().unwrap_or(0);
            assert!(
                max <= CHUNK_BOUND,
                "peak chunk {max} exceeds the {CHUNK_BOUND} bound (total {total})"
            );
            if total > 3 * CHUNK_BOUND {
                assert!(
                    chunks.len() > 3,
                    "a {total}-byte state must stream as several chunks"
                );
            }
        }
        SmKind::Mem => {
            // The whole-blob default: exactly one chunk (the baseline the
            // durable machine's bound is measured against).
            assert_eq!(chunks.len(), 1);
        }
    }
}

/// Split lifecycle: a loaded 6-node cluster splits into two subclusters;
/// both serve afterwards, the history linearizes, and every write applied
/// exactly once — on all four machine × backend combinations.
#[test]
fn split_lifecycle_across_all_combinations() {
    for (sm, backend) in combos() {
        let mut sim = sim_for(0x5117_0001, sm, backend);
        let src = ClusterId(1);
        sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
        sim.run_until_leader(src);
        sim.add_clients(3, workload());
        sim.run_for(2 * SEC);

        let leader = sim.leader_of(src).unwrap();
        let base = sim.node(leader).unwrap().config().clone();
        let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00000200").unwrap();
        let spec = SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), ids(1..=3), RangeSet::from(lo)).unwrap(),
                ClusterConfig::new(ClusterId(11), ids(4..=6), RangeSet::from(hi)).unwrap(),
            ],
            base.members(),
            base.ranges(),
        )
        .unwrap();
        sim.admin(src, AdminCmd::Split(spec));
        sim.run_until_pred(60 * SEC, |s| {
            s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
        });
        sim.run_for(3 * SEC);

        // Both halves serve their ranges after the split.
        let low = sim
            .execute_get(b"k00000001".to_vec())
            .expect("low half serves");
        let _ = low;
        sim.execute(
            b"k00000399".to_vec(),
            KvCmd::Put {
                key: b"k00000399".to_vec(),
                value: bytes::Bytes::from_static(b"post-split"),
            }
            .encode(),
        )
        .expect("high half serves");
        assert_eq!(
            sim.execute_get(b"k00000399".to_vec()).expect("read back"),
            Some(bytes::Bytes::from_static(b"post-split")),
            "[{sm:?}/{backend:?}]"
        );
        check_chunk_bound(&sim, ClusterId(11), sm);
        check_all(&sim, "split");
    }
}

/// Merge lifecycle: two loaded clusters merge through the 2PC + exchange;
/// the merged cluster serves the union keyspace.
#[test]
fn merge_lifecycle_across_all_combinations() {
    for (sm, backend) in combos() {
        let mut sim = sim_for(0x3E6E_0002, sm, backend);
        let (lo, hi) = KeyRange::full().split_at(b"k00000200").unwrap();
        sim.boot_cluster(ClusterId(10), &ids(1..=3), RangeSet::from(lo));
        sim.boot_cluster(ClusterId(11), &ids(4..=6), RangeSet::from(hi));
        sim.run_until_leader(ClusterId(10));
        sim.run_until_leader(ClusterId(11));
        sim.add_clients(3, workload());
        sim.run_for(2 * SEC);

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
        sim.run_until_pred(90 * SEC, |s| s.leader_of(ClusterId(20)).is_some());
        sim.run_for(3 * SEC);

        // The merged cluster owns both halves of the keyspace.
        for key in [b"k00000001".to_vec(), b"k00000399".to_vec()] {
            sim.execute(
                key.clone(),
                KvCmd::Put {
                    key: key.clone(),
                    value: bytes::Bytes::from_static(b"merged"),
                }
                .encode(),
            )
            .unwrap_or_else(|e| panic!("[{sm:?}/{backend:?}] merged write: {e}"));
        }
        check_chunk_bound(&sim, ClusterId(20), sm);
        check_all(&sim, "merge");
    }
}

/// Membership lifecycle: AddAndResize two joiners, then RemoveAndResize one
/// original member, under client load.
#[test]
fn membership_lifecycle_across_all_combinations() {
    for (sm, backend) in combos() {
        let mut sim = sim_for(0xADD1_0003, sm, backend);
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
        sim.run_until_leader(cluster);
        sim.boot_joiner(NodeId(4));
        sim.boot_joiner(NodeId(5));
        sim.add_clients(2, workload());
        sim.run_for(SEC);

        let add = sim.admin(
            cluster,
            AdminCmd::AddAndResize([NodeId(4), NodeId(5)].into_iter().collect()),
        );
        sim.run_until_pred(60 * SEC, |s| s.admin_completed_at(add).is_some());
        sim.run_for(2 * SEC);
        let remove = sim.admin(
            cluster,
            AdminCmd::RemoveAndResize([NodeId(2)].into_iter().collect()),
        );
        sim.run_until_pred(60 * SEC, |s| s.admin_completed_at(remove).is_some());
        sim.run_for(3 * SEC);

        let leader = sim.leader_of(cluster).expect("leader after changes");
        let cfg = sim.node(leader).unwrap().config();
        assert_eq!(cfg.members().len(), 4, "[{sm:?}/{backend:?}] 3 + 2 - 1");
        assert!(!cfg.members().contains(&NodeId(2)));
        check_all(&sim, "membership");
    }
}

/// Crash-recovery lifecycle: a rolling power-cut/reboot storm under load —
/// the durable machine recovers through its own segment files where the
/// backend allows, and every combination converges to one linearizable
/// history with exactly-once applies.
#[test]
fn crash_recovery_lifecycle_across_all_combinations() {
    for (sm, backend) in combos() {
        let mut sim = sim_for(0x50AC_0004, sm, backend);
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(1..=5), RangeSet::full());
        sim.run_until_leader(cluster);
        sim.add_clients(3, workload());
        sim.run_for(SEC);

        for (i, node) in ids(1..=5).into_iter().enumerate() {
            let at = sim.time() + (i as u64) * 2 * SEC;
            sim.schedule_action(at, Action::PowerCut(node));
            sim.schedule_action(at + 3 * SEC / 2, Action::RebootFromDisk(node));
        }
        sim.run_for(11 * SEC);
        sim.run_until_leader(cluster);
        sim.run_for(2 * SEC);

        assert!(
            sim.completed_ops() > 100,
            "[{sm:?}/{backend:?}] traffic flowed through the storm"
        );
        // Every rebooted node converged back to the cluster's prefix.
        let max_applied = sim.nodes().map(|n| n.applied_index().0).max().unwrap();
        for node in sim.nodes() {
            assert!(
                node.applied_index().0 + 64 > max_applied,
                "[{sm:?}/{backend:?}] node {} stuck at {} (cluster at {max_applied})",
                node.id(),
                node.applied_index()
            );
        }
        check_all(&sim, "crash");
    }
}

/// Reopen-equivalence: under identical seeds and schedules, the durable
/// machine's post-storm state matches the in-memory machine's key for key —
/// the two machines are observationally the same state machine.
#[test]
fn durable_state_matches_mem_state_under_identical_seeds() {
    for backend in [Backend::Mem, Backend::Wal] {
        let mut values: Vec<Vec<(u64, Option<bytes::Bytes>)>> = Vec::new();
        for sm in [SmKind::Mem, SmKind::Durable] {
            let mut sim = sim_for(0xE0_0005, sm, backend);
            let cluster = ClusterId(1);
            sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
            sim.run_until_leader(cluster);
            // A deterministic script (no closed-loop randomness): the same
            // writes, a mid-script power-cut/reboot of a follower, and the
            // same reads.
            for i in 0..60u64 {
                let key = format!("k{:08}", i % 20).into_bytes();
                sim.execute(
                    key.clone(),
                    KvCmd::Put {
                        key,
                        value: bytes::Bytes::from(format!("v{i}")),
                    }
                    .encode(),
                )
                .expect("scripted write");
                if i == 30 {
                    let leader = sim.leader_of(cluster).unwrap();
                    let victim = ids(1..=3).into_iter().find(|n| *n != leader).unwrap();
                    sim.power_cut(victim);
                    sim.run_for(SEC);
                    sim.reboot(victim);
                    sim.run_for(SEC);
                }
            }
            sim.run_for(2 * SEC);
            let mut got = Vec::new();
            for i in 0..20u64 {
                let key = format!("k{i:08}").into_bytes();
                got.push((i, sim.execute_get(key).expect("scripted read")));
            }
            check_all(&sim, "equivalence");
            values.push(got);
        }
        assert_eq!(
            values[0], values[1],
            "mem and durable machines diverged on {backend:?}"
        );
    }
}
