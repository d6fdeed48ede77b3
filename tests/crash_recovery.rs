//! Crash–restart scenarios: nodes are power-cut at arbitrary write points
//! and rebooted through `Node::reopen` of what their stores kept (a torn WAL
//! directory, or a `MemLog` cut back to its sync watermark — both backends
//! run every scenario, which is exactly what the CI backend matrix
//! exercises).
//!
//! The assertions are the durable-substrate acceptance criteria: no
//! committed entry, session-table row, or in-flight reconfiguration step is
//! lost across split, merge, and membership-change crashes — witnessed by
//! the linearizability checker, the exactly-once contract, and the online
//! safety trackers.

use recraft::core::Role;
use recraft::net::AdminCmd;
use recraft::sim::{Action, Sim, SimConfig, Workload};
use recraft::types::{
    ClusterConfig, ClusterId, MergeParticipant, MergeTx, NodeId, RangeSet, SessionId, SplitSpec,
    TxId,
};
use std::collections::BTreeSet;

const SEC: u64 = 1_000_000;

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn workload() -> Workload {
    Workload {
        key_count: 100,
        value_size: 32,
        get_ratio: 0.2,
        dup_prob: 0.1,
        pipeline: 1,
        ..Workload::default()
    }
}

/// Dumps the sim trace for CI artifact upload, returning the path.
fn save_trace(sim: &Sim, name: &str) {
    let path = std::path::Path::new("target")
        .join("sim-traces")
        .join(format!("{name}.log"));
    sim.dump_trace(&path).expect("write trace");
}

fn check_all(sim: &Sim, name: &str) {
    save_trace(sim, name);
    sim.check_invariants();
    sim.check_linearizability();
    sim.assert_exactly_once();
}

/// A rolling storm of power-cuts and reboots over a cluster under client
/// load: every committed write survives, the history linearizes, and the
/// rebooted nodes converge back to the cluster state.
#[test]
fn committed_writes_survive_power_cut_storm() {
    let mut sim = Sim::new(SimConfig::with_seed(0xC4A5));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=5), RangeSet::full());
    sim.run_until_leader(cluster);
    sim.add_clients(3, workload());
    sim.run_for(2 * SEC);

    // Power-cut each node in turn at an arbitrary point mid-traffic and
    // reboot it from disk two virtual seconds later (quorum always holds).
    for (i, node) in ids(1..=5).into_iter().enumerate() {
        let at = sim.time() + (i as u64) * 3 * SEC;
        sim.schedule_action(at, Action::PowerCut(node));
        sim.schedule_action(at + 2 * SEC, Action::RebootFromDisk(node));
    }
    sim.run_for(18 * SEC);
    sim.run_until_leader(cluster);
    sim.run_for(3 * SEC);

    assert!(
        sim.completed_ops() > 200,
        "traffic flowed through the storm"
    );
    check_all(&sim, "power_cut_storm");

    // Every rebooted node converged back to the same applied prefix.
    let max_applied = sim.nodes().map(|n| n.applied_index().0).max().unwrap();
    for node in sim.nodes() {
        assert!(
            node.applied_index().0 + 64 > max_applied,
            "node {} stuck at {} (cluster at {max_applied})",
            node.id(),
            node.applied_index()
        );
    }
}

/// The leader itself is power-cut mid-write; its acknowledged writes are in
/// a quorum and survive, its torn unacknowledged tail is discarded, and its
/// session table rows come back from its own disk.
#[test]
fn leader_power_cut_preserves_sessions_and_commits() {
    let mut sim = Sim::new(SimConfig::with_seed(0x1EAD));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(cluster);

    // Exactly-once session writes through the one-shot path.
    for i in 0..20 {
        sim.execute(
            format!("k{i:02}").into_bytes(),
            recraft::kv::KvCmd::Put {
                key: format!("k{i:02}").into_bytes(),
                value: bytes::Bytes::from(format!("v{i}")),
            }
            .encode(),
        )
        .expect("write completes");
    }
    let leader = sim.leader_of(cluster).unwrap();
    sim.power_cut(leader);
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(cluster).is_some_and(|l| l != leader)
    });
    sim.reboot(leader);
    sim.run_for(5 * SEC);

    // The rebooted ex-leader rejoined and holds the whole history again,
    // including the session dedup table (it rides in the applied state).
    let node = sim.node(leader).unwrap();
    assert!(node.applied_index().0 >= 20, "caught back up");
    assert!(
        node.sessions().last_seq(SessionId(0xF_0000_0000)).is_some(),
        "session table recovered on the rebooted node"
    );
    // A replayed duplicate of an already-applied write is still deduplicated
    // by the recovered table (assert_exactly_once would trip otherwise).
    check_all(&sim, "leader_power_cut");
}

/// ROADMAP item 4b: a steady-traffic reboot on the durable machine trusts
/// the image it recovered from its own segments — tagged with this node's
/// lineage and watermarked at a flushed applied index — and replays only
/// the log suffix past the watermark, instead of re-installing the whole
/// consensus snapshot (an O(keyspace) rewrite). `restore_count() == 0`
/// witnesses the skip; the linearizability and exactly-once checks witness
/// that the suffix replay (including its session-table reconstruction)
/// is indistinguishable from the full restore.
#[test]
fn durable_reboot_replays_only_the_log_suffix() {
    let mut cfg = SimConfig::with_seed(0x0DE7)
        .with_backend(recraft::sim::Backend::Wal)
        .with_machine(recraft::sim::SmKind::Durable);
    // Keep log compaction out of the window: a compaction would raise the
    // commit floor past the machine's flush watermark and (correctly, but
    // not what this test pins) force the snapshot fallback.
    cfg.timing.compaction_threshold = 1 << 20;
    let mut sim = Sim::new(cfg);
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(cluster);
    // Large values push the durable machine past its memtable threshold so
    // a flush advances the watermark past zero: the reboot then genuinely
    // splices "recovered image at w" + "log suffix past w".
    sim.add_clients(
        2,
        Workload {
            key_count: 100,
            value_size: 4096,
            get_ratio: 0.1,
            dup_prob: 0.1,
            ..Workload::default()
        },
    );
    sim.run_for(3 * SEC);
    let victim = NodeId(2);
    sim.power_cut(victim);
    sim.run_for(SEC);
    sim.reboot(victim);
    sim.run_for(3 * SEC);

    let node = sim.node(victim).unwrap();
    let watermark = node
        .state_machine()
        .as_durable()
        .expect("durable machine")
        .watermark();
    assert!(
        watermark.0 > 0,
        "the scenario must exercise a flushed image, not an empty store"
    );
    assert_eq!(
        node.state_machine().restore_count(),
        0,
        "steady-traffic reboot must not re-install the snapshot"
    );
    // The rebooted node converges back to the cluster's applied prefix.
    let max_applied = sim.nodes().map(|n| n.applied_index().0).max().unwrap();
    assert!(
        node.applied_index().0 + 64 > max_applied,
        "rebooted node caught up ({} vs {max_applied})",
        node.applied_index()
    );
    check_all(&sim, "odelta_reboot");
}

/// The §V reconfiguration history must survive a reboot: it rides in the
/// node metadata, which every backend hands back to `Node::reopen`.
#[test]
fn reconfig_history_survives_reboot() {
    let mut sim = Sim::new(SimConfig::with_seed(0x9157));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=4), RangeSet::full());
    sim.run_until_leader(cluster);
    // A RemoveAndResize (§IV-A) writes a "resize" record on every member.
    let req = sim.admin(
        cluster,
        AdminCmd::RemoveAndResize([NodeId(4)].into_iter().collect()),
    );
    sim.run_until_pred(30 * SEC, |s| s.admin_completed_at(req).is_some());
    sim.run_for(2 * SEC);
    let survivor = NodeId(1);
    assert!(
        sim.node(survivor)
            .unwrap()
            .history()
            .iter()
            .any(|r| r.kind == "resize"),
        "history recorded before the crash"
    );
    sim.power_cut(survivor);
    sim.reboot(survivor);
    sim.run_until_leader(cluster);
    sim.run_for(2 * SEC);
    let history = sim.node(survivor).unwrap().history();
    assert!(
        history.iter().any(|r| r.kind == "resize"),
        "reconfiguration history survives the reboot, got {history:?}"
    );
    check_all(&sim, "reconfig_history_reboot");
}

/// Retirement is durable: a node a `RemoveAndResize` left out reboots
/// retired, instead of as a follower of the configuration it was removed
/// from — which would report that cluster's old member set to samplers.
#[test]
fn a_retired_node_reboots_retired() {
    let mut sim = Sim::new(SimConfig::with_seed(0x9158));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=4), RangeSet::full());
    sim.run_until_leader(cluster);
    let req = sim.admin(
        cluster,
        AdminCmd::RemoveAndResize([NodeId(4)].into_iter().collect()),
    );
    sim.run_until_pred(30 * SEC, |s| s.admin_completed_at(req).is_some());
    sim.run_until_pred(10 * SEC, |s| {
        s.node(NodeId(4)).unwrap().role() == Role::Removed
    });
    sim.power_cut(NodeId(4));
    sim.reboot(NodeId(4));
    sim.run_for(5 * SEC);
    let node = sim.node(NodeId(4)).unwrap();
    assert_eq!(node.role(), Role::Removed);
    assert!(node.stats().members.is_empty());
    check_all(&sim, "retired_reboot");
}

fn two_way_spec(sim: &Sim, src: ClusterId) -> SplitSpec {
    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00000050").unwrap();
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

/// A node is power-cut while a split is in flight and reboots mid-protocol:
/// the Cjoint/Cnew steps on its disk put it back into the split, which then
/// completes on all six nodes.
#[test]
fn split_completes_across_a_mid_split_crash() {
    let mut sim = Sim::new(SimConfig::with_seed(0x5711));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(2, workload());
    sim.run_for(SEC);

    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    // Crash one node of each planned subcluster immediately after the split
    // starts — an arbitrary point inside the reconfiguration window.
    let at = sim.time() + SEC / 4;
    sim.schedule_action(at, Action::PowerCut(NodeId(2)));
    sim.schedule_action(at + SEC / 8, Action::PowerCut(NodeId(5)));
    sim.schedule_action(at + 3 * SEC, Action::RebootFromDisk(NodeId(2)));
    sim.schedule_action(at + 3 * SEC, Action::RebootFromDisk(NodeId(5)));

    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    sim.run_for(5 * SEC);

    // The rebooted nodes ended up in their planned subclusters.
    assert_eq!(sim.node(NodeId(2)).unwrap().cluster(), ClusterId(10));
    assert_eq!(sim.node(NodeId(5)).unwrap().cluster(), ClusterId(11));
    check_all(&sim, "mid_split_crash");
}

/// A participant node is power-cut during a merge (2PC + data exchange) and
/// reboots from disk: the merged cluster resumes and rescues the straggler.
#[test]
fn merge_completes_across_a_mid_merge_crash() {
    let mut sim = Sim::new(SimConfig::with_seed(0x3E6E));
    let (lo, hi) = recraft::types::KeyRange::full().split_at(b"m").unwrap();
    sim.boot_cluster(ClusterId(10), &ids(1..=3), RangeSet::from(lo));
    sim.boot_cluster(ClusterId(11), &ids(4..=6), RangeSet::from(hi));
    sim.run_until_leader(ClusterId(10));
    sim.run_until_leader(ClusterId(11));
    sim.run_for(SEC);

    let tx = MergeTx {
        id: TxId(9),
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
    let at = sim.time() + SEC / 3;
    sim.schedule_action(at, Action::PowerCut(NodeId(4)));
    sim.schedule_action(at + 4 * SEC, Action::RebootFromDisk(NodeId(4)));

    sim.run_until_pred(90 * SEC, |s| s.leader_of(ClusterId(20)).is_some());
    // The rebooted straggler is rescued into the merged cluster.
    sim.run_until_pred(60 * SEC, |s| {
        s.node(NodeId(4))
            .is_some_and(|n| n.cluster() == ClusterId(20))
    });
    check_all(&sim, "mid_merge_crash");
}

/// A member is power-cut during an AddAndResize membership change; after its
/// reboot the fold has happened everywhere and the new member serves.
#[test]
fn membership_change_completes_across_a_crash() {
    let mut sim = Sim::new(SimConfig::with_seed(0xADD1));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(cluster);
    sim.boot_joiner(NodeId(4));
    sim.boot_joiner(NodeId(5));

    let add: BTreeSet<NodeId> = [NodeId(4), NodeId(5)].into_iter().collect();
    let req = sim.admin(cluster, AdminCmd::AddAndResize(add));
    let at = sim.time() + SEC / 5;
    sim.schedule_action(at, Action::PowerCut(NodeId(2)));
    sim.schedule_action(at + 2 * SEC, Action::RebootFromDisk(NodeId(2)));
    sim.run_until_pred(60 * SEC, |s| s.admin_completed_at(req).is_some());
    sim.run_for(10 * SEC);

    // Every live node folded to the 5-member majority-quorum config,
    // including the one that crashed mid-change.
    for node in sim.nodes() {
        let cfg = node.config();
        assert_eq!(cfg.members().len(), 5, "node {} folded", node.id());
        assert_eq!(cfg.quorum_size(), 3, "quorum resized back to majority");
    }
    check_all(&sim, "mid_membership_crash");
}

/// The CI soak: a fixed seed set of longer crash storms (run explicitly by
/// the crash-recovery job; `--ignored` keeps it out of the default suite).
#[test]
#[ignore = "CI soak job (run with --ignored)"]
fn crash_soak_fixed_seeds() {
    for seed in [0x50AC_0001u64, 0x50AC_0002, 0x50AC_0003, 0x50AC_0004] {
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(1..=5), RangeSet::full());
        sim.run_until_leader(cluster);
        sim.add_clients(3, workload());
        sim.run_for(SEC);
        // Ten staggered power-cut/reboot rounds across the member set.
        for round in 0u64..10 {
            let node = NodeId(1 + (seed.wrapping_add(round) % 5));
            let at = sim.time() + round * 2 * SEC;
            sim.schedule_action(at, Action::PowerCut(node));
            sim.schedule_action(at + 3 * SEC / 2, Action::RebootFromDisk(node));
        }
        sim.run_for(22 * SEC);
        sim.run_until_leader(cluster);
        sim.run_for(2 * SEC);
        assert!(sim.completed_ops() > 100, "seed {seed:#x}: traffic flowed");
        check_all(&sim, &format!("soak_{seed:x}"));
    }
}
