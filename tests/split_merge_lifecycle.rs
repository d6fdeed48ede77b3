//! Cross-crate integration: the full life of a sharded deployment —
//! boot → load → split → independent service → merge → resume — with
//! continuous safety and linearizability verification.

use recraft::core::NodeEvent;
use recraft::net::AdminCmd;
use recraft::sim::{Action, Sim, SimConfig, Workload};
use recraft::types::{
    ClusterConfig, ClusterId, MergeParticipant, MergeTx, NodeId, RangeSet, SplitSpec, TxId,
};

const SEC: u64 = 1_000_000;

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn two_way_spec(sim: &Sim, src: ClusterId) -> SplitSpec {
    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00005000").unwrap();
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

#[test]
fn full_lifecycle_split_then_merge() {
    let mut sim = Sim::new(SimConfig::with_seed(0x11FE));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(8, Workload::default());
    sim.run_for(3 * SEC);
    let ops_single = sim.completed_ops();
    assert!(ops_single > 500, "baseline traffic flows");

    // Split.
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    // Epochs bumped everywhere; cluster ids disjoint.
    for n in sim.nodes() {
        assert_eq!(n.current_eterm().epoch(), 1, "{} epoch", n.id());
        assert!(
            n.cluster() == ClusterId(10) || n.cluster() == ClusterId(11),
            "{} cluster",
            n.id()
        );
    }
    sim.run_for(3 * SEC);

    // Merge back.
    let tx = merge_back(ClusterId(11));
    sim.admin(ClusterId(11), AdminCmd::Merge(tx));
    // (The merged cluster can lead before its last member has resumed.)
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(20)).is_some() && s.members_of(ClusterId(20)).len() == 6
    });
    // Epoch is max + 1 = 2; all six nodes serve the merged cluster.
    assert_eq!(sim.members_of(ClusterId(20)).len(), 6);
    let leader = sim.leader_of(ClusterId(20)).unwrap();
    assert_eq!(sim.node(leader).unwrap().current_eterm().epoch(), 2);
    // The merged cluster serves the full keyspace.
    sim.run_for(3 * SEC);
    assert!(
        sim.completed_ops() > ops_single,
        "traffic resumed after merge"
    );

    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn merge_with_resumption_resize() {
    // §III-C2 "Resizing the Merged Cluster": resume with only one whole
    // subcluster's members.
    let mut sim = Sim::new(SimConfig::with_seed(0x11FF));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(2, Workload::default());
    sim.run_for(2 * SEC);
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    sim.run_for(SEC);

    let tx = MergeTx {
        id: TxId(10),
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
        // Keep only subcluster 10's members — a valid resumption subset.
        resume_members: Some(ids(1..=3).into_iter().collect()),
    };
    sim.admin(ClusterId(10), AdminCmd::Merge(tx));
    sim.run_until_pred(60 * SEC, |s| s.leader_of(ClusterId(20)).is_some());
    let members = sim.members_of(ClusterId(20));
    assert_eq!(members.len(), 3, "resumed with one subcluster: {members:?}");
    assert!(members.iter().all(|n| n.0 <= 3));
    // Nodes 4..6 retired but the merged cluster holds ALL the data.
    let leader = sim.leader_of(ClusterId(20)).unwrap();
    assert_eq!(
        sim.node(leader).unwrap().config().ranges(),
        &RangeSet::full()
    );
    sim.run_for(2 * SEC);
    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn three_way_split_and_three_way_merge() {
    // "do not allow three or more clusters split/merge" is a TC limitation
    // the paper calls out — ReCraft does both natively.
    let mut sim = Sim::new(SimConfig::with_seed(0x3A3));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=9), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(4, Workload::default());
    sim.run_for(2 * SEC);

    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, rest) = base.ranges().ranges()[0].split_at(b"k00003333").unwrap();
    let (mid, hi) = rest.split_at(b"k00006666").unwrap();
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), ids(1..=3), RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), ids(4..=6), RangeSet::from(mid)).unwrap(),
            ClusterConfig::new(ClusterId(12), ids(7..=9), RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(40 * SEC, |s| {
        [10, 11, 12]
            .iter()
            .all(|c| s.leader_of(ClusterId(*c)).is_some())
    });
    sim.run_for(2 * SEC);

    // Merge all three back at once.
    let tx = MergeTx {
        id: TxId(30),
        coordinator: ClusterId(11),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(10),
                members: ids(1..=3).into_iter().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(11),
                members: ids(4..=6).into_iter().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(12),
                members: ids(7..=9).into_iter().collect(),
            },
        ],
        new_cluster: ClusterId(21),
        resume_members: None,
    };
    sim.admin(ClusterId(11), AdminCmd::Merge(tx));
    sim.run_until_pred(90 * SEC, |s| {
        s.leader_of(ClusterId(21)).is_some() && s.members_of(ClusterId(21)).len() == 9
    });
    assert_eq!(sim.members_of(ClusterId(21)).len(), 9);
    sim.run_for(2 * SEC);
    sim.check_invariants();
    sim.check_linearizability();
}

/// A six-node cluster led by `leader`.
fn six_nodes_led_by(cfg: SimConfig, leader: NodeId) -> Sim {
    let mut sim = Sim::new(cfg);
    sim.boot_cluster(ClusterId(1), &ids(1..=6), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    sim.campaign(leader);
    sim.run_until_pred(10 * SEC, |s| s.leader_of(ClusterId(1)) == Some(leader));
    sim
}

fn merge_back(coordinator: ClusterId) -> MergeTx {
    MergeTx {
        id: TxId(9),
        coordinator,
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
    }
}

/// Virtual time from the first event matching `from` to `cluster`'s first
/// leader.
fn time_to_lead(sim: &Sim, cluster: ClusterId, from: impl Fn(&NodeEvent) -> bool) -> u64 {
    let start = sim.first_event(from).expect("the step completed");
    let led = sim
        .first_event(|e| matches!(e, NodeEvent::BecameLeader { cluster: c, .. } if *c == cluster))
        .expect("the cluster led");
    led.saturating_sub(start)
}

#[test]
fn successor_leads_within_a_heartbeat_of_the_step_that_needs_one() {
    // Neither a child the old leader is not in nor a merged cluster waits
    // out an election timer (150–300 ms): the designated node campaigns on
    // its first tick. (Zero delay, so no closed-loop clients: they would
    // spin. The partition scenario below carries the load.)
    let zero_delay = SimConfig {
        latency_min: 0,
        latency_max: 0,
        proc_time: 0,
        ..SimConfig::with_seed(0x5CC1)
    };
    let mut sim = six_nodes_led_by(zero_delay, NodeId(2));
    let heartbeat = sim.config().timing.heartbeat_interval;

    let spec = two_way_spec(&sim, ClusterId(1));
    sim.admin(ClusterId(1), AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    let child = time_to_lead(
        &sim,
        ClusterId(11),
        |e| matches!(e, NodeEvent::SplitCompleted { new_cluster, .. } if *new_cluster == ClusterId(11)),
    );
    assert!(child <= heartbeat, "leaderless child led after {child} us");
    assert_eq!(
        sim.leader_of(ClusterId(11)),
        Some(NodeId(4)),
        "its smallest id"
    );
    sim.run_for(SEC);

    let coordinator_leader = sim.leader_of(ClusterId(11)).unwrap();
    sim.admin(ClusterId(11), AdminCmd::Merge(merge_back(ClusterId(11))));
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(20)).is_some() && s.members_of(ClusterId(20)).len() == 6
    });
    let merged = time_to_lead(&sim, ClusterId(20), |e| {
        matches!(e, NodeEvent::MergeResumed { .. })
    });
    assert!(merged <= heartbeat, "merged cluster led after {merged} us");
    assert_eq!(sim.leader_of(ClusterId(20)), Some(coordinator_leader));

    sim.run_for(2 * SEC);
    sim.check_invariants();
}

#[test]
fn ordinary_timers_elect_when_the_designated_campaigner_is_cut_off() {
    let mut sim = six_nodes_led_by(SimConfig::with_seed(0x5CC2), NodeId(2));
    sim.add_clients(4, Workload::default());
    sim.run_for(SEC);

    // Node 4 would campaign for child 11; it never hears of the split.
    sim.schedule_action(
        sim.time(),
        Action::Partition(vec![ids(4..=4), [ids(1..=3), ids(5..=6)].concat()]),
    );
    let spec = two_way_spec(&sim, ClusterId(1));
    sim.admin(ClusterId(1), AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    assert_ne!(sim.leader_of(ClusterId(11)), Some(NodeId(4)));
    sim.schedule_action(sim.time(), Action::Heal);
    sim.run_until_pred(30 * SEC, |s| s.members_of(ClusterId(11)).len() == 3);
    sim.run_for(SEC);

    // The coordinator's leader would campaign for the merged cluster; it is
    // cut off the moment it has resumed.
    let campaigner = sim.leader_of(ClusterId(11)).unwrap();
    sim.admin(ClusterId(11), AdminCmd::Merge(merge_back(ClusterId(11))));
    sim.run_until_pred(60 * SEC, |s| {
        s.node(campaigner).unwrap().cluster() == ClusterId(20)
    });
    let rest: Vec<NodeId> = ids(1..=6)
        .into_iter()
        .filter(|n| *n != campaigner)
        .collect();
    sim.schedule_action(sim.time(), Action::Partition(vec![vec![campaigner], rest]));
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(20)).is_some_and(|l| l != campaigner)
            && s.members_of(ClusterId(20)).len() == 6
    });
    sim.schedule_action(sim.time(), Action::Heal);
    sim.run_for(3 * SEC);
    assert!(sim.leader_of(ClusterId(20)).is_some());

    sim.check_invariants();
    sim.check_linearizability();
}
