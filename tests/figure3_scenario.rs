//! The paper's Figure 3, end to end: `Cold` splits three ways while the
//! message to `Csub.3` drops (steps a–c); `Csub.3` saves itself by pulling;
//! then `Csub.1` and `Csub.2` merge into `C'new` while `Csub.3` keeps
//! running independently (steps d–h).

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

#[test]
fn figure3_series_of_split_and_merge() {
    let mut sim = Sim::new(SimConfig::with_seed(0xF1633));
    let cold = ClusterId(1);
    sim.boot_cluster(cold, &ids(1..=9), RangeSet::full());
    sim.run_until_leader(cold);
    sim.add_clients(4, Workload::default());
    sim.run_for(2 * SEC);

    // --- (a-b) Split three ways; two of Csub.3's nodes are cut off before
    // the split starts, so they miss both split entries and the commit
    // notification.
    let leader = sim.leader_of(cold).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (r1, rest) = base.ranges().ranges()[0].split_at(b"k00003333").unwrap();
    let (r2, r3) = rest.split_at(b"k00006666").unwrap();
    // Put the leader in sub.1 so the split completes on its side.
    let mut members = ids(1..=9);
    members.retain(|n| *n != leader);
    let sub1: Vec<NodeId> = std::iter::once(leader)
        .chain(members[..2].iter().copied())
        .collect();
    let sub2: Vec<NodeId> = members[2..5].to_vec();
    let sub3: Vec<NodeId> = members[5..].to_vec();
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(11), sub1.clone(), RangeSet::from(r1)).unwrap(),
            ClusterConfig::new(ClusterId(12), sub2.clone(), RangeSet::from(r2)).unwrap(),
            ClusterConfig::new(ClusterId(13), sub3.clone(), RangeSet::from(r3)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    // Cut two of sub.3's nodes off (the joint entry can still commit with
    // 5 of 9; Cnew commits with sub.1's majority). The third, `holder`,
    // completes the split — and is the only node that will serve the missed
    // two, since everyone else's history records them as having left.
    let missed: Vec<NodeId> = sub3[..2].to_vec();
    let holder = sub3[2];
    let connected: Vec<NodeId> = ids(1..=9)
        .into_iter()
        .filter(|n| !missed.contains(n))
        .collect();
    sim.schedule_action(
        sim.time(),
        Action::Partition(vec![missed.clone(), connected]),
    );
    sim.admin(cold, AdminCmd::Split(spec));
    sim.run_until_pred(40 * SEC, |s| {
        s.leader_of(ClusterId(11)).is_some() && s.leader_of(ClusterId(12)).is_some()
    });
    // (c) Csub.3 is stuck in the old epoch...
    assert!(missed
        .iter()
        .all(|n| sim.node(*n).unwrap().current_eterm().epoch() == 0));
    // ...until the partition heals and it pulls itself into epoch 1. Who
    // reaches whom first must not be left to the seed's timers: were
    // `holder` to win an election first, it would hand the missed nodes
    // `Cnew` by plain replication. So heal just after `holder` campaigned
    // in vain (its next timeout is at least `election_timeout_min` away)
    // and have a missed node campaign at once: `holder` answers that vote
    // request with a pull hint, and the missed node pulls.
    sim.run_until_pred(10 * SEC, |s| {
        s.node(holder).unwrap().cluster() == ClusterId(13)
    });
    let eterm = sim.node(holder).unwrap().current_eterm();
    sim.run_until_pred(SEC, |s| s.node(holder).unwrap().current_eterm() > eterm);
    sim.schedule_action(sim.time(), Action::Heal);
    sim.campaign(missed[0]);
    sim.run_until_pred(90 * SEC, |s| {
        s.leader_of(ClusterId(13)).is_some()
            && missed
                .iter()
                .all(|n| s.node(*n).unwrap().current_eterm().epoch() == 1)
    });
    assert!(
        sim.trace()
            .iter()
            .any(|(_, _, e)| matches!(e, NodeEvent::PulledEntries { from, .. } if *from == holder)),
        "pull-based recovery was exercised"
    );
    sim.run_for(2 * SEC);

    // --- (d-h) Csub.1 and Csub.2 merge into C'new while Csub.3 runs on.
    let tx = MergeTx {
        id: TxId(42),
        coordinator: ClusterId(11),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(11),
                members: sub1.iter().copied().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(12),
                members: sub2.iter().copied().collect(),
            },
        ],
        new_cluster: ClusterId(21),
        resume_members: None,
    };
    let sub3_ops_before = sim.completed_ops();
    sim.admin(ClusterId(11), AdminCmd::Merge(tx));
    sim.run_until_pred(90 * SEC, |s| s.leader_of(ClusterId(21)).is_some());
    assert_eq!(sim.members_of(ClusterId(21)).len(), 6);
    // Csub.3 was never disturbed: still epoch 1, still serving.
    let l13 = sim.leader_of(ClusterId(13)).unwrap();
    assert_eq!(sim.node(l13).unwrap().current_eterm().epoch(), 1);
    // C'new is at epoch max(1,1)+1 = 2.
    let l21 = sim.leader_of(ClusterId(21)).unwrap();
    assert_eq!(sim.node(l21).unwrap().current_eterm().epoch(), 2);
    sim.run_for(3 * SEC);
    assert!(sim.completed_ops() > sub3_ops_before, "service continued");

    sim.check_invariants();
    sim.check_linearizability();
}

/// Figure 3 with *all* of `Csub.3` cut off before `Cjoint`: nobody in it
/// completes the split, and every sibling's split record lists only its
/// own subcluster as staying, so each refuses the missed members' pulls as
/// coming from removed nodes. Recovery would be serving a sibling up to
/// `Cnew` and no further; until then this fails — the subcluster stays at
/// epoch 0, its terms climbing, long after the heal.
#[test]
#[ignore = "known liveness gap: siblings refuse pulls from a subcluster that wholly missed the split"]
fn a_subcluster_that_wholly_missed_the_split_recovers_after_the_heal() {
    let mut sim = Sim::new(SimConfig::with_seed(0xF1634));
    let cold = ClusterId(1);
    sim.boot_cluster(cold, &ids(1..=9), RangeSet::full());
    sim.run_until_leader(cold);
    let leader = sim.leader_of(cold).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (r1, rest) = base.ranges().ranges()[0].split_at(b"k00003333").unwrap();
    let (r2, r3) = rest.split_at(b"k00006666").unwrap();
    let mut members = ids(1..=9);
    members.retain(|n| *n != leader);
    let sub1: Vec<NodeId> = std::iter::once(leader)
        .chain(members[..2].iter().copied())
        .collect();
    let sub2: Vec<NodeId> = members[2..5].to_vec();
    let sub3: Vec<NodeId> = members[5..].to_vec();
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(11), sub1, RangeSet::from(r1)).unwrap(),
            ClusterConfig::new(ClusterId(12), sub2, RangeSet::from(r2)).unwrap(),
            ClusterConfig::new(ClusterId(13), sub3.clone(), RangeSet::from(r3)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    let connected: Vec<NodeId> = ids(1..=9)
        .into_iter()
        .filter(|n| !sub3.contains(n))
        .collect();
    sim.schedule_action(sim.time(), Action::Partition(vec![sub3.clone(), connected]));
    sim.admin(cold, AdminCmd::Split(spec));
    sim.run_until_pred(40 * SEC, |s| {
        s.leader_of(ClusterId(11)).is_some() && s.leader_of(ClusterId(12)).is_some()
    });
    sim.schedule_action(sim.time(), Action::Heal);
    sim.run_until_pred(20 * SEC, |s| {
        s.leader_of(ClusterId(13)).is_some()
            && sub3
                .iter()
                .all(|n| s.node(*n).unwrap().current_eterm().epoch() == 1)
    });
    sim.check_invariants();
}
