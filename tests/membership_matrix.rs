//! Membership-change matrix: every transition between the practical cluster
//! sizes 2..=5 through ReCraft's Add/RemoveAndResize, checked live against
//! the analytic plan of §IV (step counts, intermediate quorums, final
//! majority quorums).

use recraft::core::votes::Plan;
use recraft::core::NodeEvent;
use recraft::net::AdminCmd;
use recraft::sim::{Sim, SimConfig, Workload};
use recraft::types::{ClusterId, NodeId, RangeSet};
use std::collections::{BTreeMap, BTreeSet};

const SEC: u64 = 1_000_000;
const CLUSTER: ClusterId = ClusterId(1);

fn setup(n_old: u64, n_max: u64, seed: u64) -> Sim {
    let mut sim = Sim::new(SimConfig::with_seed(seed));
    let boot: Vec<NodeId> = (1..=n_old).map(NodeId).collect();
    sim.boot_cluster(CLUSTER, &boot, RangeSet::full());
    // Pre-boot potential joiners (configuration-less until contacted).
    for id in n_old + 1..=n_max {
        sim.boot_joiner(NodeId(id));
    }
    sim.run_until_leader(CLUSTER);
    sim.run_for(SEC);
    sim
}

fn settled(sim: &Sim, members: u64) -> bool {
    sim.leader_of(CLUSTER).is_some_and(|l| {
        let n = sim.node(l).unwrap();
        n.config().members().len() == members as usize
            && n.config().quorum_size() == recraft::types::config::majority(members as usize)
            && n.derived().last_config_index.is_none()
    })
}

/// Runs the transition and returns the quorum sizes of every committed
/// resize step (observed on the leader).
fn run_transition(n_old: u64, n_new: u64) -> Vec<usize> {
    let mut sim = setup(n_old, n_old.max(n_new), 0x3311 + n_old * 16 + n_new);
    if n_new > n_old {
        let add: BTreeSet<NodeId> = (n_old + 1..=n_new).map(NodeId).collect();
        sim.admin(CLUSTER, AdminCmd::AddAndResize(add));
        sim.run_until_pred(30 * SEC, |s| settled(s, n_new));
    } else {
        let mut current = n_old;
        while current > n_new {
            let q_old = recraft::types::config::majority(current as usize) as u64;
            let r = (q_old - 1).min(current - n_new);
            let remove: BTreeSet<NodeId> = (current - r + 1..=current).map(NodeId).collect();
            sim.admin(CLUSTER, AdminCmd::RemoveAndResize(remove));
            current -= r;
            let c = current;
            sim.run_until_pred(30 * SEC, |s| settled(s, c));
        }
    }
    sim.check_invariants();
    // Collect the observed resize quorums from any node that survived to the
    // final configuration (leaders may have changed; every survivor folds
    // the same committed sequence).
    let survivor = sim.leader_of(CLUSTER).unwrap();
    sim.trace()
        .iter()
        .filter_map(|(_, node, ev)| match ev {
            NodeEvent::MembershipCommitted {
                kind: "resize",
                quorum,
                ..
            } if *node == survivor => Some(*quorum),
            _ => None,
        })
        .collect()
}

#[test]
fn matrix_2_to_5_matches_analytic_plan() {
    for n_old in 2u64..=5 {
        for n_new in 2u64..=5 {
            if n_old == n_new {
                continue;
            }
            let plan = Plan::new(n_old as usize, n_new as usize);
            let observed = run_transition(n_old, n_new);
            let expected: Vec<usize> = plan.stages.iter().map(|s| s.quorum).collect();
            assert_eq!(
                observed, expected,
                "{n_old}->{n_new}: observed quorums {observed:?}, plan {expected:?}"
            );
        }
    }
}

#[test]
fn grow_2_to_9_single_add() {
    // AddAndResize accepts an unbounded number of nodes in one step.
    let mut sim = setup(2, 9, 0x2909);
    let add: BTreeSet<NodeId> = (3..=9).map(NodeId).collect();
    sim.admin(CLUSTER, AdminCmd::AddAndResize(add));
    sim.run_until_pred(40 * SEC, |s| settled(s, 9));
    // Q_new-q = 9 - 2 + 1 = 8 must have been in force before the majority 5.
    let survivor = sim.leader_of(CLUSTER).unwrap();
    let quorums: Vec<usize> = sim
        .trace()
        .iter()
        .filter_map(|(_, node, ev)| match ev {
            NodeEvent::MembershipCommitted {
                kind: "resize",
                quorum,
                ..
            } if *node == survivor => Some(*quorum),
            _ => None,
        })
        .collect();
    assert_eq!(quorums, vec![8, 5]);
    sim.check_invariants();
}

#[test]
fn removal_beyond_cap_is_rejected_not_wedged() {
    let mut sim = setup(5, 5, 0x5CAB);
    let remove: BTreeSet<NodeId> = (3..=5).map(NodeId).collect(); // r = 3 = Q_old
    let req = sim.admin(CLUSTER, AdminCmd::RemoveAndResize(remove));
    sim.run_for(2 * SEC);
    assert!(
        sim.admin_failure(req).is_some(),
        "r >= Q_old must be rejected under P2'"
    );
    // The cluster is still fully functional.
    sim.add_clients(2, recraft::sim::Workload::default());
    sim.run_for(2 * SEC);
    assert!(sim.completed_ops() > 100);
    sim.check_invariants();
}

/// Removing the leader strands no client. The retired leader answers
/// `WrongRange` for the cluster it left; the clients drop it as their hint
/// and, once the directory lists the four members that remain, route to the
/// new leader. A client that keeps a hint for any node the simulator still
/// hosts completes nothing here.
#[test]
fn clients_follow_a_removed_leader_to_its_successor() {
    for seed in 1..=5 {
        let mut sim = setup(5, 5, seed);
        sim.add_clients(4, Workload::default());
        sim.run_for(SEC);
        let old = sim.leader_of(CLUSTER).unwrap();
        sim.admin(CLUSTER, AdminCmd::RemoveAndResize(BTreeSet::from([old])));
        sim.run_until_pred(30 * SEC, |s| {
            settled(s, 4) && s.leader_of(CLUSTER).is_some_and(|l| l != old)
        });
        let before = sim.completed_ops();
        sim.run_for(5 * SEC);
        let served = sim.completed_ops() - before;
        assert!(
            served >= 100,
            "seed {seed}: {served} operations in the 5 s after the successor settled"
        );
        sim.check_invariants();
        sim.check_linearizability();
        sim.assert_exactly_once();
    }
}

/// The leader that commits its own removal answers every request still
/// waiting on it as it retires, so its clients re-route at once instead of
/// waiting out their resend timers: across 40 seeds no client goes a
/// second between two completions.
#[test]
fn a_removed_leaders_clients_never_wait_out_their_timers() {
    for seed in 1..=40 {
        let mut sim = setup(5, 5, seed);
        sim.add_clients(4, Workload::default());
        sim.run_for(SEC);
        let old = sim.leader_of(CLUSTER).unwrap();
        sim.admin(CLUSTER, AdminCmd::RemoveAndResize(BTreeSet::from([old])));
        sim.run_until_pred(30 * SEC, |s| {
            settled(s, 4) && s.leader_of(CLUSTER).is_some_and(|l| l != old)
        });
        sim.run_for(SEC);
        let mut done: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for op in sim.history() {
            if let Some(at) = op.responded_at {
                done.entry(op.id.0).or_default().push(at);
            }
        }
        for (client, mut at) in done {
            at.sort_unstable();
            at.push(sim.time());
            let gap = at.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            assert!(
                gap < SEC,
                "seed {seed}: client {client} waited {gap} us between completions"
            );
        }
        sim.check_linearizability();
        sim.assert_exactly_once();
    }
}

#[test]
fn baseline_joint_consensus_transition() {
    // The JC baseline reaches the same final configurations.
    let mut sim = setup(3, 5, 0x1C35);
    let target: BTreeSet<NodeId> = (1..=5).map(NodeId).collect();
    sim.admin(CLUSTER, AdminCmd::JointChange(target.clone()));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(CLUSTER)
            .is_some_and(|l| s.node(l).unwrap().config().members() == &target)
    });
    sim.check_invariants();
}
