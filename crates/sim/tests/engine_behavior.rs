//! Engine-level behaviors: admin retries, the naming-service directory,
//! joiner bootstrap, and fault-model bookkeeping.

use recraft_net::AdminCmd;
use recraft_sim::{Action, Sim, SimConfig, Workload};
use recraft_types::{ClusterId, NodeId, RangeSet};
use std::collections::BTreeSet;

const SEC: u64 = 1_000_000;

fn ids(v: &[u64]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

#[test]
fn admin_requests_retry_across_leader_changes() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAD1));
    sim.boot_cluster(ClusterId(1), &ids(&[1, 2, 3]), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    let leader = sim.leader_of(ClusterId(1)).unwrap();
    // Crash the leader and immediately issue an admin command: the retry
    // loop must find the next leader and land the command.
    sim.schedule_action(sim.time(), Action::Crash(leader));
    let req = sim.admin(ClusterId(1), AdminCmd::ProposeNoop);
    sim.run_until_pred(20 * SEC, |s| s.admin_completed_at(req).is_some());
    assert!(sim.admin_completed_at(req).is_some());
    sim.check_invariants();
}

#[test]
fn permanently_invalid_admin_is_reported_not_retried_forever() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAD2));
    sim.boot_cluster(ClusterId(1), &ids(&[1, 2, 3]), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    // Adding an existing member is a permanent validation error.
    let req = sim.admin(
        ClusterId(1),
        AdminCmd::AddAndResize(BTreeSet::from([NodeId(1)])),
    );
    sim.run_for(3 * SEC);
    assert!(sim.admin_failure(req).is_some());
    assert!(sim.admin_completed_at(req).is_none());
}

#[test]
fn directory_tracks_membership_changes() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAD3));
    sim.boot_cluster(ClusterId(1), &ids(&[1, 2, 3]), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    sim.run_for(SEC);
    assert_eq!(
        sim.directory().members(ClusterId(1)).map(BTreeSet::len),
        Some(3)
    );
    sim.boot_joiner(NodeId(4));
    sim.admin(
        ClusterId(1),
        AdminCmd::AddAndResize(BTreeSet::from([NodeId(4)])),
    );
    sim.run_until_pred(20 * SEC, |s| {
        s.directory().members(ClusterId(1)).map(BTreeSet::len) == Some(4)
    });
    // Lookup routes any key to the (only) cluster.
    assert_eq!(sim.directory().lookup(b"anything").unwrap().0, ClusterId(1));
}

#[test]
fn joiner_stays_quiet_without_contact() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAD4));
    sim.boot_joiner(NodeId(9));
    sim.run_for(10 * SEC);
    let n = sim.node(NodeId(9)).unwrap();
    assert_eq!(n.current_eterm(), recraft_types::EpochTerm::ZERO);
    assert!(!n.is_leader());
}

#[test]
fn drop_probability_drops_messages_but_not_safety() {
    let mut sim = Sim::new(SimConfig {
        drop_prob: 0.05,
        // Short client timeout so an op lost to a drop is abandoned quickly.
        client_timeout: 200_000,
        ..SimConfig::with_seed(0xAD5)
    });
    sim.boot_cluster(ClusterId(1), &ids(&[1, 2, 3]), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    sim.add_clients(4, Workload::default());
    sim.run_for(5 * SEC);
    assert!(sim.metrics().messages_dropped > 0, "drops happened");
    assert!(sim.completed_ops() > 200, "progress despite drops");
    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn partition_blocks_minority_progress() {
    let mut sim = Sim::new(SimConfig::with_seed(0xAD6));
    sim.boot_cluster(ClusterId(1), &ids(&[1, 2, 3, 4, 5]), RangeSet::full());
    sim.run_until_leader(ClusterId(1));
    let leader = sim.leader_of(ClusterId(1)).unwrap();
    // Isolate the leader with one follower: the pair cannot commit.
    let partner = ids(&[1, 2, 3, 4, 5])
        .into_iter()
        .find(|n| *n != leader)
        .unwrap();
    let minority = vec![leader, partner];
    let majority: Vec<NodeId> = ids(&[1, 2, 3, 4, 5])
        .into_iter()
        .filter(|n| !minority.contains(n))
        .collect();
    sim.schedule_action(
        sim.time(),
        Action::Partition(vec![minority.clone(), majority.clone()]),
    );
    // The majority side elects a new leader (the isolated old leader may
    // still believe it leads at its stale term, so check the majority side
    // directly); the old leader can make no further commits.
    sim.run_until_pred(20 * SEC, |s| {
        s.nodes()
            .any(|n| n.is_leader() && majority.contains(&n.id()))
    });
    let old_commit = sim.node(leader).unwrap().commit_index();
    sim.run_for(3 * SEC);
    assert_eq!(sim.node(leader).unwrap().commit_index(), old_commit);
    sim.check_invariants();
}

/// Seats placed together run the runtime's in-round passes: a leader and a
/// follower sharing a shard step each other's appends and acks in the round
/// that produced them. Mid-run the follower migrates to the other
/// follower's shard (leaving at its barrier), the leader crashes and comes
/// back, and the new leader's traffic to its shard-mate is stepped
/// in-round too — with every history linearizable and every write applied
/// once.
#[test]
fn co_hosted_seats_step_each_other_in_round_across_a_migration() {
    for seed in 1..=5 {
        let mut sim = Sim::new(SimConfig::with_seed(0xC0_0000 + seed));
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(&[1, 2, 3]), RangeSet::full());
        assert!(sim.co_host(NodeId(2), NodeId(1)));
        sim.run_until_leader(cluster);
        let workload = Workload {
            key_count: 200,
            dup_prob: 0.1,
            ..Workload::default()
        };
        sim.add_clients(4, workload);
        sim.run_for(2 * SEC);
        let before = sim.metrics().local_deliveries;
        assert!(
            before > 0,
            "seed {seed}: the leader's shard-mate stepped nothing in-round"
        );

        assert!(sim.co_host(NodeId(2), NodeId(3)), "seed {seed}: migrate");
        let old = sim.leader_of(cluster).expect("a leader");
        sim.schedule_action(sim.time(), Action::Crash(old));
        sim.run_until_pred(10 * SEC, |s| s.leader_of(cluster).is_some_and(|l| l != old));
        sim.schedule_action(sim.time() + SEC, Action::Restart(old));
        sim.run_for(3 * SEC);
        assert!(
            sim.metrics().local_deliveries > before,
            "seed {seed}: nothing stepped in-round after the migration"
        );
        sim.schedule_action(sim.time(), Action::StopClients);
        sim.run_for(2 * SEC);
        assert!(sim.completed_ops() > 500, "seed {seed}: traffic flowed");
        sim.check_invariants();
        sim.check_linearizability();
        sim.assert_exactly_once();
    }
}

/// One `Sim::admin` request keeps one attempt in flight. Held in a P1
/// window for 4 s (both followers down, so a first `AddAndResize` is
/// accepted and never commits), the second is re-sent 100 ms after each
/// rejection — about 40 sends, and no other message reaches a node.
#[test]
fn a_request_held_in_p1_keeps_one_attempt_in_flight() {
    for seed in 1..=3 {
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(&[1, 2, 3]), RangeSet::full());
        sim.run_until_leader(cluster);
        sim.run_for(SEC);
        let leader = sim.leader_of(cluster).unwrap();
        for follower in ids(&[1, 2, 3]).into_iter().filter(|n| *n != leader) {
            sim.schedule_action(sim.time(), Action::Crash(follower));
        }
        let add = |n| AdminCmd::AddAndResize(BTreeSet::from([NodeId(n)]));
        let first = sim.admin(cluster, add(4));
        sim.run_until_pred(5 * SEC, |s| s.admin_completed_at(first).is_some());

        let before = sim.metrics().messages_delivered;
        let second = sim.admin(cluster, add(5));
        sim.run_for(4 * SEC);
        let delivered = sim.metrics().messages_delivered - before;
        assert!(
            sim.admin_completed_at(second).is_none() && sim.admin_failure(second).is_none(),
            "seed {seed}: the second change waits out P1"
        );
        assert!(delivered <= 50, "seed {seed}: {delivered} messages in 4 s");
    }
}

/// An admin command goes to the most committed member that claims to
/// lead, not to a deposed leader that has not heard of its successor: the
/// old leader, partitioned alone, would take an `AddAndResize` it can
/// never commit, and the change would be lost at the heal.
#[test]
fn an_admin_command_passes_over_a_deposed_leader() {
    for seed in 1..=10 {
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let cluster = ClusterId(1);
        sim.boot_cluster(cluster, &ids(&[1, 2, 3]), RangeSet::full());
        sim.run_until_leader(cluster);
        let old = sim.leader_of(cluster).unwrap();
        let rest = ids(&[1, 2, 3]).into_iter().filter(|n| *n != old).collect();
        sim.schedule_action(sim.time(), Action::Partition(vec![vec![old], rest]));
        sim.run_for(2 * SEC);
        sim.boot_joiner(NodeId(4));
        sim.admin(cluster, AdminCmd::AddAndResize(BTreeSet::from([NodeId(4)])));
        sim.run_for(2 * SEC);
        sim.schedule_action(sim.time(), Action::Heal);

        let healed = sim.time();
        let grown = |s: &Sim| {
            ids(&[1, 2, 3, 4]).into_iter().all(|n| {
                s.node(n)
                    .is_some_and(|node| node.config().members().len() == 4)
            })
        };
        while sim.time() < healed + 3 * SEC && !grown(&sim) {
            sim.run_for(1_000);
        }
        assert!(grown(&sim), "seed {seed}: a node is missing the change");
        sim.check_invariants();
    }
}
