//! Who campaigns when a cluster is born, and when a node comes back.
//!
//! A bootstrapped configuration's smallest id campaigns on its first tick,
//! so a fresh cluster leads after one vote round; the other members keep
//! randomized timers, which elect someone else when that node is down or
//! cut off. Every election deadline is armed on the first clock a node sees,
//! so a member rebooted from its WAL on a clock long past zero waits a full
//! timeout instead of deposing the live leader on its first tick.

use recraft::core::{NodeEvent, Role};
use recraft::sim::{Action, Backend, Sim, SimConfig, Workload};
use recraft::types::{ClusterId, EpochTerm, NodeId, RangeSet};

const SEC: u64 = 1_000_000;
const CLUSTER: ClusterId = ClusterId(1);

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn boot(cfg: SimConfig, members: &[NodeId]) -> Sim {
    let mut sim = Sim::new(cfg);
    sim.boot_cluster(CLUSTER, members, RangeSet::full());
    sim
}

/// When and by whom the cluster was first led.
fn first_leader(sim: &Sim) -> Option<(u64, NodeId)> {
    sim.trace().iter().find_map(|(at, node, e)| {
        matches!(e, NodeEvent::BecameLeader { cluster, .. } if *cluster == CLUSTER)
            .then_some((*at, *node))
    })
}

/// The latest a member's randomized timer can elect it when nobody was
/// designated: deadlines are armed on the first tick and fire on a tick,
/// then one vote round trip.
fn timer_election_bound(cfg: &SimConfig) -> u64 {
    let round_trip = 2 * (cfg.latency_max + cfg.proc_time);
    cfg.timing.election_timeout_max + 2 * cfg.tick_interval + round_trip
}

#[test]
fn a_fresh_cluster_is_led_by_its_smallest_id_in_one_vote_round() {
    for n in [3, 5] {
        let cfg = SimConfig::with_seed(0xB007 + n);
        let timeout_min = cfg.timing.election_timeout_min;
        let mut sim = boot(cfg, &ids(1..=n));
        sim.run_until(timeout_min - 1);
        assert_eq!(sim.leader_of(CLUSTER), Some(NodeId(1)), "{n} nodes");
        let (at, node) = first_leader(&sim).expect("led");
        assert_eq!(node, NodeId(1));
        assert!(at < timeout_min, "{n} nodes led at {at} us");
        assert_eq!(sim.node(NodeId(1)).unwrap().current_eterm().term(), 1);
        sim.check_invariants();
    }
}

#[test]
fn a_single_node_cluster_leads_on_its_first_tick() {
    let cfg = SimConfig::with_seed(0xB008);
    let tick = cfg.tick_interval;
    let mut sim = boot(cfg, &ids(1..=1));
    sim.run_until(tick);
    assert_eq!(first_leader(&sim), Some((tick, NodeId(1))));
    sim.check_invariants();
}

#[test]
fn the_timers_elect_when_the_designated_node_is_down_at_boot() {
    for n in [3, 5] {
        for fault in [
            Action::Crash(NodeId(1)),
            Action::Partition(vec![ids(1..=1), ids(2..=n)]),
        ] {
            let cfg = SimConfig::with_seed(0xB009 + n);
            let bound = timer_election_bound(&cfg);
            let mut sim = Sim::new(cfg);
            // In force before anyone's first tick.
            sim.schedule_action(0, fault.clone());
            sim.boot_cluster(CLUSTER, &ids(1..=n), RangeSet::full());
            sim.run_until(bound);
            let (at, node) = first_leader(&sim)
                .unwrap_or_else(|| panic!("{n} nodes, {fault:?}: nobody led within {bound} us"));
            assert_ne!(node, NodeId(1), "{n} nodes, {fault:?}");
            assert!(at <= bound, "{n} nodes, {fault:?}: led at {at} us");
            sim.check_invariants();
        }
    }
}

#[test]
fn a_joiner_never_campaigns() {
    // The joiner's id is below every member's, and its placeholder
    // configuration lists only itself: still it is never designated.
    let mut sim = boot(SimConfig::with_seed(0xB00A), &ids(2..=4));
    sim.boot_joiner(NodeId(1));
    sim.run_for(5 * SEC);
    let joiner = sim.node(NodeId(1)).unwrap();
    assert_eq!(joiner.current_eterm(), EpochTerm::ZERO, "never campaigned");
    assert_eq!(joiner.role(), Role::Follower);
    assert_eq!(first_leader(&sim).map(|(_, n)| n), Some(NodeId(2)));
    sim.check_invariants();
}

#[test]
fn a_follower_rebooted_from_its_wal_does_not_depose_the_leader() {
    for seed in 1..=5 {
        let cfg = SimConfig::with_seed(seed).with_backend(Backend::Wal);
        let quiet = cfg.timing.election_timeout_min - cfg.tick_interval;
        let mut sim = boot(cfg, &ids(1..=3));
        sim.run_until_leader(CLUSTER);
        sim.add_clients(2, Workload::default());
        sim.run_for(SEC);
        // Then idle, well past every timeout drawn against time zero: only
        // a heartbeat can reach the rebooted node before its first tick
        // (an append would re-arm its timer and hide the defect).
        sim.schedule_action(sim.time(), Action::StopClients);
        sim.run_for(SEC);
        let leader = sim.leader_of(CLUSTER).expect("led");
        let eterm = sim.node(leader).unwrap().current_eterm();
        let follower = ids(1..=3).into_iter().find(|n| *n != leader).unwrap();

        sim.power_cut(follower);
        sim.reboot(follower);
        sim.run_for(quiet);
        assert_eq!(
            sim.node(follower).unwrap().current_eterm(),
            eterm,
            "seed {seed}: the rebooted follower campaigned"
        );
        assert_eq!(sim.leader_of(CLUSTER), Some(leader), "seed {seed}");
        assert_eq!(sim.node(leader).unwrap().current_eterm(), eterm);

        sim.run_for(SEC);
        assert_eq!(sim.leader_of(CLUSTER), Some(leader), "seed {seed}");
        sim.check_invariants();
        sim.check_linearizability();
    }
}
