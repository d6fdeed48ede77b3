//! Who a ReadIndex probe round asks, and what that costs when the answer
//! does not come.
//!
//! A steady leader probes only the peers that answer fastest — in a
//! three-node cluster, one follower — and broadcasts while a configuration
//! entry is on its stack. A pick that dies or is cut off costs a read at
//! most one heartbeat interval plus a round trip (the heartbeat, which every
//! peer gets, confirms the read instead), and sinks in the ranking as its
//! probe goes unanswered. Every scenario runs a read-heavy client mix and
//! ends with the safety checks and the linearizability witness.

use recraft::core::NodeEvent;
use recraft::net::AdminCmd;
use recraft::sim::{Action, Sim, SimConfig, Workload};
use recraft::types::{ClusterConfig, ClusterId, NodeId, RangeSet, SplitSpec};
use std::collections::BTreeSet;

const SEC: u64 = 1_000_000;
const MS: u64 = 1_000;
const CLUSTER: ClusterId = ClusterId(1);

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn read_mix() -> Workload {
    Workload {
        get_ratio: 0.9,
        ..Workload::default()
    }
}

/// A cluster of `n` under the read mix, past its first election.
fn serving(seed: u64, n: u64) -> Sim {
    let mut sim = Sim::new(SimConfig::with_seed(seed));
    sim.boot_cluster(CLUSTER, &ids(1..=n), RangeSet::full());
    sim.run_until_leader(CLUSTER);
    sim.add_clients(4, read_mix());
    sim.run_for(SEC);
    sim
}

/// The peers the leader's next read round would ask (`None`: broadcast).
fn read_quorum(sim: &Sim, leader: NodeId) -> Option<Vec<NodeId>> {
    sim.node(leader).unwrap().read_quorum(sim.time())
}

/// The longest a read may take while a pick is silent: the next heartbeat
/// (due within one interval, fired on a tick) and one round trip to a peer
/// that answers, plus the request's own way in and the one-shot client's
/// 1 ms polling.
fn silent_pick_bound(cfg: &SimConfig) -> u64 {
    let hop = cfg.latency_max + cfg.proc_time;
    cfg.timing.heartbeat_interval + cfg.tick_interval + 4 * hop + MS
}

/// Issues `n` one-shot linearizable reads back to back, each bounded.
fn reads_within(sim: &mut Sim, n: u64, bound: u64, what: &str) {
    for i in 0..n {
        let t0 = sim.time();
        sim.execute_get(format!("k{:08}", i % 10_000).into_bytes())
            .unwrap_or_else(|e| panic!("{what}: read {i} failed: {e}"));
        let took = sim.time() - t0;
        assert!(
            took <= bound,
            "{what}: read {i} took {took} us (bound {bound})"
        );
    }
}

/// Samples the leader's next read round every millisecond for `span`:
/// each one must be thrifty and leave `excluded` out.
fn rounds_exclude(sim: &mut Sim, leader: NodeId, excluded: NodeId, span: u64) {
    let until = sim.time() + span;
    while sim.time() < until {
        let asked = read_quorum(sim, leader);
        assert!(
            asked.as_ref().is_some_and(|p| !p.contains(&excluded)),
            "at {} us a read round would ask {asked:?} (silent pick {excluded})",
            sim.time()
        );
        sim.run_for(MS);
    }
}

/// The steady leader's single pick.
fn steady_pick(sim: &Sim, leader: NodeId) -> NodeId {
    let asked = read_quorum(sim, leader).expect("a steady leader's read rounds are thrifty");
    assert_eq!(
        asked.len(),
        1,
        "one follower beside the leader makes 2 of 3"
    );
    asked[0]
}

#[test]
fn a_partitioned_pick_costs_a_read_at_most_one_heartbeat() {
    let mut sim = serving(0x4EAD_0001, 3);
    let leader = sim.leader_of(CLUSTER).unwrap();
    let pick = steady_pick(&sim, leader);
    let bound = silent_pick_bound(sim.config());
    let rest: Vec<NodeId> = ids(1..=3).into_iter().filter(|n| *n != pick).collect();
    sim.schedule_action(sim.time(), Action::Partition(vec![vec![pick], rest]));

    reads_within(&mut sim, 200, bound, "pick partitioned");
    let hb = sim.config().timing.heartbeat_interval;
    rounds_exclude(&mut sim, leader, pick, 5 * hb);
    assert_eq!(sim.leader_of(CLUSTER), Some(leader));
    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn a_crashed_pick_costs_a_read_at_most_one_heartbeat_and_is_asked_again_once_back() {
    let mut sim = serving(0x4EAD_0002, 3);
    let leader = sim.leader_of(CLUSTER).unwrap();
    let pick = steady_pick(&sim, leader);
    let bound = silent_pick_bound(sim.config());
    let hb = sim.config().timing.heartbeat_interval;

    sim.schedule_action(sim.time(), Action::Crash(pick));
    reads_within(&mut sim, 200, bound, "pick crashed");
    rounds_exclude(&mut sim, leader, pick, 5 * hb);

    sim.schedule_action(sim.time(), Action::Restart(pick));
    sim.run_for(SEC);
    reads_within(&mut sim, 200, bound, "pick restarted");
    // Every heartbeat times it again: back and answering, it is ranked
    // among the others and picked when it is the fastest.
    let until = sim.time() + 2 * SEC;
    let mut asked_again = false;
    while sim.time() < until && !asked_again {
        asked_again = read_quorum(&sim, leader).is_some_and(|p| p.contains(&pick));
        sim.run_for(MS);
    }
    assert!(asked_again, "{pick} was never asked again after restarting");
    assert_eq!(sim.leader_of(CLUSTER), Some(leader));
    sim.check_invariants();
    sim.check_linearizability();
}

/// Steps `sim` in `step` increments until `done`, asserting that the
/// leader broadcasts its read rounds whenever its stack holds an entry,
/// and returns the spans during which it did. The leader is looked up by
/// id at every step: a split's leader keeps its id and changes cluster.
fn broadcast_while_reconfiguring(
    sim: &mut Sim,
    leader: NodeId,
    step: u64,
    max: u64,
    done: impl Fn(&Sim) -> bool,
) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let deadline = sim.time() + max;
    while !done(sim) {
        assert!(sim.time() < deadline, "reconfiguration did not finish");
        let node = sim.node(leader).unwrap();
        if node.is_leader() && node.derived().last_config_index.is_some() {
            assert_eq!(
                node.read_quorum(sim.time()),
                None,
                "at {} us a read round with a configuration entry in flight was thrifty",
                sim.time()
            );
            match spans.last_mut() {
                Some((_, end)) if *end + step >= sim.time() => *end = sim.time(),
                _ => spans.push((sim.time(), sim.time())),
            }
        }
        sim.run_for(step);
    }
    spans
}

/// Reads the leader served from the start of any span until `slack` after
/// its end.
fn served_in(sim: &Sim, leader: NodeId, spans: &[(u64, u64)], slack: u64) -> usize {
    sim.trace()
        .iter()
        .filter(|(at, node, e)| {
            *node == leader
                && matches!(e, NodeEvent::ServedRead { .. })
                && spans.iter().any(|(a, b)| *at >= *a && *at <= *b + slack)
        })
        .count()
}

#[test]
fn reads_through_an_add_and_resize_window_are_broadcast_and_serve() {
    let mut sim = serving(0x4EAD_0003, 3);
    let leader = sim.leader_of(CLUSTER).unwrap();
    for joiner in [NodeId(4), NodeId(5)] {
        sim.boot_joiner(joiner);
    }
    sim.admin(
        CLUSTER,
        AdminCmd::AddAndResize(BTreeSet::from([NodeId(4), NodeId(5)])),
    );
    let spans = broadcast_while_reconfiguring(&mut sim, leader, 100, 30 * SEC, |s| {
        let node = s.node(leader).unwrap();
        node.config().members().len() == 5 && node.derived().last_config_index.is_none()
    });
    assert!(!spans.is_empty(), "the resize window was never observed");
    assert!(
        served_in(&sim, leader, &spans, 0) > 0,
        "no read was served inside the resize window {spans:?}"
    );
    // Quiescent again at five members: thrifty, two peers beside the leader.
    sim.run_for(SEC);
    let asked = read_quorum(&sim, leader).expect("thrifty again once the stack is empty");
    assert_eq!(asked.len(), 2, "3 of 5 is the leader and two peers");
    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn reads_through_a_split_leave_phase_are_broadcast_and_serve() {
    let mut sim = serving(0x4EAD_0004, 6);
    let leader = sim.leader_of(CLUSTER).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00005000").unwrap();
    let (mine, other): (Vec<NodeId>, Vec<NodeId>) = {
        let others: Vec<NodeId> = ids(1..=6).into_iter().filter(|n| *n != leader).collect();
        (
            std::iter::once(leader)
                .chain(others[..2].iter().copied())
                .collect(),
            others[2..].to_vec(),
        )
    };
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), mine, RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), other, RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    sim.admin(CLUSTER, AdminCmd::Split(spec));
    let spans = broadcast_while_reconfiguring(&mut sim, leader, 100, 30 * SEC, |s| {
        s.node(leader).unwrap().cluster() == ClusterId(10)
    });
    let leaving = sim
        .first_event(
            |e| matches!(e, NodeEvent::ConfigAppended { kind, .. } if *kind == "split-new"),
        )
        .expect("Cnew was appended");
    assert!(
        spans.iter().any(|(a, b)| *a <= leaving && leaving <= *b),
        "the leave phase at {leaving} us was not observed in {spans:?}"
    );
    let hb = sim.config().timing.heartbeat_interval;
    assert!(
        served_in(&sim, leader, &spans, hb) > 0,
        "no read accepted around the split was served: {spans:?}"
    );
    sim.run_until_pred(5 * SEC, |s| s.leader_of(ClusterId(10)) == Some(leader));
    sim.run_for(SEC);
    assert!(
        read_quorum(&sim, leader).is_some(),
        "the subcluster's leader is thrifty again once its stack is empty"
    );
    sim.check_invariants();
    sim.check_linearizability();
}
