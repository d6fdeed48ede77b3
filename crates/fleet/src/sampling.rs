//! Turning live node reports into controller input.
//!
//! The sim's `FleetHarness` reads node state directly; a real deployment
//! gets the same facts over the wire as [`NodeStats`] answers to the
//! sampling plane's `StatsReq`. [`SampleBook`] is the shared distillation
//! step: pick each cluster's most-applied reporter as its witness
//! (authoritative configuration, size, split hint) and difference the
//! cumulative per-node op counters into per-interval loads, so the
//! controller's thresholds mean the same thing against a socket as they do
//! inside the simulator.

use crate::admin_call::seen_leader;
use crate::controller::{midpoint_key, RangeSample};
use recraft_net::NodeStats;
use recraft_types::{ClusterId, NodeId};
use std::collections::BTreeMap;

/// Accumulates per-cluster op baselines across sampling rounds.
///
/// Node op counters are cumulative since each node object booted; a cluster's
/// load over one interval is the difference of successive sums. The first
/// time a cluster id appears (a fresh boot, or a split/merge child that
/// inherited its members' counters) the book only records the baseline and
/// reports zero ops — otherwise inherited counts would masquerade as an
/// instantaneous load spike and immediately re-trigger the planner.
///
/// The book also remembers, per cluster, the members that reported
/// themselves leader in the latest round, with their commit indexes: the
/// [`seen_leader`] among them is where the controller's owed commands go.
#[derive(Debug, Default)]
pub struct SampleBook {
    last_ops: BTreeMap<ClusterId, u64>,
    claims: BTreeMap<ClusterId, Vec<(u64, NodeId)>>,
}

impl SampleBook {
    /// Creates an empty book.
    #[must_use]
    pub fn new() -> Self {
        SampleBook::default()
    }

    /// Distills one round of node reports into per-cluster samples.
    ///
    /// Reports with an empty member set (joiners that have not adopted a
    /// configuration yet, and retired nodes — see `Node::stats`) are
    /// skipped. For each remaining cluster the
    /// most-applied reporter becomes the witness; ops are summed across all
    /// of the cluster's reporters and differenced against the previous
    /// round. Baselines for clusters that stopped reporting (merged away,
    /// all members down) are dropped.
    pub fn build(&mut self, reports: &[(NodeId, NodeStats)]) -> Vec<RangeSample> {
        let mut witness: BTreeMap<ClusterId, &NodeStats> = BTreeMap::new();
        let mut ops_sum: BTreeMap<ClusterId, u64> = BTreeMap::new();
        self.claims.clear();
        for (node, stats) in reports {
            if stats.members.is_empty() {
                continue;
            }
            if stats.is_leader {
                let claims = self.claims.entry(stats.cluster).or_default();
                claims.push((stats.commit, *node));
            }
            *ops_sum.entry(stats.cluster).or_insert(0) += stats.ops;
            let entry = witness.entry(stats.cluster).or_insert(stats);
            if stats.applied > entry.applied {
                *entry = stats;
            }
        }
        self.last_ops.retain(|c, _| witness.contains_key(c));
        let mut samples = Vec::with_capacity(witness.len());
        for (cluster, stats) in witness {
            let cum = ops_sum.get(&cluster).copied().unwrap_or(0);
            let ops = match self.last_ops.insert(cluster, cum) {
                Some(prev) => cum.saturating_sub(prev),
                None => 0, // first sighting: baseline only
            };
            let split_key = stats
                .split_key
                .clone()
                .or_else(|| stats.ranges.ranges().iter().find_map(midpoint_key));
            samples.push(RangeSample {
                cluster,
                ranges: stats.ranges.clone(),
                members: stats.members.clone(),
                ops,
                bytes: stats.bytes as usize,
                split_key,
            });
        }
        samples
    }

    /// The [`seen_leader`] of `cluster` in the latest round: of its
    /// members that reported themselves leader, the most committed, if one
    /// did.
    #[must_use]
    pub fn leader(&self, cluster: ClusterId) -> Option<NodeId> {
        seen_leader(self.claims.get(&cluster)?.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::RangeSet;
    use std::collections::BTreeSet;

    fn report(cluster: u64, node: u64, applied: u64, ops: u64) -> (NodeId, NodeStats) {
        (
            NodeId(node),
            NodeStats {
                cluster: ClusterId(cluster),
                epoch: 0,
                ranges: RangeSet::full(),
                members: (1..=3).map(NodeId).collect(),
                is_leader: node == 1,
                leader_hint: Some(NodeId(1)),
                commit: applied,
                applied,
                ops,
                bytes: 100,
                split_key: Some(b"m".to_vec()),
            },
        )
    }

    #[test]
    fn first_sighting_reports_zero_then_deltas() {
        let mut book = SampleBook::new();
        let round1 = book.build(&[report(1, 1, 10, 500), report(1, 2, 9, 0)]);
        assert_eq!(round1.len(), 1);
        assert_eq!(round1[0].ops, 0, "inherited counters must not spike");
        let round2 = book.build(&[report(1, 1, 20, 800), report(1, 2, 19, 0)]);
        assert_eq!(round2[0].ops, 300);
    }

    #[test]
    fn witness_is_most_applied_and_joiners_skipped() {
        let mut book = SampleBook::new();
        let mut joiner = report(1, 7, 99, 0).1;
        joiner.members = BTreeSet::new();
        let laggard = report(1, 2, 5, 0);
        let mut ahead = report(1, 1, 50, 0).1;
        ahead.bytes = 777;
        let samples = book.build(&[laggard, (NodeId(1), ahead), (NodeId(7), joiner)]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].bytes, 777, "witness must be the most applied");
    }

    #[test]
    fn a_real_joiners_stats_are_skipped() {
        use recraft_core::{MapMachine, Node, Timing};
        let joiner = Node::new_joiner(NodeId(7), MapMachine::default(), Timing::default(), 7);
        let mut book = SampleBook::new();
        let samples = book.build(&[report(1, 1, 10, 0), (NodeId(7), joiner.stats())]);
        assert_eq!(
            samples.iter().map(|s| s.cluster).collect::<Vec<_>>(),
            [ClusterId(1)],
            "the joiner's placeholder cluster must not become a range"
        );
    }

    #[test]
    fn vanished_clusters_drop_their_baseline() {
        let mut book = SampleBook::new();
        book.build(&[report(1, 1, 1, 100), report(2, 4, 1, 100)]);
        let samples = book.build(&[report(1, 1, 2, 200)]);
        assert_eq!(samples.len(), 1);
        assert_eq!(book.last_ops.len(), 1);
    }

    #[test]
    fn the_leader_is_the_most_committed_member_that_says_it_leads() {
        let mut book = SampleBook::new();
        let mut deposed = report(1, 1, 7, 0);
        deposed.1.commit = 3;
        let mut current = report(1, 2, 9, 0);
        current.1.is_leader = true;
        book.build(&[deposed, current, report(1, 3, 9, 0)]);
        assert_eq!(book.leader(ClusterId(1)), Some(NodeId(2)));
        book.build(&[report(1, 2, 9, 0)]);
        assert_eq!(book.leader(ClusterId(1)), None, "no member says it leads");
    }

    #[test]
    fn missing_split_key_falls_back_to_midpoint() {
        let mut book = SampleBook::new();
        let mut r = report(1, 1, 1, 0).1;
        r.split_key = None;
        let samples = book.build(&[(NodeId(1), r)]);
        assert!(samples[0].split_key.is_some(), "midpoint fallback expected");
    }
}
