//! The configuration stack: how a node knows, at every moment, which quorums
//! govern elections and commits.
//!
//! Raft reconfiguration is *wait-free*: a configuration entry takes effect
//! the moment it is appended, and a truncation rolls it back. ReCraft splits
//! refine this with *different election and commit quorums* (§III-B):
//! `Cjoint` changes only the election rule, and `Cnew` changes the commit
//! rule for entries at or after its own index while elections stay joint
//! until `Cnew` commits.
//!
//! [`ConfigStack`] therefore keeps a *base* configuration (everything
//! committed, applied, and folded) plus the ordered list of config entries
//! still present in the log, and derives:
//!
//! * the current election [`QuorumSpec`],
//! * commit-rule *segments* `(from_index, QuorumSpec)` — the rule for
//!   committing index `i` is the segment with the greatest `from ≤ i`,
//! * the replication member set and the per-peer replication cap (peers in
//!   other subclusters never receive entries past `Cnew`).

use crate::quorum::QuorumSpec;
use recraft_types::config::majority;
use recraft_types::{
    ClusterConfig, ClusterId, ConfigChange, Error, LogIndex, MergeTx, NodeId, RangeSet, Result,
    SplitSpec,
};
use std::collections::BTreeSet;

/// The split phase a node is in, derived from the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitPhase {
    /// `Cjoint` appended: joint elections, `Cold` commits.
    Joint {
        /// The split plan.
        spec: SplitSpec,
        /// Position of the `Cjoint` entry.
        joint_index: LogIndex,
    },
    /// `Cnew` appended: joint elections, own-subcluster commits for entries
    /// at or after `cnew_index`, client proposals gated until completion.
    Leaving {
        /// The split plan.
        spec: SplitSpec,
        /// Position of the `Cjoint` entry.
        joint_index: LogIndex,
        /// Position of the `Cnew` entry.
        cnew_index: LogIndex,
    },
}

/// Everything the node needs to know about quorums right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derived {
    /// Nodes the leader replicates to (the union of every configuration in
    /// play).
    pub members: BTreeSet<NodeId>,
    /// The election rule.
    pub elect: QuorumSpec,
    /// Commit-rule segments, ascending by starting index. Never empty.
    pub commit_segments: Vec<(LogIndex, QuorumSpec)>,
    /// The split phase, if a split is in flight.
    pub split: Option<SplitPhase>,
    /// An open merge transaction (prepare in log, outcome pending), if any.
    pub merge_tx: Option<MergeTx>,
    /// Position of a merge-outcome entry present in the log, if any
    /// (proposals are gated past it).
    pub merge_outcome_index: Option<LogIndex>,
    /// Highest config-entry index on the stack (`None` when the stack is
    /// empty — precondition P1 is then satisfied).
    pub last_config_index: Option<LogIndex>,
}

impl Derived {
    /// The commit rule for entries at `index`: the segment with the greatest
    /// starting index at or below it. Segments are sorted ascending and the
    /// first starts at [`LogIndex::ZERO`], so the binary search always lands
    /// on a segment. This sits on the leader's per-acknowledgement hot path.
    #[must_use]
    pub fn commit_rule(&self, index: LogIndex) -> &QuorumSpec {
        let pos = self
            .commit_segments
            .partition_point(|(from, _)| *from <= index);
        &self.commit_segments[pos - 1].1
    }

    /// The highest index the leader may send to `peer`: entries past `Cnew`
    /// never leave the leader's own subcluster (§III-B: "communicates with
    /// nodes in Csub for committing Cnew and log entries that come after").
    #[must_use]
    pub fn replication_cap(&self, me: NodeId, peer: NodeId) -> Option<LogIndex> {
        if let Some(SplitPhase::Leaving {
            spec, cnew_index, ..
        }) = &self.split
        {
            let my_sub = spec.subcluster_of(me).map(ClusterConfig::id);
            let peer_sub = spec.subcluster_of(peer).map(ClusterConfig::id);
            if my_sub != peer_sub {
                return Some(*cnew_index);
            }
        }
        None
    }

    /// The peers a ReadIndex probe round asks: the shortest prefix of
    /// `ranked` (peers, fastest first) that together with `leader`
    /// satisfies the tail commit rule — the rule a read is served on.
    /// `None` means broadcast: while any configuration entry is on the stack
    /// (a joint or resize window, either split phase, a merge), and when
    /// the ranked peers cannot make up the quorum. Asking fewer peers never
    /// weakens a read; at worst it waits for the next heartbeat.
    #[must_use]
    pub fn read_quorum<'a>(&self, leader: NodeId, ranked: &'a [NodeId]) -> Option<&'a [NodeId]> {
        if self.last_config_index.is_some() {
            return None;
        }
        let rule = &self.commit_segments.last()?.1;
        let mut acks = BTreeSet::from([leader]);
        for n in 0..=ranked.len() {
            if n > 0 {
                acks.insert(ranked[n - 1]);
            }
            if rule.satisfied(&acks) {
                return Some(&ranked[..n]);
            }
        }
        None
    }

    /// Whether new client proposals are currently gated (split leave phase or
    /// merge outcome pending; both windows last about one commit round-trip).
    #[must_use]
    pub fn proposals_gated(&self) -> bool {
        matches!(self.split, Some(SplitPhase::Leaving { .. })) || self.merge_outcome_index.is_some()
    }
}

/// The configuration stack itself.
#[derive(Debug, Clone)]
pub struct ConfigStack {
    base: ClusterConfig,
    base_from: LogIndex,
    entries: Vec<(LogIndex, ConfigChange)>,
    version: u64,
}

impl ConfigStack {
    /// A stack rooted at an initial (boot or post-reconfiguration) config.
    #[must_use]
    pub fn new(base: ClusterConfig, base_from: LogIndex) -> Self {
        ConfigStack {
            base,
            base_from,
            entries: Vec::new(),
            version: 0,
        }
    }

    /// A counter bumped by every mutation — lets callers cache the derived
    /// quorum state and invalidate it precisely.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The folded base configuration.
    #[must_use]
    pub fn base(&self) -> &ClusterConfig {
        &self.base
    }

    /// The index at which the base configuration took effect.
    #[must_use]
    pub fn base_from(&self) -> LogIndex {
        self.base_from
    }

    /// The unfolded config entries, ascending by index.
    #[must_use]
    pub fn entries(&self) -> &[(LogIndex, ConfigChange)] {
        &self.entries
    }

    /// Whether no reconfiguration is in flight (precondition P1 for new
    /// reconfigurations).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a config entry that was appended to the log.
    ///
    /// # Panics
    /// Debug-asserts index monotonicity.
    pub fn push(&mut self, index: LogIndex, change: ConfigChange) {
        debug_assert!(
            self.entries.last().is_none_or(|(i, _)| *i < index),
            "config entries must be pushed in order"
        );
        debug_assert!(index > self.base_from);
        self.entries.push((index, change));
        self.version += 1;
    }

    /// Rolls back config entries at or after `index` (follower truncation).
    pub fn truncate_from(&mut self, index: LogIndex) {
        self.entries.retain(|(i, _)| *i < index);
        self.version += 1;
    }

    /// Folds a finalizing config into a new base: every stack entry at or
    /// below `index` is absorbed.
    pub fn fold(&mut self, base: ClusterConfig, index: LogIndex) {
        self.base = base;
        self.base_from = index;
        self.entries.retain(|(i, _)| *i > index);
        self.version += 1;
    }

    /// Replaces the whole stack (snapshot installation, merge resumption).
    pub fn reset(&mut self, base: ClusterConfig, base_from: LogIndex) {
        self.base = base;
        self.base_from = base_from;
        self.entries.clear();
        self.version += 1;
    }

    /// Finds the change recorded at exactly `index`, if any.
    #[must_use]
    pub fn change_at(&self, index: LogIndex) -> Option<&ConfigChange> {
        self.entries
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, c)| c)
    }

    /// Derives the effective quorum state for node `me`.
    ///
    /// Walks the stack in order, applying each scheme's wait-free semantics.
    #[must_use]
    pub fn derive(&self, me: NodeId) -> Derived {
        let mut members = self.base.members().clone();
        let mut elect = QuorumSpec::from_config(&self.base);
        let mut commit_segments: Vec<(LogIndex, QuorumSpec)> =
            vec![(LogIndex::ZERO, QuorumSpec::from_config(&self.base))];
        let mut split: Option<SplitPhase> = None;
        let mut merge_tx: Option<MergeTx> = None;
        let mut merge_outcome_index: Option<LogIndex> = None;
        let mut last_config_index = None;

        for (index, change) in &self.entries {
            last_config_index = Some(*index);
            match change {
                ConfigChange::Simple { members: m } | ConfigChange::JointLeave { new: m } => {
                    // Replication keeps reaching leaving peers until the
                    // entry commits and folds (lame-duck replication), so
                    // they learn of their own removal instead of disrupting
                    // with elections; quorums use the new set only.
                    members.extend(m.iter().copied());
                    let spec = QuorumSpec::simple_majority(m.clone());
                    elect = spec.clone();
                    commit_segments.push((*index, spec));
                }
                ConfigChange::Resize { members: m, quorum } => {
                    members.extend(m.iter().copied());
                    let spec = QuorumSpec::Single {
                        members: m.clone(),
                        quorum: *quorum,
                    };
                    elect = spec.clone();
                    commit_segments.push((*index, spec));
                }
                ConfigChange::JointEnter { old, new } => {
                    members.extend(old.iter().copied());
                    members.extend(new.iter().copied());
                    let spec = QuorumSpec::Joint(vec![
                        (old.clone(), majority(old.len())),
                        (new.clone(), majority(new.len())),
                    ]);
                    elect = spec.clone();
                    commit_segments.push((*index, spec));
                }
                ConfigChange::SplitJoint(spec) => {
                    // Election quorum becomes the joint of all subclusters;
                    // commits keep using C_old (§III-B, wait-free line 12).
                    elect = QuorumSpec::joint_majorities(
                        spec.subclusters().iter().map(ClusterConfig::members),
                    );
                    split = Some(SplitPhase::Joint {
                        spec: spec.clone(),
                        joint_index: *index,
                    });
                }
                ConfigChange::SplitNew(spec) => {
                    // Entries at or after Cnew commit with the node's own
                    // subcluster majority; elections stay joint until Cnew
                    // commits (completion is handled outside the stack).
                    let joint_index = match &split {
                        Some(SplitPhase::Joint { joint_index, .. }) => *joint_index,
                        // A Cnew without its Cjoint on the stack only occurs
                        // transiently on followers that installed a snapshot
                        // mid-split; treat the entry itself as the boundary.
                        _ => *index,
                    };
                    let my_rule = match spec.subcluster_of(me) {
                        Some(sub) => QuorumSpec::from_config(sub),
                        // A node outside every subcluster can never commit
                        // past Cnew.
                        None => QuorumSpec::Single {
                            members: BTreeSet::new(),
                            quorum: 1,
                        },
                    };
                    commit_segments.push((*index, my_rule));
                    split = Some(SplitPhase::Leaving {
                        spec: spec.clone(),
                        joint_index,
                        cnew_index: *index,
                    });
                }
                ConfigChange::MergePrepare { tx, .. } => {
                    merge_tx = Some(tx.clone());
                }
                ConfigChange::MergeCommit(outcome) => {
                    let _ = outcome;
                    merge_outcome_index = Some(*index);
                }
                // Range changes touch no quorum; they fold at commit time.
                ConfigChange::SetRanges(_) => {}
            }
        }

        Derived {
            members,
            elect,
            commit_segments,
            split,
            merge_tx,
            merge_outcome_index,
            last_config_index,
        }
    }

    /// Validates precondition P1: every prior reconfiguration in the log is
    /// committed *and resolved* — nothing is on the stack.
    ///
    /// # Errors
    /// Returns [`Error::PreconditionP1`] when a reconfiguration is in flight.
    pub fn check_p1(&self) -> Result<()> {
        if self.is_quiescent() {
            Ok(())
        } else {
            Err(Error::PreconditionP1)
        }
    }

    /// The cluster id of the base configuration.
    #[must_use]
    pub fn cluster(&self) -> ClusterId {
        self.base.id()
    }

    /// The ranges currently served.
    #[must_use]
    pub fn ranges(&self) -> &RangeSet {
        self.base.ranges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::{ClusterId, KeyRange};

    fn nodes(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn base6() -> ClusterConfig {
        ClusterConfig::new(ClusterId(1), nodes(&[1, 2, 3, 4, 5, 6]), RangeSet::full()).unwrap()
    }

    fn split_spec() -> SplitSpec {
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), nodes(&[1, 2, 3]), RangeSet::from(lo)).unwrap(),
                ClusterConfig::new(ClusterId(11), nodes(&[4, 5, 6]), RangeSet::from(hi)).unwrap(),
            ],
            &nodes(&[1, 2, 3, 4, 5, 6]),
            &RangeSet::full(),
        )
        .unwrap()
    }

    #[test]
    fn quiescent_stack_uses_base_everywhere() {
        let stack = ConfigStack::new(base6(), LogIndex::ZERO);
        let d = stack.derive(NodeId(1));
        assert_eq!(d.members, nodes(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(
            d.elect,
            QuorumSpec::simple_majority(nodes(&[1, 2, 3, 4, 5, 6]))
        );
        assert_eq!(d.commit_rule(LogIndex(5)), &d.elect);
        assert!(d.split.is_none());
        assert!(!d.proposals_gated());
        assert!(stack.check_p1().is_ok());
    }

    #[test]
    fn split_joint_changes_only_elections() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        let d = stack.derive(NodeId(1));
        // Election: majority of each subcluster.
        assert_eq!(
            d.elect,
            QuorumSpec::joint_majorities([nodes(&[1, 2, 3]), nodes(&[4, 5, 6])].iter())
        );
        // Commit: still C_old for everything.
        assert_eq!(
            d.commit_rule(LogIndex(6)),
            &QuorumSpec::simple_majority(nodes(&[1, 2, 3, 4, 5, 6]))
        );
        assert!(matches!(d.split, Some(SplitPhase::Joint { .. })));
        assert!(stack.check_p1().is_err());
        assert!(!d.proposals_gated());
    }

    #[test]
    fn split_leave_segments_commits_by_position() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        stack.push(LogIndex(8), ConfigChange::SplitNew(split_spec()));
        let d = stack.derive(NodeId(2));
        // Entries before Cnew commit with C_old.
        assert_eq!(
            d.commit_rule(LogIndex(7)),
            &QuorumSpec::simple_majority(nodes(&[1, 2, 3, 4, 5, 6]))
        );
        // Cnew and after commit with node 2's own subcluster.
        assert_eq!(
            d.commit_rule(LogIndex(8)),
            &QuorumSpec::simple_majority(nodes(&[1, 2, 3]))
        );
        // Node 5 sees its own subcluster rule instead.
        let d5 = stack.derive(NodeId(5));
        assert_eq!(
            d5.commit_rule(LogIndex(9)),
            &QuorumSpec::simple_majority(nodes(&[4, 5, 6]))
        );
        // Elections stay joint until completion.
        assert_eq!(
            d.elect,
            QuorumSpec::joint_majorities([nodes(&[1, 2, 3]), nodes(&[4, 5, 6])].iter())
        );
        assert!(d.proposals_gated());
    }

    #[test]
    fn replication_cap_stops_cross_subcluster_leakage() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        stack.push(LogIndex(8), ConfigChange::SplitNew(split_spec()));
        let d = stack.derive(NodeId(1));
        assert_eq!(d.replication_cap(NodeId(1), NodeId(2)), None); // same sub
        assert_eq!(
            d.replication_cap(NodeId(1), NodeId(5)),
            Some(LogIndex(8)) // other sub: nothing past Cnew
        );
        // No cap while merely joint.
        let mut joint_only = ConfigStack::new(base6(), LogIndex::ZERO);
        joint_only.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        let dj = joint_only.derive(NodeId(1));
        assert_eq!(dj.replication_cap(NodeId(1), NodeId(5)), None);
    }

    #[test]
    fn resize_applies_wait_free() {
        let base = ClusterConfig::new(ClusterId(1), nodes(&[1, 2]), RangeSet::full()).unwrap();
        let mut stack = ConfigStack::new(base, LogIndex::ZERO);
        // Figure 1c: 2 -> 5 nodes, Q_new-q = 4.
        stack.push(
            LogIndex(3),
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5]),
                quorum: 4,
            },
        );
        let d = stack.derive(NodeId(1));
        assert_eq!(d.members, nodes(&[1, 2, 3, 4, 5]));
        assert_eq!(
            d.elect,
            QuorumSpec::Single {
                members: nodes(&[1, 2, 3, 4, 5]),
                quorum: 4
            }
        );
        assert_eq!(d.commit_rule(LogIndex(3)), &d.elect);
        // Entries before the resize keep the old rule.
        assert_eq!(
            d.commit_rule(LogIndex(2)),
            &QuorumSpec::simple_majority(nodes(&[1, 2]))
        );
    }

    #[test]
    fn vanilla_joint_consensus_rules() {
        let base = ClusterConfig::new(ClusterId(1), nodes(&[1, 2]), RangeSet::full()).unwrap();
        let mut stack = ConfigStack::new(base, LogIndex::ZERO);
        stack.push(
            LogIndex(3),
            ConfigChange::JointEnter {
                old: nodes(&[1, 2]),
                new: nodes(&[1, 2, 3, 4, 5]),
            },
        );
        let d = stack.derive(NodeId(1));
        assert!(matches!(&d.elect, QuorumSpec::Joint(groups) if groups.len() == 2));
        stack.push(
            LogIndex(4),
            ConfigChange::JointLeave {
                new: nodes(&[1, 2, 3, 4, 5]),
            },
        );
        let d = stack.derive(NodeId(1));
        assert_eq!(
            d.elect,
            QuorumSpec::simple_majority(nodes(&[1, 2, 3, 4, 5]))
        );
        assert_eq!(d.commit_rule(LogIndex(3)).min_votes(), 5); // joint segment
        assert_eq!(d.commit_rule(LogIndex(4)).min_votes(), 3);
    }

    #[test]
    fn truncation_rolls_back() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        stack.push(LogIndex(8), ConfigChange::SplitNew(split_spec()));
        stack.truncate_from(LogIndex(8));
        let d = stack.derive(NodeId(1));
        assert!(matches!(d.split, Some(SplitPhase::Joint { .. })));
        stack.truncate_from(LogIndex(2));
        let d = stack.derive(NodeId(1));
        assert!(d.split.is_none());
        assert!(stack.check_p1().is_ok());
    }

    #[test]
    fn fold_absorbs_entries() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(
            LogIndex(5),
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5, 6, 7]),
                quorum: 5,
            },
        );
        let new_base = ClusterConfig::with_quorum(
            ClusterId(1),
            nodes(&[1, 2, 3, 4, 5, 6, 7]),
            RangeSet::full(),
            5,
        )
        .unwrap();
        stack.fold(new_base.clone(), LogIndex(5));
        assert!(stack.is_quiescent());
        assert_eq!(stack.base(), &new_base);
        assert_eq!(stack.base_from(), LogIndex(5));
        let d = stack.derive(NodeId(1));
        assert_eq!(d.elect.min_votes(), 5);
    }

    #[test]
    fn merge_entries_tracked() {
        use recraft_types::{MergeDecision, MergeOutcome, MergeParticipant, TxId};
        let tx = MergeTx {
            id: TxId(7),
            coordinator: ClusterId(1),
            participants: vec![
                MergeParticipant {
                    cluster: ClusterId(1),
                    members: nodes(&[1, 2, 3]),
                },
                MergeParticipant {
                    cluster: ClusterId(2),
                    members: nodes(&[4, 5, 6]),
                },
            ],
            new_cluster: ClusterId(3),
            resume_members: None,
        };
        let base = ClusterConfig::new(ClusterId(1), nodes(&[1, 2, 3]), RangeSet::full()).unwrap();
        let mut stack = ConfigStack::new(base, LogIndex::ZERO);
        stack.push(
            LogIndex(4),
            ConfigChange::MergePrepare {
                tx: tx.clone(),
                decision: MergeDecision::Ok,
            },
        );
        let d = stack.derive(NodeId(1));
        assert_eq!(d.merge_tx.as_ref().map(|t| t.id), Some(TxId(7)));
        assert!(!d.proposals_gated()); // regular service continues during TX
        stack.push(
            LogIndex(6),
            ConfigChange::MergeCommit(MergeOutcome::Abort { tx_id: TxId(7) }),
        );
        let d = stack.derive(NodeId(1));
        assert_eq!(d.merge_outcome_index, Some(LogIndex(6)));
        assert!(d.proposals_gated());
        assert_eq!(d.last_config_index, Some(LogIndex(6)));
    }

    #[test]
    fn commit_rule_segment_boundaries() {
        // Segments: [0 -> 6-node majority], [5 -> resize q5], [9 -> resize q6].
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(
            LogIndex(5),
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5, 6]),
                quorum: 5,
            },
        );
        stack.push(
            LogIndex(9),
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5, 6]),
                quorum: 6,
            },
        );
        let d = stack.derive(NodeId(1));
        assert_eq!(d.commit_segments.len(), 3);
        // The sentinel index and everything below the first boundary use the
        // base rule.
        assert_eq!(d.commit_rule(LogIndex::ZERO).min_votes(), 4);
        assert_eq!(d.commit_rule(LogIndex(4)).min_votes(), 4);
        // Exactly on a boundary: the new segment's rule applies to the
        // boundary entry itself (wait-free semantics).
        assert_eq!(d.commit_rule(LogIndex(5)).min_votes(), 5);
        assert_eq!(d.commit_rule(LogIndex(8)).min_votes(), 5);
        assert_eq!(d.commit_rule(LogIndex(9)).min_votes(), 6);
        // Far past the last boundary: the tail rule.
        assert_eq!(d.commit_rule(LogIndex(1_000_000)).min_votes(), 6);
    }

    #[test]
    fn change_at_finds_entry() {
        let mut stack = ConfigStack::new(base6(), LogIndex::ZERO);
        stack.push(LogIndex(5), ConfigChange::SplitJoint(split_spec()));
        assert!(stack.change_at(LogIndex(5)).is_some());
        assert!(stack.change_at(LogIndex(4)).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use recraft_types::{ClusterId, KeyRange};

    fn nodes(lo: u64, hi: u64) -> BTreeSet<NodeId> {
        (lo..=hi).map(NodeId).collect()
    }

    #[derive(Debug, Clone)]
    enum StackOp {
        Resize { n: u64, extra_quorum: usize },
        SplitJoint,
        SplitNew,
        Truncate(u64),
    }

    fn op_strategy() -> impl Strategy<Value = StackOp> {
        prop_oneof![
            3 => (1u64..9, 0usize..3).prop_map(|(n, extra_quorum)| StackOp::Resize {
                n,
                extra_quorum
            }),
            2 => Just(StackOp::SplitJoint),
            2 => Just(StackOp::SplitNew),
            3 => (0u64..64).prop_map(StackOp::Truncate),
        ]
    }

    fn split_spec(members: &BTreeSet<NodeId>) -> Option<SplitSpec> {
        if members.len() < 2 {
            return None;
        }
        let v: Vec<NodeId> = members.iter().copied().collect();
        let half = v.len() / 2;
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(100), v[..half].to_vec(), RangeSet::from(lo)).ok()?,
                ClusterConfig::new(ClusterId(101), v[half..].to_vec(), RangeSet::from(hi)).ok()?,
            ],
            members,
            &RangeSet::full(),
        )
        .ok()
    }

    /// The node every stack is derived for (and, for read rounds, the
    /// leader).
    const ME: NodeId = NodeId(1);

    /// A five-node base and the index [`apply`] pushes at next.
    fn boot_stack() -> (ConfigStack, u64) {
        let base = ClusterConfig::new(ClusterId(1), nodes(1, 5), RangeSet::full()).unwrap();
        (ConfigStack::new(base, LogIndex::ZERO), 1)
    }

    /// Applies `op` the way the protocol could: only what a leader could
    /// legally append given the current stack is pushed.
    fn apply(stack: &mut ConfigStack, next_index: &mut u64, op: StackOp) {
        let derived = stack.derive(ME);
        match op {
            StackOp::Resize { n, extra_quorum } => {
                if stack.is_quiescent() {
                    let members = nodes(1, n);
                    let maj = recraft_types::config::majority(members.len());
                    let quorum = (maj + extra_quorum).min(members.len());
                    stack.push(
                        LogIndex(*next_index),
                        ConfigChange::Resize { members, quorum },
                    );
                    *next_index += 1;
                }
            }
            StackOp::SplitJoint => {
                if stack.is_quiescent() {
                    if let Some(spec) = split_spec(&derived.members) {
                        stack.push(LogIndex(*next_index), ConfigChange::SplitJoint(spec));
                        *next_index += 1;
                    }
                }
            }
            StackOp::SplitNew => {
                if let Some(SplitPhase::Joint { spec, .. }) = derived.split {
                    stack.push(LogIndex(*next_index), ConfigChange::SplitNew(spec));
                    *next_index += 1;
                }
            }
            StackOp::Truncate(i) => {
                if i > stack.base_from().0 {
                    stack.truncate_from(LogIndex(i));
                    *next_index = (*next_index).min(i.max(1));
                }
            }
        }
    }

    proptest! {
        /// Under arbitrary (protocol-plausible) push/truncate sequences the
        /// derivation never panics, commit segments stay sorted, the
        /// election rule's voters are never empty, and quorums never fall
        /// below the majority of their group.
        #[test]
        fn derivation_is_total_and_sane(ops in prop::collection::vec(op_strategy(), 0..24)) {
            let (mut stack, mut next_index) = boot_stack();
            for op in ops {
                apply(&mut stack, &mut next_index, op);
                let d = stack.derive(ME);
                // Segments sorted strictly by starting index.
                for pair in d.commit_segments.windows(2) {
                    prop_assert!(pair[0].0 < pair[1].0);
                }
                prop_assert!(!d.elect.voters().is_empty());
                match &d.elect {
                    QuorumSpec::Single { members, quorum } => {
                        prop_assert!(*quorum >= majority(members.len()));
                        prop_assert!(*quorum <= members.len());
                    }
                    QuorumSpec::Joint(groups) => {
                        for (members, quorum) in groups {
                            prop_assert_eq!(*quorum, majority(members.len()));
                        }
                    }
                }
                // Replication membership always covers the election voters.
                for voter in d.elect.voters() {
                    prop_assert!(d.members.contains(&voter));
                }
                // P1 agrees with stack emptiness.
                prop_assert_eq!(stack.check_p1().is_ok(), stack.is_quiescent());
            }
        }

        /// For every reachable stack and every round-trip ranking (any
        /// subset of the peers, in any order — unranked peers are left
        /// out), a read round either asks the shortest prefix of the
        /// ranking that together with the leader satisfies the tail commit
        /// rule, or broadcasts — and it broadcasts only while a
        /// configuration entry is on the stack or when the ranking cannot
        /// make up the quorum.
        #[test]
        fn read_rounds_ask_a_quorum_or_broadcast(
            ops in prop::collection::vec(op_strategy(), 0..24),
            ranking in prop::collection::vec(2u64..10, 0..12),
        ) {
            let mut ranked: Vec<NodeId> = Vec::new();
            for id in ranking.into_iter().map(NodeId) {
                if !ranked.contains(&id) {
                    ranked.push(id);
                }
            }
            let (mut stack, mut next_index) = boot_stack();
            let mut ops = ops.into_iter();
            loop {
                let d = stack.derive(ME);
                let rule = &d.commit_segments.last().expect("never empty").1;
                let with_leader = |peers: &[NodeId]| -> BTreeSet<NodeId> {
                    std::iter::once(ME).chain(peers.iter().copied()).collect()
                };
                match d.read_quorum(ME, &ranked) {
                    Some(asked) => {
                        prop_assert!(stack.is_quiescent());
                        prop_assert_eq!(asked, &ranked[..asked.len()]);
                        prop_assert!(rule.satisfied(&with_leader(asked)));
                        if let Some((_, shorter)) = asked.split_last() {
                            prop_assert!(!rule.satisfied(&with_leader(shorter)));
                        }
                    }
                    None => prop_assert!(
                        !stack.is_quiescent() || !rule.satisfied(&with_leader(&ranked))
                    ),
                }
                let Some(op) = ops.next() else { break };
                apply(&mut stack, &mut next_index, op);
            }
        }
    }
}
