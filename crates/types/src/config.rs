//! Cluster configurations and the special log entries that change them.
//!
//! A configuration `C` is a member set, a quorum rule, and the key ranges the
//! cluster owns. Reconfigurations are ordinary log entries carrying a
//! [`ConfigChange`] payload; per Raft's wait-free scheme they take effect as
//! soon as they are *appended* (with the split/merge refinements described in
//! `recraft-core`).

use crate::codec;
use crate::codec::{Decode, Encode};
use crate::error::{Error, Result};
use crate::ids::{ClusterId, NodeId, TxId};
use crate::range::RangeSet;
use bytes::{Bytes, BytesMut};
use std::collections::BTreeSet;
use std::fmt;

/// The majority quorum size for an `n`-node cluster: `⌊n/2⌋ + 1`.
///
/// # Example
/// ```
/// use recraft_types::config::majority;
/// assert_eq!(majority(3), 2);
/// assert_eq!(majority(4), 3);
/// assert_eq!(majority(5), 3);
/// ```
#[must_use]
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// The intermediate quorum size `Q_new-q` of ReCraft's membership change
/// (§IV-A): the smallest quorum over the *new* member set that forces every
/// quorum of `C_new-q` to overlap every majority quorum of `C_old`.
///
/// For additions this is the paper's `N_old + n − Q_old + 1`; for removals
/// (members of `C_new` ⊆ `C_old`) the overlap bound is governed by `N_old`,
/// giving `N_old − Q_old + 1` (see DESIGN.md §7 on the paper's formula).
/// The unified form is `max(N_old, N_new) − Q_old + 1`.
///
/// # Example
/// ```
/// use recraft_types::config::{majority, resize_quorum};
/// // Figure 1c: 2-node cluster (Q=2) grows to 5 nodes in one step.
/// assert_eq!(resize_quorum(2, 2, 5), 4);
/// // Adding one node to a 3-node cluster: Q_new-q equals the majority, so a
/// // single consensus step suffices (matches AR-RPC).
/// assert_eq!(resize_quorum(3, 2, 4), majority(4));
/// ```
#[must_use]
pub fn resize_quorum(n_old: usize, q_old: usize, n_new: usize) -> usize {
    n_old.max(n_new) - q_old + 1
}

/// How a configuration counts quorums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuorumRule {
    /// The usual Raft majority of the member set.
    #[default]
    Majority,
    /// A fixed quorum size (used by the intermediate `C_new-q` configuration
    /// of Add/RemoveAndResize). Never smaller than the majority.
    Fixed(usize),
}

/// The configuration of one (sub)cluster: its identity, members, quorum rule
/// and the key ranges it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    id: ClusterId,
    members: BTreeSet<NodeId>,
    quorum: QuorumRule,
    ranges: RangeSet,
}

impl ClusterConfig {
    /// Creates a configuration with a majority quorum.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the member set is empty.
    pub fn new(
        id: ClusterId,
        members: impl IntoIterator<Item = NodeId>,
        ranges: RangeSet,
    ) -> Result<Self> {
        let members: BTreeSet<NodeId> = members.into_iter().collect();
        if members.is_empty() {
            return Err(Error::InvalidConfig("empty member set".into()));
        }
        Ok(ClusterConfig {
            id,
            members,
            quorum: QuorumRule::Majority,
            ranges,
        })
    }

    /// Creates a configuration with an explicit fixed quorum size, as used by
    /// the intermediate `C_new-q` step.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if the member set is empty or the
    /// quorum is smaller than the majority or larger than the cluster
    /// (ReCraft quorums "can temporarily grow larger than the majority but
    /// never smaller", §III-A).
    pub fn with_quorum(
        id: ClusterId,
        members: impl IntoIterator<Item = NodeId>,
        ranges: RangeSet,
        quorum: usize,
    ) -> Result<Self> {
        let mut cfg = ClusterConfig::new(id, members, ranges)?;
        let n = cfg.members.len();
        if quorum < majority(n) || quorum > n {
            return Err(Error::InvalidConfig(format!(
                "quorum {quorum} out of [majority {}..={n}]",
                majority(n)
            )));
        }
        if quorum != majority(n) {
            cfg.quorum = QuorumRule::Fixed(quorum);
        }
        Ok(cfg)
    }

    /// The cluster id.
    #[must_use]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The member node set.
    #[must_use]
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// The number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the member set is empty (never true for validated configs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `node` is a member.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// The key ranges this cluster serves.
    #[must_use]
    pub fn ranges(&self) -> &RangeSet {
        &self.ranges
    }

    /// The quorum rule.
    #[must_use]
    pub fn quorum_rule(&self) -> QuorumRule {
        self.quorum
    }

    /// The effective quorum size.
    #[must_use]
    pub fn quorum_size(&self) -> usize {
        match self.quorum {
            QuorumRule::Majority => majority(self.members.len()),
            QuorumRule::Fixed(q) => q,
        }
    }

    /// Whether `votes ∩ members` reaches the quorum.
    #[must_use]
    pub fn is_quorum(&self, votes: &BTreeSet<NodeId>) -> bool {
        votes.intersection(&self.members).count() >= self.quorum_size()
    }

    /// The number of node failures the configuration tolerates:
    /// `f = n − q` (§III-A).
    #[must_use]
    pub fn fault_tolerance(&self) -> usize {
        self.members.len() - self.quorum_size()
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}} q={}", self.quorum_size())
    }
}

/// The plan for splitting one cluster into `≥ 2` subclusters (the payload of
/// both the `Cjoint` and `Cnew` entries — "Cjoint ... has the same
/// information as Cnew", §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSpec {
    subclusters: Vec<ClusterConfig>,
}

impl SplitSpec {
    /// Validates and creates a split plan.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] unless there are at least two
    /// subclusters with pairwise-disjoint member sets, pairwise-disjoint
    /// ranges, members drawn from `parent_members`, and ranges covered by
    /// `parent_ranges`.
    pub fn new(
        subclusters: Vec<ClusterConfig>,
        parent_members: &BTreeSet<NodeId>,
        parent_ranges: &RangeSet,
    ) -> Result<Self> {
        if subclusters.len() < 2 {
            return Err(Error::InvalidConfig(
                "split needs at least two subclusters".into(),
            ));
        }
        let mut seen_members: BTreeSet<NodeId> = BTreeSet::new();
        let mut combined = RangeSet::empty();
        let mut ids: BTreeSet<ClusterId> = BTreeSet::new();
        for sub in &subclusters {
            if !ids.insert(sub.id()) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate subcluster id {}",
                    sub.id()
                )));
            }
            for m in sub.members() {
                if !parent_members.contains(m) {
                    return Err(Error::InvalidConfig(format!(
                        "subcluster member {m} not in parent cluster"
                    )));
                }
                if !seen_members.insert(*m) {
                    return Err(Error::InvalidConfig(format!(
                        "node {m} assigned to two subclusters"
                    )));
                }
            }
            combined = combined
                .union(sub.ranges())
                .map_err(|_| Error::InvalidConfig("subcluster ranges overlap".into()))?;
        }
        for r in combined.ranges() {
            if !parent_ranges.contains(r.start()) {
                return Err(Error::InvalidConfig(format!(
                    "subcluster range {r} outside parent ranges"
                )));
            }
        }
        Ok(SplitSpec { subclusters })
    }

    /// The planned subcluster configurations.
    #[must_use]
    pub fn subclusters(&self) -> &[ClusterConfig] {
        &self.subclusters
    }

    /// The subcluster (if any) that `node` belongs to after the split — the
    /// node's `Csub` extracted from `Cnew` (§III-B: "the node extracts its
    /// own Csub.i from Cnew and applies it").
    #[must_use]
    pub fn subcluster_of(&self, node: NodeId) -> Option<&ClusterConfig> {
        self.subclusters.iter().find(|c| c.contains(node))
    }

    /// All member nodes across the subclusters.
    #[must_use]
    pub fn all_members(&self) -> BTreeSet<NodeId> {
        self.subclusters
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect()
    }
}

/// One participant of a merge transaction as known to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeParticipant {
    /// The participant cluster's id.
    pub cluster: ClusterId,
    /// The participant cluster's member nodes (from the naming service or the
    /// admin request).
    pub members: BTreeSet<NodeId>,
}

/// The merge transaction intent `C_TX` (§III-C1): which clusters merge, who
/// coordinates, and the identity of the resulting cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeTx {
    /// Unique transaction id ("2PC transactions are designed to be idempotent
    /// using unique ids").
    pub id: TxId,
    /// The coordinating subcluster.
    pub coordinator: ClusterId,
    /// Every merging subcluster, including the coordinator.
    pub participants: Vec<MergeParticipant>,
    /// The id the merged cluster will adopt.
    pub new_cluster: ClusterId,
    /// Optional resumption subset (§III-C2 "Resizing the Merged Cluster"):
    /// must be a union of whole subcluster member sets so the resumed quorum
    /// overlaps the combined quorums of all `Csub`s.
    pub resume_members: Option<BTreeSet<NodeId>>,
}

impl MergeTx {
    /// Validates the transaction shape.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] unless there are ≥ 2 participants
    /// with disjoint member sets, the coordinator is a participant, and any
    /// `resume_members` is a union of whole participant member sets.
    pub fn validate(&self) -> Result<()> {
        if self.participants.len() < 2 {
            return Err(Error::InvalidConfig(
                "merge needs at least two participants".into(),
            ));
        }
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut ids: BTreeSet<ClusterId> = BTreeSet::new();
        for p in &self.participants {
            if !ids.insert(p.cluster) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate merge participant {}",
                    p.cluster
                )));
            }
            if p.members.is_empty() {
                // Every message the 2PC owes a participant goes to one of
                // its members; an empty set leaves it nowhere to go.
                return Err(Error::InvalidConfig(format!(
                    "merge participant {} has no members",
                    p.cluster
                )));
            }
            for m in &p.members {
                if !seen.insert(*m) {
                    return Err(Error::InvalidConfig(format!(
                        "node {m} in two merge participants"
                    )));
                }
            }
        }
        if !ids.contains(&self.coordinator) {
            return Err(Error::InvalidConfig(
                "coordinator is not a merge participant".into(),
            ));
        }
        if let Some(resume) = &self.resume_members {
            // The safety requirement: the resumed member set must be a union
            // of whole subclusters ("selecting all members of one or more
            // Csubs as the resized cluster fulfills this", §III-C2).
            let mut covered: BTreeSet<NodeId> = BTreeSet::new();
            for p in &self.participants {
                if p.members.is_subset(resume) {
                    covered.extend(p.members.iter().copied());
                }
            }
            if covered != *resume || covered.is_empty() {
                return Err(Error::InvalidConfig(
                    "resume_members must be a union of whole subclusters".into(),
                ));
            }
        }
        Ok(())
    }

    /// The full member set of the merged cluster before any resumption
    /// resize.
    #[must_use]
    pub fn all_members(&self) -> BTreeSet<NodeId> {
        self.participants
            .iter()
            .flat_map(|p| p.members.iter().copied())
            .collect()
    }

    /// The member set the merged cluster resumes with.
    #[must_use]
    pub fn resumed_members(&self) -> BTreeSet<NodeId> {
        self.resume_members
            .clone()
            .unwrap_or_else(|| self.all_members())
    }

    /// The participant entry for `cluster`, if present.
    #[must_use]
    pub fn participant(&self, cluster: ClusterId) -> Option<&MergeParticipant> {
        self.participants.iter().find(|p| p.cluster == cluster)
    }
}

/// A participant's local vote on a merge transaction, recorded in its log
/// ("Even when the cluster votes NO, the decision must be recorded", §III-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeDecision {
    /// The cluster agrees to merge.
    Ok,
    /// The cluster refuses (typically P1: an ongoing reconfiguration).
    No,
}

/// The finalized outcome of a merge transaction (phase 2 of the 2PC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeOutcome {
    /// All participants voted OK: the merged configuration `Cnew`.
    Commit {
        /// The transaction being finalized.
        tx: MergeTx,
        /// Combined key ranges of all participants.
        ranges: RangeSet,
        /// `E_new = max(E_i) + 1`, collected during the prepare phase.
        new_epoch: u32,
    },
    /// At least one participant voted NO: `Cabort` nullifying the
    /// transaction.
    Abort {
        /// The transaction being aborted.
        tx_id: TxId,
    },
}

impl MergeOutcome {
    /// The transaction id this outcome finalizes.
    #[must_use]
    pub fn tx_id(&self) -> TxId {
        match self {
            MergeOutcome::Commit { tx, .. } => tx.id,
            MergeOutcome::Abort { tx_id } => *tx_id,
        }
    }
}

/// The payload of a configuration-change log entry.
///
/// The first three variants are the *baseline* Raft schemes the paper
/// compares against (§II-A2); the rest are ReCraft's contributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigChange {
    /// Vanilla Add/RemoveServer RPC: a new member set differing from the old
    /// by exactly one node, majority quorum (baseline).
    Simple { members: BTreeSet<NodeId> },
    /// Vanilla joint consensus, phase 1: `C_old,new` (baseline). Decisions
    /// need majorities of both `old` and `new`.
    JointEnter {
        old: BTreeSet<NodeId>,
        new: BTreeSet<NodeId>,
    },
    /// Vanilla joint consensus, phase 2: `C_new` (baseline).
    JointLeave { new: BTreeSet<NodeId> },
    /// ReCraft Add/RemoveAndResize and ResizeQuorum (§IV-A): the new member
    /// set with an explicit quorum size. `AddAndResize`/`RemoveAndResize`
    /// carry `quorum = Q_new-q`; `ResizeQuorum` carries the majority.
    Resize {
        members: BTreeSet<NodeId>,
        quorum: usize,
    },
    /// ReCraft split, phase 1: enter the joint mode with `Cjoint` (§III-B).
    SplitJoint(SplitSpec),
    /// ReCraft split, phase 2: `Cnew`; committing it completes the split.
    SplitNew(SplitSpec),
    /// ReCraft merge, 2PC phase 1: the transaction intent with this cluster's
    /// local decision (`C_TX'`).
    MergePrepare {
        tx: MergeTx,
        decision: MergeDecision,
    },
    /// ReCraft merge, 2PC phase 2: `Cnew` or `Cabort`.
    MergeCommit(MergeOutcome),
    /// Replace the key ranges this cluster serves (no membership or quorum
    /// change). Not part of ReCraft itself — this is the "commit a new
    /// subrange command" primitive the TiKV/CockroachDB-style external
    /// cluster manager drives (§II-C), used by the TC baseline.
    SetRanges(RangeSet),
}

impl ConfigChange {
    /// A short human-readable tag for traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigChange::Simple { .. } => "simple",
            ConfigChange::JointEnter { .. } => "joint-enter",
            ConfigChange::JointLeave { .. } => "joint-leave",
            ConfigChange::Resize { .. } => "resize",
            ConfigChange::SplitJoint(_) => "split-joint",
            ConfigChange::SplitNew(_) => "split-new",
            ConfigChange::MergePrepare { .. } => "merge-prepare",
            ConfigChange::MergeCommit(_) => "merge-commit",
            ConfigChange::SetRanges(_) => "set-ranges",
        }
    }
}

// ---- Binary codecs ---------------------------------------------------------
//
// Configuration changes ride in persisted log entries (the WAL backend) and
// in snapshot metadata, so everything reachable from [`ConfigChange`] has a
// binary form. Decoding re-validates through the public constructors wherever
// an invariant exists, so corrupt or adversarial bytes can never produce a
// configuration the validators would have rejected: those three decoders
// (`ClusterConfig`, `SplitSpec`, `MergeTx`) are written out; the types that
// only hold validated parts declare their layout with `codec!`.

impl Encode for ClusterConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.members.encode(buf);
        match self.quorum {
            QuorumRule::Majority => None,
            QuorumRule::Fixed(q) => Some(q as u64),
        }
        .encode(buf);
        self.ranges.encode(buf);
    }
}

impl Decode for ClusterConfig {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let id = ClusterId::decode(buf)?;
        let members = BTreeSet::<NodeId>::decode(buf)?;
        let fixed = Option::<u64>::decode(buf)?;
        let ranges = RangeSet::decode(buf)?;
        match fixed {
            None => ClusterConfig::new(id, members, ranges),
            Some(q) => ClusterConfig::with_quorum(id, members, ranges, q as usize),
        }
        .map_err(|e| Error::Codec(format!("invalid persisted ClusterConfig: {e}")))
    }
}

impl Encode for SplitSpec {
    fn encode(&self, buf: &mut BytesMut) {
        self.subclusters.encode(buf);
    }
}

impl Decode for SplitSpec {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let subclusters = Vec::<ClusterConfig>::decode(buf)?;
        // Re-validate against the loosest parent (the union of everything in
        // the spec): disjointness and the two-subcluster minimum still hold.
        let parent_members: BTreeSet<NodeId> = subclusters
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        SplitSpec::new(subclusters, &parent_members, &RangeSet::full())
            .map_err(|e| Error::Codec(format!("invalid persisted SplitSpec: {e}")))
    }
}

codec!(
    struct MergeParticipant {
        cluster: ClusterId,
        members: BTreeSet<NodeId>,
    }
);

impl Encode for MergeTx {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.coordinator.encode(buf);
        self.participants.encode(buf);
        self.new_cluster.encode(buf);
        self.resume_members.encode(buf);
    }
}

impl Decode for MergeTx {
    fn decode(buf: &mut Bytes) -> Result<Self> {
        let tx = MergeTx {
            id: TxId::decode(buf)?,
            coordinator: ClusterId::decode(buf)?,
            participants: Vec::decode(buf)?,
            new_cluster: ClusterId::decode(buf)?,
            resume_members: Option::decode(buf)?,
        };
        tx.validate()
            .map_err(|e| Error::Codec(format!("invalid persisted MergeTx: {e}")))?;
        Ok(tx)
    }
}

codec!(enum MergeDecision {
    0 => No,
    1 => Ok,
});

codec!(enum MergeOutcome {
    0 => Commit {
        tx: MergeTx,
        ranges: RangeSet,
        new_epoch: u32,
    },
    1 => Abort {
        tx_id: TxId,
    },
});

codec!(enum ConfigChange {
    0 => Simple {
        members: BTreeSet<NodeId>,
    },
    1 => JointEnter {
        old: BTreeSet<NodeId>,
        new: BTreeSet<NodeId>,
    },
    2 => JointLeave {
        new: BTreeSet<NodeId>,
    },
    3 => Resize {
        members: BTreeSet<NodeId>,
        quorum: usize,
    },
    4 => SplitJoint(SplitSpec),
    5 => SplitNew(SplitSpec),
    6 => MergePrepare {
        tx: MergeTx,
        decision: MergeDecision,
    },
    7 => MergeCommit(MergeOutcome),
    8 => SetRanges(RangeSet),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::testing::roundtrip;
    use crate::range::KeyRange;

    fn nodes(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn majority_values() {
        let expected = [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (5, 3),
            (6, 4),
            (7, 4),
            (9, 5),
        ];
        for (n, q) in expected {
            assert_eq!(majority(n), q, "majority({n})");
        }
    }

    #[test]
    fn resize_quorum_matches_paper_add_formula() {
        // Q_new-q = N_old + n − Q_old + 1 for additions.
        for n_old in 1..=9usize {
            let q_old = majority(n_old);
            for added in 0..=6usize {
                let n_new = n_old + added;
                assert_eq!(
                    resize_quorum(n_old, q_old, n_new),
                    n_old + added - q_old + 1
                );
            }
        }
    }

    #[test]
    fn resize_quorum_overlap_property() {
        // Any Q_old-subset of C_old and any Q_new-q-subset of C_new must
        // intersect. With one side's members contained in the other's, they
        // can be disjoint only if q_old + q_newq <= max(n_old, n_new).
        for n_old in 1..=9usize {
            let q_old = majority(n_old);
            for n_new in 1..=9usize {
                let q = resize_quorum(n_old, q_old, n_new);
                assert!(
                    q_old + q > n_old.max(n_new),
                    "no overlap for {n_old}->{n_new}"
                );
                // Minimality: one less would allow disjoint quorums.
                assert!(q_old + (q - 1) <= n_old.max(n_new));
            }
        }
    }

    #[test]
    fn remove_cap_is_r_less_than_q_old() {
        // Feasible single-step removal requires Q_new-q <= N_new, which
        // reproduces the paper's cap r < Q_old.
        for n_old in 2..=9usize {
            let q_old = majority(n_old);
            for r in 1..n_old {
                let n_new = n_old - r;
                let feasible = resize_quorum(n_old, q_old, n_new) <= n_new;
                assert_eq!(feasible, r < q_old, "n_old={n_old} r={r}");
            }
        }
    }

    #[test]
    fn cluster_config_quorum() {
        let c = ClusterConfig::new(ClusterId(1), nodes(&[1, 2, 3]), RangeSet::full()).unwrap();
        assert_eq!(c.quorum_size(), 2);
        assert_eq!(c.fault_tolerance(), 1);
        assert!(c.is_quorum(&nodes(&[1, 3])));
        assert!(!c.is_quorum(&nodes(&[1])));
        // Votes from non-members do not count.
        assert!(!c.is_quorum(&nodes(&[1, 9])));
    }

    #[test]
    fn fixed_quorum_bounds() {
        let ok =
            ClusterConfig::with_quorum(ClusterId(1), nodes(&[1, 2, 3, 4, 5]), RangeSet::full(), 4);
        assert_eq!(ok.unwrap().quorum_size(), 4);
        // Below majority: rejected (quorums "never smaller" than majority).
        assert!(ClusterConfig::with_quorum(
            ClusterId(1),
            nodes(&[1, 2, 3, 4, 5]),
            RangeSet::full(),
            2
        )
        .is_err());
        // Above cluster size: rejected.
        assert!(
            ClusterConfig::with_quorum(ClusterId(1), nodes(&[1, 2, 3]), RangeSet::full(), 4)
                .is_err()
        );
    }

    #[test]
    fn empty_member_set_rejected() {
        assert!(ClusterConfig::new(ClusterId(1), [], RangeSet::full()).is_err());
    }

    fn two_way_spec() -> (SplitSpec, BTreeSet<NodeId>) {
        let parent = nodes(&[1, 2, 3, 4, 5, 6]);
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let spec = SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), nodes(&[1, 2, 3]), RangeSet::from(lo)).unwrap(),
                ClusterConfig::new(ClusterId(11), nodes(&[4, 5, 6]), RangeSet::from(hi)).unwrap(),
            ],
            &parent,
            &RangeSet::full(),
        )
        .unwrap();
        (spec, parent)
    }

    #[test]
    fn split_spec_valid() {
        let (spec, _) = two_way_spec();
        assert_eq!(spec.subclusters().len(), 2);
        assert_eq!(spec.subcluster_of(NodeId(2)).unwrap().id(), ClusterId(10));
        assert_eq!(spec.subcluster_of(NodeId(5)).unwrap().id(), ClusterId(11));
        assert!(spec.subcluster_of(NodeId(9)).is_none());
        assert_eq!(spec.all_members(), nodes(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn split_spec_rejects_overlapping_members() {
        let parent = nodes(&[1, 2, 3, 4]);
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let err = SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), nodes(&[1, 2]), RangeSet::from(lo)).unwrap(),
                ClusterConfig::new(ClusterId(11), nodes(&[2, 3]), RangeSet::from(hi)).unwrap(),
            ],
            &parent,
            &RangeSet::full(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn split_spec_rejects_foreign_members() {
        let parent = nodes(&[1, 2]);
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let err = SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), nodes(&[1]), RangeSet::from(lo)).unwrap(),
                ClusterConfig::new(ClusterId(11), nodes(&[7]), RangeSet::from(hi)).unwrap(),
            ],
            &parent,
            &RangeSet::full(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn split_spec_rejects_single_subcluster() {
        let parent = nodes(&[1, 2, 3]);
        let err = SplitSpec::new(
            vec![ClusterConfig::new(ClusterId(10), nodes(&[1, 2, 3]), RangeSet::full()).unwrap()],
            &parent,
            &RangeSet::full(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn split_spec_rejects_overlapping_ranges() {
        let parent = nodes(&[1, 2, 3, 4]);
        let err = SplitSpec::new(
            vec![
                ClusterConfig::new(ClusterId(10), nodes(&[1, 2]), RangeSet::full()).unwrap(),
                ClusterConfig::new(ClusterId(11), nodes(&[3, 4]), RangeSet::full()).unwrap(),
            ],
            &parent,
            &RangeSet::full(),
        );
        assert!(err.is_err());
    }

    fn merge_tx() -> MergeTx {
        MergeTx {
            id: TxId(1),
            coordinator: ClusterId(10),
            participants: vec![
                MergeParticipant {
                    cluster: ClusterId(10),
                    members: nodes(&[1, 2, 3]),
                },
                MergeParticipant {
                    cluster: ClusterId(11),
                    members: nodes(&[4, 5, 6]),
                },
            ],
            new_cluster: ClusterId(20),
            resume_members: None,
        }
    }

    #[test]
    fn merge_tx_valid() {
        let tx = merge_tx();
        tx.validate().unwrap();
        assert_eq!(tx.all_members(), nodes(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(tx.resumed_members(), tx.all_members());
        assert!(tx.participant(ClusterId(11)).is_some());
        assert!(tx.participant(ClusterId(99)).is_none());
    }

    #[test]
    fn merge_tx_rejects_nonparticipant_coordinator() {
        let mut tx = merge_tx();
        tx.coordinator = ClusterId(99);
        assert!(tx.validate().is_err());
    }

    #[test]
    fn merge_tx_rejects_overlapping_members() {
        let mut tx = merge_tx();
        tx.participants[1].members = nodes(&[3, 4, 5]);
        assert!(tx.validate().is_err());
    }

    #[test]
    fn merge_tx_rejects_a_participant_without_members() {
        let mut tx = merge_tx();
        tx.participants[1].members = BTreeSet::new();
        assert!(matches!(tx.validate(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn merge_tx_resume_members_must_be_whole_subclusters() {
        let mut tx = merge_tx();
        tx.resume_members = Some(nodes(&[1, 2, 3]));
        tx.validate().unwrap();
        assert_eq!(tx.resumed_members(), nodes(&[1, 2, 3]));

        // An arbitrary subset (could select only missed-out nodes) is unsafe.
        tx.resume_members = Some(nodes(&[1, 2, 4]));
        assert!(tx.validate().is_err());
    }

    #[test]
    fn merge_outcome_tx_id() {
        let tx = merge_tx();
        let commit = MergeOutcome::Commit {
            tx: tx.clone(),
            ranges: RangeSet::full(),
            new_epoch: 3,
        };
        assert_eq!(commit.tx_id(), TxId(1));
        assert_eq!(MergeOutcome::Abort { tx_id: TxId(2) }.tx_id(), TxId(2));
    }

    #[test]
    fn config_codecs_roundtrip() {
        let (spec, _) = two_way_spec();
        let tx = merge_tx();
        roundtrip(ClusterConfig::new(ClusterId(3), nodes(&[1, 2, 3]), RangeSet::full()).unwrap());
        roundtrip(
            ClusterConfig::with_quorum(ClusterId(3), nodes(&[1, 2, 3, 4, 5]), RangeSet::full(), 4)
                .unwrap(),
        );
        roundtrip(spec.clone());
        roundtrip(tx.clone());
        roundtrip(MergeDecision::Ok);
        roundtrip(MergeDecision::No);
        roundtrip(MergeOutcome::Commit {
            tx: tx.clone(),
            ranges: RangeSet::full(),
            new_epoch: 9,
        });
        roundtrip(MergeOutcome::Abort { tx_id: TxId(4) });
        for change in [
            ConfigChange::Simple {
                members: nodes(&[1, 2, 3]),
            },
            ConfigChange::JointEnter {
                old: nodes(&[1, 2]),
                new: nodes(&[1, 2, 3]),
            },
            ConfigChange::JointLeave {
                new: nodes(&[1, 2, 3]),
            },
            ConfigChange::Resize {
                members: nodes(&[1, 2, 3, 4, 5]),
                quorum: 4,
            },
            ConfigChange::SplitJoint(spec.clone()),
            ConfigChange::SplitNew(spec),
            ConfigChange::MergePrepare {
                tx,
                decision: MergeDecision::Ok,
            },
            ConfigChange::MergeCommit(MergeOutcome::Abort { tx_id: TxId(1) }),
            ConfigChange::SetRanges(RangeSet::full()),
        ] {
            roundtrip(change);
        }
    }

    #[test]
    fn config_decode_revalidates() {
        // An empty member set round-trips the bytes but fails validation.
        let mut buf = BytesMut::new();
        ClusterId(1).encode(&mut buf);
        BTreeSet::<NodeId>::new().encode(&mut buf);
        Option::<u64>::None.encode(&mut buf);
        RangeSet::full().encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(ClusterConfig::decode(&mut bytes).is_err());
        // Garbage never panics.
        let mut junk = Bytes::from_static(&[0xFF, 1, 2, 3]);
        assert!(ConfigChange::decode(&mut junk).is_err());
    }

    #[test]
    fn config_change_kinds() {
        let (spec, _) = two_way_spec();
        assert_eq!(ConfigChange::SplitJoint(spec.clone()).kind(), "split-joint");
        assert_eq!(ConfigChange::SplitNew(spec).kind(), "split-new");
        assert_eq!(
            ConfigChange::Simple {
                members: nodes(&[1])
            }
            .kind(),
            "simple"
        );
    }
}
