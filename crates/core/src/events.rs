//! Trace events emitted by nodes.
//!
//! Events are the observability plane of the sans-io node: the simulator and
//! the benchmark harnesses consume them to time reconfiguration phases
//! (Figures 7b and 8b), detect completion, and check the paper's safety
//! definitions across nodes.

use recraft_types::{ClusterId, EpochTerm, LogIndex, MergeDecision, NodeId, TxId};
use std::collections::BTreeSet;

/// Something observable happened on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// This node won an election (or carried leadership through a split
    /// completion).
    BecameLeader {
        /// Cluster being led.
        cluster: ClusterId,
        /// Leadership epoch-term.
        eterm: EpochTerm,
    },
    /// This node lost leadership.
    SteppedDown {
        /// Cluster it was leading.
        cluster: ClusterId,
    },
    /// A configuration-change entry entered the log (wait-free application
    /// point).
    ConfigAppended {
        /// The change's kind tag.
        kind: &'static str,
        /// Its log position.
        index: LogIndex,
    },
    /// The `Cjoint` split entry committed (the leader may now leave).
    SplitJointCommitted {
        /// Its log position.
        index: LogIndex,
    },
    /// The split completed on this node: it now runs as its subcluster with a
    /// bumped epoch.
    SplitCompleted {
        /// The pre-split cluster.
        old_cluster: ClusterId,
        /// This node's subcluster.
        new_cluster: ClusterId,
        /// The node's epoch-term after `IncEpoch`.
        eterm: EpochTerm,
        /// The `Cnew` entry position in the old log.
        index: LogIndex,
    },
    /// This node was left out of a reconfiguration and retired.
    Removed {
        /// Cluster it last belonged to.
        cluster: ClusterId,
    },
    /// A merge prepare decision committed on this cluster (phase 1 of the
    /// 2PC, durable).
    MergePrepareCommitted {
        /// The transaction.
        tx: TxId,
        /// The recorded local decision.
        decision: MergeDecision,
    },
    /// A merge outcome committed on this cluster (phase 2 of the 2PC).
    MergeOutcomeCommitted {
        /// The transaction.
        tx: TxId,
        /// `true` for `Cnew`, `false` for `Cabort`.
        committed: bool,
    },
    /// This node entered the blocking data-exchange phase.
    MergeExchangeStarted {
        /// The transaction.
        tx: TxId,
    },
    /// This node resumed as a member of the merged cluster.
    MergeResumed {
        /// The transaction.
        tx: TxId,
        /// The merged cluster id.
        new_cluster: ClusterId,
        /// Epoch-term after resumption (`(E_new, 0)`).
        eterm: EpochTerm,
    },
    /// A membership change took effect (committed and folded into the base
    /// configuration).
    MembershipCommitted {
        /// The change's kind tag.
        kind: &'static str,
        /// The resulting member set.
        members: BTreeSet<NodeId>,
        /// The resulting quorum size.
        quorum: usize,
        /// Log position of the change.
        index: LogIndex,
    },
    /// The served key ranges changed (TC baseline's subrange command).
    RangesChanged {
        /// Log position of the change.
        index: recraft_types::LogIndex,
        /// The new range set.
        ranges: recraft_types::RangeSet,
    },
    /// A snapshot from a leader replaced this node's state.
    SnapshotInstalled {
        /// The sending leader.
        from: NodeId,
        /// New log base.
        index: LogIndex,
    },
    /// Pull-based recovery fetched committed entries (split §III-B).
    PulledEntries {
        /// The node pulled from.
        from: NodeId,
        /// Number of entries obtained.
        count: usize,
    },
    /// A command was applied to the state machine. `digest` fingerprints the
    /// command so the simulator can assert state-machine safety (Theorem 1)
    /// across nodes.
    AppliedCommand {
        /// The cluster the node belonged to at apply time.
        cluster: ClusterId,
        /// Log position applied.
        index: LogIndex,
        /// FNV-1a fingerprint of the command bytes.
        digest: u64,
    },
    /// A linearizable read was served through the leader's ReadIndex path —
    /// quorum-confirmed, answered from the applied state, **no log entry**.
    /// The simulator slots the digest into its apply-order witness so these
    /// reads participate in linearizability checking.
    ServedRead {
        /// The serving leader's cluster.
        cluster: ClusterId,
        /// The confirmed commit index the read was ordered after.
        index: LogIndex,
        /// [`read_fingerprint`] of the read's `(session, seq)`.
        digest: u64,
    },
}

impl NodeEvent {
    /// A short tag for metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            NodeEvent::BecameLeader { .. } => "became-leader",
            NodeEvent::SteppedDown { .. } => "stepped-down",
            NodeEvent::ConfigAppended { .. } => "config-appended",
            NodeEvent::SplitJointCommitted { .. } => "split-joint-committed",
            NodeEvent::SplitCompleted { .. } => "split-completed",
            NodeEvent::Removed { .. } => "removed",
            NodeEvent::MergePrepareCommitted { .. } => "merge-prepare-committed",
            NodeEvent::MergeOutcomeCommitted { .. } => "merge-outcome-committed",
            NodeEvent::MergeExchangeStarted { .. } => "merge-exchange-started",
            NodeEvent::MergeResumed { .. } => "merge-resumed",
            NodeEvent::MembershipCommitted { .. } => "membership-committed",
            NodeEvent::RangesChanged { .. } => "ranges-changed",
            NodeEvent::SnapshotInstalled { .. } => "snapshot-installed",
            NodeEvent::PulledEntries { .. } => "pulled-entries",
            NodeEvent::AppliedCommand { .. } => "applied-command",
            NodeEvent::ServedRead { .. } => "served-read",
        }
    }
}

/// FNV-1a fingerprint used for cross-node state-machine safety checks.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint identifying a ReadIndex-served read in the apply-order
/// witness. The leading tag byte keeps read digests out of the value space
/// of command digests (commands start with their codec tag).
#[must_use]
pub fn read_fingerprint(session: recraft_types::SessionId, seq: u64) -> u64 {
    let mut bytes = [0u8; 17];
    bytes[0] = 0xFE;
    bytes[1..9].copy_from_slice(&session.0.to_be_bytes());
    bytes[9..17].copy_from_slice(&seq.to_be_bytes());
    fingerprint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes() {
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"same"), fingerprint(b"same"));
        assert_ne!(fingerprint(b""), 0);
    }

    #[test]
    fn kinds_cover_variants() {
        let e = NodeEvent::Removed {
            cluster: ClusterId(1),
        };
        assert_eq!(e.kind(), "removed");
    }
}
