//! Persisted ("hard") per-node state.

use recraft_types::{EpochTerm, NodeId};

/// The state a node must persist before answering RPCs: its current
/// epoch-term and the vote it granted in that epoch-term.
///
/// It rides in the node metadata, so it survives every reboot while all
/// volatile state (role, commit index, peer progress) is rebuilt — matching
/// Raft's durability contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardState {
    /// Latest epoch-term this node has seen.
    pub eterm: EpochTerm,
    /// Candidate voted for in `eterm`, if any.
    pub voted_for: Option<NodeId>,
}

impl HardState {
    /// Advances to a newer epoch-term, clearing the vote.
    ///
    /// # Panics
    /// Debug-asserts that the epoch-term never goes backwards (monotonicity
    /// is a safety requirement).
    pub fn advance(&mut self, eterm: EpochTerm) {
        debug_assert!(eterm >= self.eterm, "epoch-term went backwards");
        if eterm > self.eterm {
            self.eterm = eterm;
            self.voted_for = None;
        }
    }

    /// Records a vote for `candidate` in the current epoch-term.
    pub fn vote(&mut self, candidate: NodeId) {
        self.voted_for = Some(candidate);
    }

    /// Whether this node can grant a vote to `candidate` in the current
    /// epoch-term (one vote per epoch-term; repeat votes for the same
    /// candidate are idempotent).
    #[must_use]
    pub fn can_vote(&self, candidate: NodeId) -> bool {
        match self.voted_for {
            None => true,
            Some(v) => v == candidate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_clears_vote() {
        let mut hs = HardState::default();
        hs.vote(NodeId(1));
        assert!(!hs.can_vote(NodeId(2)));
        hs.advance(EpochTerm::new(0, 1));
        assert!(hs.can_vote(NodeId(2)));
    }

    #[test]
    fn advance_same_eterm_keeps_vote() {
        let mut hs = HardState::default();
        hs.advance(EpochTerm::new(0, 1));
        hs.vote(NodeId(1));
        hs.advance(EpochTerm::new(0, 1));
        assert_eq!(hs.voted_for, Some(NodeId(1)));
    }

    #[test]
    fn single_vote_per_term_is_idempotent() {
        let mut hs = HardState::default();
        hs.vote(NodeId(3));
        assert!(hs.can_vote(NodeId(3)));
        assert!(!hs.can_vote(NodeId(4)));
    }
}
