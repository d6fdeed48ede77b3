//! Leader election with epoch-prefixed terms and ReCraft's pull hints.
//!
//! Elections follow Raft with two ReCraft twists (§III-B):
//!
//! * the election quorum is derived from the config stack — under a split it
//!   is the *joint* quorum (a majority of every subcluster) until `Cnew`
//!   commits;
//! * a voter whose **epoch** is newer than the candidate's answers with a
//!   pull hint instead of a vote (`HandleVote`, Fig. 2 line 51-56), steering
//!   the missed-out node into pull-based recovery rather than letting its
//!   large term disturb an up-to-date subcluster.
//!
//! Who campaigns when: a follower campaigns once its randomized election
//! deadline passes. Every constructor draws that deadline as an *offset*,
//! armed by the first `tick` or `step` that hands the node a clock, so a
//! node built on a host clock long past zero — a reboot through
//! `Node::reopen` — waits a full timeout before it campaigns rather than
//! deposing a live leader on its first tick. Where a configuration is born
//! without a leader, one designated member campaigns on its next tick
//! instead (`Node::campaign_on_next_tick`): the smallest id of a
//! bootstrapped configuration, the smallest id of a split child the old
//! leader is not in, and the node that led a merge's coordinator. The
//! randomized timers of everyone else are the fallback when that node is
//! down or its votes are lost. Joiners never campaign, and a reopened
//! member is never designated.

use super::{Node, Progress, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use recraft_net::{Message, PullHint};
use recraft_storage::LogStore;
use recraft_types::{EpochTerm, LogIndex, NodeId};

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Starts an election for the next term of the current epoch.
    pub(crate) fn campaign(&mut self, now: u64) {
        if self.role == Role::Removed {
            return;
        }
        if !self.bootstrapped {
            // A joiner without a real configuration stays quiet until a
            // leader contacts it.
            self.reset_election_timer(now);
            return;
        }
        if self.cfg.base().id() != self.cluster {
            // Adopted a cluster's identity but still running the joiner
            // placeholder configuration (the real config arrives with the
            // catch-up log or snapshot). The placeholder's only member is
            // this node, so campaigning here would elect a rogue
            // single-node "leader" of the adopted cluster.
            self.reset_election_timer(now);
            return;
        }
        let derived = self.derived_cached();
        let voters = derived.elect.voters();
        if !voters.contains(&self.id) {
            // Not an eligible voter under the effective configuration (e.g.
            // pending removal): stay quiet.
            self.reset_election_timer(now);
            return;
        }
        self.advance_eterm(self.hard.eterm.next_term());
        self.hard.vote(self.id);
        self.touch_meta();
        self.role = Role::Candidate;
        self.leader_hint = None;
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_timer(now);
        let (last_index, last_eterm) = (self.log.last_index(), self.log.last_eterm());
        for peer in voters {
            if peer != self.id {
                self.send(
                    peer,
                    Message::RequestVote {
                        cluster: self.cluster,
                        eterm: self.hard.eterm,
                        last_index,
                        last_eterm,
                    },
                );
            }
        }
        if derived.elect.satisfied(&self.votes) {
            self.become_leader(now);
        }
    }

    /// Responds to a vote solicitation.
    pub(crate) fn handle_request_vote(
        &mut self,
        now: u64,
        from: NodeId,
        cluster: recraft_types::ClusterId,
        eterm: EpochTerm,
        last_index: LogIndex,
        last_eterm: EpochTerm,
    ) {
        if !self.bootstrapped {
            // A joiner has no log or configuration to vote with.
            return;
        }
        // A candidate from an older epoch missed a split/merge completion:
        // tell it to pull committed entries instead of voting (Fig. 2,
        // respondPull) — but only a candidate of our own lineage (our
        // current cluster or an ancestor recorded in the reconfiguration
        // history). Steering an unrelated cluster's candidate into pulling
        // our log would mix lineages.
        if eterm.epoch() < self.hard.eterm.epoch() {
            let lineage =
                cluster == self.cluster || self.history.iter().any(|r| r.old_cluster == cluster);
            if lineage {
                self.send(
                    from,
                    Message::VoteResp {
                        cluster: self.cluster,
                        eterm: self.hard.eterm,
                        granted: false,
                        pull: Some(PullHint {
                            commit_index: self.commit_index,
                            epoch: self.hard.eterm.epoch(),
                        }),
                    },
                );
            }
            return;
        }
        if cluster != self.cluster && eterm.epoch() <= self.cluster_epoch {
            // A sibling or stale cluster's election is not ours to vote in,
            // and its epoch-terms must not leak into our lineage. (A
            // *descendant* generation's candidate falls through: we are a
            // straggler of a completed reconfiguration and our vote is a
            // member's vote in the new cluster.)
            return;
        }
        if eterm > self.hard.eterm {
            self.become_follower(now, eterm, None);
        }
        let log_ok = (last_eterm, last_index) >= (self.log.last_eterm(), self.log.last_index());
        let granted = eterm == self.hard.eterm && log_ok && self.hard.can_vote(from);
        if granted {
            self.hard.vote(from);
            self.touch_meta();
            self.reset_election_timer(now);
        }
        self.send(
            from,
            Message::VoteResp {
                cluster: self.cluster,
                eterm: self.hard.eterm,
                granted,
                pull: None,
            },
        );
    }

    /// Processes a vote response (or a pull hint).
    pub(crate) fn handle_vote_resp(
        &mut self,
        now: u64,
        from: NodeId,
        cluster: recraft_types::ClusterId,
        eterm: EpochTerm,
        granted: bool,
        pull: Option<PullHint>,
    ) {
        if let Some(hint) = pull {
            // Pull hints legitimately cross cluster lineages: the responder
            // is in a descendant configuration we missed.
            if hint.epoch > self.hard.eterm.epoch() {
                self.start_pull(from);
            }
            return;
        }
        if eterm > self.hard.eterm {
            // Step down only within our own lineage; a foreign responder's
            // terms must not leak into this cluster's election.
            if cluster == self.cluster {
                self.become_follower(now, eterm, None);
            }
            return;
        }
        if self.role != Role::Candidate || eterm != self.hard.eterm || !granted {
            return;
        }
        self.votes.insert(from);
        if self.derived_cached().elect.satisfied(&self.votes) {
            self.become_leader(now);
        }
    }

    /// Transitions to leader: initialize peer progress, commit a no-op of the
    /// new term (precondition P3), and resume any interrupted
    /// reconfiguration.
    pub(crate) fn become_leader(&mut self, now: u64) {
        debug_assert_ne!(self.role, Role::Removed);
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.emit(NodeEvent::BecameLeader {
            cluster: self.cluster,
            eterm: self.hard.eterm,
        });
        let last = self.log.last_index();
        self.progress.clear();
        for peer in self.derived_cached().members.clone() {
            if peer != self.id {
                self.progress.insert(peer, Progress::new(last.next()));
            }
        }
        self.heartbeat_due = now + self.timing.heartbeat_interval;
        // The no-op gives P3 its committed own-term entry; an interrupted
        // reconfiguration continues once it commits (see continue_reconfig,
        // called from leader_advance_commit).
        self.propose_entry(now, recraft_storage::EntryPayload::Noop);
    }
}
