//! The split protocol (§III-B).
//!
//! Phase timeline on the leader:
//!
//! 1. `SplitEnterJoint` — preconditions P1/P2'/P3, append `Cjoint`
//!    (wait-free: the election quorum becomes joint immediately; commits keep
//!    using `Cold`).
//! 2. When `Cjoint` commits, the leader automatically appends `Cnew`
//!    (`SplitLeaveJoint`). From this moment client proposals are gated and
//!    peers in other subclusters receive nothing past `Cnew`.
//! 3. When `Cnew` commits (acknowledged by a majority of the leader's own
//!    subcluster — constituent consensus), the leader multicasts
//!    `NotifyCommit` to all `Cold` members outside its subcluster, folds its
//!    own `Csub`, increments the epoch, and continues as the subcluster's
//!    leader.
//!
//! Followers complete identically when they learn the commit of `Cnew`
//! through `leader_commit`, `NotifyCommit`, or pull-based recovery.

use super::{Node, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use recraft_net::Message;
use recraft_storage::{LogEntry, LogStore};
use recraft_types::{EpochTerm, LogIndex, NodeId, SplitSpec};

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Applies a committed `Cnew`: the split completes on this node. Returns
    /// `true` when the node retired (stops the apply pass).
    pub(crate) fn complete_split(
        &mut self,
        now: u64,
        index: LogIndex,
        entry: &LogEntry,
        spec: &SplitSpec,
    ) -> bool {
        let old_cluster = self.cluster;
        let old_members = self.cfg.base().members().clone();
        let was_leader = self.role == Role::Leader;

        let Some(sub) = spec.subcluster_of(self.id).cloned() else {
            // Left out of every subcluster: retire.
            self.retire(super::ReconfigRecord {
                kind: "split-removed",
                old_cluster,
                new_cluster: old_cluster,
                members_before: old_members,
                members_after: std::collections::BTreeSet::new(),
                at: self.hard.eterm,
                tx: None,
            });
            return true;
        };

        // notifyCommit (Fig. 2 line 30): the completing leader tells every
        // old-cluster node outside its subcluster that Cnew is committed, so
        // their subclusters can elect leaders on their own.
        if was_leader {
            for peer in old_members.iter().copied() {
                if !sub.contains(peer) && peer != self.id {
                    self.send(
                        peer,
                        Message::NotifyCommit {
                            cluster: old_cluster,
                            cnew_index: index,
                            cnew_eterm: entry.eterm,
                        },
                    );
                }
            }
        }

        // applyElectConfig(Csub) + IncEpoch (Fig. 2 lines 31-32). The new
        // epoch is derived from the Cnew *entry's* epoch: a follower that
        // already adopted the completed leader's bumped epoch-term must not
        // bump twice.
        self.cluster = sub.id();
        self.cluster_epoch = entry.eterm.epoch() + 1;
        self.cfg.fold(sub.clone(), index);
        self.sm.retain_ranges(sub.ranges());
        // Pending ReadIndex reads for keys handed to a sibling subcluster
        // must not be served from the just-pruned machine (they would read
        // as absent); bounce them back to the directory. In-range reads
        // survive: their state is untouched by the split.
        let rejected = recraft_types::ClientOutcome::Rejected {
            error: recraft_types::Error::WrongRange(None),
        };
        self.end_reads(|r| !sub.ranges().contains(&r.key), rejected);
        let new_eterm =
            EpochTerm::new(entry.eterm.epoch() + 1, self.hard.eterm.term()).max(self.hard.eterm);
        self.advance_eterm(new_eterm);
        self.pull.clear();
        self.history.push(super::ReconfigRecord {
            kind: "split",
            old_cluster,
            new_cluster: sub.id(),
            members_before: old_members,
            members_after: sub.members().clone(),
            at: new_eterm,
            tx: None,
        });
        self.touch_meta(); // history is durable metadata (survives reboots)
        self.emit(NodeEvent::SplitCompleted {
            old_cluster,
            new_cluster: sub.id(),
            eterm: new_eterm,
            index,
        });

        if was_leader {
            // The completing leader carries its leadership into the new
            // epoch (the paper's SplitLeaveJoint returns SUCCESS with the
            // leader still in place).
            self.role = Role::Leader;
            self.leader_hint = Some(self.id);
            self.progress.retain(|n, _| sub.contains(*n));
            let last = self.log.last_index();
            for peer in sub.members().iter().copied() {
                if peer != self.id {
                    self.progress
                        .entry(peer)
                        .or_insert_with(|| super::Progress::new(last.next()));
                }
            }
            self.emit(NodeEvent::BecameLeader {
                cluster: self.cluster,
                eterm: new_eterm,
            });
            // Commit a no-op of the new epoch: satisfies P3 and propagates
            // the commit of Cnew to subcluster followers.
            self.propose_entry(now, recraft_storage::EntryPayload::Noop);
        } else {
            // A subcluster the old leader is not in has no leader to carry
            // over: its smallest id campaigns at once.
            let orphaned = self.leader_hint.is_some_and(|l| !sub.contains(l));
            self.role = Role::Follower;
            self.leader_hint = None;
            self.reset_election_timer(now);
            if orphaned && sub.members().first() == Some(&self.id) {
                self.campaign_on_next_tick();
            }
        }
        false
    }

    /// Handles the split-commit multicast: if this node holds the `Cnew`
    /// entry it can commit it (and complete); otherwise it must pull.
    pub(crate) fn handle_notify_commit(
        &mut self,
        now: u64,
        from: NodeId,
        cnew_index: LogIndex,
        cnew_eterm: EpochTerm,
    ) {
        if self.hard.eterm.epoch() > cnew_eterm.epoch() {
            return; // already moved past this split
        }
        if self.log.matches(cnew_index, cnew_eterm) {
            // "candidates from other subclusters, if they have Cnew in their
            // log, can know of its commit and elect a leader within its
            // subcluster" (§III-B). Log matching makes the shared prefix
            // identical, so committing up to Cnew is safe.
            self.set_commit(now, cnew_index);
        } else {
            // We lack the entry: recover by pulling from the notifier.
            self.start_pull(from);
        }
    }
}
