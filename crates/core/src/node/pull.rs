//! Pull-based recovery (§III-B).
//!
//! A node that missed a split completion cannot elect a leader under
//! `Cjoint` — peers that moved on have higher epochs and answer vote
//! requests with pull hints instead of votes. The missed-out node then
//! *pulls committed entries* from the hinting peer. Because only committed
//! entries travel, safety is preserved even when the source is itself
//! outdated ("The puller can contact different nodes for the latest data or
//! wait for the outdated node to be updated").
//!
//! A node refuses a puller its reconfiguration history records as having
//! left, and a split record lists only the recording node's *own*
//! subcluster as staying (`members_after`). So recovery needs one member of
//! the puller's own subcluster to have completed the split. When a whole
//! subcluster missed it — every member cut off before `Cjoint` — each
//! sibling reads those members as removed and refuses their pulls: the
//! subcluster stays at the old epoch, its terms climbing, and never
//! recovers. That gap is open; `figure3_scenario.rs` pins it with an
//! ignored test.

use super::replication::cap_batch_bytes;
use super::{Node, PullState, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use recraft_net::Message;
use recraft_storage::{LogEntry, LogStore, Snapshot};
use recraft_types::{ClusterConfig, LogIndex, NodeId};

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Begins (or refocuses) pull-based recovery toward `hint_node`.
    pub(crate) fn start_pull(&mut self, now: u64, hint_node: NodeId) {
        let mut targets = vec![hint_node];
        for peer in self.derived_cached().members.clone() {
            if peer != self.id && peer != hint_node {
                targets.push(peer);
            }
        }
        self.pull = Some(PullState {
            targets,
            cursor: 0,
            next_retry: now + self.timing.pull_retry,
        });
        self.send(
            hint_node,
            Message::PullReq {
                commit_index: self.commit_index,
            },
        );
    }

    /// Retries the pull against the next candidate source.
    pub(crate) fn pull_tick(&mut self, now: u64) {
        let Some(pull) = &mut self.pull else {
            return;
        };
        if now < pull.next_retry {
            return;
        }
        pull.cursor = (pull.cursor + 1) % pull.targets.len();
        pull.next_retry = now + self.timing.pull_retry;
        let target = pull.targets[pull.cursor];
        let commit_index = self.commit_index;
        self.send(target, Message::PullReq { commit_index });
    }

    /// Serves a pull request: committed entries after the puller's commit
    /// index, or our snapshot when the log no longer retains that far back.
    /// One response carries at most `max_batch_bytes` of entries, like an
    /// append — an uncompacted log must not go out as one frame the reader
    /// refuses — and the puller asks again while it is behind.
    pub(crate) fn handle_pull_req(&mut self, from: NodeId, their_commit: LogIndex) {
        let removed = self
            .history
            .iter()
            .any(|r| r.members_before.contains(&from) && !r.members_after.contains(&from));
        // Only nodes of our own lineage — current members or members of a
        // configuration we reconfigured away from — are served entries; an
        // unrelated cluster's node pulling our log would mix lineages.
        let lineage = self.cfg.base().contains(from)
            || self.snap_config.contains(from)
            || self
                .history
                .iter()
                .any(|r| r.members_before.contains(&from));
        let mut entries: Vec<LogEntry> = Vec::new();
        let mut snapshot: Option<Box<Snapshot>> = None;
        let mut snapshot_config: Option<ClusterConfig> = None;
        if removed || !lineage {
            // §V: the reconfiguration history tells the puller it is no
            // longer a member anywhere (or it was never one of ours).
        } else if their_commit >= self.log.base_index() {
            // Serve committed entries only (uncommitted ones may be
            // overwritten and must never travel through pulls).
            entries = self.log.slice(their_commit.next(), self.commit_index);
        } else if self.snap_config.contains(from) {
            // The puller is behind our compaction point but belongs to our
            // configuration: a snapshot restores it.
            snapshot = Some(Box::new(self.snapshot.clone()));
            snapshot_config = Some(self.snap_config.clone());
            entries = self.log.slice(self.log.first_index(), self.commit_index);
        }
        cap_batch_bytes(&mut entries, self.timing.pipeline.max_batch_bytes);
        self.send(
            from,
            Message::PullResp {
                epoch: self.hard.eterm.epoch(),
                entries,
                commit_index: if removed {
                    LogIndex::ZERO
                } else {
                    self.commit_index
                },
                snapshot,
                snapshot_config,
            },
        );
    }

    /// Integrates pulled committed entries (and possibly a snapshot).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_pull_resp(
        &mut self,
        now: u64,
        from: NodeId,
        epoch: u32,
        entries: Vec<LogEntry>,
        commit_index: LogIndex,
        snapshot: Option<Box<Snapshot>>,
        snapshot_config: Option<ClusterConfig>,
    ) {
        if self.role == Role::Leader || self.role == Role::Removed {
            return;
        }
        if let (Some(snap), Some(config)) = (snapshot, snapshot_config) {
            if snap.last_index > self.commit_index && config.contains(self.id) {
                self.install_snapshot_state(*snap, config);
                self.emit(NodeEvent::SnapshotInstalled {
                    from,
                    index: self.log.base_index(),
                });
            }
        }
        let mut count = 0usize;
        // A response may stop short of the responder's commit index (its
        // entries are capped). Only what it carried is known committed here:
        // our own suffix past that may yet be replaced by the next response.
        let mut vouched = self.commit_index;
        for entry in entries {
            if entry.index <= self.log.base_index() {
                continue;
            }
            let index = entry.index;
            match self.log.eterm_at(index) {
                Some(t) if t == entry.eterm => {}
                Some(_) => {
                    // The received entry is committed; ours conflicts and is
                    // therefore uncommitted. Replace it.
                    assert!(
                        entry.index > self.commit_index,
                        "pulled entry conflicts below commit index"
                    );
                    self.log_truncate(entry.index);
                    self.log_append(entry);
                    count += 1;
                }
                None => {
                    if entry.index == self.log.last_index().next() {
                        self.log_append(entry);
                        count += 1;
                    } else {
                        break; // gap: responder was itself behind, retry later
                    }
                }
            }
            vouched = index;
        }
        if count > 0 {
            self.emit(NodeEvent::PulledEntries { from, count });
        }
        // Everything the responder reported committed and carried to us is
        // committed for us too.
        self.set_commit(now, commit_index.min(vouched));
        // If applying brought us into the new epoch (split completed, merge
        // resumed), recovery is done.
        if self.hard.eterm.epoch() >= epoch {
            self.pull = None;
        } else if let Some(pull) = &mut self.pull {
            pull.next_retry = now.min(pull.next_retry);
        }
    }
}
