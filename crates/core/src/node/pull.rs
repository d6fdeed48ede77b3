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
//! A pull keeps no timer of its own: it is its list of sources, the hint
//! first, and the one retry rule ([`Node::owed`]) asks the hint at once and,
//! while the node is behind and unanswered, the next source every 150 ms. A
//! response that leaves the puller behind has it ask again at its next
//! tick.
//!
//! A source that compacted past the puller's commit index answers with its
//! snapshot as the install stream's bounded frames, one `PullResp` per
//! frame with the capped entries on the last. The puller feeds them to the
//! same assembler an install stream uses, keyed by source, so the sources
//! its retry rotates through never restart one another's streams; the
//! whole image installs if it is newer than the puller's commit index and
//! its configuration lists the puller. A pull keeps its own message: an
//! install adopts the sender's term and names it leader, a pull does
//! neither.
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
use super::{Node, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use recraft_net::Message;
use recraft_storage::{LogEntry, LogStore, SnapshotFrame};
use recraft_types::{ClusterConfig, LogIndex, NodeId};

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Begins (or refocuses) pull-based recovery toward `hint_node`: the
    /// pull asks the hint at once, then the other members in turn.
    pub(crate) fn start_pull(&mut self, hint_node: NodeId) {
        let derived = self.derived_cached();
        let others = derived.members.iter().copied();
        let others = others.filter(|peer| *peer != self.id && *peer != hint_node);
        self.pull = std::iter::once(hint_node).chain(others).collect();
        self.retry_at = 0;
    }

    /// Serves a pull request: committed entries after the puller's commit
    /// index, or our snapshot when the log no longer retains that far back.
    /// The snapshot goes out as its stream of frames, one response each, so
    /// no response holds more than one chunk of the image; the entries ride
    /// the last. They are capped at `max_batch_bytes`, like an append — an
    /// uncompacted log must not go out as one frame the reader refuses — and
    /// the puller asks again while it is behind.
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
        let mut frames = Vec::new();
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
            frames = self.snapshot.frames();
            entries = self.log.slice(self.log.first_index(), self.commit_index);
        }
        cap_batch_bytes(&mut entries, self.timing.pipeline.max_batch_bytes);
        let epoch = self.hard.eterm.epoch();
        let commit_index = if removed {
            LogIndex::ZERO
        } else {
            self.commit_index
        };
        let snapshot_config = (!frames.is_empty()).then(|| self.snap_config.clone());
        let resp = |entries, frame: Option<SnapshotFrame>| Message::PullResp {
            epoch,
            entries,
            commit_index,
            frame: frame.map(Box::new),
            snapshot_config: snapshot_config.clone(),
        };
        let last = frames.pop();
        for frame in frames {
            self.send(from, resp(Vec::new(), Some(frame)));
        }
        self.send(from, resp(entries, last));
    }

    /// Integrates pulled committed entries, and one frame of a pulled
    /// snapshot with the configuration at it. The frame feeds the install
    /// assembler; the image installs once its stream is whole, under the
    /// same conditions a whole pulled image always did: it is newer than our
    /// commit index and its configuration lists us.
    pub(crate) fn handle_pull_resp(
        &mut self,
        now: u64,
        from: NodeId,
        epoch: u32,
        entries: Vec<LogEntry>,
        commit_index: LogIndex,
        frame: Option<(SnapshotFrame, ClusterConfig)>,
    ) {
        if self.role == Role::Leader || self.role == Role::Removed {
            return;
        }
        // A frame of an image no newer than our commit is not assembled.
        if let Some((frame, config)) = frame.filter(|(f, _)| f.last_index > self.commit_index) {
            let Some((snap, config)) = self.installs.offer(from, frame, config) else {
                return; // the rest of the stream is on its way
            };
            if snap.last_index > self.commit_index && config.contains(self.id) {
                self.install_snapshot_state(snap, config);
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
            self.pull.clear();
        } else if !self.pull.is_empty() {
            self.retry_at = self.retry_at.min(now); // ask again at the next tick
        }
    }
}
