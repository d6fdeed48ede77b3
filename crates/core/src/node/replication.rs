//! Pipelined log replication with segmented commit rules.
//!
//! Replication is Raft's, with three ReCraft refinements:
//!
//! * the quorum that commits index `i` depends on `i`'s position relative to
//!   the configuration entries in the log ([`Derived::commit_rule`]);
//! * during a split's leave phase, peers in *other* subclusters never
//!   receive entries past `Cnew` (the replication cap);
//! * the `Cnew` and merge-outcome entries may be committed by direct
//!   acknowledgement counting even when created in an earlier term — their
//!   content is fixed by the reconfiguration in progress, and the paper's
//!   re-execution semantics ("FAILURE ... requires a re-execution, e.g. a
//!   leader committing log entries from past terms") depends on it.
//!
//! # The pipeline
//!
//! The leader streams AppendEntries batches to each follower without
//! waiting for acknowledgements, bounded by the follower's
//! [`ReplicationWindow`](super::ReplicationWindow):
//!
//! * [`Node::push_entries`] fills the window — up to
//!   `PipelineConfig::max_inflight` batches of up to `max_batch_entries` /
//!   `max_batch_bytes` each, so a backlog coalesces into few large frames
//!   while an idle stream sends each proposal the moment it arrives;
//! * successful responses carry a cumulative `match_index` that retires
//!   every covered probe, however reordered or duplicated the responses
//!   arrive;
//! * a rejection rewinds the whole window (everything in flight past a
//!   failed consistency check is doomed) and backs the cursor up to the
//!   follower's conflict hint — just past its log, or the first index of
//!   its run of entries at the rejected point's epoch-term (Raft §5.3) —
//!   then probes with empty appends at `next - 1` until one succeeds, and
//!   streams again from there;
//! * a probe that outlives a heartbeat interval without an acknowledgement
//!   is presumed lost: the window rewinds to `matched + 1` and restreams
//!   (the follower drops duplicates idempotently).
//!
//! [`Derived::commit_rule`]: crate::stack::Derived::commit_rule

use super::{Node, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use recraft_net::Message;
use recraft_storage::{EntryPayload, LogEntry, LogStore, Snapshot};
use recraft_types::{ClusterConfig, ConfigChange, EpochTerm, LogIndex, NodeId};
use std::collections::BTreeSet;

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Aligns the progress map with the effective member set: wait-free
    /// configuration entries add replication targets the moment they are
    /// appended.
    pub(crate) fn sync_progress(&mut self) {
        let members = self.derived_cached().members.clone();
        let last = self.log.last_index();
        self.progress.retain(|peer, _| members.contains(peer));
        for peer in members {
            if peer != self.id {
                self.progress
                    .entry(peer)
                    .or_insert_with(|| super::Progress::new(last.next()));
            }
        }
    }

    /// Sends AppendEntries (or a snapshot) to every peer — heartbeats,
    /// proposals and membership folds go out this way, and each is also a
    /// probe round to every peer.
    pub(crate) fn broadcast_append(&mut self, now: u64) {
        self.sync_progress();
        let peers: Vec<NodeId> = self.progress.keys().copied().collect();
        self.probe_round(now, &peers);
    }

    /// Starts a ReadIndex probe round: every read accepted so far is covered
    /// by the serial the round carries. A round for reads asks only the
    /// peers that answer fastest — as many as the tail commit rule needs
    /// beside the leader ([`Derived::read_quorum`]) — and broadcasts when
    /// the ranking cannot make up such a quorum (a configuration change in
    /// flight, peers not yet timed). What serves a read does not change:
    /// the acknowledgements are counted against the whole rule, so asking
    /// fewer peers only risks waiting for the next heartbeat's broadcast.
    ///
    /// [`Derived::read_quorum`]: crate::stack::Derived::read_quorum
    pub(crate) fn probe_reads(&mut self, now: u64) {
        match self.read_quorum(now) {
            Some(peers) => self.probe_round(now, &peers),
            None => self.broadcast_append(now),
        }
    }

    /// The peers a read round started at `now` would probe, fastest first,
    /// or `None` when it would broadcast. A peer being reconciled or sent
    /// a snapshot is not ranked: its answers are nacks, which confirm
    /// nothing.
    #[must_use]
    pub fn read_quorum(&self, now: u64) -> Option<Vec<NodeId>> {
        if self.role != Role::Leader {
            return None;
        }
        let mut ranked: Vec<(u64, NodeId)> = self
            .progress
            .iter()
            .filter(|(_, pr)| !pr.probing && pr.snapshot_sent.is_none())
            .filter_map(|(peer, pr)| Some((pr.clock.rank(now)?, *peer)))
            .collect();
        ranked.sort_unstable();
        let ranked: Vec<NodeId> = ranked.into_iter().map(|(_, peer)| peer).collect();
        self.derived_current()
            .read_quorum(self.id, &ranked)
            .map(<[NodeId]>::to_vec)
    }

    /// Streams to `peers`; the serial their appends carry covers every read
    /// accepted so far.
    fn probe_round(&mut self, now: u64, peers: &[NodeId]) {
        self.last_probe_serial = self.read_serial;
        for &peer in peers {
            self.send_append(now, peer);
        }
    }

    /// Streams to one peer: pending entries if the pipeline window has room,
    /// else (or when fully caught up) a single empty heartbeat probe so
    /// election suppression, commit propagation, and ReadIndex confirmation
    /// never depend on there being log traffic.
    pub(crate) fn send_append(&mut self, now: u64, peer: NodeId) {
        if !self.push_entries(now, peer) {
            self.send_heartbeat(now, peer);
        }
    }

    /// Fills the peer's pipeline window with entry batches (or requests a
    /// snapshot install when the peer is behind the compaction base).
    /// Returns whether anything was sent.
    pub(crate) fn push_entries(&mut self, now: u64, peer: NodeId) -> bool {
        if self.role != Role::Leader {
            // Nothing sent, and the heartbeat fallback checks again.
            return true;
        }
        let Some(pr) = self.progress.get_mut(&peer) else {
            return true;
        };
        // Loss detection: the oldest in-flight batch went unacknowledged
        // for two full heartbeat intervals — and heartbeats themselves
        // elicit acks (or nacks) that would have retired or rewound it —
        // so presume loss, rewind to the last acknowledged point, and
        // restream. (This is where the per-peer send timestamps earn their
        // keep; duplicates are dropped idempotently on the follower.) The
        // 2x margin keeps a healthy-but-slow ack stream from triggering
        // steady-state full-window retransmits.
        if pr.window.stale(now, 2 * self.timing.heartbeat_interval) {
            pr.window.rewind();
            pr.next = pr.matched.next();
        }
        if pr.probing {
            // Reconciling after a nack: the heartbeat fallback probes at
            // `next - 1`; real entries wait until a probe succeeds.
            return false;
        }
        if pr.next <= self.log.base_index() {
            // The peer needs entries we compacted away (or it comes from a
            // different log lineage, e.g. a merge straggler): stream our
            // snapshot — one bounded frame per state-machine chunk, the
            // configuration at the snapshot point on every frame, the
            // session table on the first frame only. The peer assembles and
            // installs atomically; until its InstallSnapshotResp arrives the
            // stream re-sends whole once a heartbeat interval has passed
            // (frames are idempotent, and a peer that crashed mid-stream
            // starts from scratch by design). In between — every client
            // write broadcasts — the peer gets the heartbeat fallback.
            if pr
                .snapshot_sent
                .is_some_and(|at| now < at + self.timing.heartbeat_interval)
            {
                return false;
            }
            pr.snapshot_sent = Some(now);
            // A split child still holding the parent lineage's snapshot
            // re-stamps it first: a joiner of the child would have to
            // reject parent-labelled frames as foreign.
            self.refresh_stale_snapshot();
            let frames = self.snapshot.frames();
            let config = self.snap_config.clone();
            let cluster = self.cluster;
            let eterm = self.hard.eterm;
            for frame in frames {
                self.send(
                    peer,
                    Message::InstallSnapshot {
                        cluster,
                        eterm,
                        frame: Box::new(frame),
                        config: config.clone(),
                    },
                );
            }
            return true;
        }
        let derived = self.derived_cached();
        let cap = derived.replication_cap(self.id, peer);
        let mut last = self.log.last_index();
        if let Some(cap) = cap {
            last = last.min(cap);
        }
        let pipeline = self.timing.pipeline;
        let mut sent = false;
        while let Some(pr) = self.progress.get(&peer) {
            if pr.next > last || pr.window.depth() >= pipeline.max_inflight {
                break;
            }
            let next = pr.next;
            let prev_index = next.prev();
            let prev_eterm = self
                .log
                .eterm_at(prev_index)
                .expect("prev entry within retained log");
            // Coalesce the backlog: up to max_batch_entries per frame, cut
            // earlier once the payload outgrows max_batch_bytes (always at
            // least one entry so a huge command still replicates).
            let to = last.min(LogIndex(next.0 + pipeline.max_batch_entries as u64 - 1));
            let mut entries = self.log.slice(next, to);
            cap_batch_bytes(&mut entries, pipeline.max_batch_bytes);
            let last_sent = entries.last().map(|e| e.index).expect("nonempty batch");
            let len = last_sent.0 - prev_index.0;
            if let Some(pr) = self.progress.get_mut(&peer) {
                pr.next = last_sent.next();
                pr.window.record(prev_index, len, now);
                pr.clock.sent(self.read_serial, now);
            }
            self.send(
                peer,
                Message::AppendEntries {
                    cluster: self.cluster,
                    eterm: self.hard.eterm,
                    prev_index,
                    prev_eterm,
                    entries,
                    leader_commit: self.commit_index,
                    probe: self.read_serial,
                },
            );
            sent = true;
        }
        sent
    }

    /// Sends one empty AppendEntries probe anchored at the peer's cursor
    /// (at the compaction base for a peer waiting on a snapshot stream):
    /// the heartbeat. Carries `leader_commit` and the ReadIndex probe
    /// serial; the response doubles as the loss detector for an
    /// optimistically advanced cursor (a follower missing the prefix answers
    /// with a conflict hint).
    fn send_heartbeat(&mut self, now: u64, peer: NodeId) {
        if self.role != Role::Leader {
            return;
        }
        let Some(pr) = self.progress.get_mut(&peer) else {
            return;
        };
        pr.clock.sent(self.read_serial, now);
        let prev_index = pr.next.saturating_prev().max(self.log.base_index());
        let prev_eterm = self
            .log
            .eterm_at(prev_index)
            .expect("prev entry within retained log");
        self.send(
            peer,
            Message::AppendEntries {
                cluster: self.cluster,
                eterm: self.hard.eterm,
                prev_index,
                prev_eterm,
                entries: Vec::new(),
                leader_commit: self.commit_index,
                probe: self.read_serial,
            },
        );
    }

    /// Follower-side AppendEntries.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_append(
        &mut self,
        now: u64,
        from: NodeId,
        cluster: recraft_types::ClusterId,
        eterm: EpochTerm,
        prev_index: LogIndex,
        prev_eterm: EpochTerm,
        entries: Vec<LogEntry>,
        leader_commit: LogIndex,
        probe: u64,
    ) {
        if !self.bootstrapped {
            if self.join_target.is_some_and(|target| target != cluster) {
                // Provisioned for a different cluster; this one may still
                // believe we are its member (a re-purposed node).
                return;
            }
            // A joiner adopts the identity of the first eligible cluster
            // whose leader contacts it.
            self.cluster = cluster;
            self.cluster_epoch = eterm.epoch();
            self.bootstrapped = true;
            self.join_target = None;
            self.touch_meta();
        } else if cluster != self.cluster && eterm.epoch() <= self.cluster_epoch {
            // Foreign cluster of the same (or an older) reconfiguration
            // generation: a sibling subcluster, a terminated cluster that
            // still believes we are its member, or plain stale traffic.
            // Dropping it keeps log lineages from mixing. A *descendant*
            // generation (strictly higher epoch — a split subcluster
            // adopting a parent-cluster straggler, a merged cluster rescuing
            // a subcluster straggler) falls through and is processed
            // normally; committing its entries is what completes the
            // reconfiguration on this node.
            return;
        }
        if eterm < self.hard.eterm {
            self.send(
                from,
                Message::AppendResp {
                    cluster: self.cluster,
                    eterm: self.hard.eterm,
                    success: false,
                    match_index: LogIndex::ZERO,
                    conflict: None,
                    probe,
                },
            );
            return;
        }
        self.become_follower(now, eterm, Some(from));
        // A joiner that has adopted this cluster's identity but still runs
        // the placeholder configuration must not accept log entries yet: the
        // cluster's base configuration is not itself a log entry, so a
        // log-only catch-up would leave it folding membership changes over an
        // empty range set (wiping the machine at the next fold point). Only a
        // snapshot carries the configuration — ask for one via conflict = 0,
        // even when the consistency check would pass.
        let placeholder = self.cfg.base().id() != self.cluster;
        if placeholder || !self.log.matches(prev_index, prev_eterm) {
            // Consistency check failed: hint where to back up (Raft §5.3) —
            // just past our log when we lack `prev_index`, else the first
            // index above our base of our run of entries at its epoch-term
            // (epoch-terms never decrease along a log, so that run is
            // contiguous). A mismatch at or below our base means we are on a
            // different log lineage (or hopelessly behind): ask for a
            // snapshot via conflict = 0.
            let base = self.log.base_index();
            let conflict = if placeholder || prev_index <= base {
                LogIndex::ZERO
            } else if let Some(at) = self.log.eterm_at(prev_index) {
                let run = (base.0 + 1..prev_index.0)
                    .rev()
                    .take_while(|&i| self.log.eterm_at(LogIndex(i)) == Some(at))
                    .count();
                LogIndex(prev_index.0 - run as u64)
            } else {
                self.log.last_index().next()
            };
            self.send(
                from,
                Message::AppendResp {
                    cluster: self.cluster,
                    eterm: self.hard.eterm,
                    success: false,
                    match_index: LogIndex::ZERO,
                    conflict: Some(conflict),
                    probe,
                },
            );
            return;
        }
        let mut match_index = prev_index;
        // Partition the batch: skip what we already hold, truncate a
        // conflicting suffix once, and gather everything genuinely new into
        // one run — a single group-commit record on a durable backend
        // instead of one write per entry.
        let mut to_append: Vec<LogEntry> = Vec::new();
        for entry in entries {
            match_index = entry.index;
            if !to_append.is_empty() {
                // Past the first new entry everything is new (contiguous).
                to_append.push(entry);
                continue;
            }
            if entry.index <= self.log.base_index() {
                continue; // already folded into our snapshot
            }
            match self.log.eterm_at(entry.index) {
                Some(t) if t == entry.eterm => {} // already have it
                Some(_) => {
                    // Conflicting uncommitted suffix: replace it.
                    self.log_truncate(entry.index);
                    to_append.push(entry);
                }
                None => {
                    debug_assert_eq!(entry.index, self.log.last_index().next());
                    to_append.push(entry);
                }
            }
        }
        self.log_append_batch(to_append);
        self.send(
            from,
            Message::AppendResp {
                cluster: self.cluster,
                eterm: self.hard.eterm,
                success: true,
                match_index,
                conflict: None,
                probe,
            },
        );
        self.set_commit(now, leader_commit.min(match_index.max(self.commit_index)));
    }

    /// Leader-side AppendEntries response.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_append_resp(
        &mut self,
        now: u64,
        from: NodeId,
        cluster: recraft_types::ClusterId,
        eterm: EpochTerm,
        success: bool,
        match_index: LogIndex,
        conflict: Option<LogIndex>,
        probe: u64,
    ) {
        if eterm > self.hard.eterm {
            // Step down only for our own lineage: a responder that reports a
            // foreign cluster (e.g. a re-purposed member now serving
            // elsewhere) must not leak its terms into this cluster.
            if cluster == self.cluster {
                self.become_follower(now, eterm, None);
            }
            return;
        }
        if self.role != Role::Leader || eterm < self.hard.eterm {
            return;
        }
        let Some(pr) = self.progress.get_mut(&from) else {
            return;
        };
        if success {
            if match_index > pr.matched {
                pr.matched = match_index;
            }
            // The cumulative match retires every in-flight batch it covers
            // — responses may arrive duplicated or out of order, the window
            // accounting only ever moves forward.
            pr.window.ack(pr.matched);
            pr.clock.answered(probe, now);
            // A success ends a probe, and never rolls the cursor back below
            // pipelined in-flight sends.
            pr.probing = false;
            pr.next = pr.next.max(pr.matched.next());
            let advanced = pr.matched > self.commit_index;
            // The successful response at our own epoch-term confirms the
            // responder still recognizes this leadership; credit it to every
            // read batch the echoed probe serial covers.
            self.note_read_ack(now, from, probe);
            // Commit evaluation is amortized over ack batches: one response
            // may retire many pipelined sends, and acks that cannot move the
            // commit index (duplicates, heartbeat echoes) skip the quorum
            // walk entirely.
            if advanced {
                self.leader_advance_commit(now);
            }
            // Refill the freed window slots (push_entries honours the split
            // replication cap, so cross-subcluster peers are never ping-
            // ponged with empty appends past the Cnew entry).
            self.push_entries(now, from);
        } else {
            // Everything in flight past the failed consistency check is
            // doomed with it: rewind the window wholesale and back the cursor
            // up to the peer's hint — never raising it, nor lowering it under
            // the acknowledged prefix.
            pr.window.rewind();
            let hint = conflict.unwrap_or(pr.next.saturating_prev());
            if hint <= self.log.base_index() {
                // The peer rejected even our retained base (or matches
                // nothing we still hold): stream the snapshot — unless a
                // stream is already on its way, in which case this nack
                // answers the heartbeat that stood in for it, and answering
                // that with another heartbeat would never end.
                pr.probing = false;
                pr.next = LogIndex::ZERO;
                self.push_entries(now, from);
            } else {
                // Probe with an empty append at `next - 1`: success resumes
                // streaming there, another nack backs the cursor up again.
                pr.probing = true;
                pr.next = pr.next.min(hint).max(pr.matched.next());
                self.send_heartbeat(now, from);
            }
        }
    }

    /// Advances the leader's commit index under the segmented quorum rules.
    pub(crate) fn leader_advance_commit(&mut self, now: u64) {
        if self.role != Role::Leader {
            return;
        }
        let derived = self.derived_cached();
        let last = self.log.last_index();
        let mut candidate = last;
        let mut new_commit = None;
        while candidate > self.commit_index {
            let mut acks: BTreeSet<NodeId> = BTreeSet::new();
            acks.insert(self.id);
            for (peer, pr) in &self.progress {
                if pr.matched >= candidate {
                    acks.insert(*peer);
                }
            }
            if derived.commit_rule(candidate).satisfied(&acks) {
                let entry = self.log.entry(candidate).expect("entry in range");
                // Raft's own-term restriction, relaxed for the two
                // reconfiguration entries whose content is fixed by the
                // protocol (see module docs).
                let direct_ok = entry.eterm == self.hard.eterm
                    || matches!(
                        entry.payload,
                        EntryPayload::Config(ConfigChange::SplitNew(_))
                            | EntryPayload::Config(ConfigChange::MergeCommit(_))
                    );
                if direct_ok {
                    new_commit = Some(candidate);
                    break;
                }
            }
            candidate = candidate.prev();
        }
        if let Some(idx) = new_commit {
            let had_p3 = self.committed_in_term;
            self.set_commit(now, idx);
            if !had_p3 && self.committed_in_term {
                // P3 just became true: continuations deferred on it can run.
                self.continue_reconfig(now);
            }
        }
    }

    /// One frame of a chunked snapshot stream arrived. Frames feed the
    /// node's [`Assembler`](recraft_storage::Assembler), and the snapshot
    /// installs atomically once its stream is whole — a follower that
    /// crashes mid-stream drops the partial image and re-assembles from
    /// scratch, so a partial snapshot is never installed. Adopting the
    /// configuration at the snapshot point is also how merge stragglers
    /// from other subclusters are restored, §III-C2.
    pub(crate) fn handle_install_snapshot_frame(
        &mut self,
        now: u64,
        from: NodeId,
        eterm: EpochTerm,
        frame: recraft_storage::SnapshotFrame,
        config: ClusterConfig,
    ) {
        // Foreign cluster: only a descendant generation (strictly higher
        // epoch) may install its world over ours — the split/merge straggler
        // rescue. Anything else is a sibling or stale cluster.
        let foreign = self.bootstrapped && config.id() != self.cluster;
        if (!self.bootstrapped && self.join_target.is_some_and(|target| target != config.id()))
            || (foreign && eterm.epoch() <= self.cluster_epoch)
        {
            return;
        }
        // Our own cluster's stream at a stale term is only acknowledged.
        if foreign || eterm >= self.hard.eterm {
            self.become_follower(now, eterm, Some(from));
            // Nothing newer here — unless we are a joiner still on the
            // placeholder configuration, for which even an index-0 snapshot
            // is news: it carries the cluster's base configuration, which no
            // log entry ever does.
            let stale = frame.last_index <= self.commit_index
                && frame.cluster == self.cluster
                && self.cfg.base().id() == self.cluster;
            if !stale {
                let Some((snapshot, config)) = self.installs.offer(from, frame, config) else {
                    return; // keep assembling
                };
                self.install_snapshot_state(snapshot, config);
                self.emit(NodeEvent::SnapshotInstalled {
                    from,
                    index: self.log.base_index(),
                });
            }
        }
        self.send(
            from,
            Message::InstallSnapshotResp {
                eterm: self.hard.eterm,
                last_index: self.log.last_index(),
            },
        );
    }

    /// Replaces log, state machine, and configuration with a snapshot.
    pub(crate) fn install_snapshot_state(&mut self, snapshot: Snapshot, config: ClusterConfig) {
        self.bootstrapped = true;
        self.join_target = None;
        // The snapshot's tail epoch approximates the epoch its cluster was
        // created at. It can *understate* it (a snapshot compacted exactly at
        // a Cnew entry carries the parent epoch), so a same-cluster install
        // must never lower the lineage epoch we already know — that would
        // re-open the foreign-traffic gates this field scopes.
        let floor = if config.id() == self.cluster {
            self.cluster_epoch
        } else {
            0
        };
        self.cluster_epoch = floor.max(snapshot.last_eterm.epoch());
        self.cluster = config.id();
        // Durability order (see `persist_meta_now`): the adopted identity,
        // then the snapshot, and only then the log reset past it — a crash
        // at any point reboots into a state the new cluster's leader can
        // repair by reinstalling.
        self.persist_meta_now();
        self.sm
            .restore_chunks(&snapshot.chunks)
            .expect("leader snapshot must decode");
        self.log.save_snapshot(&snapshot, &config);
        self.log.reset(snapshot.last_index, snapshot.last_eterm);
        self.commit_index = snapshot.last_index;
        self.applied_index = snapshot.last_index;
        self.cfg.reset(config.clone(), snapshot.last_index);
        self.pending_clients.clear();
        self.pending_reads.clear();
        self.sessions = snapshot.sessions.clone();
        // A pending exchange is superseded: the snapshot describes the world
        // after the reconfiguration. (The assembler that completed it dropped
        // every other stream.)
        self.exchange = None;
        self.pull.clear();
        self.snapshot = snapshot;
        self.snap_config = config;
    }

    /// Leader-side snapshot acknowledgement.
    pub(crate) fn handle_install_snapshot_resp(
        &mut self,
        now: u64,
        from: NodeId,
        eterm: EpochTerm,
        last_index: LogIndex,
    ) {
        if eterm > self.hard.eterm {
            self.become_follower(now, eterm, None);
            return;
        }
        if self.role != Role::Leader {
            return;
        }
        // Credit replication only up to the snapshot boundary we sent. The
        // responder reports its own last index, which can include an
        // uncommitted tail from an older leader that matches nothing of
        // ours — counting it as replicated would both over-claim quorum
        // acknowledgements and point `next` past our log. Up to the
        // snapshot index the responder's *committed* prefix provably agrees
        // with us, so that much is safe to credit.
        let confirmed = last_index.min(self.snapshot.last_index);
        if let Some(pr) = self.progress.get_mut(&from) {
            if confirmed > pr.matched {
                pr.matched = confirmed;
            }
            pr.next = pr.matched.next();
            // In-flight probes anchored before the install are void, and the
            // snapshot boundary supersedes any reconciliation probe.
            pr.window.rewind();
            pr.probing = false;
            pr.snapshot_sent = None;
            self.leader_advance_commit(now);
            self.push_entries(now, from);
        }
    }

    /// The deepest per-peer in-flight pipeline window right now (leader
    /// observability: the simulator samples this into its depth histogram).
    #[must_use]
    pub fn max_inflight_depth(&self) -> usize {
        self.progress
            .values()
            .map(|pr| pr.window.depth())
            .max()
            .unwrap_or(0)
    }
}

/// Cuts a run of entries where its payload outgrows `max_bytes` — the one
/// bound on what a single frame carries, for appends and pull responses
/// alike. Always keeps at least one entry.
pub(super) fn cap_batch_bytes(entries: &mut Vec<LogEntry>, max_bytes: usize) {
    let mut bytes = 0usize;
    for (i, e) in entries.iter().enumerate() {
        bytes += payload_bytes(e);
        if bytes > max_bytes && i > 0 {
            entries.truncate(i);
            return;
        }
    }
}

/// Approximate wire payload of one entry — the accounting unit behind the
/// `max_batch_bytes` coalescing bound.
pub(super) fn payload_bytes(entry: &LogEntry) -> usize {
    match &entry.payload {
        EntryPayload::Noop => 8,
        EntryPayload::Command(cmd) => cmd.len() + 16,
        EntryPayload::SessionCommand { cmd, .. } => cmd.len() + 32,
        EntryPayload::Config(_) => 64,
    }
}
