//! The merge protocol (§III-C): a cluster-level two-phase commit followed by
//! snapshot exchange and resumption.
//!
//! Roles:
//!
//! * **Coordinator** — the cluster whose leader received the merge request.
//!   It records its own OK decision in its Raft log (phase-1 durable write),
//!   sends `MergePrepareReq` to every other participant, collects decisions,
//!   finalizes `Cnew`/`Cabort`, records it locally and spreads it
//!   (`MergeCommitReq`). The coordinator is "naturally as robust as the Raft
//!   cluster": a failover leader rebuilds the driver from the committed log
//!   entries and resumes idempotently.
//! * **Participant** — decides OK/NO under preconditions P1/P2'/P3, commits
//!   the decision *before* responding, and later commits the outcome.
//!
//! Once `Cnew` commits on a cluster, each node snapshots its local state up
//! to the entry before `Cnew`, discards the tail, exchanges snapshots with
//! the other subclusters, and resumes as the merged cluster at
//! `(E_new = max E_i + 1, term 0)` with a fresh log whose first entry is
//! `Cnew`. A node can only resume after *every* participant produced its
//! part, which implies every participant committed the outcome — the
//! coordinator's "apply last after all acks" is therefore implied by the
//! data dependency.
//!
//! A part travels as the install stream's bounded frames, one
//! `FetchSnapshotResp` each. The fetcher asks one member of each missing
//! participant per retry interval, rotating, and keeps one assembly per
//! participant whose first completed stream is the part. The server side is
//! bounded: a node keeps only its latest transaction's part (a reboot loses
//! it anyway), and parks a fetch that arrives before its part exists only
//! while it has prepared that transaction; anything else goes unanswered
//! and the fetcher's retry covers it.

use super::{DriverStage, Exchange, MergeDriver, Node, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use bytes::Bytes;
use recraft_net::Message;
use recraft_storage::{LogEntry, LogStore, Snapshot, SnapshotFrame};
use recraft_types::{
    ClusterConfig, ClusterId, ConfigChange, EpochTerm, LogIndex, MergeDecision, MergeOutcome,
    MergeTx, NodeId, RangeSet, TxId,
};
use std::collections::BTreeMap;

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    // ---- Coordinator side --------------------------------------------------

    /// Starts coordinating a merge (preconditions already validated by the
    /// admin path). Records the local OK decision; the prepare fan-out starts
    /// once it commits.
    pub(crate) fn start_merge_coordinator(&mut self, now: u64, tx: MergeTx) {
        self.driver = Some(MergeDriver {
            tx: tx.clone(),
            stage: DriverStage::LocalPrepare,
            responses: BTreeMap::new(),
            outcome: None,
            acks: std::collections::BTreeSet::new(),
            cursors: BTreeMap::new(),
            next_retry: now + self.timing.rpc_retry,
        });
        self.propose_config(
            now,
            ConfigChange::MergePrepare {
                tx,
                decision: MergeDecision::Ok,
            },
        );
    }

    /// A `MergePrepare` entry committed on this cluster.
    pub(crate) fn on_merge_prepare_committed(
        &mut self,
        now: u64,
        tx: &MergeTx,
        decision: MergeDecision,
    ) {
        self.emit(NodeEvent::MergePrepareCommitted {
            tx: tx.id,
            decision,
        });
        // Participant: answer the coordinator that asked (decision is now
        // durable, Fig. 4 lines 32-36).
        if let Some(requester) = self.pending_2pc.remove(&tx.id) {
            let ranges = self.cfg.base().ranges().clone();
            self.send(
                requester,
                Message::MergePrepareResp {
                    tx_id: tx.id,
                    cluster: self.cluster,
                    decision,
                    epoch: self.hard.eterm.epoch(),
                    ranges,
                },
            );
        }
        // Coordinator: record own response and fan out prepares.
        let epoch = self.hard.eterm.epoch();
        let ranges = self.cfg.base().ranges().clone();
        let cluster = self.cluster;
        if let Some(driver) = &mut self.driver {
            if driver.tx.id == tx.id && driver.stage == DriverStage::LocalPrepare {
                driver
                    .responses
                    .insert(cluster, (decision == MergeDecision::Ok, epoch, ranges));
                driver.stage = DriverStage::AwaitPrepare;
                driver.next_retry = now; // fire immediately on next tick
                self.driver_send_prepares(now);
            }
        }
    }

    /// Sends (or resends) prepare requests to participants that have not yet
    /// answered.
    fn driver_send_prepares(&mut self, now: u64) {
        let Some(driver) = &mut self.driver else {
            return;
        };
        let mut sends: Vec<(NodeId, MergeTx)> = Vec::new();
        for p in &driver.tx.participants {
            if driver.responses.contains_key(&p.cluster) {
                continue;
            }
            let members: Vec<NodeId> = p.members.iter().copied().collect();
            let cursor = driver.cursors.entry(p.cluster).or_insert(0);
            let target = members[*cursor % members.len()];
            *cursor += 1;
            sends.push((target, driver.tx.clone()));
        }
        driver.next_retry = now + self.timing.rpc_retry;
        for (target, tx) in sends {
            self.send(target, Message::MergePrepareReq { tx });
        }
    }

    /// Coordinator: a participant's durable decision arrived.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_merge_prepare_resp(
        &mut self,
        now: u64,
        _from: NodeId,
        tx_id: TxId,
        cluster: ClusterId,
        decision: MergeDecision,
        epoch: u32,
        ranges: RangeSet,
    ) {
        let Some(driver) = &mut self.driver else {
            return;
        };
        if driver.tx.id != tx_id || driver.stage != DriverStage::AwaitPrepare {
            return;
        }
        driver
            .responses
            .insert(cluster, (decision == MergeDecision::Ok, epoch, ranges));
        if driver.responses.len() < driver.tx.participants.len() {
            return;
        }
        // All decisions are in: finalize.
        let all_ok = driver.responses.values().all(|(ok, _, _)| *ok);
        let combined = driver
            .responses
            .values()
            .try_fold(RangeSet::empty(), |acc, (_, _, r)| acc.union(r));
        let outcome = match (all_ok, combined) {
            (true, Ok(ranges)) => {
                let new_epoch = driver
                    .responses
                    .values()
                    .map(|(_, e, _)| *e)
                    .max()
                    .unwrap_or(0)
                    + 1;
                MergeOutcome::Commit {
                    tx: driver.tx.clone(),
                    ranges,
                    new_epoch,
                }
            }
            // A NO vote, or overlapping ranges (P2' at the cluster level):
            // abort.
            _ => MergeOutcome::Abort { tx_id },
        };
        driver.outcome = Some(outcome.clone());
        driver.stage = DriverStage::SpreadOutcome;
        driver.next_retry = now;
        self.propose_config(now, ConfigChange::MergeCommit(outcome));
        self.driver_send_outcome(now);
    }

    /// Sends (or resends) the finalized outcome to participants that have not
    /// acknowledged it.
    fn driver_send_outcome(&mut self, now: u64) {
        let Some(driver) = &mut self.driver else {
            return;
        };
        let Some(outcome) = driver.outcome.clone() else {
            return;
        };
        let own = self.cluster;
        let mut sends: Vec<(NodeId, MergeOutcome)> = Vec::new();
        for p in &driver.tx.participants {
            if p.cluster == own || driver.acks.contains(&p.cluster) {
                continue;
            }
            let members: Vec<NodeId> = p.members.iter().copied().collect();
            let cursor = driver.cursors.entry(p.cluster).or_insert(0);
            let target = members[*cursor % members.len()];
            *cursor += 1;
            sends.push((target, outcome.clone()));
        }
        driver.next_retry = now + self.timing.rpc_retry;
        for (target, outcome) in sends {
            self.send(target, Message::MergeCommitReq { outcome });
        }
    }

    /// Coordinator retry loop.
    pub(crate) fn driver_tick(&mut self, now: u64) {
        let Some(driver) = &self.driver else {
            return;
        };
        if now < driver.next_retry {
            return;
        }
        match driver.stage {
            DriverStage::LocalPrepare => {
                // Waiting for our own commit; replication retries handle it.
                if let Some(d) = &mut self.driver {
                    d.next_retry = now + self.timing.rpc_retry;
                }
            }
            DriverStage::AwaitPrepare => self.driver_send_prepares(now),
            DriverStage::SpreadOutcome => self.driver_send_outcome(now),
        }
    }

    /// A participant pointed us at its current leader.
    pub(crate) fn handle_merge_redirect(&mut self, now: u64, tx_id: TxId, leader: Option<NodeId>) {
        let Some(driver) = &self.driver else {
            return;
        };
        if driver.tx.id != tx_id {
            return;
        }
        let Some(leader) = leader else {
            return;
        };
        match driver.stage {
            DriverStage::AwaitPrepare => {
                let tx = driver.tx.clone();
                self.send(leader, Message::MergePrepareReq { tx });
            }
            DriverStage::SpreadOutcome => {
                if let Some(outcome) = driver.outcome.clone() {
                    self.send(leader, Message::MergeCommitReq { outcome });
                }
            }
            DriverStage::LocalPrepare => {}
        }
        let _ = now;
    }

    /// Coordinator: a participant durably recorded the outcome.
    pub(crate) fn handle_merge_commit_resp(&mut self, _now: u64, tx_id: TxId, cluster: ClusterId) {
        if let Some(driver) = &mut self.driver {
            if driver.tx.id == tx_id {
                driver.acks.insert(cluster);
            }
        }
    }

    /// Rebuilds the coordinator driver after a leader change (Raft + 2PC
    /// recovery, §III-C1 "Handling Failures").
    pub(crate) fn rebuild_merge_driver(&mut self, now: u64) {
        if self.driver.is_some() || self.role != Role::Leader {
            return;
        }
        let mut prepare: Option<(LogIndex, MergeTx)> = None;
        let mut outcome: Option<(LogIndex, MergeOutcome)> = None;
        for (index, change) in self.cfg.entries() {
            match change {
                ConfigChange::MergePrepare { tx, .. } if tx.coordinator == self.cluster => {
                    prepare = Some((*index, tx.clone()));
                }
                ConfigChange::MergeCommit(o) => outcome = Some((*index, o.clone())),
                _ => {}
            }
        }
        // An exchange in progress also implies a committed outcome.
        if outcome.is_none() {
            if let Some(ex) = &self.exchange {
                if ex.tx.coordinator == self.cluster {
                    prepare = Some((LogIndex::ZERO, ex.tx.clone()));
                    outcome = Some((LogIndex::ZERO, ex.outcome.clone()));
                }
            }
        }
        let Some((prep_index, tx)) = prepare else {
            return;
        };
        let mut driver = MergeDriver {
            tx: tx.clone(),
            stage: DriverStage::LocalPrepare,
            responses: BTreeMap::new(),
            outcome: None,
            acks: std::collections::BTreeSet::new(),
            cursors: BTreeMap::new(),
            next_retry: now,
        };
        if let Some((_, o)) = outcome {
            driver.stage = DriverStage::SpreadOutcome;
            driver.outcome = Some(o);
            driver.acks.insert(self.cluster);
        } else if prep_index <= self.commit_index {
            driver.stage = DriverStage::AwaitPrepare;
            driver.responses.insert(
                self.cluster,
                (
                    true,
                    self.hard.eterm.epoch(),
                    self.cfg.base().ranges().clone(),
                ),
            );
        }
        self.driver = Some(driver);
        self.driver_tick(now);
    }

    // ---- Participant side --------------------------------------------------

    /// Phase-1 request from a coordinator (Fig. 4, HandleMergePrepare).
    pub(crate) fn handle_merge_prepare_req(&mut self, now: u64, from: NodeId, tx: MergeTx) {
        if self.role != Role::Leader {
            self.send(
                from,
                Message::MergeRedirect {
                    tx_id: tx.id,
                    leader: self.leader_hint,
                },
            );
            return;
        }
        // Duplicate delivery: if the decision is already in our log, answer
        // from the record (idempotence via the unique transaction id).
        if let Some((index, decision)) = self.find_prepare(tx.id) {
            if index <= self.commit_index {
                let ranges = self.cfg.base().ranges().clone();
                let epoch = self.hard.eterm.epoch();
                self.send(
                    from,
                    Message::MergePrepareResp {
                        tx_id: tx.id,
                        cluster: self.cluster,
                        decision,
                        epoch,
                        ranges,
                    },
                );
            } else {
                self.pending_2pc.insert(tx.id, from);
            }
            return;
        }
        // Deciding NO is stateless (presumed abort): no OK promise is ever
        // made without a durable record, and a forgotten NO simply leads the
        // coordinator to retry or abort.
        let busy = !self.cfg.is_quiescent()
            || self.exchange.is_some()
            || tx.validate().is_err()
            || tx
                .participant(self.cluster)
                .is_none_or(|p| &p.members != self.cfg.base().members());
        if busy {
            let ranges = self.cfg.base().ranges().clone();
            let epoch = self.hard.eterm.epoch();
            self.send(
                from,
                Message::MergePrepareResp {
                    tx_id: tx.id,
                    cluster: self.cluster,
                    decision: MergeDecision::No,
                    epoch,
                    ranges,
                },
            );
            return;
        }
        if !self.committed_in_term {
            // P3 not yet satisfied: stay silent, our no-op will commit and
            // the coordinator's retry will find us ready ("P3 can be easily
            // fulfilled by committing a no-op log entry", §III-C1).
            return;
        }
        self.pending_2pc.insert(tx.id, from);
        self.propose_config(
            now,
            ConfigChange::MergePrepare {
                tx,
                decision: MergeDecision::Ok,
            },
        );
    }

    fn find_prepare(&self, tx_id: TxId) -> Option<(LogIndex, MergeDecision)> {
        self.cfg.entries().iter().find_map(|(index, change)| {
            if let ConfigChange::MergePrepare { tx, decision } = change {
                (tx.id == tx_id).then_some((*index, *decision))
            } else {
                None
            }
        })
    }

    /// Phase-2 request from the coordinator (Fig. 4, HandleMergeCommit).
    pub(crate) fn handle_merge_commit_req(
        &mut self,
        now: u64,
        from: NodeId,
        outcome: MergeOutcome,
    ) {
        let tx_id = outcome.tx_id();
        // Already resolved? Acknowledge from durable knowledge regardless of
        // role — the outcome is definitionally committed in these states.
        let resolved = self.exchange.as_ref().is_some_and(|ex| ex.tx.id == tx_id)
            || self.history.iter().any(|r| r.tx == Some(tx_id))
            || matches!(&outcome, MergeOutcome::Commit { tx, .. } if self.cluster == tx.new_cluster);
        if resolved {
            self.send(
                from,
                Message::MergeCommitResp {
                    tx_id,
                    cluster: self.cluster,
                },
            );
            return;
        }
        if self.role != Role::Leader {
            self.send(
                from,
                Message::MergeRedirect {
                    tx_id,
                    leader: self.leader_hint,
                },
            );
            return;
        }
        // Outcome entry already in the log?
        let existing = self.cfg.entries().iter().find_map(|(index, change)| {
            if let ConfigChange::MergeCommit(o) = change {
                (o.tx_id() == tx_id).then_some(*index)
            } else {
                None
            }
        });
        if let Some(index) = existing {
            if index <= self.commit_index {
                self.send(
                    from,
                    Message::MergeCommitResp {
                        tx_id,
                        cluster: self.cluster,
                    },
                );
            } else {
                self.pending_2pc.insert(tx_id, from);
            }
            return;
        }
        if matches!(outcome, MergeOutcome::Abort { .. }) && self.find_prepare(tx_id).is_none() {
            // Presumed abort: nothing to undo, acknowledge directly.
            self.send(
                from,
                Message::MergeCommitResp {
                    tx_id,
                    cluster: self.cluster,
                },
            );
            return;
        }
        self.pending_2pc.insert(tx_id, from);
        self.propose_config(now, ConfigChange::MergeCommit(outcome));
    }

    /// A `MergeCommit` outcome entry committed on this cluster. Returns
    /// `true` when the node's log was reset (resumption happened inline).
    pub(crate) fn on_merge_outcome_committed(
        &mut self,
        now: u64,
        index: LogIndex,
        entry: &LogEntry,
        outcome: &MergeOutcome,
    ) -> bool {
        let tx_id = outcome.tx_id();
        self.emit(NodeEvent::MergeOutcomeCommitted {
            tx: tx_id,
            committed: matches!(outcome, MergeOutcome::Commit { .. }),
        });
        if let Some(requester) = self.pending_2pc.remove(&tx_id) {
            self.send(
                requester,
                Message::MergeCommitResp {
                    tx_id,
                    cluster: self.cluster,
                },
            );
        }
        if let Some(driver) = &mut self.driver {
            if driver.tx.id == tx_id {
                driver.acks.insert(self.cluster);
            }
        }
        match outcome {
            MergeOutcome::Abort { .. } => {
                // No part will ever be produced for an aborted transaction;
                // drop any fetch requests parked on it.
                self.pending_fetches.remove(&tx_id);
                let members = self.cfg.base().members().clone();
                self.history.push(super::ReconfigRecord {
                    kind: "merge-abort",
                    old_cluster: self.cluster,
                    new_cluster: self.cluster,
                    members_before: members.clone(),
                    members_after: members,
                    at: self.hard.eterm,
                    tx: Some(tx_id),
                });
                self.touch_meta(); // history is durable metadata (survives reboots)
                                   // Fold the prepare + abort off the stack; the cluster resumes
                                   // ordinary service unchanged.
                let base = self.cfg.base().clone();
                self.cfg.fold(base, index);
                false
            }
            MergeOutcome::Commit {
                tx,
                ranges,
                new_epoch,
            } => {
                self.enter_exchange(
                    now,
                    index,
                    entry.eterm,
                    tx.clone(),
                    ranges.clone(),
                    *new_epoch,
                    outcome.clone(),
                );
                // The log is not reset yet (that happens at resumption), but
                // entries past the outcome were discarded; stop this pass.
                true
            }
        }
    }

    /// Begins the blocking data-exchange phase (§III-C2).
    #[allow(clippy::too_many_arguments)]
    fn enter_exchange(
        &mut self,
        now: u64,
        index: LogIndex,
        eterm: EpochTerm,
        tx: MergeTx,
        ranges: RangeSet,
        new_epoch: u32,
        outcome: MergeOutcome,
    ) {
        // "log entries in subclusters that come after the Cnew entry are
        // discarded" — they are uncommitted by construction (commit is capped
        // at the outcome entry).
        if self.log.last_index() > index {
            self.log_truncate(index.next());
        }
        // The exchange blocks client service; answer pending reads with a
        // redirect so clients re-resolve once the merged cluster is up.
        self.fail_pending_reads(None);
        let own_ranges = self.cfg.base().ranges().clone();
        let part = Snapshot {
            last_index: index,
            last_eterm: eterm,
            cluster: self.cluster,
            ranges: own_ranges.clone(),
            // Bounded chunks: a part never materializes the keyspace as one
            // allocation, however large this participant's state grew.
            chunks: self.sm.snapshot_chunks(&own_ranges),
            // The session table rides in the part: the merged cluster
            // inherits every participant's exactly-once accounting.
            sessions: self.sessions.clone(),
        };
        // Serve peers whose fetch arrived before our part existed: they are
        // blocked in their own exchange until every part is in, so push
        // rather than leaving them to their retry timer.
        for waiter in self.pending_fetches.remove(&tx.id).unwrap_or_default() {
            self.stream_part(waiter, tx.id, part.frames());
        }
        self.merge_part = Some((tx.id, part.clone()));
        self.exchange = Some(Exchange {
            tx,
            outcome,
            ranges,
            new_epoch,
            parts: BTreeMap::from([(self.cluster, part)]),
            streams: BTreeMap::new(),
            cursors: BTreeMap::new(),
            next_retry: now,
        });
        self.emit(NodeEvent::MergeExchangeStarted {
            tx: tx_id_of(&self.exchange),
        });
        // A leader entering the exchange will resume into the merged cluster
        // (and stop heartbeating this one) as soon as the parts are in —
        // possibly before the next heartbeat interval. Push the commit index
        // covering the outcome entry to the followers now, or they are
        // stranded in the old cluster until an election timeout.
        if self.role == Role::Leader {
            self.broadcast_append(now);
        }
        self.exchange_tick(now);
        self.try_finish_exchange(now);
    }

    /// Fetch retry loop for missing snapshot parts.
    pub(crate) fn exchange_tick(&mut self, now: u64) {
        let Some(ex) = &mut self.exchange else {
            return;
        };
        if now < ex.next_retry {
            return;
        }
        let own = self.cluster;
        let mut sends: Vec<(NodeId, TxId)> = Vec::new();
        for p in &ex.tx.participants {
            if p.cluster == own || ex.parts.contains_key(&p.cluster) {
                continue;
            }
            let members: Vec<NodeId> = p.members.iter().copied().collect();
            let cursor = ex.cursors.entry(p.cluster).or_insert(0);
            let target = members[*cursor % members.len()];
            *cursor += 1;
            sends.push((target, ex.tx.id));
        }
        ex.next_retry = now + self.timing.rpc_retry;
        for (target, tx_id) in sends {
            self.send(target, Message::FetchSnapshotReq { tx_id });
        }
    }

    /// Serves a peer subcluster's snapshot request: our part, as its stream
    /// of frames. When the part does not exist yet (the outcome has not
    /// committed here) but we prepared the transaction, remember the
    /// requester and push the part the moment it is produced. Any other
    /// request — an unknown transaction, an aborted one, one whose part a
    /// later merge replaced — goes unanswered, and the fetcher's retry
    /// covers it.
    pub(crate) fn handle_fetch_snapshot_req(&mut self, from: NodeId, tx_id: TxId) {
        match &self.merge_part {
            Some((id, part)) if *id == tx_id => self.stream_part(from, tx_id, part.frames()),
            _ if self.find_prepare(tx_id).is_some() => {
                self.pending_fetches.entry(tx_id).or_default().insert(from);
            }
            _ => {}
        }
    }

    fn stream_part(&mut self, to: NodeId, tx_id: TxId, frames: Vec<SnapshotFrame>) {
        for frame in frames {
            let frame = Box::new(frame);
            self.send(to, Message::FetchSnapshotResp { tx_id, frame });
        }
    }

    /// One frame of a peer subcluster's part arrived. It feeds that
    /// participant's assembly, and the first of its senders' streams to
    /// complete is the part.
    pub(crate) fn handle_fetch_snapshot_resp(
        &mut self,
        now: u64,
        from: NodeId,
        tx_id: TxId,
        frame: SnapshotFrame,
    ) {
        let Some(ex) = &mut self.exchange else {
            return;
        };
        let cluster = frame.cluster;
        if ex.tx.id != tx_id
            || ex.parts.contains_key(&cluster)
            || ex.tx.participant(cluster).is_none()
        {
            return;
        }
        let stream = ex.streams.entry(cluster).or_default();
        if let Some((part, ())) = stream.offer(from, frame, ()) {
            ex.streams.remove(&cluster);
            ex.parts.insert(cluster, part);
            self.try_finish_exchange(now);
        }
    }

    /// Resumes as the merged cluster once every participant's part is here.
    pub(crate) fn try_finish_exchange(&mut self, now: u64) {
        let complete = match &self.exchange {
            Some(ex) => ex
                .tx
                .participants
                .iter()
                .all(|p| ex.parts.contains_key(&p.cluster)),
            None => false,
        };
        if !complete {
            return;
        }
        let ex = self.exchange.take().expect("checked above");
        let old_cluster = self.cluster;
        let members = ex.tx.resumed_members();
        self.history.push(super::ReconfigRecord {
            kind: "merge",
            old_cluster,
            new_cluster: ex.tx.new_cluster,
            members_before: self.cfg.base().members().clone(),
            members_after: members.clone(),
            at: EpochTerm::new(ex.new_epoch, 0),
            tx: Some(ex.tx.id),
        });
        self.touch_meta(); // history is durable metadata (survives reboots)
        self.reject_pending_to_successor();
        if !members.contains(&self.id) {
            // Left out by the resumption resize: retire (still serving our
            // part to stragglers through merge_part).
            self.role = Role::Removed;
            self.emit(NodeEvent::Removed {
                cluster: old_cluster,
            });
            return;
        }
        // Combine the disjoint parts in participant order. Each part is a
        // chunk sequence; the flattened list hands the machine one bounded
        // blob at a time (chunks within a part are disjoint by construction,
        // parts are disjoint by P2').
        let parts: Vec<Bytes> = ex
            .tx
            .participants
            .iter()
            .flat_map(|p| ex.parts[&p.cluster].chunks.iter().cloned())
            .filter(|chunk| !chunk.is_empty())
            .collect();
        self.sm
            .restore_merged(&parts)
            .expect("participant parts are disjoint and well-formed");
        // Combine the participants' exactly-once tables: per session, the
        // union of the recorded replies, trimmed to the united window.
        let mut sessions = recraft_types::SessionTable::new();
        for p in &ex.tx.participants {
            sessions.absorb(&ex.parts[&p.cluster].sessions);
        }
        self.sessions = sessions;
        let new_eterm = EpochTerm::new(ex.new_epoch, 0);
        let base = ClusterConfig::new(ex.tx.new_cluster, members, ex.ranges.clone())
            .expect("merged member set nonempty");
        // Durability order (see `persist_meta_now`): identity, then the
        // merged snapshot (covering the renumbered log's Cnew entry), then
        // the log renumbering — every crash window reboots into either the
        // old world or a self-healing adoptee of the merged one, never a
        // mixed lineage.
        self.cluster = ex.tx.new_cluster;
        self.cluster_epoch = ex.new_epoch;
        self.advance_eterm(new_eterm);
        self.persist_meta_now();
        self.stamp_snapshot(LogIndex(1), new_eterm, base.clone());
        // "nodes in the merged cluster start fresh with the log that begins
        // with the Cnew entry ... treated as committed at term 0 of epoch
        // Enew".
        self.log.reset(LogIndex::ZERO, new_eterm);
        self.log.append(LogEntry::config(
            LogIndex(1),
            new_eterm,
            ConfigChange::MergeCommit(ex.outcome.clone()),
        ));
        self.commit_index = LogIndex(1);
        self.applied_index = LogIndex(1);
        self.cfg.reset(base, LogIndex(1));
        let led_coordinator = self.role == Role::Leader && old_cluster == ex.tx.coordinator;
        if self.role == Role::Leader {
            self.emit(NodeEvent::SteppedDown {
                cluster: old_cluster,
            });
        }
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.progress.clear();
        self.driver = None;
        self.pull = None;
        // Everyone resumes as a follower of term 0: the node that led the
        // coordinator campaigns at once (members still in their exchange
        // vote as stragglers of the new generation).
        self.reset_election_timer(now);
        if led_coordinator {
            self.campaign_on_next_tick();
        }
        self.emit(NodeEvent::MergeResumed {
            tx: ex.tx.id,
            new_cluster: self.cluster,
            eterm: new_eterm,
        });
    }
}

fn tx_id_of(exchange: &Option<Exchange>) -> TxId {
    exchange.as_ref().map(|e| e.tx.id).expect("just set")
}
