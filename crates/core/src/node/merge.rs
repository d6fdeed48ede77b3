//! The merge protocol (§III-C): a cluster-level two-phase commit followed by
//! snapshot exchange and resumption.
//!
//! Roles:
//!
//! * **Coordinator** — the cluster whose leader received the merge request.
//!   It records its own OK decision in its Raft log (phase-1 durable write).
//!   Its driver is derived from the log, by the one continuation rule
//!   ([`Node::continue_reconfig`]), so the leader that proposed the
//!   decision and a failover leader build the same one once that decision
//!   has committed: it sends `MergePrepareReq` to every other participant,
//!   collects decisions, finalizes `Cnew`/`Cabort`, records it locally and
//!   spreads it (`MergeCommitReq`), or only spreads when the outcome is
//!   already on the stack. The coordinator is "naturally as robust as the
//!   Raft cluster". The driver lives exactly while the log owes the other
//!   participants something: it is dropped once every participant
//!   acknowledged the outcome.
//! * **Participant** — decides OK/NO under preconditions P1/P2'/P3, commits
//!   the decision *before* responding, and later commits the outcome. While
//!   its OK decision is committed and no outcome is on its stack, its
//!   leader re-sends the decision to the coordinator's members in turn,
//!   the first time one retry interval after the decision committed. A
//!   coordinator node without a driver for that
//!   transaction answers from what it committed: the abort in its history,
//!   or the outcome of the exchange it is in. So a participant is never
//!   stranded by a coordinator whose leader changed after folding `Cabort`.
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
//! participant when the exchange begins and the next one each retry
//! interval, and keeps one assembly per participant whose first completed
//! stream is the part. The server side is
//! bounded: a node keeps only its latest transaction's part (a reboot loses
//! it anyway), and parks a fetch that arrives before its part exists only
//! while it has prepared that transaction; anything else goes unanswered
//! and the fetcher's retry covers it.
//!
//! None of these messages keeps a timer of its own. Each is owed by the one
//! retry rule ([`Node::owed`]): derived from the node's state — the
//! driver's missing decisions and acknowledgements, the participant's
//! stack, the exchange's missing parts — and sent again every 150 ms, to
//! the next member of its target cluster, until its answer changes that
//! state. The driver's prepares leave when it is built, its outcome when it
//! is decided, and the fetches when the exchange begins.

use super::{Exchange, Node, Role};
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
    /// This cluster's decision on `tx_id`, as the coordinator reads it.
    pub(crate) fn prepare_resp(&self, tx_id: TxId, decision: MergeDecision) -> Message {
        Message::MergePrepareResp {
            tx_id,
            cluster: self.cluster,
            decision,
            epoch: self.hard.eterm.epoch(),
            ranges: self.cfg.base().ranges().clone(),
        }
    }

    /// A `MergePrepare` entry committed on this cluster. A participant
    /// answers the coordinator that asked (the decision is now durable,
    /// Fig. 4 lines 32-36); what the coordinator does next is
    /// [`Node::continue_reconfig`]'s.
    pub(crate) fn on_merge_prepare_committed(&mut self, tx: &MergeTx, decision: MergeDecision) {
        self.emit(NodeEvent::MergePrepareCommitted {
            tx: tx.id,
            decision,
        });
        if let Some(requester) = self.pending_2pc.remove(&tx.id) {
            self.send(requester, self.prepare_resp(tx.id, decision));
        }
    }

    // ---- Coordinator side --------------------------------------------------

    /// Coordinator: a participant's durable decision arrived. A coordinator
    /// node without a driver for the transaction answers a participant that
    /// is still waiting from what its cluster committed, whatever its role:
    /// the abort in its history, or the outcome of the exchange it is in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_merge_prepare_resp(
        &mut self,
        now: u64,
        from: NodeId,
        tx_id: TxId,
        cluster: ClusterId,
        decision: MergeDecision,
        epoch: u32,
        ranges: RangeSet,
    ) {
        let Some(driver) = self.driver.as_mut().filter(|d| d.tx.id == tx_id) else {
            let aborted = self
                .history
                .iter()
                .any(|r| r.tx == Some(tx_id) && r.kind == "merge-abort");
            let outcome = match &self.exchange {
                Some(ex) if ex.tx.id == tx_id => Some(ex.outcome.clone()),
                _ => aborted.then_some(MergeOutcome::Abort { tx_id }),
            };
            if let Some(outcome) = outcome {
                self.send(from, Message::MergeCommitReq { outcome });
            }
            return;
        };
        if driver.outcome.is_some() {
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
        self.retry_at = 0; // the outcome goes out at once
        self.propose_config(now, ConfigChange::MergeCommit(outcome));
    }

    /// A participant pointed us at its current leader.
    pub(crate) fn handle_merge_redirect(&mut self, tx_id: TxId, leader: Option<NodeId>) {
        let (Some(driver), Some(leader)) = (&self.driver, leader) else {
            return;
        };
        if driver.tx.id != tx_id {
            return;
        }
        let msg = match driver.outcome.clone() {
            None => Message::MergePrepareReq {
                tx: driver.tx.clone(),
            },
            Some(outcome) => Message::MergeCommitReq { outcome },
        };
        self.send(leader, msg);
    }

    /// Coordinator: a participant — this cluster by committing it — durably
    /// recorded the outcome. Once every participant has, the log owes the
    /// others nothing more and the driver goes.
    pub(crate) fn handle_merge_commit_resp(&mut self, tx_id: TxId, cluster: ClusterId) {
        let Some(driver) = self.driver.as_mut().filter(|d| d.tx.id == tx_id) else {
            return;
        };
        driver.acks.insert(cluster);
        if driver
            .tx
            .participants
            .iter()
            .all(|p| driver.acks.contains(&p.cluster))
        {
            self.driver = None;
        }
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
                self.send(from, self.prepare_resp(tx.id, decision));
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
            self.send(from, self.prepare_resp(tx.id, MergeDecision::No));
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
        self.handle_merge_commit_resp(tx_id, self.cluster);
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
        self.retry_at = 0; // the fetches go out at once
        self.try_finish_exchange(now);
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
        let record = super::ReconfigRecord {
            kind: "merge",
            old_cluster,
            new_cluster: ex.tx.new_cluster,
            members_before: self.cfg.base().members().clone(),
            members_after: members.clone(),
            at: EpochTerm::new(ex.new_epoch, 0),
            tx: Some(ex.tx.id),
        };
        if !members.contains(&self.id) {
            // Left out by the resumption resize: retire (still serving our
            // part to stragglers through merge_part).
            self.retire(record);
            return;
        }
        self.history.push(record);
        self.touch_meta(); // history is durable metadata (survives reboots)
        self.reject_pending_to_successor();
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
        self.pull.clear();
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
