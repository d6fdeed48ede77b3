//! Client proposals and administrative reconfiguration commands.
//!
//! All reconfigurations check the paper's preconditions:
//!
//! * **P1** — every prior reconfiguration in the log is committed (and
//!   resolved: no open merge transaction, no in-flight split);
//! * **P2'** — the proposed configuration maintains quorum overlap with the
//!   current one (validated per scheme);
//! * **P3** — the leader has committed an entry in its own term (the no-op
//!   appended at election time).

use super::{Node, PendingClient, PendingRead, Role};
use crate::events::NodeEvent;
use crate::sm::StateMachine;
use bytes::Bytes;
use recraft_net::{AdminCmd, Message};
use recraft_storage::{EntryPayload, LogStore};
use recraft_types::config::{majority, resize_quorum};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClusterId, ConfigChange, Error, MergeDecision, MergeTx,
    NodeId, Result, SessionCheck, SessionId, SplitSpec,
};
use std::collections::BTreeSet;

impl<SM: StateMachine, LS: LogStore> Node<SM, LS> {
    /// Handles a typed client request: leaders append writes (deduplicated by
    /// `(session, seq)`) and serve reads through ReadIndex; everyone else
    /// answers with a structured redirect.
    pub(crate) fn handle_client_req(&mut self, now: u64, from: NodeId, req: ClientRequest) {
        let ClientRequest { session, seq, op } = req;
        if self.role == Role::Removed {
            // Retired: the keys live on in the cluster this node last saw
            // succeed its own; the client re-routes instead of waiting out
            // its resend timer.
            self.reject(from, session, seq, Error::WrongRange(self.successor()));
            return;
        }
        if self.role != Role::Leader {
            let outcome = ClientOutcome::Redirect {
                leader_hint: self.leader_hint,
                cluster: Some(self.cluster),
            };
            self.reply(from, session, seq, outcome);
            return;
        }
        if self.exchange.is_some() {
            self.reject(from, session, seq, Error::MergeBlocked);
            return;
        }
        match op {
            ClientOp::Command { key, cmd } => {
                self.accept_session_write(now, from, session, seq, &key, cmd);
            }
            ClientOp::Get { key } => self.accept_read(now, from, session, seq, key),
        }
    }

    fn reject(&mut self, to: NodeId, session: SessionId, seq: u64, error: Error) {
        self.reply(to, session, seq, ClientOutcome::Rejected { error });
    }

    /// The cluster a retired node's range passed to: the successor named by
    /// its last reconfiguration record.
    fn successor(&self) -> Option<ClusterId> {
        self.history.last().map(|r| r.new_cluster)
    }

    /// Answers every proposal and read still waiting on this node with
    /// `WrongRange(successor)`. At merge resumption or retirement a pending
    /// proposal's entry sits past the merge outcome, where the old log is
    /// discarded, and a pending read's round belongs to the old cluster: no
    /// other reply would ever come.
    pub(crate) fn reject_pending_to_successor(&mut self) {
        let error = Error::WrongRange(self.successor());
        let mut waiting: Vec<(NodeId, SessionId, u64)> = std::mem::take(&mut self.pending_clients)
            .into_values()
            .map(|p| (p.client, p.session, p.seq))
            .collect();
        waiting.extend(
            std::mem::take(&mut self.pending_reads)
                .into_iter()
                .map(|r| (r.client, r.session, r.seq)),
        );
        for (client, session, seq) in waiting {
            self.reject(client, session, seq, error.clone());
        }
    }

    /// Accepts (or deduplicates) an exactly-once write.
    fn accept_session_write(
        &mut self,
        now: u64,
        from: NodeId,
        session: SessionId,
        seq: u64,
        key: &[u8],
        cmd: Bytes,
    ) {
        // Range ownership comes first: a leader must never answer for a key
        // it does not own, not even out of its session table. A split child
        // inherits its parent's whole table, so a non-owner could replay a
        // reply recorded before the split for a write whose key — and every
        // later retry of it — now belongs to the sibling.
        if !self.cfg.ranges().contains(key) {
            self.reject(from, session, seq, Error::WrongRange(None));
            return;
        }
        // Dedup against the applied state: a retry of an applied request
        // gets its recorded response without touching the log.
        match self.sessions.check(session, seq) {
            SessionCheck::Duplicate(recorded) => {
                self.reply(
                    from,
                    session,
                    seq,
                    ClientOutcome::Reply { payload: recorded },
                );
                return;
            }
            SessionCheck::Stale => {
                self.reject(from, session, seq, Error::SessionStale);
                return;
            }
            SessionCheck::Fresh => {}
        }
        // Already appended but not yet applied (a fast retry): re-register
        // the responder instead of appending a second entry. A linear scan
        // is fine here — pending_clients holds only the proposals of one
        // commit round-trip (apply-time dedup catches anything it misses).
        let inflight = self
            .pending_clients
            .iter()
            .find(|(_, p)| p.session == session && p.seq == seq)
            .map(|(index, _)| *index);
        if let Some(index) = inflight {
            self.pending_clients.insert(
                index,
                PendingClient {
                    client: from,
                    session,
                    seq,
                },
            );
            return;
        }
        if self.derived_cached().proposals_gated() {
            // Split leave phase or merge outcome pending: a one-round-trip
            // window where the log tail belongs to the reconfiguration.
            self.reject(from, session, seq, Error::MergeBlocked);
            return;
        }
        self.propose_entry_replying(
            now,
            EntryPayload::SessionCommand { session, seq, cmd },
            Some(PendingClient {
                client: from,
                session,
                seq,
            }),
        );
    }

    /// Accepts a linearizable read: record the current commit index, confirm
    /// leadership with a probe round, and serve from the applied state — no
    /// log append (Raft §6.4's ReadIndex, the canonical consensus read
    /// optimization). The round asks only the fastest peers that make up a
    /// quorum with the leader ([`Node::probe_reads`]); any acknowledgement
    /// echoing the read's serial counts, whichever round carried it.
    fn accept_read(&mut self, now: u64, from: NodeId, session: SessionId, seq: u64, key: Vec<u8>) {
        // P3: only a leader that committed an entry of its own term knows
        // its commit index is current.
        if !self.committed_in_term {
            self.reject(from, session, seq, Error::PreconditionP3);
            return;
        }
        // Range check. During a split's leave phase the answer must come
        // from the subcluster that will own the key — a stale pre-completion
        // leader must never serve another subcluster's range, or it could
        // miss writes committed by that subcluster's completed leader.
        let derived = self.derived_cached();
        let in_range = match &derived.split {
            Some(crate::stack::SplitPhase::Leaving { spec, .. }) => spec
                .subcluster_of(self.id)
                .is_some_and(|sub| sub.ranges().contains(&key)),
            _ => self.cfg.ranges().contains(&key),
        };
        if !in_range {
            self.reject(from, session, seq, Error::WrongRange(None));
            return;
        }
        self.read_serial += 1;
        let mut acks = BTreeSet::new();
        acks.insert(self.id);
        self.pending_reads.push(PendingRead {
            client: from,
            session,
            seq,
            key,
            read_index: self.commit_index,
            serial: self.read_serial,
            acks,
        });
        // A single-voter quorum (one-node cluster) is satisfied by the
        // leader's own ack; otherwise confirm with a probe round. Reads
        // arriving while a round is in flight batch onto the next one.
        if !self.flush_ready_reads(now) && self.pending_reads.len() == 1 {
            self.probe_reads(now);
        }
    }

    /// Credits a leadership confirmation from `peer` to every read batch the
    /// echoed probe `serial` covers — a successful response to any append
    /// of this term, the read's own round, a heartbeat or a write.
    ///
    /// Reads that batched up while the acknowledged round was in flight get
    /// one follow-up round, thrifty like the first. If a peer that round
    /// asked has died, nothing answers it: the next heartbeat, which every
    /// peer gets, confirms the reads instead, so a dead pick costs at most
    /// one heartbeat interval — and sinks in the ranking meanwhile, because
    /// its unanswered probe ages.
    pub(crate) fn note_read_ack(&mut self, now: u64, peer: NodeId, serial: u64) {
        if self.pending_reads.is_empty() {
            return;
        }
        for read in &mut self.pending_reads {
            if read.serial <= serial {
                read.acks.insert(peer);
            }
        }
        self.flush_ready_reads(now);
        if self
            .pending_reads
            .iter()
            .any(|r| r.serial > self.last_probe_serial)
        {
            self.probe_reads(now);
        }
    }

    /// Serves every pending read whose quorum confirmed and whose
    /// `read_index` is applied. Returns whether all pending reads drained.
    ///
    /// The quorum is the *tail* commit rule — the rule governing new log
    /// entries. During a split's leave phase that is the leader's own
    /// subcluster (the same cap that keeps replication from leaking across
    /// subcluster boundaries), so a read never completes on the strength of
    /// acknowledgements from nodes that are leaving for another subcluster.
    /// Which peers a round asked plays no part here: a thrifty round and a
    /// broadcast are judged by the same rule over the same acknowledgements.
    pub(crate) fn flush_ready_reads(&mut self, now: u64) -> bool {
        if self.pending_reads.is_empty() {
            return true;
        }
        let derived = self.derived_cached();
        let rule = derived
            .commit_segments
            .last()
            .expect("commit segments never empty")
            .1
            .clone();
        let mut served: Vec<(NodeId, SessionId, u64, Bytes, recraft_types::LogIndex)> = Vec::new();
        let applied = self.applied_index;
        let mut i = 0;
        while i < self.pending_reads.len() {
            let r = &self.pending_reads[i];
            if r.read_index <= applied && rule.satisfied(&r.acks) {
                let r = self.pending_reads.remove(i);
                let payload = self.sm.query(&r.key);
                served.push((r.client, r.session, r.seq, payload, r.read_index));
            } else {
                i += 1;
            }
        }
        for (client, session, seq, payload, read_index) in served {
            self.emit(NodeEvent::ServedRead {
                cluster: self.cluster,
                index: read_index,
                digest: crate::events::read_fingerprint(session, seq),
            });
            self.reply(client, session, seq, ClientOutcome::Reply { payload });
        }
        let _ = now;
        self.pending_reads.is_empty()
    }

    /// Handles an administrative command, answering with acceptance or a
    /// precondition error.
    pub(crate) fn handle_admin_req(&mut self, now: u64, from: NodeId, req_id: u64, cmd: AdminCmd) {
        let result = if self.role == Role::Removed {
            Err(Error::NotLeader(None))
        } else {
            self.try_admin(now, cmd)
        };
        self.send(from, Message::AdminResp { req_id, result });
    }

    fn try_admin(&mut self, now: u64, cmd: AdminCmd) -> Result<()> {
        match cmd {
            AdminCmd::Campaign => {
                self.campaign(now);
                Ok(())
            }
            AdminCmd::ProposeNoop => {
                self.require_leader()?;
                self.propose_entry(now, EntryPayload::Noop);
                Ok(())
            }
            AdminCmd::Split(spec) => self.admin_split(now, spec),
            AdminCmd::Merge(tx) => self.admin_merge(now, tx),
            AdminCmd::AddAndResize(add) => self.admin_add_and_resize(now, &add),
            AdminCmd::RemoveAndResize(remove) => self.admin_remove_and_resize(now, &remove),
            AdminCmd::ResizeQuorum => self.admin_resize_quorum(now),
            AdminCmd::SimpleChange(members) => self.admin_simple_change(now, members),
            AdminCmd::JointChange(members) => self.admin_joint_change(now, members),
            AdminCmd::SetRanges(ranges) => {
                self.check_reconfig_preconditions()?;
                self.propose_config(now, ConfigChange::SetRanges(ranges));
                Ok(())
            }
        }
    }

    fn require_leader(&self) -> Result<()> {
        if self.role == Role::Leader {
            Ok(())
        } else {
            Err(Error::NotLeader(self.leader_hint))
        }
    }

    /// P1 and P3 checks shared by every reconfiguration proposal.
    fn check_reconfig_preconditions(&self) -> Result<()> {
        self.require_leader()?;
        if self.exchange.is_some() {
            return Err(Error::MergeBlocked);
        }
        self.cfg.check_p1()?;
        if !self.committed_in_term {
            return Err(Error::PreconditionP3);
        }
        Ok(())
    }

    /// `SplitEnterJoint` (Fig. 2): validate and append `Cjoint`.
    fn admin_split(&mut self, now: u64, spec: SplitSpec) -> Result<()> {
        self.check_reconfig_preconditions()?;
        // P2': the joint election quorum (majority of every subcluster)
        // overlaps every C_old majority only if the base quorum is the plain
        // majority; require a preceding ResizeQuorum otherwise.
        if self.cfg.base().quorum_rule() != recraft_types::QuorumRule::Majority {
            return Err(Error::PreconditionP2(
                "split requires a majority-quorum base configuration".into(),
            ));
        }
        // Re-validate the plan against the *current* configuration.
        let spec = SplitSpec::new(
            spec.subclusters().to_vec(),
            self.cfg.base().members(),
            self.cfg.base().ranges(),
        )
        .map_err(|e| Error::PreconditionP2(e.to_string()))?;
        self.propose_config(now, ConfigChange::SplitJoint(spec));
        Ok(())
    }

    /// `MergePrepare` (Fig. 4): this cluster becomes the 2PC coordinator.
    fn admin_merge(&mut self, now: u64, tx: MergeTx) -> Result<()> {
        self.check_reconfig_preconditions()?;
        tx.validate()?;
        if tx.coordinator != self.cluster {
            return Err(Error::InvalidState(format!(
                "merge coordinator {} is not this cluster {}",
                tx.coordinator, self.cluster
            )));
        }
        let ours = tx
            .participant(self.cluster)
            .expect("validated: coordinator participates");
        if &ours.members != self.cfg.base().members() {
            return Err(Error::InvalidConfig(
                "coordinator participant member list is stale".into(),
            ));
        }
        // The driver follows from the log once this decision commits.
        self.propose_config(
            now,
            ConfigChange::MergePrepare {
                tx,
                decision: MergeDecision::Ok,
            },
        );
        Ok(())
    }

    /// `AddAndResize` (§IV-A): add any number of nodes in one consensus step
    /// at quorum `Q_new-q`; the follow-up `ResizeQuorum` is automatic.
    fn admin_add_and_resize(&mut self, now: u64, add: &BTreeSet<NodeId>) -> Result<()> {
        self.check_reconfig_preconditions()?;
        if add.is_empty() {
            return Err(Error::InvalidConfig("no nodes to add".into()));
        }
        let current = self.cfg.base().members();
        if let Some(n) = add.iter().find(|n| current.contains(n)) {
            return Err(Error::InvalidConfig(format!("{n} is already a member")));
        }
        let n_old = current.len();
        let q_old = self.cfg.base().quorum_size();
        let members: BTreeSet<NodeId> = current.union(add).copied().collect();
        let quorum = resize_quorum(n_old, q_old, members.len());
        self.propose_config(now, ConfigChange::Resize { members, quorum });
        Ok(())
    }

    /// `RemoveAndResize` (§IV-A): remove up to `Q_old − 1` nodes in one step.
    fn admin_remove_and_resize(&mut self, now: u64, remove: &BTreeSet<NodeId>) -> Result<()> {
        self.check_reconfig_preconditions()?;
        if remove.is_empty() {
            return Err(Error::InvalidConfig("no nodes to remove".into()));
        }
        let current = self.cfg.base().members();
        if let Some(n) = remove.iter().find(|n| !current.contains(n)) {
            return Err(Error::InvalidConfig(format!("{n} is not a member")));
        }
        let n_old = current.len();
        let q_old = self.cfg.base().quorum_size();
        if remove.len() >= q_old {
            // The cap r < Q_old (§IV-A): beyond it C_old and C_new-q quorums
            // cannot overlap. Stage the removal instead.
            return Err(Error::PreconditionP2(format!(
                "removing {} nodes from {n_old} breaks quorum overlap (r < {q_old} required); \
                 stage the removal",
                remove.len()
            )));
        }
        let members: BTreeSet<NodeId> = current.difference(remove).copied().collect();
        let quorum = resize_quorum(n_old, q_old, members.len());
        self.propose_config(now, ConfigChange::Resize { members, quorum });
        Ok(())
    }

    /// Explicit `ResizeQuorum` back to the majority (normally automatic).
    fn admin_resize_quorum(&mut self, now: u64) -> Result<()> {
        self.check_reconfig_preconditions()?;
        let members = self.cfg.base().members().clone();
        let quorum = majority(members.len());
        if self.cfg.base().quorum_size() == quorum {
            return Ok(()); // already at the majority
        }
        self.propose_config(now, ConfigChange::Resize { members, quorum });
        Ok(())
    }

    /// Baseline vanilla Add/RemoveServer: exactly one node of difference
    /// (precondition P2 of the original RPC).
    fn admin_simple_change(&mut self, now: u64, members: BTreeSet<NodeId>) -> Result<()> {
        self.check_reconfig_preconditions()?;
        if members.is_empty() {
            return Err(Error::InvalidConfig("empty member set".into()));
        }
        let current = self.cfg.base().members();
        let delta = current.symmetric_difference(&members).count();
        if delta != 1 {
            return Err(Error::PreconditionP2(format!(
                "Add/RemoveServer changes exactly one node, got {delta}"
            )));
        }
        self.propose_config(now, ConfigChange::Simple { members });
        Ok(())
    }

    /// Baseline vanilla joint consensus: two automatic steps through
    /// `C_old,new`.
    fn admin_joint_change(&mut self, now: u64, members: BTreeSet<NodeId>) -> Result<()> {
        self.check_reconfig_preconditions()?;
        if members.is_empty() {
            return Err(Error::InvalidConfig("empty member set".into()));
        }
        let old = self.cfg.base().members().clone();
        if old == members {
            return Ok(());
        }
        self.propose_config(now, ConfigChange::JointEnter { old, new: members });
        Ok(())
    }
}
