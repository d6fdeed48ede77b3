//! The routed client: one session's state machine, whatever carries it.
//!
//! ReCraft keeps clients outside the protocol (§V): a client routes through
//! a loosely consistent naming service ([`ShardDirectory`]), and the
//! protocol's own answers — `Redirect`, `NotLeader`, `WrongRange` — make
//! routing converge. [`RoutedClient`] is that client with no clock, socket
//! or thread of its own. For one session it owns:
//!
//! * **issuance** — the next `seq` goes out only while fewer than `window`
//!   operations are pending and `seq < oldest pending + SESSION_WINDOW`, so
//!   every retry it can send lies inside the server's session window;
//! * **the one retry rule**, the same for reads and writes: resend under
//!   the same `(session, seq)` until answered — at once to a named leader,
//!   after [`RETRY_BACKOFF_US`] when the answer names none or the cluster is
//!   busy reconfiguring, and after `resend_after` when nothing answered;
//! * **what an answer means** — a `Reply` confirms, once (a later `Reply`
//!   for the same number is reported as a duplicate); a `SessionStale`, or
//!   any error no retry can cure, gives the operation up unconfirmed;
//! * **the target** — per cluster, the last leader heard of, used only
//!   while the directory lists it as a member and dropped on any rejection
//!   from it; otherwise a rotation over the directory's members;
//! * **stale routes** — a `WrongRange`, or a key no record covers, parks
//!   the operation until the directory's version moves off the one it was
//!   routed on, or until its resend timer fires.
//!
//! The caller is the transport: it feeds in time (µs), responses and nodes
//! it cannot reach, performs the [`ClientAction::Send`]s, and calls
//! [`RoutedClient::on_timeout`] at [`RoutedClient::next_deadline`]. A caller
//! with no naming service passes a one-record directory that serves the
//! whole keyspace on its launch members.

use crate::ShardDirectory;
use recraft_types::{
    Bytes, ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterId, Error, NodeId,
    SessionId, SESSION_WINDOW,
};
use std::collections::{BTreeMap, BTreeSet};

/// The pause before an operation is sent again after an answer that names
/// no leader, a transient rejection or an unreachable node — and how often
/// a parked operation looks at the directory's version.
pub const RETRY_BACKOFF_US: u64 = 10_000;

/// What the transport does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// Deliver `req` to node `to`.
    Send {
        /// The addressee.
        to: NodeId,
        /// The request, under the operation's `(session, seq)`.
        req: ClientRequest,
    },
    /// Operation `seq` is over: confirmed by a `Reply` carrying the state
    /// machine's response, or given up unconfirmed on the error that
    /// ended it.
    Done {
        /// The operation.
        seq: u64,
        /// The response, or why there is none.
        result: Result<Bytes, Error>,
    },
    /// Another `Reply` for an operation already confirmed or given up.
    Duplicate {
        /// The operation.
        seq: u64,
    },
}

/// The routing answers a session has followed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// `Redirect` and `NotLeader` answers.
    pub redirects: u64,
    /// `WrongRange` answers: stale routes.
    pub wrong_range: u64,
}

/// One unconfirmed operation.
#[derive(Debug)]
struct Pending {
    op: ClientOp,
    /// The cluster and node of the send still awaiting an answer.
    sent: Option<(ClusterId, NodeId)>,
    /// The directory version the operation was last routed on.
    version: u64,
    /// Parked on a stale route: the resend timer that releases it if the
    /// directory does not move first.
    parked: Option<u64>,
    /// When the machine next looks at it: its resend timer, its backoff,
    /// or a parked operation's directory recheck.
    due: u64,
}

/// Where a cluster's operations go: its leader hint, else its rotation.
#[derive(Debug, Default)]
struct Route {
    hint: Option<NodeId>,
    cursor: usize,
}

/// One client session's sans-io state machine: it issues, routes and
/// resends the session's operations, and says what each answer means.
#[derive(Debug)]
pub struct RoutedClient {
    session: SessionId,
    window: usize,
    resend_after: u64,
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    routes: BTreeMap<ClusterId, Route>,
    stats: ClientStats,
}

impl RoutedClient {
    /// A session that keeps at most `window` operations in flight and
    /// resends an unanswered one after `resend_after` µs. Its first
    /// operation is `seq` 1.
    #[must_use]
    pub fn new(session: SessionId, window: usize, resend_after: u64) -> RoutedClient {
        RoutedClient {
            session,
            window: window.max(1),
            resend_after,
            next_seq: 1,
            pending: BTreeMap::new(),
            routes: BTreeMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The sequence number [`RoutedClient::issue`] hands out next.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// How many operations await an answer.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The routing answers followed so far.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Whether a new operation may be issued: the window has room, and the
    /// next number lies within [`SESSION_WINDOW`] of the oldest pending one.
    #[must_use]
    pub fn can_issue(&self) -> bool {
        let oldest = self.pending.keys().next().copied();
        self.pending.len() < self.window
            && self.next_seq < oldest.unwrap_or(self.next_seq) + SESSION_WINDOW
    }

    /// Issues `op` as [`RoutedClient::next_seq`] and sends it.
    ///
    /// # Panics
    /// Panics unless [`RoutedClient::can_issue`].
    pub fn issue(&mut self, now: u64, op: ClientOp, dir: &ShardDirectory) -> Vec<ClientAction> {
        assert!(self.can_issue(), "issue past the session's window");
        let pending = Pending {
            op,
            sent: None,
            version: dir.version(),
            parked: None,
            due: now,
        };
        self.pending.insert(self.next_seq, pending);
        self.next_seq += 1;
        self.drive(now, dir)
    }

    /// Gives up operation `seq` without an answer (its caller stopped
    /// waiting). Returns whether it was pending.
    pub fn abandon(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq).is_some()
    }

    /// Takes node `from`'s answer. Only a `Reply` counts from any node; any
    /// other answer acts only if it comes from the node the operation's
    /// latest send went to, since an earlier send's answer is stale.
    pub fn on_response(
        &mut self,
        now: u64,
        from: NodeId,
        resp: ClientResponse,
        dir: &ShardDirectory,
    ) -> Vec<ClientAction> {
        let (seq, ours) = (resp.seq, resp.session == self.session);
        let Some(p) = self.pending.get_mut(&seq).filter(|_| ours) else {
            let again = matches!(resp.outcome, ClientOutcome::Reply { .. });
            let again = ours && again && seq < self.next_seq;
            return again
                .then_some(ClientAction::Duplicate { seq })
                .into_iter()
                .collect();
        };
        let error = match resp.outcome {
            ClientOutcome::Reply { payload } => {
                if let Some((cluster, _)) = p.sent {
                    self.routes.entry(cluster).or_default().hint = Some(from);
                }
                return self.finish(now, seq, Ok(payload), dir);
            }
            ClientOutcome::Redirect { leader_hint, .. } => Error::NotLeader(leader_hint),
            ClientOutcome::Rejected { error } => error,
        };
        let Some((cluster, _)) = p.sent.filter(|(_, to)| *to == from) else {
            return Vec::new();
        };
        let timer = p.due;
        p.sent = None;
        p.due = now + RETRY_BACKOFF_US;
        let hint = match error {
            Error::NotLeader(leader) => {
                self.stats.redirects += 1;
                leader.filter(|h| *h != from)
            }
            Error::WrongRange(_) => {
                self.stats.wrong_range += 1;
                p.parked = Some(timer);
                p.due = p.due.min(timer);
                None
            }
            Error::MergeBlocked | Error::PreconditionP3 | Error::ProposalDropped => None,
            error => return self.finish(now, seq, Err(error), dir),
        };
        if hint.is_some() {
            p.due = now;
        }
        self.demote(cluster, from, hint, dir);
        self.drive(now, dir)
    }

    /// Ends operation `seq` with `result`.
    fn finish(
        &mut self,
        now: u64,
        seq: u64,
        result: Result<Bytes, Error>,
        dir: &ShardDirectory,
    ) -> Vec<ClientAction> {
        self.pending.remove(&seq);
        let mut out = vec![ClientAction::Done { seq, result }];
        out.extend(self.drive(now, dir));
        out
    }

    /// Resends what is due: unanswered operations whose resend timer fired,
    /// operations out of backoff, and parked ones the directory or their
    /// timer released.
    pub fn on_timeout(&mut self, now: u64, dir: &ShardDirectory) -> Vec<ClientAction> {
        self.drive(now, dir)
    }

    /// Node `node` cannot be reached (a refused dial, a broken
    /// connection): every operation sent to it and still unanswered backs
    /// off and is routed again, away from it.
    pub fn on_unreachable(
        &mut self,
        now: u64,
        node: NodeId,
        dir: &ShardDirectory,
    ) -> Vec<ClientAction> {
        let mut hit = Vec::new();
        for p in self.pending.values_mut() {
            if let Some((cluster, _)) = p.sent.take_if(|(_, to)| *to == node) {
                p.due = now + RETRY_BACKOFF_US;
                hit.push(cluster);
            }
        }
        for cluster in hit {
            self.demote(cluster, node, None, dir);
        }
        self.drive(now, dir)
    }

    /// When [`RoutedClient::on_timeout`] has work, if anything is pending.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending.values().map(|p| p.due).min()
    }

    /// Stops preferring `node` for `cluster`: the rotation moves past it,
    /// and the cluster's hint becomes `hint` if one is named, else is
    /// dropped if it was `node`.
    fn demote(
        &mut self,
        cluster: ClusterId,
        node: NodeId,
        hint: Option<NodeId>,
        dir: &ShardDirectory,
    ) {
        let route = self.routes.entry(cluster).or_default();
        if hint.is_some() || route.hint == Some(node) {
            route.hint = hint;
        }
        if dir.members(cluster).and_then(|m| rotation(route, m)) == Some(node) {
            route.cursor += 1;
        }
    }

    /// Sends every operation that is due: routed through `dir` to the
    /// cluster's usable hint or its rotation, or parked when no record
    /// serves the key.
    fn drive(&mut self, now: u64, dir: &ShardDirectory) -> Vec<ClientAction> {
        let (version, mut out) = (dir.version(), Vec::new());
        let mut due = Vec::new();
        for (seq, p) in &mut self.pending {
            match p.parked {
                // Still parked: this call looked at the directory; the
                // next look is a backoff away.
                Some(timer) if p.version == version && now < timer => {
                    p.due = (now + RETRY_BACKOFF_US).min(timer);
                }
                _ if p.parked.is_some() || p.due <= now => due.push(*seq),
                _ => {}
            }
        }
        for seq in due {
            if let Some((cluster, node)) = self.pending[&seq].sent {
                // The resend timer fired with the send unanswered.
                self.demote(cluster, node, None, dir);
            }
            let p = self.pending.get_mut(&seq).expect("listed as due");
            let target = dir.lookup(p.op.key()).and_then(|(cluster, members)| {
                let route = self.routes.entry(cluster).or_default();
                let hint = route.hint.filter(|h| members.contains(h));
                hint.or_else(|| rotation(route, members))
                    .map(|to| (cluster, to))
            });
            // Routed, it waits for an answer; unrouted — no record serves
            // the key — for the directory.
            p.version = version;
            p.sent = target;
            p.parked = target.is_none().then_some(now + self.resend_after);
            p.due = now + target.map_or(RETRY_BACKOFF_US, |_| self.resend_after);
            if let Some((_, to)) = target {
                let op = p.op.clone();
                let req = ClientRequest {
                    session: self.session,
                    seq,
                    op,
                };
                out.push(ClientAction::Send { to, req });
            }
        }
        out
    }
}

/// The member a cluster's rotation points at.
fn rotation(route: &Route, members: &BTreeSet<NodeId>) -> Option<NodeId> {
    members
        .iter()
        .nth(route.cursor % members.len().max(1))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recraft_types::RangeSet;

    const S: SessionId = SessionId(7);
    const RESEND: u64 = 1_000_000;
    const C: ClusterId = ClusterId(1);

    fn nodes(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|n| NodeId(*n)).collect()
    }

    fn cluster_of(ids: &[u64]) -> ShardDirectory {
        let mut dir = ShardDirectory::default();
        dir.upsert(C, RangeSet::full(), nodes(ids));
        dir
    }

    fn put(i: u64) -> ClientOp {
        ClientOp::Command {
            key: format!("k{i:08}").into_bytes(),
            cmd: Bytes::from_static(b"v"),
        }
    }

    fn answer(seq: u64, outcome: ClientOutcome) -> ClientResponse {
        ClientResponse {
            session: S,
            seq,
            outcome,
        }
    }

    fn reply(seq: u64) -> ClientResponse {
        answer(
            seq,
            ClientOutcome::Reply {
                payload: Bytes::new(),
            },
        )
    }

    fn rejected(seq: u64, error: Error) -> ClientResponse {
        answer(seq, ClientOutcome::Rejected { error })
    }

    /// The `(to, seq)` of every send among `actions`.
    fn sends(actions: &[ClientAction]) -> Vec<(NodeId, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ClientAction::Send { to, req } => Some((*to, req.seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn issues_within_its_window_and_the_session_window() {
        let dir = cluster_of(&[1, 2, 3]);
        let mut c = RoutedClient::new(S, 64, RESEND);
        let mut issued = 0;
        while c.can_issue() {
            assert_eq!(sends(&c.issue(0, put(issued), &dir)).len(), 1);
            issued += 1;
        }
        assert_eq!(
            issued, SESSION_WINDOW,
            "the session window binds a wide window"
        );
        c.on_response(1, NodeId(1), reply(SESSION_WINDOW), &dir);
        assert!(!c.can_issue(), "the oldest pending number still binds");
        c.on_response(1, NodeId(1), reply(1), &dir);
        assert!(c.can_issue());

        let mut narrow = RoutedClient::new(S, 2, RESEND);
        narrow.issue(0, put(0), &dir);
        narrow.issue(0, put(1), &dir);
        assert!(!narrow.can_issue(), "the window binds a narrow one");

        let mut serial = RoutedClient::new(S, 1, RESEND);
        for seq in 1..=2 * SESSION_WINDOW {
            assert!(serial.can_issue(), "nothing pending, yet no room for {seq}");
            serial.issue(0, put(seq), &dir);
            serial.on_response(0, NodeId(1), reply(seq), &dir);
        }
    }

    #[test]
    fn a_stale_answer_never_confirms() {
        let dir = cluster_of(&[1]);
        let mut c = RoutedClient::new(S, 2, RESEND);
        c.issue(0, put(0), &dir);
        let out = c.on_response(5, NodeId(1), rejected(1, Error::SessionStale), &dir);
        let given_up = ClientAction::Done {
            seq: 1,
            result: Err(Error::SessionStale),
        };
        assert_eq!(out, vec![given_up]);
        assert_eq!(c.pending(), 0);
        let late = c.on_response(6, NodeId(1), reply(1), &dir);
        assert_eq!(late, vec![ClientAction::Duplicate { seq: 1 }]);
    }

    #[test]
    fn each_operation_is_confirmed_once_and_a_second_reply_is_a_duplicate() {
        let dir = cluster_of(&[1, 2]);
        let mut c = RoutedClient::new(S, 1, RESEND);
        c.issue(0, put(0), &dir);
        // The resend timer fires: the same (session, seq) goes out again,
        // to the next member.
        assert_eq!(sends(&c.on_timeout(RESEND, &dir)), vec![(NodeId(2), 1)]);
        // Both sends are answered.
        let first = c.on_response(RESEND + 1, NodeId(1), reply(1), &dir);
        assert!(matches!(
            first[..],
            [ClientAction::Done {
                seq: 1,
                result: Ok(_)
            }]
        ));
        let second = c.on_response(RESEND + 2, NodeId(2), reply(1), &dir);
        assert_eq!(second, vec![ClientAction::Duplicate { seq: 1 }]);
    }

    #[test]
    fn a_hint_the_directory_no_longer_lists_is_never_used() {
        let mut dir = cluster_of(&[1, 2, 3]);
        let mut c = RoutedClient::new(S, 4, RESEND);
        c.issue(0, put(0), &dir);
        c.on_response(1, NodeId(1), reply(1), &dir);
        // Node 1 answered, so it is the cluster's leader hint...
        assert_eq!(sends(&c.issue(2, put(1), &dir)), vec![(NodeId(1), 2)]);
        // ...until a RemoveAndResize retires it and the directory follows.
        dir.upsert(C, RangeSet::full(), nodes(&[2, 3]));
        let fresh = sends(&c.issue(3, put(2), &dir));
        assert!(fresh.iter().all(|(to, _)| *to != NodeId(1)), "{fresh:?}");
        // The retired node sends seq 2 on; the directory already moved past
        // the version it was routed on, so it goes out again at once.
        let bounced = rejected(2, Error::WrongRange(Some(C)));
        let resent = sends(&c.on_response(4, NodeId(1), bounced, &dir));
        assert_eq!(resent.len(), 1);
        assert_ne!(resent[0].0, NodeId(1));
    }

    #[test]
    fn a_wrong_range_parks_until_the_directory_moves_or_the_timer_fires() {
        let mut dir = cluster_of(&[1, 2]);
        let mut c = RoutedClient::new(S, 1, RESEND);
        c.issue(0, put(0), &dir);
        let bounced = c.on_response(100, NodeId(1), rejected(1, Error::WrongRange(None)), &dir);
        assert!(sends(&bounced).is_empty());
        for i in 1..10 {
            let t = 100 + i * RETRY_BACKOFF_US;
            assert!(c.next_deadline().is_some_and(|d| d <= t));
            assert!(sends(&c.on_timeout(t, &dir)).is_empty(), "parked at {t}");
        }
        // The directory moves: released at once.
        dir.upsert(ClusterId(2), RangeSet::empty(), nodes(&[3]));
        let t = 200_000;
        let released = sends(&c.on_timeout(t, &dir));
        assert_eq!(released.len(), 1);
        // Bounced again, and the directory stays put: the resend timer
        // releases it.
        let to = released[0].0;
        c.on_response(t + 1, to, rejected(1, Error::WrongRange(None)), &dir);
        assert!(sends(&c.on_timeout(t + RESEND - 1, &dir)).is_empty());
        assert_eq!(sends(&c.on_timeout(t + RESEND, &dir)).len(), 1);
    }

    #[test]
    fn an_unreachable_node_is_routed_around_after_a_backoff() {
        let dir = cluster_of(&[1, 2, 3]);
        let mut c = RoutedClient::new(S, 2, RESEND);
        assert_eq!(sends(&c.issue(0, put(0), &dir)), vec![(NodeId(1), 1)]);
        assert!(sends(&c.on_unreachable(5, NodeId(1), &dir)).is_empty());
        let again = sends(&c.on_timeout(5 + RETRY_BACKOFF_US, &dir));
        assert_eq!(again, vec![(NodeId(2), 1)]);
    }

    /// What the test knows about one unconfirmed operation.
    #[derive(Default)]
    struct Model {
        /// The node its latest send went to, while that send is unanswered.
        to: Option<NodeId>,
        /// When and on which directory version its latest send went out.
        sent: (u64, u64),
        /// Parked by a `WrongRange`: the version it was routed on, and the
        /// resend timer.
        parked: Option<(u64, u64)>,
    }

    proptest! {
        #[test]
        fn any_interleaving_keeps_the_session_rules(
            window in 1usize..40,
            steps in proptest::collection::vec((0u8..8, 0u64..64, 0u64..64), 1..160),
        ) {
            let mut dir = cluster_of(&[1, 2, 3]);
            let mut c = RoutedClient::new(S, window, RESEND);
            let mut now = 0;
            let mut ops: BTreeMap<u64, Model> = BTreeMap::new();
            let mut ended = BTreeSet::new();
            for (kind, a, b) in steps {
                let node = NodeId(b % 5 + 1);
                let mut answered = None;
                let mut must_send = BTreeSet::new();
                let out = match kind {
                    0 | 1 => {
                        let seq = c.next_seq();
                        let oldest = ops.keys().next().copied().unwrap_or(seq);
                        let room = ops.len() < window && seq < oldest + SESSION_WINDOW;
                        prop_assert_eq!(c.can_issue(), room, "{} pending, oldest {}", ops.len(), oldest);
                        if !room {
                            continue;
                        }
                        ops.insert(seq, Model::default());
                        c.issue(now, put(a), &dir)
                    }
                    2 | 3 => {
                        let seq = a % c.next_seq().max(1) + 1;
                        let target = ops.get(&seq).and_then(|m| m.to);
                        let from = if b % 2 == 0 { target.unwrap_or(node) } else { node };
                        let hint = Some(NodeId(a % 5 + 1));
                        let outcome = match (kind, b % 6) {
                            (2, _) => ClientOutcome::Reply { payload: Bytes::new() },
                            (_, 0) => ClientOutcome::Redirect { leader_hint: None, cluster: Some(C) },
                            (_, 1) => ClientOutcome::Redirect { leader_hint: hint, cluster: Some(C) },
                            (_, 2) => ClientOutcome::Rejected { error: Error::NotLeader(hint) },
                            (_, 3) => ClientOutcome::Rejected { error: Error::WrongRange(None) },
                            (_, 4) => ClientOutcome::Rejected { error: Error::MergeBlocked },
                            _ => ClientOutcome::Rejected { error: Error::SessionStale },
                        };
                        if let Some(m) = ops.get_mut(&seq).filter(|m| m.to == Some(from)) {
                            m.to = None;
                            if matches!(outcome, ClientOutcome::Rejected { error: Error::WrongRange(_) }) {
                                m.parked = Some((m.sent.1, m.sent.0 + RESEND));
                            }
                        }
                        answered = Some((seq, outcome.clone()));
                        c.on_response(now, from, answer(seq, outcome), &dir)
                    }
                    4 => {
                        now += a * 1_000;
                        c.on_timeout(now, &dir)
                    }
                    5 => {
                        // The directory moves: every parked operation is
                        // released.
                        let members: Vec<u64> = (1..=5).filter(|n| (a % 31 + 1) >> (n - 1) & 1 == 1).collect();
                        dir.upsert(C, RangeSet::full(), nodes(&members));
                        must_send.extend(ops.iter().filter(|(_, m)| m.parked.is_some()).map(|(s, _)| *s));
                        c.on_timeout(now, &dir)
                    }
                    6 => {
                        for m in ops.values_mut().filter(|m| m.to == Some(node)) {
                            m.to = None;
                        }
                        c.on_unreachable(now, node, &dir)
                    }
                    _ => {
                        // Every resend timer runs out.
                        now += RESEND;
                        must_send.extend(ops.iter().filter(|(_, m)| m.parked.is_some_and(|(_, t)| t <= now)).map(|(s, _)| *s));
                        c.on_timeout(now, &dir)
                    }
                };
                let members = dir.members(C).cloned().unwrap_or_default();
                for action in &out {
                    match action {
                        ClientAction::Send { to, req } => {
                            prop_assert!(members.contains(to), "sent to {to}, not in {members:?}");
                            prop_assert_eq!(req.session, S);
                            let m = ops.get_mut(&req.seq).expect("a send is for a pending operation");
                            if let Some((version, timer)) = m.parked.take() {
                                prop_assert!(dir.version() != version || now >= timer, "released early");
                            }
                            must_send.remove(&req.seq);
                            m.to = Some(*to);
                            m.sent = (now, dir.version());
                        }
                        ClientAction::Done { seq, result } => {
                            prop_assert!(ops.remove(seq).is_some(), "{seq} ended twice");
                            prop_assert!(ended.insert(*seq));
                            if let Some((_, outcome)) = &answered {
                                let confirmed = matches!(outcome, ClientOutcome::Reply { .. });
                                prop_assert_eq!(result.is_ok(), confirmed, "{:?} ended {:?}", outcome, result);
                            }
                        }
                        ClientAction::Duplicate { seq } => prop_assert!(ended.contains(seq)),
                    }
                }
                if let Some((seq, ClientOutcome::Reply { .. })) = answered {
                    prop_assert!(!ops.contains_key(&seq), "a reply left {seq} pending");
                }
                prop_assert!(must_send.is_empty(), "parked and not released: {must_send:?}");
                prop_assert_eq!(c.pending(), ops.len());
            }
        }
    }
}
