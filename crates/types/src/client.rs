//! The typed client protocol: sessions, exactly-once writes, and
//! linearizable reads.
//!
//! Production SMR systems treat the client interface as a first-class
//! protocol rather than raw bytes on a socket. This module defines it:
//!
//! * A client opens a **session** ([`SessionId`]) and tags every request
//!   with a monotonically increasing sequence number (`seq`), issuing `seq`
//!   only while `seq < oldest pending + SESSION_WINDOW`. The replicated
//!   state machine keeps a per-session [`SessionTable`] of the replies in
//!   that window *inside the applied state*, so a retried write is applied
//!   **exactly once** and answered with its recorded reply even across
//!   leader changes, restarts, splits, and merges — the table travels with
//!   snapshots and merge exchange parts.
//! * Writes are [`ClientOp::Command`]s routed by key through the replicated
//!   log. Reads are [`ClientOp::Get`]s served through the leader's
//!   **ReadIndex** path: the leader confirms its commit index with a quorum
//!   heartbeat round and answers from the applied state without appending.
//! * Every response carries a structured [`ClientOutcome`]. Routing misses
//!   return [`ClientOutcome::Redirect`] with a leader hint and the
//!   responder's cluster so retries land correctly even while the topology
//!   is being split or merged underneath the client.
//!
//! Every type declares its binary layout beside its definition with
//! [`codec!`](crate::codec!), so it can travel through transports and
//! snapshots.
//!
//! # Example
//! ```
//! use bytes::Bytes;
//! use recraft_types::client::{ClientOp, ClientRequest, SessionId, SessionCheck, SessionTable};
//!
//! let req = ClientRequest {
//!     session: SessionId(7),
//!     seq: 1,
//!     op: ClientOp::Command { key: b"k".to_vec(), cmd: Bytes::from_static(b"v") },
//! };
//! assert_eq!(req.key(), b"k");
//!
//! let mut table = SessionTable::new();
//! assert_eq!(table.check(SessionId(7), 1), SessionCheck::Fresh);
//! table.record(SessionId(7), 1, Bytes::from_static(b"ok"));
//! // A duplicate delivery of the same (session, seq) is answered from the
//! // table instead of re-applying.
//! assert!(matches!(table.check(SessionId(7), 1), SessionCheck::Duplicate(_)));
//! ```

use crate::codec;
use crate::error::Error;
use crate::ids::{ClusterId, LogIndex, NodeId};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a client session. Sessions are the unit of exactly-once
/// accounting: each session's sequence numbers must increase monotonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What a client asks a cluster to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Apply an opaque state-machine command (a write): goes through the
    /// replicated log and is deduplicated by `(session, seq)`.
    Command {
        /// The key the command touches (routing and range checks).
        key: Vec<u8>,
        /// The encoded state-machine command.
        cmd: Bytes,
    },
    /// Read a key linearizably through the leader's ReadIndex path: no log
    /// entry is appended; the leader quorum-confirms its commit index and
    /// answers from the applied state machine.
    Get {
        /// The key to read.
        key: Vec<u8>,
    },
}

impl ClientOp {
    /// The key this operation is routed by.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        match self {
            ClientOp::Command { key, .. } | ClientOp::Get { key } => key,
        }
    }

    /// Whether this is a read served without a log append.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, ClientOp::Get { .. })
    }

    /// Approximate wire size of the payload in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            ClientOp::Command { key, cmd } => key.len() + cmd.len(),
            ClientOp::Get { key } => key.len(),
        }
    }
}

codec!(enum ClientOp {
    0 => Command {
        key: Vec<u8>,
        cmd: Bytes,
    },
    1 => Get {
        key: Vec<u8>,
    },
});

/// One client request: which session, which attempt, what to do.
///
/// Retrying the same `(session, seq)` is always safe: the dedup table
/// guarantees the command applies at most once, and the retry receives the
/// recorded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// The issuing session.
    pub session: SessionId,
    /// Monotonically increasing per-session sequence number.
    pub seq: u64,
    /// The operation.
    pub op: ClientOp,
}

impl ClientRequest {
    /// The key this request is routed by.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        self.op.key()
    }
}

codec!(
    struct ClientRequest {
        session: SessionId,
        seq: u64,
        op: ClientOp,
    }
);

/// How a node answered a [`ClientRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The operation completed; `payload` is the state machine's response
    /// (for duplicates, the response recorded at first application).
    Reply {
        /// Encoded state-machine response.
        payload: Bytes,
    },
    /// The contacted node cannot serve the request; retry against
    /// `leader_hint` (if known). `cluster` is the responder's cluster so the
    /// client can fix its routing table across splits and merges.
    Redirect {
        /// The believed leader, when known.
        leader_hint: Option<NodeId>,
        /// The responder's current cluster, when it has one.
        cluster: Option<ClusterId>,
    },
    /// The request was rejected; the error says whether a retry (possibly
    /// after re-resolving the owning cluster) can succeed.
    Rejected {
        /// Why the request was not served.
        error: Error,
    },
}

impl ClientOutcome {
    /// A short tag for traces and metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ClientOutcome::Reply { .. } => "reply",
            ClientOutcome::Redirect { .. } => "redirect",
            ClientOutcome::Rejected { .. } => "rejected",
        }
    }

    /// Approximate wire size of the payload in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            ClientOutcome::Reply { payload } => payload.len(),
            ClientOutcome::Redirect { .. } | ClientOutcome::Rejected { .. } => 0,
        }
    }
}

codec!(enum ClientOutcome {
    0 => Reply {
        payload: Bytes,
    },
    1 => Redirect {
        leader_hint: Option<NodeId>,
        cluster: Option<ClusterId>,
    },
    2 => Rejected {
        error: Error,
    },
});

/// One client response, echoing the request's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The session the request belonged to.
    pub session: SessionId,
    /// The request's sequence number.
    pub seq: u64,
    /// What happened.
    pub outcome: ClientOutcome,
}

codec!(
    struct ClientResponse {
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
    }
);

/// How many sequence numbers below a session's highest applied one the
/// [`SessionTable`] still answers for: it keeps the reply of every applied
/// number in `(last_seq - SESSION_WINDOW, last_seq]`.
///
/// A protocol constant, not a knob. A client issues `seq` only while
/// `seq < oldest pending + SESSION_WINDOW`, so every number it may still
/// resend lies inside the window of every table that could answer it — a
/// split child's inherited copy, or the union a merge builds. It must be at
/// least the largest client window in flight (8 in this tree).
pub const SESSION_WINDOW: u64 = 32;

/// What the dedup table says about an incoming `(session, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCheck {
    /// Not recorded, and not below the session's window: apply it.
    Fresh,
    /// Applied before, inside the window: answer with the recorded
    /// response, do not re-apply.
    Duplicate(Bytes),
    /// Below the window (`seq <= last_seq - SESSION_WINDOW`): whether it
    /// applied is no longer known, so it must not apply now. A client that
    /// keeps the window rule never sends such a number.
    Stale,
}

/// The exactly-once dedup table, part of the *applied state*: per session,
/// the reply of every applied sequence number in the window
/// `(last_seq - SESSION_WINDOW, last_seq]`. It is rebuilt from snapshots on
/// restart, retained whole through split completion (both subclusters
/// inherit it, so a retry routed to either owner deduplicates), and united
/// when clusters merge ([`SessionTable::absorb`]).
///
/// Keeping every reply in the window, not just the last, is what lets the
/// table answer any retry of a client's pending numbers: a number bounced
/// before it applied (`MergeBlocked`, a stale route) is still `Fresh` after
/// its successors applied, in this lineage or a merged-in one (Ongaro's
/// dissertation, §6.3, keeps one response per outstanding request).
///
/// Sessions live for the life of the table; there is no expiry yet, so it
/// grows with the number of distinct sessions (at most `SESSION_WINDOW`
/// replies each). Lease-based session expiry is the natural follow-up once
/// clients heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionTable {
    sessions: BTreeMap<SessionId, BTreeMap<u64, Bytes>>,
}

/// Whether `seq` lies below the window of a session whose highest applied
/// number is `last`.
fn below_window(seq: u64, last: u64) -> bool {
    seq.saturating_add(SESSION_WINDOW) <= last
}

/// Drops the replies a session's window has moved past.
fn trim(replies: &mut BTreeMap<u64, Bytes>) {
    let Some(&last) = replies.keys().next_back() else {
        return;
    };
    while replies
        .first_key_value()
        .is_some_and(|(&seq, _)| below_window(seq, last))
    {
        replies.pop_first();
    }
}

impl SessionTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// The number of tracked sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session has applied anything yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Classifies an incoming `(session, seq)` against the applied history.
    #[must_use]
    pub fn check(&self, session: SessionId, seq: u64) -> SessionCheck {
        let Some(replies) = self.sessions.get(&session) else {
            return SessionCheck::Fresh;
        };
        if let Some(reply) = replies.get(&seq) {
            return SessionCheck::Duplicate(reply.clone());
        }
        match replies.keys().next_back() {
            Some(&last) if below_window(seq, last) => SessionCheck::Stale,
            _ => SessionCheck::Fresh,
        }
    }

    /// Records that `seq` applied for `session` with `reply`, and trims the
    /// session to its window.
    ///
    /// # Panics
    /// Debug-asserts that `seq` was not stale: apply-side dedup runs first.
    pub fn record(&mut self, session: SessionId, seq: u64, reply: Bytes) {
        debug_assert!(self.check(session, seq) != SessionCheck::Stale);
        let replies = self.sessions.entry(session).or_default();
        replies.insert(seq, reply);
        trim(replies);
    }

    /// The highest applied sequence number of a session, if any.
    #[must_use]
    pub fn last_seq(&self, session: SessionId) -> Option<u64> {
        self.sessions
            .get(&session)
            .and_then(|replies| replies.keys().next_back().copied())
    }

    /// Absorbs another table (merge resumption combines the participants'
    /// tables this way): per session, the union of both windows' replies,
    /// trimmed to the window of the united `last_seq`. A number recorded on
    /// both sides applied once, before the lineages parted, so both carry
    /// the same reply. The union is commutative and idempotent.
    pub fn absorb(&mut self, other: &SessionTable) {
        for (session, theirs) in &other.sessions {
            let mine = self.sessions.entry(*session).or_default();
            for (seq, reply) in theirs {
                mine.entry(*seq).or_insert_with(|| reply.clone());
            }
            trim(mine);
        }
    }

    /// Approximate size in bytes (what snapshot transfer moves).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.sessions
            .values()
            .map(|replies| 8 + replies.values().map(|r| 8 + r.len()).sum::<usize>())
            .sum()
    }
}

codec!(
    struct SessionTable {
        sessions: BTreeMap<SessionId, BTreeMap<u64, Bytes>>,
    }
);

// The error vocabulary is defined in `error.rs`; its layout lives here with
// the client protocol that carries it (`ClientOutcome::Rejected`, the admin
// plane's `Result<(), Error>`).
codec!(enum Error {
    0 => InvalidRange(String),
    1 => InvalidConfig(String),
    2 => PreconditionP1,
    3 => PreconditionP2(String),
    4 => PreconditionP3,
    5 => NotLeader(Option<NodeId>),
    6 => WrongRange(Option<ClusterId>),
    7 => MergeBlocked,
    8 => IndexOutOfRange(LogIndex),
    9 => Codec(String),
    10 => ProposalDropped,
    11 => InvalidState(String),
    12 => SessionStale,
    13 => Storage(String),
    14 => DeadlineExceeded(String),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::testing::roundtrip;
    use proptest::prelude::*;

    #[test]
    fn request_response_roundtrip() {
        roundtrip(ClientRequest {
            session: SessionId(3),
            seq: 7,
            op: ClientOp::Command {
                key: b"k".to_vec(),
                cmd: Bytes::from_static(b"payload"),
            },
        });
        roundtrip(ClientRequest {
            session: SessionId(3),
            seq: 8,
            op: ClientOp::Get { key: b"k".to_vec() },
        });
        roundtrip(ClientResponse {
            session: SessionId(3),
            seq: 7,
            outcome: ClientOutcome::Reply {
                payload: Bytes::from_static(b"ok"),
            },
        });
        roundtrip(ClientResponse {
            session: SessionId(3),
            seq: 7,
            outcome: ClientOutcome::Redirect {
                leader_hint: Some(NodeId(2)),
                cluster: Some(ClusterId(9)),
            },
        });
        roundtrip(ClientResponse {
            session: SessionId(3),
            seq: 7,
            outcome: ClientOutcome::Rejected {
                error: Error::WrongRange(None),
            },
        });
    }

    #[test]
    fn error_codec_covers_variants() {
        for e in [
            Error::InvalidRange("x".into()),
            Error::InvalidConfig("y".into()),
            Error::PreconditionP1,
            Error::PreconditionP2("z".into()),
            Error::PreconditionP3,
            Error::NotLeader(Some(NodeId(4))),
            Error::NotLeader(None),
            Error::WrongRange(Some(ClusterId(5))),
            Error::MergeBlocked,
            Error::IndexOutOfRange(crate::ids::LogIndex(6)),
            Error::Codec("c".into()),
            Error::ProposalDropped,
            Error::InvalidState("s".into()),
            Error::SessionStale,
            Error::Storage("io".into()),
            Error::DeadlineExceeded("admin split after 12 attempts".into()),
        ] {
            roundtrip(e);
        }
    }

    fn r(session: u64, seq: u64) -> Bytes {
        Bytes::from(format!("s{session}r{seq}"))
    }

    #[test]
    fn check_answers_duplicate_in_the_window_and_stale_only_below_it() {
        let mut t = SessionTable::new();
        let s = SessionId(1);
        assert_eq!(t.check(s, 5), SessionCheck::Fresh);
        t.record(s, 5, r(1, 5));
        assert_eq!(t.check(s, 5), SessionCheck::Duplicate(r(1, 5)));
        // Lower unrecorded numbers are inside the window: a write bounced
        // before it applied may still apply once.
        assert_eq!(t.check(s, 4), SessionCheck::Fresh);
        assert_eq!(t.check(s, 0), SessionCheck::Fresh);
        // Gaps are fine: reads consume sequence numbers without recording.
        assert_eq!(t.check(s, 9), SessionCheck::Fresh);
        t.record(s, 9, r(1, 9));
        t.record(s, 4, r(1, 4));
        assert_eq!(t.last_seq(s), Some(9));
        assert_eq!(t.check(s, 4), SessionCheck::Duplicate(r(1, 4)));
        assert_eq!(t.check(s, 5), SessionCheck::Duplicate(r(1, 5)));
        // Moving the top past the window forgets the replies below it, and
        // every number down there is now stale, recorded or not.
        let top = 5 + SESSION_WINDOW;
        t.record(s, top, r(1, top));
        assert_eq!(t.check(s, 5), SessionCheck::Stale);
        assert_eq!(t.check(s, 4), SessionCheck::Stale);
        assert_eq!(t.check(s, 6), SessionCheck::Fresh);
        assert_eq!(t.check(s, 9), SessionCheck::Duplicate(r(1, 9)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.check(SessionId(2), 1), SessionCheck::Fresh);
    }

    #[test]
    fn absorb_unites_the_windows() {
        let mut a = SessionTable::new();
        a.record(SessionId(1), 3, r(1, 3));
        a.record(SessionId(2), 1, r(2, 1));
        let mut b = SessionTable::new();
        b.record(SessionId(1), 5, r(1, 5));
        b.record(SessionId(3), 2, r(3, 2));
        a.absorb(&b);
        assert_eq!(a.last_seq(SessionId(1)), Some(5));
        // Session 1's lower number survives the union: it is in the window.
        assert_eq!(a.check(SessionId(1), 3), SessionCheck::Duplicate(r(1, 3)));
        assert_eq!(a.check(SessionId(1), 4), SessionCheck::Fresh);
        assert_eq!(a.check(SessionId(2), 1), SessionCheck::Duplicate(r(2, 1)));
        assert_eq!(a.check(SessionId(3), 2), SessionCheck::Duplicate(r(3, 2)));
        assert_eq!(a.len(), 3);
        roundtrip(a);
    }

    type Applied = BTreeMap<u64, std::collections::BTreeSet<u64>>;

    /// Records `(session, seq)` pairs in order into a table and into the
    /// reference model — every number each session ever applied, never
    /// trimmed. A pair applies unless it lies below its session's window,
    /// and its reply is a function of the pair: one number applies once.
    fn built(pairs: &[(u64, u64)]) -> (SessionTable, Applied) {
        let mut t = SessionTable::new();
        let mut applied = Applied::new();
        for &(session, seq) in pairs {
            let set = applied.entry(session).or_default();
            if set.last().is_none_or(|&last| seq + SESSION_WINDOW > last) {
                set.insert(seq);
            }
            if t.check(SessionId(session), seq) == SessionCheck::Fresh {
                t.record(SessionId(session), seq, r(session, seq));
            }
        }
        (t, applied)
    }

    /// What the table must answer, from the model.
    fn model_check(applied: &Applied, session: u64, seq: u64) -> SessionCheck {
        match applied.get(&session) {
            Some(set) if set.last().is_some_and(|&l| seq + SESSION_WINDOW <= l) => {
                SessionCheck::Stale
            }
            Some(set) if set.contains(&seq) => SessionCheck::Duplicate(r(session, seq)),
            _ => SessionCheck::Fresh,
        }
    }

    fn assert_matches(t: &SessionTable, applied: &Applied) -> Result<(), TestCaseError> {
        for session in 0..3 {
            prop_assert_eq!(
                t.last_seq(SessionId(session)),
                applied.get(&session).and_then(|set| set.last().copied())
            );
            for seq in 0..3 * SESSION_WINDOW {
                prop_assert_eq!(
                    t.check(SessionId(session), seq),
                    model_check(applied, session, seq),
                    "session {} seq {}",
                    session,
                    seq
                );
            }
        }
        Ok(())
    }

    fn pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec((0u64..3, 0u64..3 * SESSION_WINDOW), 0..40)
    }

    proptest! {
        #[test]
        fn check_answers_from_the_window_of_applied_numbers(pairs in pairs()) {
            let (t, applied) = built(&pairs);
            assert_matches(&t, &applied)?;
        }

        #[test]
        fn absorb_is_the_trimmed_union(a in pairs(), b in pairs()) {
            let ((ta, ma), (tb, mb)) = (built(&a), built(&b));
            let mut ab = ta.clone();
            ab.absorb(&tb);
            let mut ba = tb.clone();
            ba.absorb(&ta);
            prop_assert_eq!(&ab, &ba, "commutative");
            let mut again = ab.clone();
            again.absorb(&tb);
            again.absorb(&ab);
            prop_assert_eq!(&again, &ab, "idempotent");
            let mut union = ma;
            for (session, set) in mb {
                union.entry(session).or_default().extend(set);
            }
            assert_matches(&ab, &union)?;
        }
    }

    #[test]
    fn display_and_keys() {
        assert_eq!(SessionId(4).to_string(), "s4");
        let op = ClientOp::Get { key: b"q".to_vec() };
        assert!(op.is_read());
        assert_eq!(op.key(), b"q");
        assert_eq!(
            ClientOutcome::Reply {
                payload: Bytes::from_static(b"xy")
            }
            .size_bytes(),
            2
        );
        assert_eq!(
            ClientOutcome::Redirect {
                leader_hint: None,
                cluster: None
            }
            .kind(),
            "redirect"
        );
    }
}
