//! The typed client protocol: sessions, exactly-once writes, and
//! linearizable reads.
//!
//! Production SMR systems treat the client interface as a first-class
//! protocol rather than raw bytes on a socket. This module defines it:
//!
//! * A client opens a **session** ([`SessionId`]) and tags every request
//!   with a monotonically increasing sequence number (`seq`). The replicated
//!   state machine keeps a per-session [`SessionTable`] *inside the applied
//!   state*, so a retried write is applied **exactly once** even across
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

/// What the dedup table says about an incoming `(session, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCheck {
    /// Never seen: apply it.
    Fresh,
    /// Exactly the last applied request of this session: answer with the
    /// recorded response, do not re-apply.
    Duplicate(Bytes),
    /// Older than the last applied request: the session has moved on and the
    /// recorded response is gone.
    Stale,
}

/// The per-session bookkeeping of one session: the highest applied sequence
/// number and the response recorded for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionEntry {
    /// The highest `seq` applied for this session.
    pub last_seq: u64,
    /// The state-machine response recorded at that application.
    pub last_reply: Bytes,
}

codec!(
    struct SessionEntry {
        last_seq: u64,
        last_reply: Bytes,
    }
);

/// The exactly-once dedup table, part of the *applied state*: it is rebuilt
/// from snapshots on restart, retained whole through split completion (both
/// subclusters inherit it, so a retry routed to either owner deduplicates),
/// and merged (highest `seq` wins) when clusters merge.
///
/// Entries live for the life of the session; there is no expiry yet, so the
/// table grows with the number of distinct sessions (one entry each, holding
/// the last reply). Lease-based session expiry is the natural follow-up once
/// clients heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionTable {
    entries: BTreeMap<SessionId, SessionEntry>,
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
        self.entries.len()
    }

    /// Whether no session has applied anything yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Classifies an incoming `(session, seq)` against the applied history.
    #[must_use]
    pub fn check(&self, session: SessionId, seq: u64) -> SessionCheck {
        match self.entries.get(&session) {
            None => SessionCheck::Fresh,
            Some(e) if seq > e.last_seq => SessionCheck::Fresh,
            Some(e) if seq == e.last_seq => SessionCheck::Duplicate(e.last_reply.clone()),
            Some(_) => SessionCheck::Stale,
        }
    }

    /// Records that `seq` applied for `session` with `reply`.
    ///
    /// # Panics
    /// Debug-asserts monotonicity: apply-side dedup must run first.
    pub fn record(&mut self, session: SessionId, seq: u64, reply: Bytes) {
        let entry = self.entries.entry(session).or_insert(SessionEntry {
            last_seq: 0,
            last_reply: Bytes::new(),
        });
        debug_assert!(seq > entry.last_seq || (entry.last_seq == 0 && entry.last_reply.is_empty()));
        entry.last_seq = seq;
        entry.last_reply = reply;
    }

    /// The last applied sequence number of a session, if any.
    #[must_use]
    pub fn last_seq(&self, session: SessionId) -> Option<u64> {
        self.entries.get(&session).map(|e| e.last_seq)
    }

    /// Absorbs another table: for sessions present in both, the entry with
    /// the higher `last_seq` wins (merge resumption combines the
    /// participants' tables this way).
    pub fn absorb(&mut self, other: &SessionTable) {
        for (session, entry) in &other.entries {
            match self.entries.get(session) {
                Some(mine) if mine.last_seq >= entry.last_seq => {}
                _ => {
                    self.entries.insert(*session, entry.clone());
                }
            }
        }
    }

    /// Approximate size in bytes (what snapshot transfer moves).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.entries.values().map(|e| 16 + e.last_reply.len()).sum()
    }
}

codec!(
    struct SessionTable {
        entries: BTreeMap<SessionId, SessionEntry>,
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

    #[test]
    fn table_dedup_semantics() {
        let mut t = SessionTable::new();
        let s = SessionId(1);
        assert_eq!(t.check(s, 5), SessionCheck::Fresh);
        t.record(s, 5, Bytes::from_static(b"r5"));
        assert_eq!(
            t.check(s, 5),
            SessionCheck::Duplicate(Bytes::from_static(b"r5"))
        );
        assert_eq!(t.check(s, 4), SessionCheck::Stale);
        // Gaps are fine: reads consume sequence numbers without recording.
        assert_eq!(t.check(s, 9), SessionCheck::Fresh);
        t.record(s, 9, Bytes::from_static(b"r9"));
        assert_eq!(t.last_seq(s), Some(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_absorb_takes_max() {
        let mut a = SessionTable::new();
        a.record(SessionId(1), 3, Bytes::from_static(b"a3"));
        a.record(SessionId(2), 1, Bytes::from_static(b"a1"));
        let mut b = SessionTable::new();
        b.record(SessionId(1), 5, Bytes::from_static(b"b5"));
        b.record(SessionId(3), 2, Bytes::from_static(b"b2"));
        a.absorb(&b);
        assert_eq!(t_reply(&a, SessionId(1)), b"b5");
        assert_eq!(t_reply(&a, SessionId(2)), b"a1");
        assert_eq!(t_reply(&a, SessionId(3)), b"b2");
        assert_eq!(a.len(), 3);
        roundtrip(a);
    }

    fn t_reply(t: &SessionTable, s: SessionId) -> Bytes {
        match t.check(s, t.last_seq(s).unwrap()) {
            SessionCheck::Duplicate(r) => r,
            other => panic!("expected duplicate, got {other:?}"),
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
