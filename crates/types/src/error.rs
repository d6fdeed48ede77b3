//! Error types shared across the workspace.

use crate::ids::{ClusterId, LogIndex, NodeId};
use std::fmt;

/// Convenience alias for results in the ReCraft crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the ReCraft protocol and its substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A key range was malformed or ranges overlapped when they must not.
    InvalidRange(String),
    /// A cluster configuration failed validation (empty member set, quorum
    /// out of bounds, non-disjoint subclusters, ...).
    InvalidConfig(String),
    /// Reconfiguration precondition P1 failed: a prior reconfiguration in the
    /// leader's log is not yet committed (or a merge transaction is pending).
    PreconditionP1,
    /// Reconfiguration precondition P2' failed: the proposed configuration
    /// would not maintain quorum overlap with the current one.
    PreconditionP2(String),
    /// Reconfiguration precondition P3 failed: the leader has not committed
    /// an entry in its current term yet.
    PreconditionP3,
    /// The operation must be performed on the leader; a hint to the believed
    /// leader is included when known.
    NotLeader(Option<NodeId>),
    /// The node does not serve the requested key (range moved to another
    /// cluster); the owning cluster is hinted when known.
    WrongRange(Option<ClusterId>),
    /// The node is blocked in the merge data-exchange phase and cannot serve
    /// requests until resumption (§III-C2: "the data exchange phase blocks").
    MergeBlocked,
    /// A log index was out of the available window (compacted or past the
    /// end).
    IndexOutOfRange(LogIndex),
    /// Codec failure while decoding persisted or transferred bytes.
    Codec(String),
    /// A durable-storage backend failed (I/O error, missing or unrecoverable
    /// persisted state).
    Storage(String),
    /// A proposal was dropped because the node stepped down or the entry was
    /// truncated by a new leader.
    ProposalDropped,
    /// The request's sequence number lies below its session's window
    /// (`seq <= last_seq - SESSION_WINDOW`, see
    /// [`crate::client::SESSION_WINDOW`]): whether it applied is no longer
    /// recorded, so it is refused. A client that issues `seq` only while
    /// `seq < oldest pending + SESSION_WINDOW` never sees this for a pending
    /// write; it is not evidence that the write applied.
    SessionStale,
    /// The requested operation conflicts with protocol state (e.g. leaving a
    /// joint mode that was never entered).
    InvalidState(String),
    /// A retried operation exhausted its wall-clock deadline; the message
    /// carries the last underlying rejection so a wedged campaign fails
    /// loudly instead of retrying forever.
    DeadlineExceeded(String),
}

impl Error {
    /// Whether an admin command rejected with this error can succeed when
    /// sent again: the node does not lead (its hint, if any, names who
    /// does), a prior reconfiguration is still settling (P1), a fresh
    /// leader's no-op has not committed (P3), or the cluster is blocked in a
    /// merge's data exchange. Each resolves on its own. Every other
    /// rejection is a planning error that a retry would only repeat. The
    /// one rule the simulator's admin plane and the TCP admin client retry
    /// by.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::NotLeader(_)
                | Error::PreconditionP1
                | Error::PreconditionP3
                | Error::MergeBlocked
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidRange(m) => write!(f, "invalid key range: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::PreconditionP1 => {
                write!(
                    f,
                    "precondition P1 failed: prior reconfiguration not committed"
                )
            }
            Error::PreconditionP2(m) => {
                write!(f, "precondition P2' failed: quorum overlap violated ({m})")
            }
            Error::PreconditionP3 => {
                write!(
                    f,
                    "precondition P3 failed: no entry committed in leader's term"
                )
            }
            Error::NotLeader(hint) => match hint {
                Some(n) => write!(f, "not the leader; try {n}"),
                None => write!(f, "not the leader; leader unknown"),
            },
            Error::WrongRange(hint) => match hint {
                Some(c) => write!(f, "key not in this cluster's range; try {c}"),
                None => write!(f, "key not in this cluster's range"),
            },
            Error::MergeBlocked => write!(f, "cluster is blocked in merge data exchange"),
            Error::IndexOutOfRange(i) => write!(f, "log index {i} out of range"),
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::ProposalDropped => write!(f, "proposal dropped"),
            Error::SessionStale => write!(f, "request below the session's window"),
            Error::InvalidState(m) => write!(f, "invalid protocol state: {m}"),
            Error::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let cases: Vec<Error> = vec![
            Error::InvalidRange("x".into()),
            Error::InvalidConfig("x".into()),
            Error::PreconditionP1,
            Error::PreconditionP2("x".into()),
            Error::PreconditionP3,
            Error::NotLeader(Some(NodeId(1))),
            Error::NotLeader(None),
            Error::WrongRange(Some(ClusterId(1))),
            Error::WrongRange(None),
            Error::MergeBlocked,
            Error::IndexOutOfRange(LogIndex(3)),
            Error::Codec("x".into()),
            Error::Storage("x".into()),
            Error::ProposalDropped,
            Error::SessionStale,
            Error::InvalidState("x".into()),
            Error::DeadlineExceeded("x".into()),
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
            assert!(!s.ends_with('.'), "{s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
