//! Core data types shared by every ReCraft crate.
//!
//! This crate defines the vocabulary of the ReCraft protocol reproduction:
//!
//! * [`NodeId`], [`ClusterId`], [`LogIndex`] — strongly-typed identifiers.
//! * [`EpochTerm`] — the epoch-prefixed term number of §III-A of the paper:
//!   the top 32 bits of a `u64` hold the reconfiguration *epoch*, the bottom
//!   32 bits the regular Raft *term*, so an updated epoch dominates any term
//!   from an older configuration.
//! * [`KeyRange`] / [`RangeSet`] — the sharding algebra used by split and
//!   merge to carve and recombine key spaces.
//! * [`ClusterConfig`], [`QuorumRule`], [`ConfigChange`] — configurations and
//!   the special log entries that reconfigure them.
//! * [`mod@codec`] — the workspace's one binary format (wire, WAL,
//!   snapshots; no external serialization format is required) and the
//!   [`codec!`] macro a type declares its layout in it with.
//! * [`client`] — the typed client protocol: sessions with exactly-once
//!   write semantics ([`ClientRequest`]/[`ClientResponse`]/[`SessionTable`])
//!   and structured redirect outcomes.
//!
//! # Example
//!
//! ```
//! use recraft_types::{EpochTerm, NodeId};
//!
//! let old = EpochTerm::new(1, 900);
//! let new = EpochTerm::new(2, 3);
//! // A bumped epoch dominates any term of the previous epoch.
//! assert!(new > old);
//! assert_eq!(new.epoch(), 2);
//! assert_eq!(NodeId(7).to_string(), "n7");
//! ```

pub mod client;
pub mod codec;
pub mod config;
pub mod error;
pub mod eterm;
pub mod ids;
pub mod range;

/// The byte-string type client payloads and commands are written in.
pub use bytes::Bytes;
pub use client::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, SessionCheck, SessionId, SessionTable,
    SESSION_WINDOW,
};
pub use config::{
    ClusterConfig, ConfigChange, MergeDecision, MergeOutcome, MergeParticipant, MergeTx,
    QuorumRule, SplitSpec,
};
pub use error::{Error, Result};
pub use eterm::EpochTerm;
pub use ids::{ClusterId, LogIndex, NodeId, TxId};
pub use range::{KeyRange, RangeSet};
