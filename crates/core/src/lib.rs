//! The ReCraft protocol core.
//!
//! This crate implements the paper's contribution: a Raft node extended with
//!
//! * **Split** (§III-B) — [`net::AdminCmd::Split`]: a joint-consensus variant
//!   where entering `Cjoint` changes only the *election* quorum (majority of
//!   every subcluster) while commits keep using `Cold`; leaving appends
//!   `Cnew`, commits it with the leader's own subcluster majority, multicasts
//!   the commit (`NotifyCommit`), bumps the epoch, and lets missed-out
//!   subclusters save themselves through pull-based recovery.
//! * **Merge** (§III-C) — [`net::AdminCmd::Merge`]: a cluster-level
//!   two-phase commit where each cluster's Raft log is the participant's
//!   durable 2PC record, followed by a blocking snapshot exchange and
//!   resumption at epoch `max(E_i) + 1`.
//! * **Membership change** (§IV) — [`net::AdminCmd::AddAndResize`] /
//!   [`net::AdminCmd::RemoveAndResize`]: multi-node changes in one wait-free
//!   consensus step via the overlap-forcing quorum `Q_new-q`, plus
//!   `ResizeQuorum` back to the majority.
//! * The **baselines** the paper compares against: vanilla Add/RemoveServer
//!   ([`net::AdminCmd::SimpleChange`]) and vanilla joint consensus
//!   ([`net::AdminCmd::JointChange`]).
//!
//! The node is *sans-io*: [`Node::step`] consumes a message, [`Node::tick`]
//! advances timers, and both leave outbound [`net::Envelope`]s and trace
//! [`NodeEvent`]s in the node's outbox for the caller (the deterministic
//! simulator in `recraft-sim`, tests, or a real transport) to drain with
//! [`Node::take_outputs`].
//!
//! # Quickstart
//!
//! ```
//! use recraft_core::{MapMachine, Node, Timing};
//! use recraft_types::{ClusterConfig, ClusterId, NodeId, RangeSet};
//!
//! let config = ClusterConfig::new(
//!     ClusterId(1),
//!     [NodeId(1), NodeId(2), NodeId(3)],
//!     RangeSet::full(),
//! )?;
//! let node = Node::new(NodeId(1), config, MapMachine::default(), Timing::default(), 42);
//! assert!(!node.is_leader());
//! # Ok::<(), recraft_types::Error>(())
//! ```

pub mod events;
pub mod node;
pub mod quorum;
pub mod shard;
pub mod sm;
pub mod stack;
pub mod timing;
pub mod votes;

pub use events::NodeEvent;
pub use node::{Node, ReconfigRecord, Role};
pub use quorum::QuorumSpec;
pub use shard::{Flushed, Shard, LOCAL_PASSES};
pub use sm::{MapMachine, StateMachine};
pub use timing::{PipelineConfig, Timing};

// Re-export the message vocabulary so downstream users need only this crate.
pub use recraft_net as net;
// Re-export the storage boundary: node generics and `node.log()` accessors
// are expressed in terms of these.
pub use recraft_storage as storage;
pub use recraft_storage::{LogStore, MemLog, NodeMeta, WalLog, WalOptions};
