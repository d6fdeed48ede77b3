//! Storage substrate for ReCraft: the replicated log, the persisted hard
//! state, and snapshots — behind the pluggable [`LogStore`] trait.
//!
//! The log model matches Raft's: a compacted prefix summarized by a snapshot
//! base `(base_index, base_eterm)` followed by contiguous entries. The merge
//! protocol additionally *renumbers* logs (the merged cluster "starts fresh
//! with the log that begins with the Cnew entry", §III-C2), which
//! [`LogStore::reset`] supports.
//!
//! Two backends implement the trait:
//!
//! * [`MemLog`] — in memory, with a sync watermark: a power cut drops what
//!   the last sync did not cover, and a node reopened over the same value
//!   recovers the rest,
//! * [`WalLog`] — a segmented, checksummed write-ahead log: one stream of
//!   records for the entries, the node metadata and the compaction base,
//!   an atomically replaced snapshot file beside it, and torn-tail crash
//!   recovery.
//!
//! # Recovery semantics
//!
//! The WAL is an append-only operation log with five record kinds: an
//! append buffers one batch, a truncation one marker, `save_meta` the node
//! metadata, a compaction or a reset the new base. The barrier writes them
//! in one block-aligned write over the segment's zero-filled end — direct
//! and data-synced where the platform allows, a write plus `fdatasync`
//! elsewhere. Recovery replays the records in order onto an empty mirror
//! and reads no other file; a run of zeros after the last record is a
//! segment's clean end. A segment is deleted only after a later, synced
//! segment restates the newest metadata, the base and the entries above
//! it. No byte a sync covered is cut or changed (the barrier rewrites the
//! last partial block with those bytes as they were, trusting the disk to
//! write a sector whole), so at no instant are acknowledged entries — or an
//! acknowledged vote — on no disk. The first torn or corrupt record ends
//! the log, which leaves a crashed store at the state after *some* prefix
//! of its own mutation calls at or past its last sync — never less than
//! the sync, never a mixture of two states. (The data-dir layout and the
//! per-operation details are in `wal.rs`'s module docs.)
//!
//! # Example
//! ```
//! use recraft_storage::{EntryPayload, LogEntry, LogStore, MemLog};
//! use recraft_types::{EpochTerm, LogIndex};
//!
//! let mut log = MemLog::new();
//! log.append(LogEntry::noop(LogIndex(1), EpochTerm::new(0, 1)));
//! assert_eq!(log.last_index(), LogIndex(1));
//! assert_eq!(log.eterm_at(LogIndex(1)), Some(EpochTerm::new(0, 1)));
//! ```

mod codec;
mod entry;
pub mod framing;
mod memlog;
#[cfg(test)]
mod proptests;
mod snapshot;
mod state;
mod store;
mod wal;

pub use entry::{EntryPayload, LogEntry};
pub use framing::crc32;
pub use memlog::MemLog;
pub use snapshot::{Assembler, Snapshot, SnapshotFrame};
pub use state::HardState;
pub use store::{LogStore, NodeMeta, ReconfigRecord};
pub use wal::{WalLog, WalOptions};
