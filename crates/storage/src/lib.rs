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
//! * [`MemLog`] — in memory; state survives the simulator's in-process
//!   restart but not a real reboot,
//! * [`WalLog`] — a segmented, checksummed write-ahead log with node
//!   metadata, atomic snapshot install, and torn-tail crash recovery.
//!
//! # Recovery semantics
//!
//! The WAL is an append-only operation log: an append writes one batch
//! record, a truncation appends one truncate marker, and recovery replays
//! the records in order onto an empty mirror — a batch appends its entries,
//! a marker cuts the mirror back. Segment files only ever grow until
//! compaction (or a reset) deletes them whole; no byte a sync covered is
//! cut or rewritten, so at no instant are acknowledged entries on no disk.
//! The first torn or corrupt record ends the log, which leaves a crashed
//! store at the state after *some* operation at or past its last sync —
//! never less than the sync, never a mixture of two states. (The data-dir
//! layout and the per-operation details are in `wal.rs`'s module docs.)
//!
//! # Example
//! ```
//! use recraft_storage::{EntryPayload, LogEntry, MemLog};
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
pub use snapshot::{Snapshot, SnapshotFrame};
pub use state::HardState;
pub use store::{LogStore, NodeMeta, ReconfigRecord};
pub use wal::{WalLog, WalOptions};
