//! The pluggable durable-storage boundary.
//!
//! [`LogStore`] covers everything a ReCraft node persists: the replicated
//! log (append / truncate / compact / the merge protocol's renumbering
//! [`LogStore::reset`]), the per-node metadata that must be durable before a
//! message leaves the node ([`NodeMeta`]: hard state plus cluster identity),
//! and the snapshot the state machine restarts from.
//!
//! Two implementations ship: [`MemLog`](crate::MemLog), the in-memory
//! backend (a disk that lives as long as the `MemLog` value), and
//! [`WalLog`](crate::WalLog), a segmented write-ahead log with crash
//! recovery. A node reboots over either the same way: reopened from what the
//! store holds.
//!
//! # The write-ahead contract
//!
//! Mutations may buffer; [`LogStore::sync`] makes everything written so far
//! durable. The consensus layer calls `sync` before externalizing any output
//! that acknowledges the written state (votes, append responses), so a crash
//! can only ever lose writes that were never acknowledged to anyone.
//!
//! A buffered mutation may live in memory alone until that barrier: the
//! WAL writes nothing to its files between two barriers. So a process kill
//! loses what a power cut does, every mutation after the last `sync`, and
//! the barrier promises what it always did: everything written before it
//! returned survives any crash after.

use crate::entry::LogEntry;
use crate::snapshot::Snapshot;
use crate::state::HardState;
use recraft_types::{ClusterConfig, ClusterId, EpochTerm, LogIndex, NodeId, Result, TxId};
use std::collections::BTreeSet;

/// A record of one completed reconfiguration, kept for long-term recovery
/// (§V: "ReCraft requires all clusters to maintain the reconfiguration
/// history even after garbage collecting the log"). Persisted as part of
/// [`NodeMeta`], so the history survives real reboots, not just the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigRecord {
    /// What happened.
    pub kind: &'static str,
    /// The cluster before.
    pub old_cluster: ClusterId,
    /// The cluster after.
    pub new_cluster: ClusterId,
    /// Members before.
    pub members_before: BTreeSet<NodeId>,
    /// Members after.
    pub members_after: BTreeSet<NodeId>,
    /// The node's epoch-term when the record was made.
    pub at: recraft_types::EpochTerm,
    /// The merge transaction involved, if any.
    pub tx: Option<TxId>,
}

/// The per-node metadata that must be durable before the node answers RPCs:
/// the Raft hard state plus the ReCraft cluster-identity fields (a split or
/// merge changes what cluster a node *is*, and a reboot must not forget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// Current epoch-term and the vote granted in it.
    pub hard: HardState,
    /// The cluster this node belongs to.
    pub cluster: ClusterId,
    /// The reconfiguration-generation epoch of that identity.
    pub cluster_epoch: u32,
    /// Whether the node holds a real configuration (false for joiners).
    pub bootstrapped: bool,
    /// Whether a committed split, merge or membership change left the node
    /// out of its cluster. A retired node reboots retired.
    pub retired: bool,
    /// The cluster a joiner was provisioned for, if any.
    pub join_target: Option<ClusterId>,
    /// Completed reconfigurations this node witnessed (§V history). The
    /// records outlive log compaction by design. Riding in the metadata
    /// blob means every hard-state flush re-encodes the history; that is
    /// acceptable because it grows only with *reconfigurations* (rare,
    /// human-scale events), never with traffic — if a deployment ever
    /// accumulates enough records to matter, split them into an
    /// append-only file of their own.
    pub history: Vec<ReconfigRecord>,
}

/// The storage surface the consensus core drives.
///
/// Log semantics are exactly [`MemLog`](crate::MemLog)'s: a compacted base
/// `(base_index, base_eterm)` followed by contiguous entries. All reads are
/// served from memory (implementations keep an in-memory index); durability
/// applies to mutations.
pub trait LogStore: std::fmt::Debug + Send {
    // ---- Log shape (read side) ------------------------------------------

    /// The compaction base index (entries at or below it are gone).
    fn base_index(&self) -> LogIndex;

    /// The epoch-term recorded at the base index.
    fn base_eterm(&self) -> EpochTerm;

    /// Index of the first retained entry.
    fn first_index(&self) -> LogIndex {
        self.base_index().next()
    }

    /// Index of the last entry (the base index if the log is empty).
    fn last_index(&self) -> LogIndex;

    /// Epoch-term of the last entry (the base epoch-term if empty).
    fn last_eterm(&self) -> EpochTerm;

    /// Number of retained entries.
    fn len(&self) -> usize;

    /// Whether no entries are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `index`, if retained.
    fn entry(&self, index: LogIndex) -> Option<LogEntry>;

    /// The epoch-term at `index`: the base epoch-term for the base index,
    /// otherwise the retained entry's. `None` if compacted away or past the
    /// end.
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm>;

    /// Whether the log matches `(index, eterm)` — the AppendEntries
    /// consistency check. The base position counts as matching.
    fn matches(&self, index: LogIndex, eterm: EpochTerm) -> bool {
        self.eterm_at(index) == Some(eterm)
    }

    /// Entries in `[from, to]`, clamped to what is retained.
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry>;

    /// Entries from `from` through the end of the log.
    fn tail(&self, from: LogIndex) -> Vec<LogEntry> {
        self.slice(from, self.last_index())
    }

    // ---- Log mutations ---------------------------------------------------

    /// Appends one entry to the tail.
    ///
    /// # Panics
    /// Panics if `entry.index` is not exactly `last_index + 1` — appends are
    /// contiguous by construction.
    fn append(&mut self, entry: LogEntry);

    /// Appends a contiguous run of entries in one operation. Durable
    /// backends fold the whole run into a single on-disk record (the
    /// group-commit write path: one frame, one checksum, one write — and a
    /// torn record rolls the *entire* batch back atomically at recovery).
    /// The default loops [`LogStore::append`].
    ///
    /// # Panics
    /// Panics if the first entry's index is not exactly `last_index + 1` or
    /// the run is not contiguous.
    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        for entry in entries {
            self.append(entry);
        }
    }

    /// Removes every entry at or after `index` (follower conflict
    /// resolution). Returns the number of entries removed.
    ///
    /// Like an append, the removal is buffered until [`LogStore::sync`]: a
    /// durable backend records it as one truncate marker appended to its
    /// log and leaves every byte an earlier sync covered in place. The
    /// marker is covered by the same barrier as the appends that follow it.
    /// A crash before that barrier loses the marker *and* everything
    /// written after it, so the removed suffix comes back as part of the
    /// store's state at its last sync — a state the node held before it
    /// stepped the message, whose acknowledgement had not left either —
    /// never as a mixture of old and new entries. A caller about to make
    /// anything else durable on top of the removal (a state-machine flush,
    /// a snapshot of the entries that replace the suffix) syncs first.
    ///
    /// # Errors
    /// Returns [`recraft_types::Error::IndexOutOfRange`] if `index` is at or
    /// below the base.
    fn truncate_from(&mut self, index: LogIndex) -> Result<usize>;

    /// Compacts the log: drops entries at or below `index` and records
    /// `(index, eterm)` as the new base. The covering snapshot must already
    /// be durable (see [`LogStore::save_snapshot`]). Buffered like every
    /// other log mutation: a crash before the next [`LogStore::sync`] may
    /// bring the dropped prefix back, under the snapshot that covers it.
    ///
    /// # Errors
    /// Returns [`recraft_types::Error::IndexOutOfRange`] if `index` is below
    /// the current base or beyond the last entry.
    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()>;

    /// Discards everything and installs a fresh base — snapshot installation
    /// and the merge protocol's log renumbering (§III-C2).
    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm);

    // ---- Durable node state ---------------------------------------------

    /// Persists the node metadata: buffered in order with the log
    /// mutations around it, durable once [`LogStore::sync`] returns.
    fn save_meta(&mut self, meta: &NodeMeta);

    /// The last persisted node metadata, if any.
    fn load_meta(&self) -> Option<NodeMeta>;

    /// Atomically persists a snapshot and the configuration at its tail.
    /// Must be durable *before* the log is compacted or reset past it —
    /// implementations make this call itself atomic and synchronous. It
    /// also orders everything written before it: no snapshot is durable
    /// ahead of a log mutation or a [`LogStore::save_meta`] that preceded
    /// it, so metadata written first is never older than the snapshot a
    /// crash finds.
    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig);

    /// The last persisted snapshot and its configuration, if any.
    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)>;

    /// Makes every buffered mutation durable. Called by the node before its
    /// outputs are externalized (the write-ahead barrier).
    fn sync(&mut self);

    /// How many [`LogStore::sync`] barriers actually had buffered writes
    /// to make durable — the group-commit count. One `take_outputs` round
    /// that appended any number of entries contributes exactly one. Backends
    /// without a durability cost may return 0.
    fn sync_count(&self) -> u64 {
        0
    }

    // ---- Crash modelling -------------------------------------------------

    /// No longer read: every backend reboots through the node's one reopen
    /// path. Kept only while `benchmark/`'s traced store still forwards it;
    /// delete it together with that forwarding.
    fn persistent(&self) -> bool {
        false
    }

    /// Power-cut injection hook: discards buffered-but-unsynced state as a
    /// crash would, except for up to `keep_unsynced` bytes that had already
    /// reached the disk — a barrier write torn in flight, whose tail a
    /// recovery pass must detect and drop. When the budget exceeds what was in flight, file-backed stores
    /// leave a partial garbage frame instead (the record that was being
    /// written at the instant of death). [`MemLog`](crate::MemLog) has no
    /// bytes to tear and drops everything past its sync watermark.
    fn power_cut(&mut self, keep_unsynced: usize);
}

impl<L: LogStore + ?Sized> LogStore for Box<L> {
    fn base_index(&self) -> LogIndex {
        (**self).base_index()
    }
    fn base_eterm(&self) -> EpochTerm {
        (**self).base_eterm()
    }
    fn first_index(&self) -> LogIndex {
        (**self).first_index()
    }
    fn last_index(&self) -> LogIndex {
        (**self).last_index()
    }
    fn last_eterm(&self) -> EpochTerm {
        (**self).last_eterm()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn entry(&self, index: LogIndex) -> Option<LogEntry> {
        (**self).entry(index)
    }
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm> {
        (**self).eterm_at(index)
    }
    fn matches(&self, index: LogIndex, eterm: EpochTerm) -> bool {
        (**self).matches(index, eterm)
    }
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry> {
        (**self).slice(from, to)
    }
    fn tail(&self, from: LogIndex) -> Vec<LogEntry> {
        (**self).tail(from)
    }
    fn append(&mut self, entry: LogEntry) {
        (**self).append(entry);
    }
    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        (**self).append_batch(entries);
    }
    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        (**self).truncate_from(index)
    }
    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        (**self).compact_to(index, eterm)
    }
    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        (**self).reset(base_index, base_eterm);
    }
    fn save_meta(&mut self, meta: &NodeMeta) {
        (**self).save_meta(meta);
    }
    fn load_meta(&self) -> Option<NodeMeta> {
        (**self).load_meta()
    }
    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
        (**self).save_snapshot(snapshot, config);
    }
    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)> {
        (**self).load_snapshot()
    }
    fn sync(&mut self) {
        (**self).sync();
    }
    fn sync_count(&self) -> u64 {
        (**self).sync_count()
    }
    fn power_cut(&mut self, keep_unsynced: usize) {
        (**self).power_cut(keep_unsynced);
    }
}
