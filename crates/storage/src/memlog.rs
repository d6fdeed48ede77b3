//! The in-memory replicated log with snapshot-based compaction.

use crate::entry::LogEntry;
use crate::snapshot::Snapshot;
use crate::store::{LogStore, NodeMeta};
use recraft_types::{ClusterConfig, EpochTerm, Error, LogIndex, Result};
use std::collections::VecDeque;

/// An in-memory Raft log: the [`LogStore`] with nothing beneath it.
///
/// Entries before and at the *base* have been compacted into a snapshot; the
/// base epoch-term is retained so consistency checks for the first real entry
/// still work. Indices are global (they do not restart after compaction)
/// except across a [`LogStore::reset`], which merge resumption uses to
/// renumber the log from scratch.
///
/// It models a disk that outlives the process: a node rebooted over the same
/// `MemLog` (`Node::reopen`) finds what its last [`LogStore::sync`] made
/// durable. The sync watermark marks that point; a [`LogStore::power_cut`]
/// drops every entry past it and any metadata saved since. A truncation,
/// compaction or reset takes effect at once and moves the watermark with it
/// (the node syncs each before it builds on it), so a power cut never brings
/// back what one of them removed.
#[derive(Debug, Clone, Default)]
pub struct MemLog {
    base_index: LogIndex,
    base_eterm: EpochTerm,
    entries: VecDeque<LogEntry>,
    /// The sync watermark: the last index a sync made durable.
    synced: LogIndex,
    /// Node metadata as of the last sync.
    meta: Option<NodeMeta>,
    /// Node metadata saved since the last sync: what `load_meta` answers
    /// until a sync keeps it or a power cut drops it.
    unsynced_meta: Option<NodeMeta>,
    /// The snapshot and its tail configuration, durable once saved.
    snap: Option<(Snapshot, ClusterConfig)>,
}

impl MemLog {
    /// An empty log with base `(0, e0.t0)`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemLog {
    fn base_index(&self) -> LogIndex {
        self.base_index
    }
    fn base_eterm(&self) -> EpochTerm {
        self.base_eterm
    }
    fn last_index(&self) -> LogIndex {
        self.entries.back().map_or(self.base_index, |e| e.index)
    }
    fn last_eterm(&self) -> EpochTerm {
        self.entries.back().map_or(self.base_eterm, |e| e.eterm)
    }
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn entry(&self, index: LogIndex) -> Option<LogEntry> {
        if index <= self.base_index || index > self.last_index() {
            return None;
        }
        let off = (index.0 - self.base_index.0 - 1) as usize;
        self.entries.get(off).cloned()
    }
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm> {
        if index == self.base_index {
            return Some(self.base_eterm);
        }
        self.entry(index).map(|e| e.eterm)
    }
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry> {
        let from = from.max(self.first_index());
        let to = to.min(self.last_index());
        if from > to {
            return Vec::new();
        }
        let start = (from.0 - self.base_index.0 - 1) as usize;
        let end = (to.0 - self.base_index.0) as usize;
        self.entries.range(start..end).cloned().collect()
    }
    fn append(&mut self, entry: LogEntry) {
        assert_eq!(
            entry.index,
            self.last_index().next(),
            "non-contiguous append"
        );
        self.entries.push_back(entry);
    }
    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        self.entries.reserve(entries.len());
        for entry in entries {
            self.append(entry);
        }
    }
    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        if index <= self.base_index {
            return Err(Error::IndexOutOfRange(index));
        }
        if index > self.last_index() {
            return Ok(0);
        }
        let keep = (index.0 - self.base_index.0 - 1) as usize;
        let removed = self.entries.len() - keep;
        self.entries.truncate(keep);
        self.synced = self.synced.min(index.prev());
        Ok(removed)
    }
    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        if index < self.base_index || index > self.last_index() {
            return Err(Error::IndexOutOfRange(index));
        }
        let drop = (index.0 - self.base_index.0) as usize;
        self.entries.drain(..drop);
        self.base_index = index;
        self.base_eterm = eterm;
        self.synced = self.synced.max(index);
        Ok(())
    }
    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        self.entries.clear();
        self.base_index = base_index;
        self.base_eterm = base_eterm;
        self.synced = base_index;
    }
    fn save_meta(&mut self, meta: &NodeMeta) {
        self.unsynced_meta = Some(meta.clone());
    }
    fn load_meta(&self) -> Option<NodeMeta> {
        self.unsynced_meta.as_ref().or(self.meta.as_ref()).cloned()
    }
    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
        // Durable at once, and after everything written before it.
        self.sync();
        self.snap = Some((snapshot.clone(), config.clone()));
    }
    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)> {
        self.snap.clone()
    }
    fn sync(&mut self) {
        self.synced = self.last_index();
        if let Some(meta) = self.unsynced_meta.take() {
            self.meta = Some(meta);
        }
    }
    /// Drops everything past the sync watermark; with no torn tail to
    /// leave, `keep_unsynced` is ignored.
    fn power_cut(&mut self, _keep_unsynced: usize) {
        self.entries
            .truncate((self.synced.0 - self.base_index.0) as usize);
        self.unsynced_meta = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use recraft_types::{ClusterId, NodeId, RangeSet};

    fn et(term: u32) -> EpochTerm {
        EpochTerm::new(0, term)
    }

    fn filled(n: u64, term: u32) -> MemLog {
        let mut log = MemLog::new();
        for i in 1..=n {
            log.append(LogEntry::command(
                LogIndex(i),
                et(term),
                Bytes::from(i.to_string()),
            ));
        }
        log
    }

    #[test]
    fn empty_log_shape() {
        let log = MemLog::new();
        assert_eq!(log.base_index(), LogIndex::ZERO);
        assert_eq!(log.first_index(), LogIndex(1));
        assert_eq!(log.last_index(), LogIndex::ZERO);
        assert_eq!(log.last_eterm(), EpochTerm::ZERO);
        assert!(log.is_empty());
        assert!(log.matches(LogIndex::ZERO, EpochTerm::ZERO));
    }

    #[test]
    fn append_and_lookup() {
        let log = filled(5, 1);
        assert_eq!(log.len(), 5);
        assert_eq!(log.last_index(), LogIndex(5));
        assert_eq!(log.entry(LogIndex(3)).unwrap().index, LogIndex(3));
        assert!(log.entry(LogIndex(0)).is_none());
        assert!(log.entry(LogIndex(6)).is_none());
        assert_eq!(log.eterm_at(LogIndex(5)), Some(et(1)));
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_append_panics() {
        let mut log = filled(2, 1);
        log.append(LogEntry::noop(LogIndex(9), et(1)));
    }

    #[test]
    fn truncate_from_tail() {
        let mut log = filled(5, 1);
        assert_eq!(log.truncate_from(LogIndex(4)).unwrap(), 2);
        assert_eq!(log.last_index(), LogIndex(3));
        // Truncating past the end is a no-op.
        assert_eq!(log.truncate_from(LogIndex(9)).unwrap(), 0);
    }

    #[test]
    fn truncate_below_base_fails() {
        let mut log = filled(5, 1);
        log.compact_to(LogIndex(3), et(1)).unwrap();
        assert!(log.truncate_from(LogIndex(3)).is_err());
        assert_eq!(log.truncate_from(LogIndex(4)).unwrap(), 2);
    }

    #[test]
    fn slice_and_tail() {
        let log = filled(5, 1);
        let s = log.slice(LogIndex(2), LogIndex(4));
        assert_eq!(
            s.iter().map(|e| e.index.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(log.slice(LogIndex(4), LogIndex(2)).is_empty());
        let t = log.tail(LogIndex(4));
        assert_eq!(t.len(), 2);
        // Clamped to retained range.
        assert_eq!(log.slice(LogIndex(0), LogIndex(99)).len(), 5);
    }

    #[test]
    fn compaction_preserves_suffix() {
        let mut log = filled(5, 1);
        log.compact_to(LogIndex(3), et(1)).unwrap();
        assert_eq!(log.base_index(), LogIndex(3));
        assert_eq!(log.first_index(), LogIndex(4));
        assert_eq!(log.len(), 2);
        assert!(log.entry(LogIndex(3)).is_none());
        assert_eq!(log.eterm_at(LogIndex(3)), Some(et(1))); // base eterm
        assert_eq!(log.entry(LogIndex(4)).unwrap().index, LogIndex(4));
        assert!(log.matches(LogIndex(3), et(1)));
    }

    #[test]
    fn compact_bounds_checked() {
        let mut log = filled(3, 1);
        assert!(log.compact_to(LogIndex(9), et(1)).is_err());
        log.compact_to(LogIndex(2), et(1)).unwrap();
        assert!(log.compact_to(LogIndex(1), et(1)).is_err());
        // Compacting to the same base is allowed (idempotent).
        log.compact_to(LogIndex(2), et(1)).unwrap();
    }

    #[test]
    fn reset_renumbers() {
        let mut log = filled(5, 1);
        log.reset(LogIndex::ZERO, EpochTerm::new(3, 0));
        assert!(log.is_empty());
        assert_eq!(log.base_eterm(), EpochTerm::new(3, 0));
        log.append(LogEntry::noop(LogIndex(1), EpochTerm::new(3, 0)));
        assert_eq!(log.last_index(), LogIndex(1));
    }

    #[test]
    fn matches_checks_eterm() {
        let mut log = MemLog::new();
        log.append(LogEntry::noop(LogIndex(1), et(1)));
        log.append(LogEntry::noop(LogIndex(2), et(2)));
        assert!(log.matches(LogIndex(2), et(2)));
        assert!(!log.matches(LogIndex(2), et(1)));
        assert!(!log.matches(LogIndex(3), et(2)));
    }

    fn meta(term: u32) -> NodeMeta {
        NodeMeta {
            hard: crate::HardState {
                eterm: et(term),
                voted_for: None,
            },
            cluster: ClusterId(1),
            cluster_epoch: 0,
            bootstrapped: true,
            retired: false,
            join_target: None,
            history: Vec::new(),
        }
    }

    #[test]
    fn power_cut_drops_what_the_last_sync_did_not_cover() {
        let mut log = filled(3, 1);
        log.save_meta(&meta(1));
        log.sync();
        log.append(LogEntry::noop(LogIndex(4), et(2)));
        log.save_meta(&meta(2));
        assert_eq!(log.load_meta(), Some(meta(2)), "unsynced meta is read back");
        log.power_cut(64);
        assert_eq!(log.last_index(), LogIndex(3));
        assert_eq!(log.load_meta(), Some(meta(1)));
        // A power cut right after a sync loses nothing.
        log.append(LogEntry::noop(LogIndex(4), et(2)));
        log.sync();
        log.power_cut(0);
        assert_eq!(log.last_index(), LogIndex(4));
    }

    #[test]
    fn cuts_take_effect_at_once_and_a_snapshot_save_syncs() {
        let mut log = filled(5, 1);
        log.sync();
        log.truncate_from(LogIndex(4)).unwrap();
        log.append(LogEntry::noop(LogIndex(4), et(2)));
        log.power_cut(0);
        assert_eq!(log.last_index(), LogIndex(3), "the cut stays");

        log.append(LogEntry::noop(LogIndex(4), et(2)));
        let config = ClusterConfig::new(ClusterId(1), [NodeId(1)], RangeSet::full()).unwrap();
        log.save_snapshot(&Snapshot::empty(config.id(), RangeSet::full()), &config);
        log.compact_to(LogIndex(2), et(1)).unwrap();
        log.power_cut(0);
        assert_eq!(log.base_index(), LogIndex(2));
        assert_eq!(log.last_index(), LogIndex(4), "the snapshot synced it");

        log.reset(LogIndex(9), et(3));
        log.power_cut(0);
        assert_eq!(log.base_index(), LogIndex(9));
        assert!(log.is_empty());
    }
}
