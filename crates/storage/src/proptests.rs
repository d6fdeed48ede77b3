//! Property tests: the log's shape invariants hold under arbitrary
//! append / truncate / compact / reset / save-meta interleavings — for
//! *every* [`LogStore`] backend, which must be observationally identical.
//! The WAL additionally reopens after every sequence (recovery must
//! reproduce the synced state) and survives arbitrary torn tails.

use crate::entry::LogEntry;
use crate::memlog::MemLog;
use crate::state::HardState;
use crate::store::{LogStore, NodeMeta};
use crate::wal::testdir::TestDir;
use crate::wal::{WalLog, WalOptions};
use bytes::Bytes;
use proptest::prelude::*;
use recraft_types::{ClusterId, EpochTerm, LogIndex};
use std::fs;
use std::io::{Seek, SeekFrom, Write};

#[derive(Debug, Clone)]
enum Op {
    Append(u32),
    /// A group-committed batch of `n` entries at one term (one atomic
    /// record on the WAL backend).
    AppendBatch(u32, u32),
    TruncateFrom(u64),
    CompactTo(u64),
    Reset(u32),
    /// A hard-state change at this term.
    SaveMeta(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u32..8).prop_map(Op::Append),
        3 => ((1u32..6), (1u32..8)).prop_map(|(n, t)| Op::AppendBatch(n, t)),
        2 => (0u64..64).prop_map(Op::TruncateFrom),
        2 => (0u64..64).prop_map(Op::CompactTo),
        1 => (0u32..4).prop_map(Op::Reset),
        2 => (1u32..8).prop_map(Op::SaveMeta),
    ]
}

fn wal_opts() -> WalOptions {
    WalOptions {
        fsync: false,
        segment_bytes: 128, // tiny: every sequence crosses segment boundaries
    }
}

fn meta(term: u32) -> NodeMeta {
    NodeMeta {
        hard: HardState {
            eterm: EpochTerm::new(0, term),
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

/// What a store must hold: the base, the `(index, term)` pairs retained
/// above it, and the last metadata saved.
#[derive(Debug, Clone, PartialEq, Default)]
struct Model {
    base: (u64, EpochTerm),
    entries: Vec<(u64, u32)>,
    meta: Option<NodeMeta>,
}

impl Model {
    /// The same view of a store.
    fn of<L: LogStore>(log: &L) -> Model {
        Model {
            base: (log.base_index().0, log.base_eterm()),
            entries: log
                .tail(log.first_index())
                .iter()
                .map(|e| (e.index.0, e.eterm.term()))
                .collect(),
            meta: log.load_meta(),
        }
    }
}

/// Applies one op to a store and to the model.
fn apply_op<L: LogStore>(log: &mut L, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Append(term) => {
            let index = log.last_index().next();
            log.append(LogEntry::command(
                index,
                EpochTerm::new(0, *term),
                Bytes::from_static(b"x"),
            ));
            model.entries.push((index.0, *term));
        }
        Op::AppendBatch(n, term) => {
            let mut batch = Vec::new();
            let mut index = log.last_index();
            for _ in 0..*n {
                index = index.next();
                batch.push(LogEntry::command(
                    index,
                    EpochTerm::new(0, *term),
                    Bytes::from_static(b"x"),
                ));
                model.entries.push((index.0, *term));
            }
            log.append_batch(batch);
        }
        Op::TruncateFrom(i) => {
            let res = log.truncate_from(LogIndex(*i));
            if *i <= model.base.0 {
                prop_assert!(res.is_err());
            } else {
                model.entries.retain(|(idx, _)| *idx < *i);
            }
        }
        Op::CompactTo(i) => {
            let eterm = log.eterm_at(LogIndex(*i));
            let res = log.compact_to(LogIndex(*i), eterm.unwrap_or(EpochTerm::ZERO));
            if let Some(eterm) = eterm {
                prop_assert!(res.is_ok());
                model.base = (*i, eterm);
                model.entries.retain(|(idx, _)| *idx > *i);
            } else {
                prop_assert!(res.is_err());
            }
        }
        Op::Reset(epoch) => {
            log.reset(LogIndex::ZERO, EpochTerm::new(*epoch, 0));
            model.entries.clear();
            model.base = (0, EpochTerm::new(*epoch, 0));
        }
        Op::SaveMeta(term) => {
            log.save_meta(&meta(*term));
            model.meta = Some(meta(*term));
        }
    }
    Ok(())
}

/// Drives one op sequence against a store, checking the shape invariants
/// after every step exactly as the original MemLog-only suite did.
fn run_ops<L: LogStore>(log: &mut L, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model = Model::default();
    for op in ops {
        apply_op(log, &mut model, op)?;
        check_shape(log, &model)?;
    }
    Ok(())
}

fn check_shape<L: LogStore>(log: &L, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(&Model::of(log), model);
    prop_assert_eq!(log.len(), model.entries.len());
    prop_assert_eq!(log.first_index(), log.base_index().next());
    prop_assert!(log.last_index() >= log.base_index());
    for (idx, term) in &model.entries {
        let e = log.entry(LogIndex(*idx)).expect("retained entry");
        prop_assert_eq!(e.index.0, *idx);
        prop_assert_eq!(e.eterm.term(), *term);
    }
    // Contiguity: entries are dense from first to last.
    let mut expect = log.first_index();
    for e in log.tail(log.first_index()) {
        prop_assert_eq!(e.index, expect);
        expect = expect.next();
    }
    Ok(())
}

proptest! {
    /// Both backends maintain identical shape invariants under arbitrary op
    /// sequences, and the WAL reproduces its exact synced state — log and
    /// metadata — on reopen.
    #[test]
    fn log_shape_invariants_all_backends(ops in prop::collection::vec(op_strategy(), 0..80)) {
        let mut mem = MemLog::new();
        run_ops(&mut mem, &ops)?;

        let dir = TestDir::new("prop-shape");
        let mut wal = WalLog::open_with(&dir.0, wal_opts()).unwrap();
        run_ops(&mut wal, &ops)?;

        // The two backends agree entry for entry and on the metadata.
        prop_assert_eq!(Model::of(&mem), Model::of(&wal));
        prop_assert_eq!(
            LogStore::tail(&mem, LogStore::first_index(&mem)),
            wal.tail(wal.first_index())
        );

        // Recovery reproduces the synced state exactly.
        wal.sync();
        let before = Model::of(&wal);
        let entries = wal.tail(wal.first_index());
        drop(wal);
        let reopened = WalLog::open_with(&dir.0, wal_opts()).unwrap();
        prop_assert_eq!(Model::of(&reopened), before);
        prop_assert_eq!(reopened.tail(reopened.first_index()), entries);
    }

    /// Torn-tail corruption, over every mutation the store has: whatever
    /// byte count a power cut leaves behind, recovery equals the model after
    /// *some* operation at or past the last sync — never less than the
    /// sync, never a mixture of two states. No barrier changes a byte an
    /// earlier one covered, though it rewrites the block those end in; and
    /// a tear inside that block, which leaves any set of its 512-byte
    /// sectors written, recovers the same way.
    #[test]
    fn wal_torn_tail_recovers_synced_prefix(
        ops in prop::collection::vec((op_strategy(), any::<bool>()), 1..40),
        segment_bytes in prop_oneof![Just(128u64), Just(1u64 << 20)],
        tear in 0usize..200,
        sectors in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    ) {
        let dir = TestDir::new("prop-torn");
        let opts = WalOptions { fsync: false, segment_bytes };
        let mut wal = WalLog::open_with(&dir.0, opts).unwrap();
        let mut model = Model::default();
        // The model after each operation; a sync pins how far back a power
        // cut may reach (a segment roll or a checkpoint syncs too, which
        // only narrows it).
        let mut states = vec![model.clone()];
        let mut synced = 0;
        for (op, sync) in &ops {
            let (path, synced_len) = wal.synced_file();
            let covered = fs::read(&path).unwrap();
            apply_op(&mut wal, &mut model, op)?;
            states.push(model.clone());
            if *sync {
                wal.sync();
                synced = states.len() - 1;
            }
            // A checkpoint may have deleted the file, and a fresh segment
            // holds its synced header in memory until its first barrier.
            if let Ok(now) = fs::read(&path) {
                let n = covered.len().min(synced_len as usize);
                prop_assert_eq!(now.get(..n), covered.get(..n), "bytes a sync covered changed");
            }
        }
        match sectors {
            None => wal.power_cut(tear),
            Some(mask) => {
                // The next barrier's write, torn: of its sectors, those the
                // mask names reached the disk.
                let (path, _) = wal.synced_file();
                let (at, blocks) = wal.next_barrier();
                let mut file = fs::OpenOptions::new().write(true).open(path).unwrap();
                for (i, sector) in blocks.chunks(512).enumerate() {
                    if mask >> (i % 64) & 1 == 1 {
                        file.seek(SeekFrom::Start(at + 512 * i as u64)).unwrap();
                        file.write_all(sector).unwrap();
                    }
                }
            }
        }
        drop(wal);
        let recovered = Model::of(&WalLog::open_with(&dir.0, opts).unwrap());
        prop_assert!(
            states[synced..].contains(&recovered),
            "recovered {:?} is no state at or past the last sync",
            recovered
        );
    }

    #[test]
    fn slices_agree_with_entries(
        n in 1u64..40,
        from in 0u64..50,
        to in 0u64..50,
    ) {
        let mut log = MemLog::new();
        for i in 1..=n {
            log.append(LogEntry::noop(LogIndex(i), EpochTerm::new(0, 1)));
        }
        let slice = log.slice(LogIndex(from), LogIndex(to));
        let expected: Vec<u64> = (from.max(1)..=to.min(n)).collect();
        prop_assert_eq!(
            slice.iter().map(|e| e.index.0).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn matches_iff_entry_present_with_eterm(
        n in 1u64..20,
        probe in 0u64..25,
        term in 1u32..4,
    ) {
        let mut log = MemLog::new();
        for i in 1..=n {
            log.append(LogEntry::noop(LogIndex(i), EpochTerm::new(0, (i % 3) as u32 + 1)));
        }
        let m = log.matches(LogIndex(probe), EpochTerm::new(0, term));
        let expected = if probe == 0 {
            term == 0 // base matches only (0, ZERO); term >= 1 here, so false
        } else {
            probe <= n && (probe % 3) as u32 + 1 == term
        };
        prop_assert_eq!(m, expected);
    }
}
