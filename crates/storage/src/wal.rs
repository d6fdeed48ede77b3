//! `WalLog`: a segmented, checksummed write-ahead log backend — one
//! append-only operation log holding everything a node persists except
//! the snapshot image.
//!
//! # Data-dir layout
//!
//! ```text
//! <dir>/
//!   snapshot.bin      last snapshot + its tail configuration, crc-framed,
//!                     replaced atomically (write-tmp + rename)
//!   wal/
//!     seg-<seq>.log   16-byte header + [len][crc32][operation] records
//! ```
//!
//! # Semantics
//!
//! A segment is a sequence of operations, one `Record` each, and a segment
//! file only ever grows: bytes a sync covered are never cut or rewritten,
//! and a file leaves the directory whole or not at all.
//!
//! * **Append** writes one `Batch` to the end of the active segment;
//!   [`WalLog::sync`] makes it durable (optionally `fdatasync`; the durable
//!   watermark is tracked either way so crash injection stays honest
//!   without paying for physical syncs in simulation runs). One length/crc
//!   frame covers the batch, so a group-committed append is one write, one
//!   checksum — and one atomic unit at recovery: a torn or corrupt record
//!   drops the whole batch, never a partial one.
//! * **Truncate** cuts the in-memory mirror and appends one `Truncate`
//!   marker; the superseded entries stay where they are on disk.
//! * **`save_meta`** appends one `Meta` record holding the whole
//!   [`NodeMeta`] and keeps the copy in the mirror. Like every record it is
//!   durable once the next sync returns, so a vote or a term change costs
//!   the barrier nothing beyond the one `fdatasync` it already pays.
//! * **Compact** appends one `Compact` record. When closed segment files
//!   have piled up behind the active one it *checkpoints* instead.
//! * **Reset** (merge renumbering / snapshot install) always checkpoints.
//! * A **checkpoint** rolls to a fresh segment that restates everything the
//!   log holds — the newest `Meta`, the base (as the `Compact` or `Reset`
//!   that moved it), the entries retained above it as one `Batch` — syncs
//!   it, and only then deletes every older file, newest first. That is the
//!   one deletion rule: *a segment leaves the directory only after a later,
//!   synced segment restates the newest `Meta` and the base*. Nothing is
//!   dropped before it is restated, so every prefix of a checkpoint replays
//!   to the log before or after the call; and whatever run of old segments
//!   an interrupted deletion leaves in front of it, the whole checkpoint
//!   replays to the same log, because its records say what the log *is*
//!   from the base up rather than how it changed.
//! * **`save_snapshot`** first makes every buffered operation durable, then
//!   replaces `snapshot.bin`: the file obeys the stream's order (an identity
//!   written ahead of it is durable ahead of it) without being part of it.
//! * **Recovery** ([`WalLog::open`]) reads nothing but segments and replays
//!   their records in order onto an empty mirror: a `Batch` replaces the log
//!   from its first index on (which, for a batch the writer appended, is the
//!   end), a `Truncate` cuts it, the last `Meta` wins, a `Compact` moves the
//!   base up (past the end, it empties the log there) and a `Reset` starts
//!   over. The first torn or corrupt record, or one that cannot apply (a
//!   gap, a cut below the base), ends the log — the tail is dropped and the
//!   file trimmed to the valid prefix (the one place a segment shrinks: the
//!   bytes cut were never covered by a sync). Whether the recovered log
//!   agrees with `snapshot.bin` is not decided here: `Node::reopen` holds
//!   that rule, for every backend.
//!
//! A crash can therefore lose only operations after the last sync point —
//! which the node never acknowledges to anyone (see the write-ahead
//! contract on [`LogStore`]) — and what it leaves is the state after *some*
//! prefix of the store's own mutation calls at or past that sync, never a
//! mixture: appends, truncations, metadata, compactions and resets alike.

use crate::entry::LogEntry;
use crate::framing::{frame, io_err, next_record, read_framed, sync_dir, write_framed};
use crate::memlog::MemLog;
use crate::snapshot::Snapshot;
use crate::store::{LogStore, NodeMeta};
use bytes::{Bytes, BytesMut};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{codec, ClusterConfig, EpochTerm, LogIndex, Result};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: u32 = 0x5243_574C; // "RCWL"
/// Version 6: a record is one [`Record`], node metadata carries the retired
/// flag, and the snapshot's session table keeps a window of replies per
/// session. Segments of any other version are not read back; recovery
/// treats them as unusable files, so an older data dir has no metadata and
/// `Node::reopen` refuses it rather than misreading its `snapshot.bin`.
const SEGMENT_VERSION: u32 = 6;
const SEGMENT_HEADER_LEN: u64 = 16;

/// One operation of the log: what a segment record holds.
#[derive(Debug)]
enum Record {
    /// These entries are the log from the first one's index on.
    Batch(Vec<LogEntry>),
    /// Drop every entry at or after the index.
    Truncate(LogIndex),
    /// The node metadata from here on.
    Meta(NodeMeta),
    /// Drop everything at or below the index; it is the base. An index past
    /// the end empties the log at that base.
    Compact { index: LogIndex, eterm: EpochTerm },
    /// Drop everything; this is the base.
    Reset { index: LogIndex, eterm: EpochTerm },
}

codec!(enum Record {
    0 => Batch(Vec<LogEntry>),
    1 => Truncate(LogIndex),
    2 => Meta(NodeMeta),
    3 => Compact { index: LogIndex, eterm: EpochTerm },
    4 => Reset { index: LogIndex, eterm: EpochTerm },
});

impl Record {
    /// Replays the operation onto the mirror. `false` when it cannot apply
    /// to the state the records before it left, which ends the log there. A
    /// record is atomic: it is checked whole before the mirror is touched.
    fn replay(self, mem: &mut MemLog) -> bool {
        match self {
            Record::Batch(entries) => {
                let Some(first) = entries.first().map(|e| e.index) else {
                    return false; // never written
                };
                let fits = first <= mem.last_index().next()
                    && entries.iter().zip(first.0..).all(|(e, i)| e.index.0 == i)
                    && mem.truncate_from(first).is_ok();
                if fits {
                    mem.append_batch(entries);
                }
                fits
            }
            Record::Truncate(index) => mem.truncate_from(index).is_ok(),
            Record::Meta(meta) => {
                mem.save_meta(&meta);
                true
            }
            Record::Compact { index, eterm } if index <= mem.last_index() => {
                mem.compact_to(index, eterm).is_ok()
            }
            Record::Compact { index, eterm } | Record::Reset { index, eterm } => {
                mem.reset(index, eterm);
                true
            }
        }
    }
}

/// Tuning knobs for a [`WalLog`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Issue physical `fdatasync` calls on [`LogStore::sync`]. Disable in
    /// simulations for speed — the durable watermark (and therefore crash
    /// injection) is tracked identically either way.
    pub fsync: bool,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: true,
            segment_bytes: 64 * 1024,
        }
    }
}

#[derive(Debug)]
struct Segment {
    seq: u64,
    path: PathBuf,
    /// File length in bytes (header included).
    len: u64,
}

/// The segmented durable backend (see the crate docs for the data-dir
/// layout and recovery semantics).
#[derive(Debug)]
pub struct WalLog {
    dir: PathBuf,
    wal_dir: PathBuf,
    opts: WalOptions,
    /// In-memory mirror serving all reads: the log and the node metadata.
    mem: MemLog,
    segments: Vec<Segment>,
    /// Open handle on the last (active) segment, positioned at its end.
    active: File,
    /// Bytes of the active segment known durable; everything past it can be
    /// torn by a power cut. Non-active segments are always fully durable
    /// (rolling syncs them).
    synced_len: u64,
    /// Group-commit barriers: syncs that had buffered operations to flush.
    syncs: u64,
}

impl WalLog {
    /// Opens (or creates) a WAL at `dir` with default options, running
    /// recovery over whatever the directory holds.
    ///
    /// # Errors
    /// Returns [`Error::Storage`](recraft_types::Error::Storage) if the
    /// directory cannot be created or a file operation fails. Corrupt or
    /// torn *content* is not an error — it is dropped by recovery.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, WalOptions::default())
    }

    /// Opens (or creates) a WAL at `dir` with explicit options.
    ///
    /// # Errors
    /// Returns [`Error::Storage`](recraft_types::Error::Storage) on I/O
    /// failure (see [`WalLog::open`]).
    pub fn open_with(dir: impl AsRef<Path>, opts: WalOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir).map_err(|e| io_err("create data dir", &wal_dir, &e))?;

        // Collect segment files ascending by sequence number; anything that
        // does not parse as a segment name is ignored.
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&wal_dir).map_err(|e| io_err("list wal dir", &wal_dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list wal dir", &wal_dir, &e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_paths.push((seq, entry.path()));
            }
        }
        seg_paths.sort_unstable_by_key(|(seq, _)| *seq);

        // Replay: every record onto the mirror, in order; the first invalid
        // one ends the log.
        let mut mem = MemLog::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut dropped_tail = false;
        for (seq, path) in seg_paths {
            if dropped_tail {
                // Everything after a torn segment is unreachable history.
                let _ = fs::remove_file(&path);
                continue;
            }
            let raw = fs::read(&path).map_err(|e| io_err("read segment", &path, &e))?;
            let valid_len = replay_segment(seq, &raw, &mut mem);
            if (valid_len as usize) < raw.len() {
                // Torn or corrupt tail: trim the file to the valid prefix.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("trim segment", &path, &e))?;
                f.set_len(valid_len)
                    .map_err(|e| io_err("trim segment", &path, &e))?;
                dropped_tail = true;
            }
            if valid_len == 0 {
                // Not even a valid header: the file is unusable.
                let _ = fs::remove_file(&path);
                continue;
            }
            segments.push(Segment {
                seq,
                path,
                len: valid_len,
            });
        }

        // The last surviving segment keeps taking appends (`append` mode:
        // every write lands at the end of the file).
        let active = match segments.last() {
            Some(seg) => OpenOptions::new()
                .append(true)
                .open(&seg.path)
                .map_err(|e| io_err("open active segment", &seg.path, &e))?,
            None => {
                let (seg, file) = create_segment(&wal_dir, 1)?;
                segments.push(seg);
                file
            }
        };
        if opts.fsync {
            sync_dir(&wal_dir);
        }
        // Recovery may have trimmed files; the surviving prefix is durable.
        let synced_len = segments.last().expect("always one segment").len;
        Ok(WalLog {
            dir,
            wal_dir,
            opts,
            mem,
            segments,
            active,
            synced_len,
            syncs: 0,
        })
    }

    /// The data directory this WAL lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segment files (observability and tests).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes of the active segment not yet covered by a sync point.
    #[must_use]
    pub fn unsynced_bytes(&self) -> u64 {
        self.active_seg().len - self.synced_len
    }

    fn active_seg(&self) -> &Segment {
        self.segments.last().expect("always one segment")
    }

    fn write_record(&mut self, record: &Record) {
        self.write_payload(&record.encode_to_bytes());
    }

    /// Appends one encoded operation to the end of the active segment in a
    /// single write, rolling first if the segment is full.
    fn write_payload(&mut self, payload: &[u8]) {
        if self.active_seg().len >= self.opts.segment_bytes {
            self.roll();
        }
        let record = frame(payload);
        self.active
            .write_all(&record)
            .unwrap_or_else(|e| panic!("wal append failed: {e}"));
        self.segments.last_mut().expect("always one segment").len += record.len() as u64;
    }

    /// Finishes the active segment (making it durable) and starts the next.
    fn roll(&mut self) {
        self.sync();
        let next_seq = self.active_seg().seq + 1;
        let (seg, file) = create_segment(&self.wal_dir, next_seq)
            .unwrap_or_else(|e| panic!("wal segment roll failed: {e}"));
        if self.opts.fsync {
            sync_dir(&self.wal_dir);
        }
        self.segments.push(seg);
        self.active = file;
        self.synced_len = SEGMENT_HEADER_LEN;
    }

    /// Restates the whole mirror at the head of a fresh segment — the newest
    /// `Meta`, the base as `base` (the `Compact` or `Reset` that moved it),
    /// the entries above it — makes that durable, then deletes every older
    /// file: the only way a segment leaves the directory. Rolling syncs the
    /// old active segment first, and the files go newest first, so a crash
    /// before the last unlink leaves a cleanly replaying run from the old
    /// log's start in front of the restatement.
    fn checkpoint(&mut self, base: &Record) {
        self.roll();
        let older = self.segments.len() - 1;
        if let Some(meta) = self.mem.load_meta() {
            self.write_record(&Record::Meta(meta));
        }
        self.write_record(base);
        // Exactly these entries above the base, whatever that run held: a
        // batch replaces the log from its first index on, and with nothing
        // retained a marker clears it. One record, so that no prefix of the
        // checkpoint has dropped an entry without restating it.
        let first = self.mem.first_index();
        let above = if self.mem.is_empty() {
            Record::Truncate(first)
        } else {
            Record::Batch(self.mem.tail(first))
        };
        self.write_record(&above);
        self.sync();
        // The unlinks need no sync of their own: a file one fails to take
        // replays in front of the checkpoint and goes with the next.
        for seg in self.segments.drain(..older).rev() {
            let _ = fs::remove_file(&seg.path);
        }
    }
}

impl LogStore for WalLog {
    fn base_index(&self) -> LogIndex {
        self.mem.base_index()
    }
    fn base_eterm(&self) -> EpochTerm {
        self.mem.base_eterm()
    }
    fn last_index(&self) -> LogIndex {
        self.mem.last_index()
    }
    fn last_eterm(&self) -> EpochTerm {
        self.mem.last_eterm()
    }
    fn len(&self) -> usize {
        self.mem.len()
    }
    fn entry(&self, index: LogIndex) -> Option<LogEntry> {
        self.mem.entry(index)
    }
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm> {
        self.mem.eterm_at(index)
    }
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry> {
        self.mem.slice(from, to)
    }

    fn append(&mut self, entry: LogEntry) {
        self.append_batch(vec![entry]);
    }

    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        if entries.is_empty() {
            return;
        }
        // One encode of the entries where they are; the mirror then takes
        // them (asserting contiguity) before a byte is written.
        let record = Record::Batch(entries);
        let payload = record.encode_to_bytes();
        if let Record::Batch(entries) = record {
            self.mem.append_batch(entries);
        }
        self.write_payload(&payload);
    }

    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        let removed = self.mem.truncate_from(index)?;
        if removed > 0 {
            self.write_record(&Record::Truncate(index));
        }
        Ok(removed)
    }

    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        self.mem.compact_to(index, eterm)?;
        let record = Record::Compact { index, eterm };
        if self.segments.len() > 1 {
            // Closed files are waiting to be freed.
            self.checkpoint(&record);
        } else {
            self.write_record(&record);
        }
        Ok(())
    }

    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        self.mem.reset(base_index, base_eterm);
        // Always into a segment of its own: no file of the old numbering
        // outlives the call.
        self.checkpoint(&Record::Reset {
            index: base_index,
            eterm: base_eterm,
        });
    }

    fn save_meta(&mut self, meta: &NodeMeta) {
        self.mem.save_meta(meta);
        self.write_record(&Record::Meta(meta.clone()));
    }

    fn load_meta(&self) -> Option<NodeMeta> {
        self.mem.load_meta()
    }

    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
        // The file is outside the stream but obeys its order: whatever was
        // written before the snapshot is durable before the snapshot is.
        self.sync();
        let mut buf = BytesMut::new();
        snapshot.encode(&mut buf);
        config.encode(&mut buf);
        write_framed(&self.dir.join("snapshot.bin"), &buf, self.opts.fsync)
            .unwrap_or_else(|e| panic!("wal snapshot write failed: {e}"));
    }

    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)> {
        let mut payload = read_framed(&self.dir.join("snapshot.bin"))?;
        let snap = Snapshot::decode(&mut payload).ok()?;
        let config = ClusterConfig::decode(&mut payload).ok()?;
        Some((snap, config))
    }

    fn sync(&mut self) {
        if self.unsynced_bytes() == 0 {
            // Nothing to make durable, so no syscall: a clean `fdatasync`
            // still costs a device flush, and a leader pays one per commit
            // round (the reply-only `take_outputs` after the acks are in).
            // A fresh segment's 16-byte header counts as synced without
            // having been: it carries no operation, recovery deletes a
            // file whose header is torn, and the first record's sync
            // covers it.
            return;
        }
        // A group-commit barrier: everything appended since the last sync
        // point becomes durable under one fsync, however many entries (or
        // batches) accumulated.
        self.syncs += 1;
        if self.opts.fsync {
            self.active
                .sync_data()
                .unwrap_or_else(|e| panic!("wal sync failed: {e}"));
        }
        self.synced_len = self.active_seg().len;
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn power_cut(&mut self, keep_unsynced: usize) {
        let keep = keep_unsynced as u64;
        let unsynced = self.unsynced_bytes();
        if keep <= unsynced {
            let _ = self.active.set_len(self.synced_len + keep);
        } else {
            // The tear reaches past everything that was in flight: model
            // the write that was striking the platter at the instant of
            // death — a partial garbage frame after the last byte written,
            // which recovery must detect (bad length/checksum) and trim.
            let garbage = vec![0xA5u8; (keep - unsynced) as usize];
            let _ = self.active.write_all(&garbage);
        }
        let _ = self.active.sync_data();
        // The store is dead after this: the sim reopens the directory.
    }
}

/// Replays one segment's operations onto the mirror, in order. Returns the
/// byte length of the valid prefix (0 when even the header is bad).
fn replay_segment(seq: u64, raw: &[u8], mem: &mut MemLog) -> u64 {
    if raw.len() < SEGMENT_HEADER_LEN as usize {
        return 0;
    }
    let magic = u32::from_be_bytes(raw[0..4].try_into().expect("4 bytes"));
    let version = u32::from_be_bytes(raw[4..8].try_into().expect("4 bytes"));
    let hdr_seq = u64::from_be_bytes(raw[8..16].try_into().expect("8 bytes"));
    if magic != SEGMENT_MAGIC || version != SEGMENT_VERSION || hdr_seq != seq {
        return 0;
    }
    let mut pos = SEGMENT_HEADER_LEN as usize;
    while let Some((payload, next)) = next_record(raw, pos) {
        let mut bytes = Bytes::copy_from_slice(payload);
        // Trailing bytes inside a frame make the record as corrupt as one
        // that does not decode.
        let fits =
            Record::decode(&mut bytes).is_ok_and(|record| bytes.is_empty() && record.replay(mem));
        if !fits {
            break;
        }
        pos = next;
    }
    pos as u64
}

fn create_segment(wal_dir: &Path, seq: u64) -> Result<(Segment, File)> {
    let path = wal_dir.join(format!("seg-{seq:016}.log"));
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &path, &e))?;
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC.to_be_bytes());
    header[4..8].copy_from_slice(&SEGMENT_VERSION.to_be_bytes());
    header[8..16].copy_from_slice(&seq.to_be_bytes());
    file.write_all(&header)
        .map_err(|e| io_err("write segment header", &path, &e))?;
    Ok((
        Segment {
            seq,
            path,
            len: SEGMENT_HEADER_LEN,
        },
        file,
    ))
}

#[cfg(test)]
pub(crate) mod testdir {
    //! Unique, self-cleaning temp directories for storage tests.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A temp directory removed on drop.
    pub struct TestDir(pub PathBuf);

    impl TestDir {
        pub fn new(tag: &str) -> TestDir {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("recraft-wal-test-{}-{tag}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TestDir(path)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testdir::TestDir;
    use super::*;
    use recraft_types::{ClusterId, NodeId, RangeSet, SessionTable};

    fn et(term: u32) -> EpochTerm {
        EpochTerm::new(0, term)
    }

    fn entry(i: u64, term: u32) -> LogEntry {
        LogEntry::command(LogIndex(i), et(term), Bytes::from(format!("v{i}")))
    }

    fn opts() -> WalOptions {
        WalOptions {
            fsync: false,
            segment_bytes: 256, // tiny, to exercise rotation
        }
    }

    fn fill(wal: &mut WalLog, from: u64, to: u64, term: u32) {
        for i in from..=to {
            wal.append(entry(i, term));
        }
        wal.sync();
    }

    fn meta(term: u32) -> NodeMeta {
        NodeMeta {
            hard: crate::HardState {
                eterm: et(term),
                voted_for: None,
            },
            cluster: ClusterId(1),
            cluster_epoch: 0,
            bootstrapped: false,
            retired: false,
            join_target: None,
            history: Vec::new(),
        }
    }

    /// Everything the stream holds: base, entries, metadata.
    type State = (LogIndex, EpochTerm, Vec<LogEntry>, Option<NodeMeta>);

    fn state(wal: &WalLog) -> State {
        (
            wal.base_index(),
            wal.base_eterm(),
            wal.tail(wal.first_index()),
            wal.load_meta(),
        )
    }

    fn reopened(dir: &TestDir) -> State {
        state(&WalLog::open_with(&dir.0, opts()).unwrap())
    }

    #[test]
    fn append_survives_reopen() {
        let dir = TestDir::new("reopen");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            assert!(wal.segment_count() > 1, "rotation expected");
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(20));
        assert_eq!(wal.entry(LogIndex(7)), Some(entry(7, 1)));
        assert_eq!(wal.slice(LogIndex(3), LogIndex(5)).len(), 3);
    }

    /// The active segment's bytes on disk.
    fn active_bytes(wal: &WalLog) -> Vec<u8> {
        fs::read(&wal.active_seg().path).unwrap()
    }

    /// A byte-for-byte copy of a data dir as a process kill would leave it:
    /// every byte written so far, synced or not.
    fn copy_dir(from: &Path, tag: &str) -> TestDir {
        let to = TestDir::new(tag);
        fs::create_dir_all(to.0.join("wal")).unwrap();
        for sub in ["", "wal"] {
            for f in fs::read_dir(from.join(sub)).unwrap() {
                let f = f.unwrap();
                if f.file_type().unwrap().is_file() {
                    fs::copy(f.path(), to.0.join(sub).join(f.file_name())).unwrap();
                }
            }
        }
        to
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Header: magic "RCWL", version 6, segment seq 1.
    const HEADER: &str = "5243574c000000060000000000000001";
    /// One `[len][crc]` frame per record kind, each payload a one-byte tag
    /// and the fields of its `codec!` line.
    const BATCH: &str = "00000033f4b8071d\
        00\
        00000002\
        0000000000000001000000000000000101000000027631\
        0000000000000002000000000000000101000000027632";
    const TRUNCATE: &str = "000000091f7c61c1010000000000000002";
    const META: &str = "0000001d56fe3b01\
        02\
        00000000000000000000000000000000010000000000000000000000";
    const COMPACT: &str = "00000011fa098eec0300000000000000010000000000000001";
    const RESET: &str = "00000011fd47aca20400000000000000000000000300000000";

    /// The operations behind the pinned records, in order, and the state
    /// after each prefix of them.
    fn pinned_states() -> Vec<State> {
        let origin = (LogIndex::ZERO, EpochTerm::ZERO);
        let merged = EpochTerm::new(3, 0);
        vec![
            (origin.0, origin.1, vec![], None),
            (origin.0, origin.1, vec![entry(1, 1), entry(2, 1)], None),
            (origin.0, origin.1, vec![entry(1, 1)], None),
            (origin.0, origin.1, vec![entry(1, 1)], Some(meta(0))),
            (LogIndex(1), et(1), vec![], Some(meta(0))),
            (LogIndex::ZERO, merged, vec![], Some(meta(0))),
        ]
    }

    /// Recovery over `bytes` as the only segment of a fresh directory.
    fn recover(bytes: &[u8]) -> State {
        let dir = TestDir::new("bytes");
        fs::create_dir_all(dir.0.join("wal")).unwrap();
        fs::write(dir.0.join("wal/seg-0000000000000001.log"), bytes).unwrap();
        reopened(&dir)
    }

    /// The segment format read back by a later build: header and one record
    /// of each of the five kinds, written by the calls that produce them.
    #[test]
    fn segment_bytes_pinned() {
        let dir = TestDir::new("pinned");
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        wal.append_batch(vec![entry(1, 1), entry(2, 1)]);
        wal.truncate_from(LogIndex(2)).unwrap();
        wal.save_meta(&meta(0));
        wal.compact_to(LogIndex(1), et(1)).unwrap();
        let first = [HEADER, BATCH, TRUNCATE, META, COMPACT].concat();
        assert_eq!(hex(&active_bytes(&wal)), first);
        // A reset checkpoints into the next segment: the newest metadata,
        // the new base, and a marker for "nothing above it".
        wal.reset(LogIndex::ZERO, EpochTerm::new(3, 0));
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(
            hex(&active_bytes(&wal)),
            [
                "5243574c000000060000000000000002",
                META,
                RESET,
                "000000098675307b010000000000000001"
            ]
            .concat()
        );
        // The metadata inside the `Meta` record is the `NodeMeta` layout the
        // golden fixtures hold, byte for byte.
        let golden = include_str!("../../net/tests/format_golden.hex")
            .lines()
            .find_map(|l| l.strip_prefix("meta.fresh "))
            .unwrap();
        assert_eq!(&META[18..], golden);
        assert_eq!(hex(&meta(0).encode_to_bytes()), golden);
        // All five in one file read back as the five operations.
        let states = pinned_states();
        assert_eq!(recover(&unhex(&[&first, RESET].concat())), states[5]);
        assert_eq!(recover(&unhex(&first)), states[4]);
    }

    #[test]
    fn any_other_segment_version_is_refused() {
        let v5 = [HEADER, BATCH].concat().replacen("00000006", "00000005", 1);
        assert_eq!(recover(&unhex(&v5)), pinned_states()[0]);
        assert_eq!(
            recover(&unhex(&[HEADER, BATCH].concat())),
            pinned_states()[1]
        );
    }

    #[test]
    fn synced_bytes_are_never_cut() {
        let dir = TestDir::new("never-cut");
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        wal.append_batch((1..=4).map(|i| entry(i, 1)).collect());
        wal.sync();
        let synced = active_bytes(&wal);
        assert_eq!(wal.truncate_from(LogIndex(3)).unwrap(), 2);
        // Nothing the sync covered moved: the file grew by one marker.
        let now = active_bytes(&wal);
        assert!(now.len() > synced.len());
        assert_eq!(now[..synced.len()], synced[..]);
        // A process killed right here reboots with exactly the kept entries.
        let killed = copy_dir(&dir.0, "never-cut-copy");
        let wal = WalLog::open_with(&killed.0, opts()).unwrap();
        assert_eq!(wal.tail(wal.first_index()), vec![entry(1, 1), entry(2, 1)]);
    }

    #[test]
    fn truncate_marker_replays_on_reopen() {
        let dir = TestDir::new("truncate");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            assert_eq!(wal.truncate_from(LogIndex(8)).unwrap(), 13);
            // Divergent suffix replaced by a different term.
            fill(&mut wal, 8, 12, 2);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(12));
        assert_eq!(wal.eterm_at(LogIndex(7)), Some(et(1)));
        assert_eq!(wal.eterm_at(LogIndex(8)), Some(et(2)));
    }

    #[test]
    fn truncate_across_a_segment_roll_touches_no_earlier_file() {
        let dir = TestDir::new("truncate-roll");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 30, 1); // several rolled (fully synced) segments
            let segments = wal.segment_count();
            assert!(segments >= 3);
            // Cut back into the first segment: one marker in the active
            // one; every file stays, none is reopened.
            assert_eq!(wal.truncate_from(LogIndex(5)).unwrap(), 26);
            assert_eq!(wal.segment_count(), segments);
            fill(&mut wal, 5, 6, 2);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(6));
        assert_eq!(wal.entry(LogIndex(4)), Some(entry(4, 1)));
        assert_eq!(wal.entry(LogIndex(5)), Some(entry(5, 2)));
    }

    #[test]
    fn marker_lost_to_a_power_cut_leaves_the_log_as_last_synced() {
        let dir = TestDir::new("truncate-powercut");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 30, 1);
            let syncs = wal.sync_count();
            wal.truncate_from(LogIndex(5)).unwrap();
            // The kept prefix needs no sync of its own — it was never
            // touched — and the marker waits for the next barrier.
            assert_eq!(wal.sync_count(), syncs);
            wal.power_cut(0);
        }
        // The cut took the marker: the log is the one the last sync made
        // durable, kept prefix and superseded suffix alike.
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(30));
        assert_eq!(wal.entry(LogIndex(4)), Some(entry(4, 1)));
    }

    #[test]
    fn compact_deletes_covered_segments_and_survives_reopen() {
        let dir = TestDir::new("compact");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 40, 1);
            let before = wal.segment_count();
            wal.compact_to(LogIndex(35), et(1)).unwrap();
            assert!(wal.segment_count() < before, "whole segments deleted");
            assert_eq!(wal.base_index(), LogIndex(35));
            assert_eq!(wal.len(), 5);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.base_index(), LogIndex(35));
        assert_eq!(wal.base_eterm(), et(1));
        assert_eq!(wal.last_index(), LogIndex(40));
        assert!(wal.entry(LogIndex(35)).is_none());
        assert_eq!(wal.entry(LogIndex(36)), Some(entry(36, 1)));
    }

    #[test]
    fn reset_renumbers_and_survives_reopen() {
        let dir = TestDir::new("reset");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 10, 1);
            wal.reset(LogIndex::ZERO, EpochTerm::new(3, 0));
            wal.append(LogEntry::noop(LogIndex(1), EpochTerm::new(3, 0)));
            wal.sync();
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.base_eterm(), EpochTerm::new(3, 0));
        assert_eq!(wal.last_index(), LogIndex(1));
        assert_eq!(wal.len(), 1);
    }

    #[test]
    fn meta_and_snapshot_roundtrip() {
        let dir = TestDir::new("meta");
        let config =
            ClusterConfig::new(ClusterId(4), [NodeId(1), NodeId(2)], RangeSet::full()).unwrap();
        let meta = NodeMeta {
            hard: crate::HardState {
                eterm: et(5),
                voted_for: Some(NodeId(2)),
            },
            cluster: ClusterId(4),
            cluster_epoch: 1,
            bootstrapped: true,
            retired: false,
            join_target: None,
            history: Vec::new(),
        };
        let snap = Snapshot {
            last_index: LogIndex(3),
            last_eterm: et(2),
            cluster: ClusterId(4),
            ranges: RangeSet::full(),
            chunks: vec![Bytes::from_static(b"state")],
            sessions: SessionTable::new(),
        };
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 3, 2);
            wal.save_meta(&meta);
            wal.save_snapshot(&snap, &config);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.load_meta(), Some(meta));
        assert_eq!(wal.load_snapshot(), Some((snap, config)));
    }

    #[test]
    fn append_batch_roundtrips_and_survives_reopen() {
        let dir = TestDir::new("batch");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            wal.append_batch((1..=10).map(|i| entry(i, 1)).collect());
            wal.sync();
            assert_eq!(wal.last_index(), LogIndex(10));
            assert_eq!(wal.entry(LogIndex(4)), Some(entry(4, 1)));
            // Batches and single appends interleave freely.
            wal.append(entry(11, 1));
            wal.append_batch(vec![entry(12, 1), entry(13, 1)]);
            wal.sync();
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(13));
        assert_eq!(wal.entry(LogIndex(12)), Some(entry(12, 1)));
    }

    #[test]
    fn batched_appends_group_commit_under_one_sync() {
        let dir = TestDir::new("group-commit");
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.sync_count(), 0);
        wal.append_batch((1..=8).map(|i| entry(i, 1)).collect());
        wal.append(entry(9, 1));
        wal.sync();
        // However many appends accumulated, the barrier pays one sync.
        assert_eq!(wal.sync_count(), 1);
        // An idle barrier (nothing buffered) is not a group commit.
        wal.sync();
        assert_eq!(wal.sync_count(), 1);
    }

    #[test]
    fn torn_batch_rolls_back_atomically() {
        let dir = TestDir::new("torn-batch");
        {
            let mut wal = WalLog::open_with(
                &dir.0,
                WalOptions {
                    fsync: false,
                    segment_bytes: 1 << 20, // no mid-test roll
                },
            )
            .unwrap();
            fill(&mut wal, 1, 5, 1); // synced prefix
            wal.append_batch((6..=9).map(|i| entry(i, 1)).collect());
            let unsynced = wal.unsynced_bytes();
            assert!(unsynced > 0);
            // Tear mid-record: more than half the batch hit the platter, but
            // the frame is incomplete — recovery must drop ALL of 6..=9, not
            // the torn suffix only.
            wal.power_cut((unsynced / 2) as usize);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(5), "whole batch rolled back");
        assert_eq!(wal.entry(LogIndex(5)), Some(entry(5, 1)));
    }

    #[test]
    fn fully_durable_batch_survives_power_cut() {
        let dir = TestDir::new("batch-durable");
        {
            let mut wal = WalLog::open_with(
                &dir.0,
                WalOptions {
                    fsync: false,
                    segment_bytes: 1 << 20,
                },
            )
            .unwrap();
            fill(&mut wal, 1, 3, 1);
            wal.append_batch(vec![entry(4, 1), entry(5, 1)]);
            let whole = wal.unsynced_bytes() as usize;
            wal.append_batch(vec![entry(6, 1), entry(7, 1)]);
            // The first batch's record fully reached the disk; the second
            // tore. Atomicity is per batch record.
            wal.power_cut(whole);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(5));
    }

    #[test]
    fn truncate_mid_batch_keeps_the_shared_prefix() {
        let dir = TestDir::new("truncate-mid-batch");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            wal.append_batch((1..=6).map(|i| entry(i, 1)).collect());
            wal.sync();
            // Cut inside the batch record: the record stays whole on disk
            // and the marker after it drops 4..=6 at replay.
            assert_eq!(wal.truncate_from(LogIndex(4)).unwrap(), 3);
            assert_eq!(wal.last_index(), LogIndex(3));
            assert_eq!(wal.entry(LogIndex(2)), Some(entry(2, 1)));
            // A divergent suffix appends cleanly after the marker.
            wal.append_batch(vec![entry(4, 2), entry(5, 2)]);
            wal.sync();
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(5));
        assert_eq!(wal.eterm_at(LogIndex(3)), Some(et(1)));
        assert_eq!(wal.eterm_at(LogIndex(4)), Some(et(2)));
    }

    #[test]
    fn a_marker_goes_with_the_segment_that_held_what_it_cut() {
        let dir = TestDir::new("marker-below-base");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            let first = wal.segments[0].path.clone();
            // The marker refers into the first segment...
            wal.truncate_from(LogIndex(3)).unwrap();
            fill(&mut wal, 3, 25, 2);
            // ...and the compaction that frees that file frees the marker's
            // too: the checkpoint restates the log, not its history.
            wal.compact_to(LogIndex(10), et(2)).unwrap();
            assert!(!first.exists());
            assert_eq!(wal.segment_count(), 1);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.base_index(), LogIndex(10));
        assert_eq!(wal.last_index(), LogIndex(25));
        for e in wal.tail(wal.first_index()) {
            assert_eq!(e.eterm, et(2), "superseded entry {} came back", e.index);
        }
    }

    #[test]
    fn compaction_base_never_outruns_an_unsynced_marker() {
        let dir = TestDir::new("base-after-marker");
        let synced;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            wal.append_batch((1..=5).map(|i| entry(i, 1)).collect());
            wal.sync();
            synced = state(&wal);
            wal.truncate_from(LogIndex(3)).unwrap();
            wal.append_batch(vec![entry(3, 2), entry(4, 2)]);
            // No barrier yet: the base is a record behind the marker, so a
            // power cut takes both or neither.
            wal.compact_to(LogIndex(4), et(2)).unwrap();
            wal.power_cut(0);
        }
        // Never base 4 with the superseded entry 5 above it.
        assert_eq!(reopened(&dir), synced);
    }

    /// The deletion invariant: a file goes only after a later, synced
    /// segment restates the newest metadata and the base — so metadata
    /// written once, a dozen rolls ago, outlives every file it was in.
    #[test]
    fn metadata_and_base_outlive_every_segment_they_were_written_in() {
        let dir = TestDir::new("deletion-invariant");
        let before;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            wal.save_meta(&meta(7));
            let first = wal.active_seg().seq;
            for round in 0..6 {
                fill(&mut wal, round * 10 + 1, round * 10 + 10, 1);
                wal.compact_to(LogIndex(round * 10 + 8), et(1)).unwrap();
                assert_eq!(wal.segment_count(), 1, "only the active segment");
            }
            assert!(wal.active_seg().seq >= first + 12, "a dozen rolls");
            before = state(&wal);
            assert_eq!(before.0, LogIndex(58));
            assert_eq!(before.3, Some(meta(7)));
        }
        assert_eq!(reopened(&dir), before);
    }

    /// Every file of `dir/wal`, oldest first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|f| f.unwrap().path())
            .collect();
        files.sort();
        files
    }

    /// Runs `op` on a log spread over several segments and replays every
    /// directory a crash inside it can leave: the old files with each byte
    /// prefix of the checkpoint behind them (never a mixture of before and
    /// after), and the whole checkpoint behind each run of old files an
    /// interrupted deletion can leave (always after).
    fn crash_inside(tag: &str, op: impl Fn(&mut WalLog)) {
        let dir = TestDir::new(tag);
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        wal.save_meta(&meta(1));
        fill(&mut wal, 1, 12, 1);
        wal.truncate_from(LogIndex(9)).unwrap();
        fill(&mut wal, 9, 14, 2);
        wal.save_meta(&meta(2));
        wal.sync();
        let before = state(&wal);
        let old = copy_dir(&dir.0, "crash-inside-old");
        let old_files = segment_files(&old.0);
        assert!(old_files.len() >= 3);
        op(&mut wal);
        let after = state(&wal);
        assert_ne!(before, after);
        assert_eq!(wal.segment_count(), 1, "one checkpoint segment");
        let checkpoint = active_bytes(&wal);
        let name = wal.active_seg().path.file_name().unwrap().to_owned();

        for cut in 0..=checkpoint.len() {
            let crashed = copy_dir(&old.0, "crash-inside-cut");
            fs::write(crashed.0.join("wal").join(&name), &checkpoint[..cut]).unwrap();
            let got = reopened(&crashed);
            assert!(
                got == before || got == after,
                "{cut} of {} checkpoint bytes: {got:?}",
                checkpoint.len()
            );
            assert!(cut < checkpoint.len() || got == after);
        }
        for kept in 0..=old_files.len() {
            let crashed = copy_dir(&old.0, "crash-inside-unlink");
            for gone in &old_files[kept..] {
                fs::remove_file(crashed.0.join("wal").join(gone.file_name().unwrap())).unwrap();
            }
            fs::write(crashed.0.join("wal").join(&name), &checkpoint).unwrap();
            assert_eq!(reopened(&crashed), after, "{kept} old files left");
        }
    }

    #[test]
    fn a_crash_inside_a_reset_leaves_the_old_log_or_the_new() {
        crash_inside("crash-reset", |wal| {
            wal.reset(LogIndex::ZERO, EpochTerm::new(3, 0));
        });
    }

    #[test]
    fn a_crash_inside_a_compaction_leaves_the_old_log_or_the_new() {
        // With entries retained above the base, and with none.
        crash_inside("crash-compact", |wal| {
            wal.compact_to(LogIndex(11), et(2)).unwrap();
        });
        crash_inside("crash-compact-all", |wal| {
            wal.compact_to(LogIndex(14), et(2)).unwrap();
        });
    }

    #[test]
    fn a_barrier_with_nothing_unsynced_changes_nothing() {
        // With real fsync, across a roll: a clean barrier (the reply-only
        // round after the acks are in, or the one right after a roll made a
        // header-only segment) neither counts as a group commit nor moves
        // what a power cut keeps.
        let dir = TestDir::new("clean-barrier");
        let real = WalOptions {
            fsync: true,
            ..opts()
        };
        let mut wal = WalLog::open_with(&dir.0, real).unwrap();
        wal.sync();
        assert_eq!(wal.sync_count(), 0, "an empty log has nothing to commit");
        for i in 1..=30 {
            wal.append(entry(i, 1));
            wal.sync();
            let (count, segments) = (wal.sync_count(), wal.segment_count());
            wal.sync();
            wal.sync();
            assert_eq!(wal.sync_count(), count);
            assert_eq!(wal.unsynced_bytes(), 0);
            assert_eq!(wal.segment_count(), segments);
        }
        assert!(wal.segment_count() >= 3, "the run crossed segment rolls");
        assert_eq!(wal.sync_count(), 30, "one barrier per append");
        wal.power_cut(0);
        drop(wal);
        let wal = WalLog::open_with(&dir.0, real).unwrap();
        assert_eq!(wal.last_index(), LogIndex(30));
        assert_eq!(wal.entry(LogIndex(30)), Some(entry(30, 1)));
    }

    #[test]
    fn torn_tail_is_dropped_on_recovery() {
        let dir = TestDir::new("torn");
        let tail_path;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            tail_path = wal.active_seg().path.clone();
        }
        // Tear the last few bytes off the tail segment (a partial write).
        let len = fs::metadata(&tail_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&tail_path).unwrap();
        f.set_len(len - 3).unwrap();
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        // Exactly the torn record is gone; the prefix survives.
        assert_eq!(wal.last_index(), LogIndex(19));
        assert_eq!(wal.entry(LogIndex(19)), Some(entry(19, 1)));
        // The trimmed log keeps appending cleanly after recovery.
        let mut wal = wal;
        wal.append(entry(20, 2));
        wal.sync();
        assert_eq!(wal.last_index(), LogIndex(20));
        // Wherever the tear falls in a file holding every record kind, what
        // comes back is the state after the operations that are whole.
        let pinned = unhex(&[HEADER, BATCH, TRUNCATE, META, COMPACT, RESET].concat());
        let states = pinned_states();
        let mut seen = 0;
        for cut in 0..pinned.len() {
            let got = recover(&pinned[..cut]);
            let at = states.iter().position(|s| *s == got);
            assert!(at.is_some_and(|at| at >= seen), "cut at {cut}: {got:?}");
            seen = at.unwrap();
        }
        assert_eq!(seen, states.len() - 2, "each record counted once whole");
    }

    #[test]
    fn corrupt_record_drops_rest_of_log() {
        let dir = TestDir::new("corrupt");
        let first_seg;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 30, 1);
            assert!(wal.segment_count() >= 3);
            first_seg = wal.segments[0].path.clone();
        }
        // Flip one payload byte in the middle of the FIRST segment: every
        // entry from there on (including later, intact segments) must go —
        // keeping them would leave a hole in the log.
        let mut raw = fs::read(&first_seg).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&first_seg, &raw).unwrap();
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert!(wal.last_index() < LogIndex(30));
        // Contiguity from the base holds.
        let mut expect = wal.first_index();
        for e in wal.tail(wal.first_index()) {
            assert_eq!(e.index, expect);
            expect = expect.next();
        }
        assert_eq!(wal.segment_count(), 1);
        // The same for any one damaged byte of a file holding every record
        // kind: the operations in front of it, and no panic.
        let pinned = unhex(&[HEADER, BATCH, TRUNCATE, META, COMPACT, RESET].concat());
        let states = pinned_states();
        for at in 0..pinned.len() {
            let mut bad = pinned.clone();
            bad[at] ^= 0xFF;
            let got = recover(&bad);
            assert!(states.contains(&got), "byte {at} inverted: {got:?}");
            assert_ne!(got, states[5], "byte {at} inverted and not noticed");
        }
    }

    #[test]
    fn power_cut_tears_only_unsynced_suffix() {
        let dir = TestDir::new("powercut");
        {
            // Large segments: a mid-test roll would sync the "unsynced" tail.
            let mut wal = WalLog::open_with(
                &dir.0,
                WalOptions {
                    fsync: false,
                    segment_bytes: 1 << 20,
                },
            )
            .unwrap();
            fill(&mut wal, 1, 5, 1); // synced
            for i in 6..=9 {
                wal.append(entry(i, 1)); // unsynced
            }
            assert!(wal.unsynced_bytes() > 0);
            wal.power_cut(7); // keep a torn fragment of entry 6
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        // Everything synced survives; nothing unsynced does (7 bytes is less
        // than a whole record).
        assert_eq!(wal.last_index(), LogIndex(5));
    }

    #[test]
    fn power_cut_keeping_full_record_preserves_it() {
        let dir = TestDir::new("powercut-full");
        {
            let mut wal = WalLog::open_with(
                &dir.0,
                WalOptions {
                    fsync: false,
                    segment_bytes: 1 << 20,
                },
            )
            .unwrap();
            fill(&mut wal, 1, 5, 1);
            wal.append(entry(6, 1));
            let whole = wal.unsynced_bytes() as usize;
            wal.append(entry(7, 1));
            wal.power_cut(whole); // entry 6 fully hit the platter, 7 did not
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(6));
    }

    #[test]
    fn power_cut_with_nothing_in_flight_leaves_torn_garbage() {
        let dir = TestDir::new("powercut-garbage");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 5, 1); // everything synced
            assert_eq!(wal.unsynced_bytes(), 0);
            wal.power_cut(40); // a write was mid-flight when power died
        }
        // Recovery trims the garbage frame and keeps everything durable.
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(5));
        wal.append(entry(6, 1));
        wal.sync();
        drop(wal);
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.last_index(), LogIndex(6));
    }

    #[test]
    fn fresh_dir_is_empty_log() {
        let dir = TestDir::new("fresh");
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.base_index(), LogIndex::ZERO);
        assert!(wal.load_meta().is_none());
        assert!(wal.load_snapshot().is_none());
    }
}
