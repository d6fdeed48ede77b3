//! `WalLog`: a segmented, checksummed write-ahead log backend — an
//! append-only operation log.
//!
//! # Data-dir layout
//!
//! ```text
//! <dir>/
//!   meta.bin          node metadata (hard state + cluster identity),
//!                     one crc-framed record, replaced atomically
//!   snapshot.bin      last snapshot + its tail configuration, crc-framed,
//!                     replaced atomically (write-tmp + rename)
//!   base.bin          the log's compaction base (index, epoch-term)
//!   wal/
//!     seg-<seq>.log   16-byte header + [len][crc32][operation] records
//! ```
//!
//! # Semantics
//!
//! A segment is a sequence of operations, and a segment file only ever
//! grows: bytes a sync covered are never cut or rewritten, and a file
//! leaves the directory whole (compaction, reset) or not at all.
//!
//! * **Append** writes one *batch* record (`[u32 count ≥ 1][entries…]`) to
//!   the end of the active segment; [`WalLog::sync`] makes it durable
//!   (optionally `fdatasync`; the durable watermark is tracked either way
//!   so crash injection stays honest without paying for physical syncs in
//!   simulation runs). One length/crc frame covers the batch, so a
//!   group-committed append is one write, one checksum — and one atomic
//!   unit at recovery: a torn or corrupt record drops the whole batch,
//!   never a partial one.
//! * **Truncate** cuts the in-memory mirror and appends one *truncate
//!   marker* (`[u32 0][u64 index]`). The superseded entries stay where they
//!   are on disk; the marker is an operation like any other and becomes
//!   durable at the next sync, together with the appends that follow it.
//! * **Compact** makes the log's operations durable, persists the new base
//!   and deletes every whole segment that never held an index above it;
//!   the caller (the node) persists the covering snapshot first.
//! * **Reset** (merge renumbering / snapshot install) drops all segments and
//!   starts a fresh one at the new base.
//! * **Recovery** ([`WalLog::open`]) replays the operations in order onto
//!   the mirror: a batch appends its entries above the base (validating
//!   length, checksum, decode and index contiguity), a marker truncates the
//!   mirror at `max(index, base + 1)` and is a no-op past the end. The
//!   first torn or corrupt record ends the log — the tail is dropped and
//!   the file trimmed to the valid prefix (the one place a segment
//!   shrinks: the bytes cut were never covered by a sync). If the persisted
//!   snapshot is ahead of (or inconsistent with) the recovered log, the
//!   snapshot wins and the log resets to its tail, mirroring Raft's
//!   durability hierarchy.
//!
//! A crash can therefore lose only operations after the last sync point —
//! which the node never acknowledges to anyone (see the write-ahead
//! contract on [`LogStore`]) — and what it leaves is the state after *some*
//! operation at or past that sync, never a mixture.

use crate::entry::LogEntry;
use crate::framing::{frame, io_err, next_record, read_framed, sync_dir, write_framed};
use crate::memlog::MemLog;
use crate::snapshot::Snapshot;
use crate::store::{LogStore, NodeMeta};
use bytes::{Bytes, BytesMut};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{ClusterConfig, EpochTerm, Error, LogIndex, Result};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: u32 = 0x5243_574C; // "RCWL"
/// Version 3: a record is an operation — an entry batch (`count ≥ 1`) or a
/// truncate marker (`count = 0`). Segments of any other version are not read
/// back; recovery treats them as unusable files.
const SEGMENT_VERSION: u32 = 3;
const SEGMENT_HEADER_LEN: u64 = 16;

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
    /// Highest entry index ever written to this segment, if any — entries a
    /// later marker truncated included. Compaction deletes the file once the
    /// base reaches it: nothing in it can then be above the base.
    last_entry: Option<LogIndex>,
}

/// The segmented durable backend (see the crate docs for the data-dir
/// layout and recovery semantics).
#[derive(Debug)]
pub struct WalLog {
    dir: PathBuf,
    wal_dir: PathBuf,
    opts: WalOptions,
    /// In-memory mirror serving all reads.
    mem: MemLog,
    segments: Vec<Segment>,
    /// Open handle on the last (active) segment, positioned at its end.
    active: File,
    /// Bytes of the active segment known durable; everything past it can be
    /// torn by a power cut. Non-active segments are always fully durable
    /// (rolling syncs them).
    synced_len: u64,
    /// Group-commit barriers: syncs that had buffered log writes to flush.
    syncs: u64,
}

impl WalLog {
    /// Opens (or creates) a WAL at `dir` with default options, running
    /// recovery over whatever the directory holds.
    ///
    /// # Errors
    /// Returns [`Error::Storage`] if the directory cannot be created or a
    /// file operation fails. Corrupt or torn *content* is not an error — it
    /// is dropped by recovery.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, WalOptions::default())
    }

    /// Opens (or creates) a WAL at `dir` with explicit options.
    ///
    /// # Errors
    /// Returns [`Error::Storage`] on I/O failure (see [`WalLog::open`]).
    pub fn open_with(dir: impl AsRef<Path>, opts: WalOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir).map_err(|e| io_err("create data dir", &wal_dir, &e))?;

        // The log base: default origin when never compacted.
        let (base_index, base_eterm) = match read_framed(&dir.join("base.bin")) {
            Some(mut payload) => (
                LogIndex::decode(&mut payload).map_err(|_| corrupt_base())?,
                EpochTerm::decode(&mut payload).map_err(|_| corrupt_base())?,
            ),
            None => (LogIndex::ZERO, EpochTerm::ZERO),
        };
        let mut mem = MemLog::new();
        mem.reset(base_index, base_eterm);

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

        // Replay: validate every record; the first invalid one ends the log.
        let mut segments: Vec<Segment> = Vec::new();
        let mut dropped_tail = false;
        for (seq, path) in seg_paths {
            if dropped_tail {
                // Everything after a torn segment is unreachable history.
                let _ = fs::remove_file(&path);
                continue;
            }
            let raw = fs::read(&path).map_err(|e| io_err("read segment", &path, &e))?;
            let (valid_len, last_entry) = replay_segment(seq, &raw, &mut mem);
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
                last_entry,
            });
        }

        // The persisted snapshot outranks an inconsistent or lagging log
        // (crash between snapshot install and log reset).
        if let Some(mut payload) = read_framed(&dir.join("snapshot.bin")) {
            if let Ok(snap) = Snapshot::decode(&mut payload) {
                if !mem.matches(snap.last_index, snap.last_eterm) {
                    mem.reset(snap.last_index, snap.last_eterm);
                    for seg in segments.drain(..) {
                        let _ = fs::remove_file(&seg.path);
                    }
                    write_framed(
                        &dir.join("base.bin"),
                        &encode_base(snap.last_index, snap.last_eterm),
                        opts.fsync,
                    )?;
                }
            }
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

    fn active_seg_mut(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("always one segment")
    }

    /// Appends one operation to the end of the active segment in a single
    /// write, rolling first if the segment is full. `highest` is the last
    /// entry index the operation carries (`None` for a truncate marker).
    fn write_record(&mut self, payload: &[u8], highest: Option<LogIndex>) {
        if self.active_seg().len >= self.opts.segment_bytes {
            self.roll();
        }
        let record = frame(payload);
        self.active
            .write_all(&record)
            .unwrap_or_else(|e| panic!("wal append failed: {e}"));
        let seg = self.active_seg_mut();
        seg.len += record.len() as u64;
        seg.last_entry = seg.last_entry.max(highest);
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

    fn persist_base(&self) {
        write_framed(
            &self.dir.join("base.bin"),
            &encode_base(self.mem.base_index(), self.mem.base_eterm()),
            self.opts.fsync,
        )
        .unwrap_or_else(|e| panic!("wal base write failed: {e}"));
    }

    /// Drops every segment file and starts a fresh one at `next_seq`.
    fn clear_segments(&mut self, next_seq: u64) {
        for seg in self.segments.drain(..) {
            let _ = fs::remove_file(&seg.path);
        }
        let (seg, file) = create_segment(&self.wal_dir, next_seq)
            .unwrap_or_else(|e| panic!("wal segment create failed: {e}"));
        if self.opts.fsync {
            sync_dir(&self.wal_dir);
        }
        self.segments.push(seg);
        self.active = file;
        self.synced_len = SEGMENT_HEADER_LEN;
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
        self.mem.entry(index).cloned()
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
        let payload = encode_batch(&entries);
        let last = entries.last().expect("nonempty").index;
        for entry in entries {
            self.mem.append(entry); // asserts contiguity first
        }
        self.write_record(&payload, Some(last));
    }

    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        let removed = self.mem.truncate_from(index)?;
        if removed > 0 {
            self.write_record(&encode_truncate(index), None);
        }
        Ok(removed)
    }

    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        self.mem.compact_to(index, eterm)?;
        // The base is durable the moment it is written. The operations it
        // covers go first: a power cut that kept the base but took back a
        // truncate marker would put the superseded suffix above it.
        self.sync();
        self.persist_base();
        // Delete whole segments whose content is entirely at or below the
        // base; the active segment always stays (it is the append tail).
        let mut removed = 0;
        while self.segments.len() > 1 {
            let seg = &self.segments[0];
            let covered = match seg.last_entry {
                Some(last) => last <= index,
                None => true,
            };
            if !covered {
                break;
            }
            let seg = self.segments.remove(0);
            let _ = fs::remove_file(&seg.path);
            removed += 1;
        }
        if removed > 0 && self.opts.fsync {
            sync_dir(&self.wal_dir);
        }
        Ok(())
    }

    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        let next_seq = self.active_seg().seq + 1;
        self.mem.reset(base_index, base_eterm);
        // Segment deletion precedes the base write so a crash in between
        // leaves an empty (not mixed-lineage) log; recovery then restores
        // the base from the snapshot.
        self.clear_segments(next_seq);
        self.persist_base();
    }

    fn save_meta(&mut self, meta: &NodeMeta) {
        write_framed(
            &self.dir.join("meta.bin"),
            &meta.encode_to_bytes(),
            self.opts.fsync,
        )
        .unwrap_or_else(|e| panic!("wal meta write failed: {e}"));
    }

    fn load_meta(&self) -> Option<NodeMeta> {
        let mut payload = read_framed(&self.dir.join("meta.bin"))?;
        NodeMeta::decode(&mut payload).ok()
    }

    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
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

    fn persistent(&self) -> bool {
        true
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

// ---- Record encoding helpers ------------------------------------------------

/// Encodes an entry batch as one record payload: `[u32 count][entries...]`.
/// One frame and one checksum cover the whole batch, making it the atomic
/// unit of both the group-commit write and the recovery scan.
fn encode_batch(entries: &[LogEntry]) -> Bytes {
    let mut buf = BytesMut::new();
    (entries.len() as u32).encode(&mut buf);
    for entry in entries {
        entry.encode(&mut buf);
    }
    buf.freeze()
}

/// Encodes a truncate marker: `[u32 0][u64 index]` — a batch never has a
/// zero count, so the first word tells the two operations apart.
fn encode_truncate(index: LogIndex) -> Bytes {
    let mut buf = BytesMut::new();
    0u32.encode(&mut buf);
    index.encode(&mut buf);
    buf.freeze()
}

fn encode_base(index: LogIndex, eterm: EpochTerm) -> Bytes {
    let mut buf = BytesMut::new();
    index.encode(&mut buf);
    eterm.encode(&mut buf);
    buf.freeze()
}

/// Replays one segment's operations onto the mirror, in order. Returns the
/// byte length of the valid prefix (0 when even the header is bad) and the
/// highest entry index any batch in it carried.
fn replay_segment(seq: u64, raw: &[u8], mem: &mut MemLog) -> (u64, Option<LogIndex>) {
    if raw.len() < SEGMENT_HEADER_LEN as usize {
        return (0, None);
    }
    let magic = u32::from_be_bytes(raw[0..4].try_into().expect("4 bytes"));
    let version = u32::from_be_bytes(raw[4..8].try_into().expect("4 bytes"));
    let hdr_seq = u64::from_be_bytes(raw[8..16].try_into().expect("8 bytes"));
    if magic != SEGMENT_MAGIC || version != SEGMENT_VERSION || hdr_seq != seq {
        return (0, None);
    }
    let base_index = mem.base_index();
    let mut pos = SEGMENT_HEADER_LEN as usize;
    let mut last_entry = None;
    'records: while let Some((payload, next)) = next_record(raw, pos) {
        // Decode and validate the WHOLE operation before touching the
        // mirror: a record is atomic, so a bad entry anywhere in it (or
        // trailing garbage) drops the entire record — never a partial one.
        let mut bytes = Bytes::copy_from_slice(payload);
        let Ok(count) = u32::decode(&mut bytes) else {
            break;
        };
        if count == 0 {
            let Ok(index) = LogIndex::decode(&mut bytes) else {
                break;
            };
            if !bytes.is_empty() {
                break;
            }
            // Whatever the marker cut at or below the base, compaction has
            // since dropped (possibly with the segment that held it); past
            // the end there is nothing to cut.
            mem.truncate_from(index.max(base_index.next()))
                .expect("cut point is above the base");
            pos = next;
            continue;
        }
        // The count is untrusted on-disk data: cap the reservation by what
        // the payload could possibly hold (an entry encodes to ≥ 17 bytes:
        // index + epoch-term + payload tag), so a corrupt frame cannot
        // abort recovery with an absurd allocation — decode failure below
        // trims it as a torn tail instead.
        let mut batch = Vec::with_capacity((count as usize).min(bytes.len() / 17 + 1));
        for _ in 0..count {
            let Ok(entry) = LogEntry::decode(&mut bytes) else {
                break 'records;
            };
            batch.push(entry);
        }
        if !bytes.is_empty() {
            break; // trailing garbage inside a frame: treat as corrupt
        }
        let mut expect = mem.last_index().next();
        for entry in &batch {
            if entry.index <= base_index {
                continue; // stale prefix below the compaction base
            }
            if entry.index != expect {
                break 'records; // gap or regression: a dropped tail upstream
            }
            expect = expect.next();
        }
        // The batch checks out: fold it into the mirror as one unit.
        for entry in batch {
            last_entry = last_entry.max(Some(entry.index));
            if entry.index <= base_index {
                // The covering segment outlived compaction because it also
                // held entries above the base.
                continue;
            }
            mem.append(entry);
        }
        pos = next;
    }
    (pos as u64, last_entry)
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
            last_entry: None,
        },
        file,
    ))
}

fn corrupt_base() -> Error {
    Error::Storage("corrupt base.bin".into())
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

    /// The segment format read back by a later build: header, one batch
    /// record (`[len][crc][count][entries…]`) and one truncate marker
    /// (`[len][crc][0][index]`).
    #[test]
    fn segment_bytes_pinned() {
        let dir = TestDir::new("pinned");
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        wal.append_batch(vec![entry(1, 1), entry(2, 1)]);
        wal.truncate_from(LogIndex(2)).unwrap();
        let hex: String = active_bytes(&wal)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            // Header: magic "RCWL", version 3, segment seq 1.
            "5243574c000000030000000000000001\
             00000032c32d2e91\
             00000002\
             0000000000000001000000000000000101000000027631\
             0000000000000002000000000000000101000000027632\
             0000000c95dba743\
             000000000000000000000002"
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
    fn marker_at_or_below_the_base_is_a_noop_once_its_segment_is_gone() {
        let dir = TestDir::new("marker-below-base");
        let base;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            let first = wal.segments[0].path.clone();
            base = wal.segments[0].last_entry.unwrap();
            // The marker refers into the first segment...
            assert!(LogIndex(3) <= base);
            wal.truncate_from(LogIndex(3)).unwrap();
            fill(&mut wal, 3, 25, 2);
            // ...which compaction then deletes whole.
            wal.compact_to(base, et(2)).unwrap();
            assert!(!first.exists());
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.base_index(), base);
        assert_eq!(wal.last_index(), LogIndex(25));
        for e in wal.tail(wal.first_index()) {
            assert_eq!(e.eterm, et(2), "superseded entry {} came back", e.index);
        }
    }

    #[test]
    fn compaction_base_never_outruns_an_unsynced_marker() {
        let dir = TestDir::new("base-after-marker");
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            wal.append_batch((1..=5).map(|i| entry(i, 1)).collect());
            wal.sync();
            wal.truncate_from(LogIndex(3)).unwrap();
            wal.append_batch(vec![entry(3, 2), entry(4, 2)]);
            // No barrier yet: compaction itself orders the operations it
            // covers before the base.
            wal.compact_to(LogIndex(4), et(2)).unwrap();
            wal.power_cut(0);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        assert_eq!(wal.base_index(), LogIndex(4));
        assert!(
            wal.is_empty(),
            "superseded entry 5 came back above the base"
        );
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
    fn snapshot_ahead_of_log_wins_on_recovery() {
        let dir = TestDir::new("snap-wins");
        let config =
            ClusterConfig::new(ClusterId(9), [NodeId(1), NodeId(2)], RangeSet::full()).unwrap();
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 4, 1);
            // A snapshot from a different lineage (merge renumbering) was
            // persisted, but the crash hit before the log reset.
            let snap = Snapshot {
                last_index: LogIndex(1),
                last_eterm: EpochTerm::new(7, 0),
                cluster: ClusterId(9),
                ranges: RangeSet::full(),
                chunks: Vec::new(),
                sessions: SessionTable::new(),
            };
            wal.save_snapshot(&snap, &config);
        }
        let wal = WalLog::open_with(&dir.0, opts()).unwrap();
        // The old-lineage log is discarded; the base sits at the snapshot.
        assert_eq!(wal.base_index(), LogIndex(1));
        assert_eq!(wal.base_eterm(), EpochTerm::new(7, 0));
        assert!(wal.is_empty());
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
