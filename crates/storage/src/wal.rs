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
//!     seg-<seq>.log   16-byte header + [len][crc32][operation] records,
//!                     then written zeros up to the segment's zero-filled end
//! ```
//!
//! # Semantics
//!
//! A segment is a sequence of operations, one `Record` each, followed by a
//! run of written zeros. Bytes a sync covered are never cut or changed, and
//! a file leaves the directory whole or not at all.
//!
//! * **Append** encodes one `Batch` onto the active segment's in-memory
//!   tail — its last partial [`BLOCK`] and everything after it. Nothing
//!   reaches the file before the next barrier. One length/crc frame covers
//!   the batch, so a group-committed append is one checksum — and one
//!   atomic unit at recovery: a torn or corrupt record drops the whole
//!   batch, never a partial one.
//! * **Sync** ([`WalLog::sync`], the group-commit barrier) hands the tail to
//!   the kernel as one positioned write that starts and ends on a block
//!   boundary. With `fsync` on, the active segment is opened
//!   `O_DIRECT | O_DSYNC` where this target's flag values are declared and
//!   the filesystem accepts them, so the write is the barrier; elsewhere the
//!   same write is followed by `sync_data`. With `fsync` off it is a
//!   page-cache write and no more: the durable watermark is tracked either
//!   way, so crash injection stays honest without paying for physical syncs
//!   in simulation runs. The write lands only on blocks that already hold
//!   written zeros. When it would cross the segment's zero-filled end, the
//!   same write carries that end ahead, to twice the segment's length
//!   capped at `segment_bytes`. So a steady barrier changes no file
//!   metadata, and ext4 commits no journal for it. A fresh segment's header
//!   rides on its first barrier: creating a segment writes nothing.
//!   The barrier rewrites the last partial block with its synced bytes
//!   unchanged. As PostgreSQL and InnoDB do with their WAL pages, this
//!   assumes the disk writes a sector whole or not at all, so a tear inside
//!   that block leaves every synced byte as it was.
//! * **Truncate** cuts the in-memory mirror and appends one `Truncate`
//!   marker; the superseded entries stay where they are on disk.
//! * **`save_meta`** appends one `Meta` record holding the whole
//!   [`NodeMeta`] and keeps the copy in the mirror. Like every record it is
//!   durable once the next sync returns, so a vote or a term change costs
//!   the barrier nothing beyond the one write it already pays.
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
//!   over. A run of zeros from the last record to the end of the file is
//!   the segment's zero-filled end: a clean end in any segment, after which
//!   the next segment is read. The first torn or corrupt record, or one
//!   that cannot apply (a gap, a cut below the base), ends the log — the
//!   tail is dropped, every later segment deleted and the file trimmed to
//!   the valid prefix (the one place a segment shrinks: the bytes cut were
//!   never covered by a sync). Whether the recovered log agrees with
//!   `snapshot.bin` is not decided here: `Node::reopen` holds that rule,
//!   for every backend.
//!
//! A crash — a process kill as much as a power cut — can therefore lose
//! only operations after the last sync point, which the node never
//! acknowledges to anyone (see the write-ahead contract on [`LogStore`]).
//! What it leaves is the state after *some* prefix of the store's own
//! mutation calls at or past that sync, never a mixture: appends,
//! truncations, metadata, compactions and resets alike.

use crate::entry::LogEntry;
use crate::framing::{frame_header, io_err, next_record, read_framed, sync_dir, write_framed};
use crate::memlog::MemLog;
use crate::snapshot::Snapshot;
use crate::store::{LogStore, NodeMeta};
use bytes::{Bytes, BytesMut};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{codec, ClusterConfig, EpochTerm, LogIndex, Result};
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: u32 = 0x5243_574C; // "RCWL"
/// Version 7: a segment ends in a run of written zeros, which recovery
/// reads as a clean end rather than a tear. A record is one [`Record`],
/// node metadata carries the retired flag, and the snapshot's session table
/// keeps a window of replies per session. Segments of any other version
/// are not read back; recovery treats them as unusable files, so an older
/// data dir has no metadata and `Node::reopen` refuses it rather than
/// misreading its `snapshot.bin`.
const SEGMENT_VERSION: u32 = 7;
const SEGMENT_HEADER_LEN: u64 = 16;
/// The unit of a barrier write: it starts and ends on a multiple of this,
/// from a buffer that starts on one, as `O_DIRECT` asks.
const BLOCK: u64 = 4096;
/// A tail buffer grown past this, by a write that carried the zero-filled
/// end ahead, is given back after that barrier.
const TAIL_KEEP: usize = 16 * BLOCK as usize;

// The `open(2)` flags that make a write its own barrier, `O_DIRECT |
// O_DSYNC`. The values differ by architecture; where none is declared here
// the barrier is a plain write followed by `sync_data`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86", target_arch = "x86_64", target_arch = "riscv64")
))]
const DIRECT_SYNC: Option<i32> = Some(0o40_000 | 0o10_000);
#[cfg(all(target_os = "linux", any(target_arch = "arm", target_arch = "aarch64")))]
const DIRECT_SYNC: Option<i32> = Some(0o200_000 | 0o10_000);
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86",
        target_arch = "x86_64",
        target_arch = "riscv64",
        target_arch = "arm",
        target_arch = "aarch64"
    )
)))]
const DIRECT_SYNC: Option<i32> = None;

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
    /// Make each barrier physically durable (a direct, data-synced write,
    /// or a write plus `fdatasync`). Disable in simulations for speed — the
    /// durable watermark (and therefore crash injection) is tracked
    /// identically either way.
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
}

/// The active segment from its last partial block on: what the next
/// barrier writes. The bytes sit in a `Vec` over-allocated by one block and
/// used from its first [`BLOCK`]-aligned byte, so the write goes from here
/// to the device as it is. Every byte of the buffer past `len` is zero.
struct Tail {
    /// Segment offset of the first byte: a multiple of [`BLOCK`].
    at: u64,
    buf: Vec<u8>,
    /// Where the aligned bytes start in `buf`.
    start: usize,
    len: usize,
}

impl std::fmt::Debug for Tail {
    /// Where the tail sits, not its bytes: the buffer can be megabytes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tail")
            .field("at", &self.at)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Tail {
    fn new(at: u64, bytes: &[u8]) -> Tail {
        let mut tail = Tail {
            at,
            buf: Vec::new(),
            start: 0,
            len: 0,
        };
        tail.push(bytes);
        tail
    }

    /// A fresh segment: its header and nothing else.
    fn header(seq: u64) -> Tail {
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        header[0..4].copy_from_slice(&SEGMENT_MAGIC.to_be_bytes());
        header[4..8].copy_from_slice(&SEGMENT_VERSION.to_be_bytes());
        header[8..16].copy_from_slice(&seq.to_be_bytes());
        Tail::new(0, &header)
    }

    /// The segment's length: where the next record goes.
    fn end(&self) -> u64 {
        self.at + self.len as u64
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..][..self.len]
    }

    fn push(&mut self, bytes: &[u8]) {
        self.reserve(self.len + bytes.len());
        self.buf[self.start + self.len..][..bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The first `n` bytes, the zeros past the end included.
    fn blocks(&mut self, n: usize) -> &[u8] {
        self.reserve(n);
        &self.buf[self.start..][..n]
    }

    /// Room for `n` bytes from the aligned start.
    fn reserve(&mut self, n: usize) {
        if self.start + n <= self.buf.len() {
            return;
        }
        let block = BLOCK as usize;
        let room = n.max(2 * (self.buf.len() - self.start)).max(2 * block);
        let mut buf = vec![0; room + block];
        let start = buf.as_ptr().align_offset(block);
        buf[start..][..self.len].copy_from_slice(self.bytes());
        self.buf = buf;
        self.start = start;
    }

    /// After a barrier: drops the whole blocks it wrote and keeps the last
    /// partial one, giving back any room a zero-filling write grew.
    fn settle(&mut self) {
        let keep = self.len % BLOCK as usize;
        let cut = self.len - keep;
        let start = self.start;
        self.buf.copy_within(start + cut..start + self.len, start);
        self.buf[start + keep..start + self.len].fill(0);
        self.at += cut as u64;
        self.len = keep;
        if self.buf.len() > TAIL_KEEP {
            let small = Tail::new(self.at, self.bytes());
            *self = small;
        }
    }
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
    /// Live segment files, oldest first; the last is the active one.
    segments: Vec<Segment>,
    /// Handle on the active segment for barrier writes.
    active: File,
    /// Whether `active` is open `O_DIRECT | O_DSYNC`, so that a write needs
    /// no `sync_data` after it.
    direct: bool,
    /// The active segment's last partial block and every operation after
    /// it, synced or not.
    tail: Tail,
    /// Bytes of the active segment known durable; the operations past it
    /// are in `tail` alone. Non-active segments are always fully durable
    /// (rolling syncs them).
    synced_len: u64,
    /// Where the active segment's written zeros end: a barrier write below
    /// it changes no file metadata.
    zeroed: u64,
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
        Self::open_dir(dir.as_ref(), opts, DIRECT_SYNC.is_some())
    }

    /// [`WalLog::open_with`] with every barrier a plain write followed by
    /// `sync_data`, as on a target or filesystem without direct writes.
    #[cfg(test)]
    pub(crate) fn open_without_direct(dir: impl AsRef<Path>, opts: WalOptions) -> Result<Self> {
        Self::open_dir(dir.as_ref(), opts, false)
    }

    fn open_dir(dir: &Path, opts: WalOptions, direct: bool) -> Result<Self> {
        let dir = dir.to_path_buf();
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
        // The last surviving segment's tail and file length.
        let mut last: Option<(Tail, u64)> = None;
        let mut dropped_tail = false;
        for (seq, path) in seg_paths {
            if dropped_tail {
                // Everything after a torn segment is unreachable history.
                let _ = fs::remove_file(&path);
                continue;
            }
            let raw = fs::read(&path).map_err(|e| io_err("read segment", &path, &e))?;
            let valid_len = replay_segment(seq, &raw, &mut mem);
            let mut file_len = raw.len() as u64;
            if raw[valid_len as usize..].iter().any(|&b| b != 0) {
                // Torn or corrupt tail: trim the file to the valid prefix.
                // (Zeros alone are the segment's zero-filled end.)
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("trim segment", &path, &e))?;
                f.set_len(valid_len)
                    .map_err(|e| io_err("trim segment", &path, &e))?;
                file_len = valid_len;
                dropped_tail = true;
            }
            if valid_len == 0 {
                // Not even a valid header: the file is unusable.
                let _ = fs::remove_file(&path);
                continue;
            }
            let at = valid_len - valid_len % BLOCK;
            let tail = Tail::new(at, &raw[at as usize..valid_len as usize]);
            last = Some((tail, file_len));
            segments.push(Segment { seq, path });
        }

        // The last surviving segment keeps taking appends.
        let mut direct = direct && opts.fsync;
        let (active, tail, zeroed) = match last {
            Some((tail, file_len)) => {
                let seg = segments.last().expect("a segment survived");
                (open_segment(&seg.path, false, &mut direct)?, tail, file_len)
            }
            None => {
                let (seg, file) = create_segment(&wal_dir, 1, &mut direct)?;
                segments.push(seg);
                (file, Tail::header(1), 0)
            }
        };
        if opts.fsync {
            sync_dir(&wal_dir);
        }
        // Recovery may have trimmed files; the surviving prefix is durable.
        let synced_len = tail.end();
        Ok(WalLog {
            dir,
            wal_dir,
            opts,
            mem,
            segments,
            active,
            direct,
            tail,
            synced_len,
            zeroed,
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
        self.tail.end() - self.synced_len
    }

    /// Crash modelling without the crash: writes into `to` the data
    /// directory a power cut right now would leave, as
    /// [`LogStore::power_cut`] with `keep_unsynced` models it, and leaves
    /// this store as it is.
    ///
    /// # Errors
    /// Returns [`Error::Storage`](recraft_types::Error::Storage) if a file
    /// cannot be copied or written.
    pub fn copy_torn(&self, to: impl AsRef<Path>, keep_unsynced: usize) -> Result<()> {
        let to = to.as_ref();
        let wal_to = to.join("wal");
        fs::create_dir_all(&wal_to).map_err(|e| io_err("create data dir", &wal_to, &e))?;
        let snapshot = self.dir.join("snapshot.bin");
        if snapshot.exists() {
            fs::copy(&snapshot, to.join("snapshot.bin"))
                .map_err(|e| io_err("copy snapshot", &snapshot, &e))?;
        }
        let copy_of = |seg: &Segment| wal_to.join(seg.path.file_name().expect("a segment name"));
        for seg in &self.segments {
            fs::copy(&seg.path, copy_of(seg)).map_err(|e| io_err("copy segment", &seg.path, &e))?;
        }
        let active = copy_of(self.active_seg());
        self.tear(&active, keep_unsynced)
            .map_err(|e| io_err("tear segment", &active, &e))
    }

    /// Writes into the active segment at `path` what the barrier write of
    /// the tail leaves when it tears in flight: the synced bytes of its
    /// first block, as they were, then `keep_unsynced` bytes of what
    /// follows them. A budget past the tail models the write that was
    /// striking the platter at the instant of death — a partial garbage
    /// frame after the last byte written, which recovery must detect (bad
    /// length/checksum) and trim.
    fn tear(&self, path: &Path, keep_unsynced: usize) -> std::io::Result<()> {
        let synced = (self.synced_len - self.tail.at) as usize;
        let landed = (synced + keep_unsynced).min(self.tail.len);
        let mut torn = self.tail.bytes()[..landed].to_vec();
        torn.resize(synced + keep_unsynced, 0xA5);
        let file = OpenOptions::new().write(true).open(path)?;
        write_at(&file, &torn, self.tail.at)?;
        file.sync_data()
    }

    fn active_seg(&self) -> &Segment {
        self.segments.last().expect("always one segment")
    }

    fn write_record(&mut self, record: &Record) {
        self.write_payload(&record.encode_to_bytes());
    }

    /// Appends one encoded operation to the active segment's tail, rolling
    /// first if the segment is full.
    fn write_payload(&mut self, payload: &[u8]) {
        if self.tail.end() >= self.opts.segment_bytes {
            self.roll();
        }
        self.tail.push(&frame_header(payload));
        self.tail.push(payload);
    }

    /// Finishes the active segment (making it durable) and starts the next.
    fn roll(&mut self) {
        self.sync();
        let next_seq = self.active_seg().seq + 1;
        let (seg, file) = create_segment(&self.wal_dir, next_seq, &mut self.direct)
            .unwrap_or_else(|e| panic!("wal segment roll failed: {e}"));
        if self.opts.fsync {
            sync_dir(&self.wal_dir);
        }
        self.segments.push(seg);
        self.active = file;
        self.tail = Tail::header(next_seq);
        self.synced_len = SEGMENT_HEADER_LEN;
        self.zeroed = 0;
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
        // them (asserting contiguity) before a byte is buffered.
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
            // Nothing to make durable, so no syscall: a clean barrier still
            // costs a device flush, and a leader pays one per commit round
            // (the reply-only `take_outputs` after the acks are in). A fresh
            // segment's 16-byte header counts as synced without having
            // been: it carries no operation, recovery deletes a file whose
            // header is torn or missing, and the first record's barrier
            // writes it.
            return;
        }
        // A group-commit barrier: everything appended since the last sync
        // point becomes durable under one write, however many entries (or
        // batches) accumulated.
        self.syncs += 1;
        let mut to = block_end(self.tail.end());
        if to > self.zeroed {
            // Carry the zero-filled end ahead geometrically, so that few
            // barriers of a segment extend its file.
            to = to.max(block_end(
                self.zeroed.saturating_mul(2).min(self.opts.segment_bytes),
            ));
            self.zeroed = to;
        }
        let at = self.tail.at;
        let blocks = self.tail.blocks((to - at) as usize);
        write_at(&self.active, blocks, at).unwrap_or_else(|e| panic!("wal sync failed: {e}"));
        if self.opts.fsync && !self.direct {
            self.active
                .sync_data()
                .unwrap_or_else(|e| panic!("wal sync failed: {e}"));
        }
        self.synced_len = self.tail.end();
        self.tail.settle();
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn power_cut(&mut self, keep_unsynced: usize) {
        let _ = self.tear(&self.active_seg().path, keep_unsynced);
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

/// The first multiple of [`BLOCK`] at or past `len`.
fn block_end(len: u64) -> u64 {
    len.div_ceil(BLOCK) * BLOCK
}

/// Creates segment `seq`, empty: its header rides on its first barrier.
fn create_segment(wal_dir: &Path, seq: u64, direct: &mut bool) -> Result<(Segment, File)> {
    let path = wal_dir.join(format!("seg-{seq:016}.log"));
    let file = open_segment(&path, true, direct)?;
    Ok((Segment { seq, path }, file))
}

/// Opens a segment for barrier writes: `O_DIRECT | O_DSYNC` while `direct`
/// holds, and otherwise — turning `direct` off where the filesystem
/// refuses those flags — a plain handle.
fn open_segment(path: &Path, create: bool, direct: &mut bool) -> Result<File> {
    let mut options = OpenOptions::new();
    options.write(true).create(create).truncate(create);
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::fs::OpenOptionsExt;
        if let Some(flags) = DIRECT_SYNC.filter(|_| *direct) {
            if let Ok(file) = options.clone().custom_flags(flags).open(path) {
                return Ok(file);
            }
        }
    }
    *direct = false;
    options
        .open(path)
        .map_err(|e| io_err("open segment", path, &e))
}

/// Writes all of `bytes` at offset `at` of `file`.
fn write_at(file: &File, bytes: &[u8], at: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, bytes, at)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = file;
        file.seek(SeekFrom::Start(at))?;
        file.write_all(bytes)
    }
}

#[cfg(test)]
impl WalLog {
    /// The active segment's file and how many of its bytes a sync covered.
    pub(crate) fn synced_file(&self) -> (PathBuf, u64) {
        (self.active_seg().path.clone(), self.synced_len)
    }

    /// The blocks the next barrier writes, short of any zero fill it adds,
    /// and the segment offset they go to.
    pub(crate) fn next_barrier(&mut self) -> (u64, Vec<u8>) {
        let at = self.tail.at;
        let blocks = self.tail.blocks((block_end(self.tail.end()) - at) as usize);
        (at, blocks.to_vec())
    }
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

    /// The two ways a barrier is made physically durable, each with real
    /// syncs and tiny segments: a direct, data-synced write where the target
    /// and the filesystem allow one, and a plain write plus `sync_data`.
    const BARRIERS: [fn(&Path, u64) -> WalLog; 2] = [
        |dir, segment_bytes| {
            let fsync = true;
            WalLog::open_with(
                dir,
                WalOptions {
                    fsync,
                    segment_bytes,
                },
            )
            .unwrap()
        },
        |dir, segment_bytes| {
            let fsync = true;
            let wal = WalLog::open_without_direct(
                dir,
                WalOptions {
                    fsync,
                    segment_bytes,
                },
            );
            let wal = wal.unwrap();
            assert!(!wal.direct);
            wal
        },
    ];

    #[test]
    fn append_survives_reopen() {
        for open in BARRIERS {
            let dir = TestDir::new("reopen");
            {
                let mut wal = open(&dir.0, 256);
                fill(&mut wal, 1, 20, 1);
                assert!(wal.segment_count() > 1, "rotation expected");
            }
            let wal = open(&dir.0, 256);
            assert_eq!(wal.last_index(), LogIndex(20));
            assert_eq!(wal.entry(LogIndex(7)), Some(entry(7, 1)));
            assert_eq!(wal.slice(LogIndex(3), LogIndex(5)).len(), 3);
        }
    }

    /// The active segment's bytes on disk.
    fn active_bytes(wal: &WalLog) -> Vec<u8> {
        fs::read(&wal.active_seg().path).unwrap()
    }

    /// A byte-for-byte copy of a data dir as a process kill would leave it:
    /// every byte a barrier wrote so far.
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

    /// Header: magic "RCWL", version 7, segment seq 1.
    const HEADER: &str = "5243574c000000070000000000000001";
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

    /// `records` as a barrier leaves them on disk: zeros to their block's end.
    fn padded(records: &str) -> String {
        let len = records.len() / 2;
        let zeros = block_end(len as u64) as usize - len;
        format!("{records}{}", "00".repeat(zeros))
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
        // Nothing reaches the file before the barrier, and the barrier
        // writes the records as they are, then zeros to their block's end.
        assert_eq!(hex(&active_bytes(&wal)), "");
        wal.sync();
        let first = [HEADER, BATCH, TRUNCATE, META, COMPACT].concat();
        assert_eq!(hex(&active_bytes(&wal)), padded(&first));
        // A reset checkpoints into the next segment: the newest metadata,
        // the new base, and a marker for "nothing above it".
        wal.reset(LogIndex::ZERO, EpochTerm::new(3, 0));
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(
            hex(&active_bytes(&wal)),
            padded(
                &[
                    "5243574c000000070000000000000002",
                    META,
                    RESET,
                    "000000098675307b010000000000000001"
                ]
                .concat()
            )
        );
        // The metadata inside the `Meta` record is the `NodeMeta` layout the
        // golden fixtures hold, byte for byte.
        let golden = include_str!("../../net/tests/format_golden.hex")
            .lines()
            .find_map(|l| l.strip_prefix("meta.fresh "))
            .unwrap();
        assert_eq!(&META[18..], golden);
        assert_eq!(hex(&meta(0).encode_to_bytes()), golden);
        // All five in one file read back as the five operations, with the
        // zeros after them or without.
        let states = pinned_states();
        assert_eq!(recover(&unhex(&[&first, RESET].concat())), states[5]);
        assert_eq!(recover(&unhex(&first)), states[4]);
        assert_eq!(recover(&unhex(&padded(&first))), states[4]);
    }

    #[test]
    fn any_other_segment_version_is_refused() {
        for older in ["00000005", "00000006"] {
            let old = [HEADER, BATCH].concat().replacen("00000007", older, 1);
            assert_eq!(recover(&unhex(&old)), pinned_states()[0]);
            assert_eq!(recover(&unhex(&padded(&old))), pinned_states()[0]);
        }
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
        let synced_len = wal.synced_len as usize;
        assert_eq!(wal.truncate_from(LogIndex(3)).unwrap(), 2);
        // The marker waits in memory for the barrier: a process killed right
        // here reboots with the synced state, all four entries.
        assert_eq!(active_bytes(&wal), synced);
        let killed = copy_dir(&dir.0, "never-cut-kill");
        let all: Vec<LogEntry> = (1..=4).map(|i| entry(i, 1)).collect();
        assert_eq!(reopened(&killed).2, all);
        // The barrier writes the marker and moves nothing the sync covered.
        wal.sync();
        let now = active_bytes(&wal);
        assert_ne!(now, synced);
        assert_eq!(now[..synced_len], synced[..synced_len]);
        // Killed after it, the node reboots with exactly the kept entries.
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
        let records = wal.synced_len as usize;
        let name = wal.active_seg().path.file_name().unwrap().to_owned();

        // Every prefix of the records, then the whole file with its zeros.
        for cut in (0..=records).chain([checkpoint.len()]) {
            let crashed = copy_dir(&old.0, "crash-inside-cut");
            fs::write(crashed.0.join("wal").join(&name), &checkpoint[..cut]).unwrap();
            let got = reopened(&crashed);
            assert!(
                got == before || got == after,
                "{cut} of {records} checkpoint bytes: {got:?}"
            );
            assert!(cut < records || got == after);
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
        let (tail_path, records);
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 20, 1);
            tail_path = wal.active_seg().path.clone();
            records = wal.synced_len;
        }
        // Tear the last few bytes of records off the tail segment, and the
        // zeros after them (a partial write).
        let f = OpenOptions::new().write(true).open(&tail_path).unwrap();
        f.set_len(records - 3).unwrap();
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
        // Flip one payload byte in the middle of the FIRST segment's records:
        // every entry from there on (including later, intact segments) must
        // go — keeping them would leave a hole in the log.
        let mut raw = fs::read(&first_seg).unwrap();
        let mid = replay_segment(1, &raw, &mut MemLog::new()) as usize / 2;
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
        for open in BARRIERS {
            let dir = TestDir::new("powercut");
            {
                // Large segments: a mid-test roll would sync the "unsynced" tail.
                let mut wal = open(&dir.0, 1 << 20);
                fill(&mut wal, 1, 5, 1); // synced
                for i in 6..=9 {
                    wal.append(entry(i, 1)); // unsynced
                }
                assert!(wal.unsynced_bytes() > 0);
                wal.power_cut(7); // keep a torn fragment of entry 6
            }
            let wal = open(&dir.0, 1 << 20);
            // Everything synced survives; nothing unsynced does (7 bytes is
            // less than a whole record).
            assert_eq!(wal.last_index(), LogIndex(5));
        }
    }

    #[test]
    fn power_cut_keeping_full_record_preserves_it() {
        for open in BARRIERS {
            let dir = TestDir::new("powercut-full");
            {
                let mut wal = open(&dir.0, 1 << 20);
                fill(&mut wal, 1, 5, 1);
                wal.append(entry(6, 1));
                let whole = wal.unsynced_bytes() as usize;
                wal.append(entry(7, 1));
                wal.power_cut(whole); // entry 6 fully hit the platter, 7 did not
            }
            let wal = open(&dir.0, 1 << 20);
            assert_eq!(wal.last_index(), LogIndex(6));
        }
    }

    #[test]
    fn power_cut_with_nothing_in_flight_leaves_torn_garbage() {
        for open in BARRIERS {
            let dir = TestDir::new("powercut-garbage");
            {
                let mut wal = open(&dir.0, 256);
                fill(&mut wal, 1, 5, 1); // everything synced
                assert_eq!(wal.unsynced_bytes(), 0);
                wal.power_cut(40); // a write was mid-flight when power died
            }
            // Recovery trims the garbage frame and keeps everything durable.
            let mut wal = open(&dir.0, 256);
            assert_eq!(wal.last_index(), LogIndex(5));
            wal.append(entry(6, 1));
            wal.sync();
            drop(wal);
            let wal = open(&dir.0, 256);
            assert_eq!(wal.last_index(), LogIndex(6));
        }
    }

    /// A torn copy is the directory a power cut would leave, and the store
    /// it was taken from goes on as if nothing happened.
    #[test]
    fn a_torn_copy_is_a_power_cut_that_leaves_the_store_alone() {
        let dir = TestDir::new("torn-copy");
        let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
        fill(&mut wal, 1, 3, 1);
        let synced = state(&wal);
        wal.append(entry(4, 1));
        let first = wal.unsynced_bytes() as usize;
        wal.save_meta(&meta(2));
        let now = state(&wal);
        let (cut, all) = (TestDir::new("torn-cut"), TestDir::new("torn-all"));
        wal.copy_torn(&cut.0, first - 1).unwrap();
        wal.copy_torn(&all.0, wal.unsynced_bytes() as usize)
            .unwrap();
        assert_eq!(reopened(&cut), synced);
        assert_eq!(reopened(&all), now);
        wal.sync();
        drop(wal);
        assert_eq!(reopened(&dir), now);
    }

    /// What a boot writes — the open, the boot snapshot, the metadata and
    /// their barrier — fits in the segment's first block: creating a segment
    /// writes nothing, and its header rides on the first barrier.
    #[test]
    fn a_booted_wal_holds_no_byte_past_its_first_block() {
        let dir = TestDir::new("boot-block");
        let mut wal = WalLog::open(&dir.0).unwrap();
        assert!(
            active_bytes(&wal).is_empty(),
            "creating a segment writes nothing"
        );
        let config = ClusterConfig::new(ClusterId(1), [NodeId(1)], RangeSet::full()).unwrap();
        wal.save_snapshot(&Snapshot::empty(ClusterId(1), RangeSet::full()), &config);
        wal.save_meta(&meta(1));
        wal.sync();
        assert_eq!(wal.sync_count(), 1);
        let bytes = active_bytes(&wal);
        assert_eq!(bytes.len() as u64, BLOCK);
        assert_eq!(hex(&bytes[..16]), HEADER);
        drop(wal);
        assert_eq!(reopened(&dir).3, Some(meta(1)));
    }

    /// A segment's zero-filled end moves ahead only when a barrier would
    /// cross it, to twice the segment's length, up to `segment_bytes`: the
    /// barriers in between write over zeros and leave the file's length be.
    #[test]
    fn the_zero_filled_end_doubles_up_to_the_segment_size() {
        let dir = TestDir::new("zero-fill");
        let segment_bytes = 64 * 1024;
        let opts = WalOptions {
            fsync: false,
            segment_bytes,
        };
        let mut wal = WalLog::open_with(&dir.0, opts).unwrap();
        let mut lengths = Vec::new();
        for i in 1.. {
            let value = Bytes::from(vec![b'v'; 600]);
            wal.append(LogEntry::command(LogIndex(i), et(1), value));
            if wal.segment_count() > 1 {
                break;
            }
            wal.sync();
            let bytes = active_bytes(&wal);
            let records = wal.synced_len as usize;
            assert!(bytes[records..].iter().all(|&b| b == 0), "barrier {i}");
            if lengths.last() != Some(&bytes.len()) {
                lengths.push(bytes.len());
            }
        }
        let tail = lengths.split_off(5);
        assert_eq!(lengths, [4096, 8192, 16384, 32768, 65536]);
        // Only a record that crosses the segment size reaches past it.
        assert!(tail.len() <= 1 && tail.iter().all(|&l| l == 65536 + BLOCK as usize));
        let last = wal.last_index();
        wal.sync();
        drop(wal);
        let wal = WalLog::open_with(&dir.0, opts).unwrap();
        assert_eq!((wal.last_index(), wal.segment_count()), (last, 2));
    }

    /// A run of zeros after the last record is a clean end in any segment:
    /// recovery reads on into the next. One non-zero byte in it is a torn
    /// tail — the log ends there, the file is trimmed to its records, and
    /// every later segment goes.
    #[test]
    fn a_zero_run_ends_any_segment_cleanly_and_a_stray_byte_tears_it() {
        let dir = TestDir::new("zero-run");
        let before;
        {
            let mut wal = WalLog::open_with(&dir.0, opts()).unwrap();
            fill(&mut wal, 1, 30, 1);
            assert!(wal.segment_count() >= 3);
            before = state(&wal);
        }
        let files = segment_files(&dir.0);
        let mut mem = MemLog::new();
        for (seq, f) in (1..).zip(&files) {
            let raw = fs::read(f).unwrap();
            let records = replay_segment(seq, &raw, &mut mem) as usize;
            assert!(raw.len() > records + 100 && raw[records..].iter().all(|&b| b == 0));
        }
        assert_eq!(reopened(&dir), before);
        assert_eq!(segment_files(&dir.0), files, "every segment kept");

        let mut raw = fs::read(&files[0]).unwrap();
        let records = replay_segment(1, &raw, &mut MemLog::new());
        raw[records as usize + 100] = 1;
        fs::write(&files[0], &raw).unwrap();
        let got = reopened(&dir);
        assert_eq!(got, recover(&raw[..records as usize]));
        assert!(got.2.len() < before.2.len());
        assert_eq!(segment_files(&dir.0), files[..1]);
        assert_eq!(fs::metadata(&files[0]).unwrap().len(), records);
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
