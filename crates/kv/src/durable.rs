//! `DurableKv`: the on-disk, range-partitioned key-value state machine.
//!
//! # Data-dir layout
//!
//! ```text
//! <dir>/
//!   MANIFEST.bin      crc-framed, replaced atomically (write-tmp + rename):
//!                     revision, applied-index watermark, segment directory
//!   seg-<seq>.kvs     immutable crc-framed segment: one key sub-range's
//!                     pairs in snapshot-chunk format ([u64 revision][map])
//! ```
//!
//! # Design
//!
//! Applies land in the materialized [`KvStore`] view that serves reads,
//! and the keys they touch in an in-memory **memtable** (the dirty overlay
//! since the last flush). Once the memtable outgrows `memtable_bytes`, a
//! **flush** re-partitions the state into immutable segment files of at
//! most `chunk_bytes` each — written tmp-first and committed by atomically
//! replacing the manifest, exactly like `WalLog`'s metadata files. The
//! manifest also persists the **applied-index watermark**: the highest log
//! index whose effects the flushed image contains. Recovery ([`DurableKv::
//! open`]) rebuilds the view from the manifest's segments, drops torn
//! garbage past any segment's frame, and deletes unreferenced files from
//! interrupted flushes; entries applied after the last flush are gone, and
//! the consensus layer re-applies them from its own log/snapshot (the same
//! contract an in-memory machine has after a crash, with the flushed prefix
//! surviving for free).
//!
//! # Why segments are per key range
//!
//! Segment files are disjoint and key-ordered, so the streaming snapshot
//! surface can hand a clean, fully-covered segment's payload off as a
//! transfer chunk without re-encoding — a split's `RangeSet` moves whole
//! files, and a merge's combined state is the union of the participants'
//! segment sets. Every chunk (and therefore every install frame on the
//! wire) is bounded by `chunk_bytes`, never by the keyspace.

use crate::store::{KvCmd, KvStore};
use bytes::Bytes;
use recraft_core::StateMachine;
use recraft_storage::framing::{io_err, read_framed, read_framed_prefix, sync_dir, write_framed};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{codec, LogIndex, RangeSet, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Tuning knobs for a [`DurableKv`].
#[derive(Debug, Clone, Copy)]
pub struct DurableKvOptions {
    /// Issue physical fsyncs on flush (disable in simulations for speed;
    /// the write-tmp + rename commit protocol is identical either way).
    pub fsync: bool,
    /// Target payload bytes per segment file — and therefore the bound on
    /// every snapshot chunk this machine emits.
    pub chunk_bytes: usize,
    /// Memtable (dirty overlay) size that triggers a flush.
    pub memtable_bytes: usize,
}

impl Default for DurableKvOptions {
    fn default() -> Self {
        DurableKvOptions {
            fsync: true,
            chunk_bytes: 64 * 1024,
            memtable_bytes: 256 * 1024,
        }
    }
}

/// One immutable on-disk segment: a disjoint key sub-range's pairs, cached
/// in memory in its encoded snapshot-chunk form.
#[derive(Debug, Clone)]
struct Segment {
    seq: u64,
    /// First key stored (inclusive).
    first: Vec<u8>,
    /// Last key stored (inclusive).
    last: Vec<u8>,
    count: u64,
    /// The store revision embedded in the payload (its value at encode
    /// time; read-only applies can advance the live revision past it).
    revision: u64,
    /// The file's framed payload: `[u64 revision][map]` — reusable verbatim
    /// as a snapshot chunk when the segment is clean and fully in range.
    payload: Bytes,
}

impl Segment {
    fn file_name(seq: u64) -> String {
        format!("seg-{seq:016}.kvs")
    }

    fn path(&self, dir: &Path) -> PathBuf {
        dir.join(Self::file_name(self.seq))
    }
}

/// The on-disk, range-partitioned KV state machine (see the module docs).
#[derive(Debug)]
pub struct DurableKv {
    dir: PathBuf,
    opts: DurableKvOptions,
    /// The materialized current state serving reads and applies; byte-for-
    /// byte the same dispatch as the in-memory machine.
    inner: KvStore,
    /// The dirty overlay since the last flush: the keys applies wrote or
    /// deleted. Keys present here make their covering segment stale.
    memtable: BTreeSet<Vec<u8>>,
    /// Approximate bytes in the memtable (flush trigger).
    memtable_bytes: usize,
    /// Flushed, immutable, key-ordered disjoint segments.
    segments: Vec<Segment>,
    /// Segment files dropped from the directory listing but not yet deleted
    /// (deleted after the next manifest commit; recovery GCs them too).
    stale_files: Vec<PathBuf>,
    /// Whether the materialized state changed since the last flush through
    /// any path (applies, installs, range retention) — a flush with this
    /// clear and no watermark movement is a no-op.
    dirty_state: bool,
    /// Highest applied log index seen (volatile).
    applied: LogIndex,
    /// The applied-index watermark of the flushed image (persisted in the
    /// manifest): recovery restores state as of exactly this index.
    durable_applied: LogIndex,
    /// The lineage token the consensus layer last tagged us with (volatile
    /// until the next flush commits it to the manifest).
    lineage: u64,
    /// The lineage token of the flushed image (persisted in the manifest):
    /// what a reboot can honestly claim the image belongs to.
    durable_lineage: u64,
    /// Full-image rebuilds (restore / merge resumption / chunked install)
    /// since open — observable by tests asserting the O(delta) reboot path
    /// skipped the rebuild.
    restores: u64,
}

impl DurableKv {
    /// Creates a fresh store at `dir`, wiping whatever the directory held,
    /// seeded with `inner`'s contents (the TC baseline preloads restarted
    /// subclusters this way). The seed state is flushed before returning.
    ///
    /// # Errors
    /// Returns [`recraft_types::Error::Storage`] on I/O failure.
    pub fn create(dir: impl AsRef<Path>, inner: KvStore, opts: DurableKvOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| io_err("create kv dir", &dir, &e))?;
        let mut kv = DurableKv {
            dir,
            opts,
            inner,
            memtable: BTreeSet::new(),
            memtable_bytes: 0,
            segments: Vec::new(),
            stale_files: Vec::new(),
            dirty_state: true, // the seed (even an empty one) must commit
            applied: LogIndex::ZERO,
            durable_applied: LogIndex::ZERO,
            lineage: 0,
            durable_lineage: 0,
            restores: 0,
        };
        kv.flush();
        Ok(kv)
    }

    /// Opens a store at `dir`, recovering the flushed image: the manifest
    /// names the live segments, torn bytes past any segment's frame are
    /// dropped, and files the manifest does not reference (interrupted
    /// flushes, orphaned tmp files) are deleted. A missing manifest is an
    /// empty store; a manifest whose referenced segments are unreadable
    /// degrades to an empty store too — the consensus layer reinstalls from
    /// its own snapshot, so graceful degradation beats refusing to boot.
    ///
    /// # Errors
    /// Returns [`recraft_types::Error::Storage`] when the directory itself cannot be
    /// created or listed.
    pub fn open(dir: impl AsRef<Path>, opts: DurableKvOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create kv dir", &dir, &e))?;
        let mut kv = DurableKv {
            dir: dir.clone(),
            opts,
            inner: KvStore::new(),
            memtable: BTreeSet::new(),
            memtable_bytes: 0,
            segments: Vec::new(),
            stale_files: Vec::new(),
            dirty_state: false,
            applied: LogIndex::ZERO,
            durable_applied: LogIndex::ZERO,
            lineage: 0,
            durable_lineage: 0,
            restores: 0,
        };
        let manifest = read_framed(&dir.join("MANIFEST.bin"))
            .and_then(|mut payload| Manifest::decode(&mut payload).ok());
        if let Some(manifest) = manifest {
            let mut entries: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
            let mut segments = Vec::new();
            let mut referenced = Vec::new();
            let mut intact = true;
            for meta in &manifest.segments {
                let path = dir.join(Segment::file_name(meta.seq));
                referenced.push(path.clone());
                // Tolerate torn garbage past the frame — the write that was
                // striking the platter when power died.
                let Some(payload) = read_framed_prefix(&path) else {
                    intact = false;
                    break;
                };
                let Ok((revision, map)) = KvStore::decode_image(&payload) else {
                    intact = false;
                    break;
                };
                if map.len() as u64 != meta.count {
                    intact = false;
                    break;
                }
                entries.extend(map);
                segments.push(Segment {
                    seq: meta.seq,
                    first: meta.first.clone(),
                    last: meta.last.clone(),
                    count: meta.count,
                    revision,
                    payload,
                });
            }
            if intact {
                kv.inner.set_state(entries, manifest.revision);
                kv.segments = segments;
                kv.applied = manifest.watermark;
                kv.durable_applied = manifest.watermark;
                kv.lineage = manifest.lineage;
                kv.durable_lineage = manifest.lineage;
            } else {
                // A referenced segment is unreadable: the flushed image is
                // unrecoverable as a whole. Reset to empty (atomicity over
                // partial keyspaces) and let consensus reinstall.
                kv.inner = KvStore::new();
                kv.segments.clear();
                kv.stale_files = referenced;
                kv.dirty_state = true;
                kv.flush();
            }
        }
        kv.gc_unreferenced();
        Ok(kv)
    }

    /// Deletes files the manifest does not reference: segments from
    /// interrupted flushes and orphaned `.tmp` files.
    fn gc_unreferenced(&mut self) {
        let live: BTreeSet<u64> = self.segments.iter().map(|s| s.seq).collect();
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in listing.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let stray_seg = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".kvs"))
                .and_then(|s| s.parse::<u64>().ok())
                .is_some_and(|seq| !live.contains(&seq));
            if stray_seg || name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        self.stale_files.clear();
    }

    // ---- Accessors -------------------------------------------------------

    /// The data directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The number of stored pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the store holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The current revision (count of applied commands).
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.inner.revision()
    }

    /// Direct read access (linearizable reads go through the log/ReadIndex).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.inner.get(key)
    }

    /// Approximate data size in bytes (keys + values).
    #[must_use]
    pub fn data_size(&self) -> usize {
        self.inner.data_size()
    }

    /// The median resident key within `ranges`. See [`KvStore::split_key`].
    ///
    /// [`KvStore::split_key`]: crate::KvStore::split_key
    #[must_use]
    pub fn split_key(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        self.inner.split_key(ranges)
    }

    /// Number of live segment files.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The applied-index watermark of the flushed (durable) image: state up
    /// to this log index survives [`DurableKv::open`].
    #[must_use]
    pub fn watermark(&self) -> LogIndex {
        self.durable_applied
    }

    /// Full-image rebuilds (restore / merge resumption / chunked install)
    /// since this store object opened. The O(delta) reboot path is exactly
    /// "reopen with `restore_count() == 0`".
    #[must_use]
    pub fn restore_count(&self) -> u64 {
        self.restores
    }

    // ---- Memtable and flush ---------------------------------------------

    /// Notes the keys a command dirties; their covering segments become
    /// stale for chunk handoff until the next flush.
    fn note_dirty(&mut self, cmd: &Bytes) {
        // Every apply moves the revision, which the next flush must commit.
        self.dirty_state = true;
        match KvCmd::decode(cmd) {
            Ok(KvCmd::Put { key, value }) => {
                self.memtable_bytes += key.len() + value.len();
                self.memtable.insert(key);
            }
            Ok(KvCmd::Delete { key, .. }) => {
                self.memtable_bytes += key.len();
                self.memtable.insert(key);
            }
            Ok(KvCmd::Ingest { data }) => {
                // The bulk-load payload is a snapshot image; every key in it
                // is dirtied (apply ignores a malformed payload, and so does
                // this accounting).
                if let Ok((_, map)) = KvStore::decode_image(&data) {
                    for (key, value) in map {
                        self.memtable_bytes += key.len() + value.len();
                        self.memtable.insert(key);
                    }
                }
            }
            Ok(KvCmd::Get { .. }) | Err(_) => {}
        }
    }

    fn maybe_flush(&mut self) {
        if self.memtable_bytes >= self.opts.memtable_bytes {
            self.flush();
        }
    }

    /// Flushes the current state incrementally: clean segments keep their
    /// files untouched; segments whose span the memtable dirtied — plus any
    /// new keys between spans — rewrite into fresh immutable segments of at
    /// most `chunk_bytes`. The flush commits by atomically replacing the
    /// manifest (which also advances the durable applied-index watermark),
    /// then deletes the superseded files. A crash anywhere in between
    /// recovers either the old image or the new one, never a mixture.
    pub fn flush(&mut self) {
        if !self.dirty_state && self.stale_files.is_empty() && self.applied == self.durable_applied
        {
            return; // nothing to commit
        }
        let revision = self.inner.revision();
        // Clean segments survive as-is; dirty ones are superseded.
        let all: Vec<Segment> = std::mem::take(&mut self.segments);
        let next_seq = all.iter().map(|s| s.seq).max().unwrap_or(0) + 1;
        let mut retained: Vec<Segment> = Vec::new();
        let mut dropped: Vec<PathBuf> = std::mem::take(&mut self.stale_files);
        for seg in all {
            if self.segment_dirty(&seg) {
                dropped.push(seg.path(&self.dir));
            } else {
                retained.push(seg);
            }
        }
        // Rewrite everything not covered by a retained span, one contiguous
        // key region between retained spans at a time (regions never cross
        // a span, so the segment set stays disjoint and key-ordered).
        let mut new_segments: Vec<Segment> = Vec::new();
        {
            let mut spans: Vec<(&[u8], &[u8])> = retained
                .iter()
                .map(|s| (s.first.as_slice(), s.last.as_slice()))
                .collect();
            spans.sort();
            let mut span_i = 0usize;
            let mut region: Vec<(&Vec<u8>, &Bytes)> = Vec::new();
            let mut regions: Vec<Vec<(&Vec<u8>, &Bytes)>> = Vec::new();
            for (key, value) in self.inner.entries() {
                while span_i < spans.len() && key.as_slice() > spans[span_i].1 {
                    span_i += 1;
                }
                let covered = span_i < spans.len()
                    && key.as_slice() >= spans[span_i].0
                    && key.as_slice() <= spans[span_i].1;
                if covered {
                    if !region.is_empty() {
                        regions.push(std::mem::take(&mut region));
                    }
                } else {
                    region.push((key, value));
                }
            }
            if !region.is_empty() {
                regions.push(region);
            }
            let mut seq = next_seq;
            for region in regions {
                for (first, last, count, payload) in
                    chunk_runs(&region, revision, self.opts.chunk_bytes)
                {
                    let path = self.dir.join(Segment::file_name(seq));
                    write_framed(&path, &payload, self.opts.fsync)
                        .unwrap_or_else(|e| panic!("kv segment write failed: {e}"));
                    new_segments.push(Segment {
                        seq,
                        first,
                        last,
                        count,
                        revision,
                        payload,
                    });
                    seq += 1;
                }
            }
        }
        let mut segments = retained;
        segments.append(&mut new_segments);
        segments.sort_by(|a, b| a.first.cmp(&b.first));
        let manifest = Manifest {
            revision,
            watermark: self.applied,
            lineage: self.lineage,
            segments: segments
                .iter()
                .map(|s| SegMeta {
                    seq: s.seq,
                    first: s.first.clone(),
                    last: s.last.clone(),
                    count: s.count,
                })
                .collect(),
        };
        write_framed(
            &self.dir.join("MANIFEST.bin"),
            &manifest.encode_to_bytes(),
            self.opts.fsync,
        )
        .unwrap_or_else(|e| panic!("kv manifest write failed: {e}"));
        // The manifest commit point passed: the superseded files are
        // garbage.
        let live: BTreeSet<PathBuf> = segments.iter().map(|s| s.path(&self.dir)).collect();
        for path in dropped {
            if !live.contains(&path) {
                let _ = fs::remove_file(&path);
            }
        }
        if self.opts.fsync {
            sync_dir(&self.dir);
        }
        self.segments = segments;
        self.memtable.clear();
        self.memtable_bytes = 0;
        self.durable_applied = self.applied;
        self.durable_lineage = self.lineage;
        self.dirty_state = false;
    }

    /// Whether any memtable key falls inside `[first, last]` — i.e. whether
    /// the segment's on-disk payload still matches the live state.
    fn segment_dirty(&self, seg: &Segment) -> bool {
        self.memtable
            .range::<[u8], _>((
                std::ops::Bound::Included(seg.first.as_slice()),
                std::ops::Bound::Included(seg.last.as_slice()),
            ))
            .next()
            .is_some()
    }

    /// Drops every segment (file deletion deferred to the next manifest
    /// commit) and marks the whole state dirty — the replace-state paths
    /// (restore, merge resumption) rebuild from here.
    fn drop_all_segments(&mut self) {
        let dir = self.dir.clone();
        self.stale_files
            .extend(self.segments.drain(..).map(|s| s.path(&dir)));
    }
}

impl StateMachine for DurableKv {
    fn apply(&mut self, index: LogIndex, cmd: &Bytes) -> Bytes {
        self.applied = self.applied.max(index);
        self.note_dirty(cmd);
        let resp = self.inner.apply_cmd(cmd).encode();
        self.maybe_flush();
        resp
    }

    fn apply_batch(&mut self, entries: &[(LogIndex, Bytes)]) -> Vec<Bytes> {
        let mut responses = Vec::with_capacity(entries.len());
        for (index, cmd) in entries {
            self.applied = self.applied.max(*index);
            self.note_dirty(cmd);
            responses.push(self.inner.apply_cmd(cmd).encode());
        }
        // One flush check per batch: the whole run lands in one image.
        self.maybe_flush();
        responses
    }

    fn query(&self, key: &[u8]) -> Bytes {
        self.inner.query(key)
    }

    fn snapshot(&self, ranges: &RangeSet) -> Bytes {
        self.inner.snapshot(ranges)
    }

    fn note_lineage(&mut self, lineage: u64) {
        if self.lineage != lineage {
            self.lineage = lineage;
            // Commit with the next flush: a manifest-only rewrite when the
            // memtable is clean (no segment churn).
            self.dirty_state = true;
        }
    }

    fn recovered_watermark(&self) -> Option<(u64, LogIndex)> {
        // Report the *durable* pair: a note_lineage that has not flushed yet
        // must not let a reboot claim the image for the new lineage.
        Some((self.durable_lineage, self.durable_applied))
    }

    fn restore(&mut self, data: &Bytes) -> Result<()> {
        self.restores += 1;
        self.inner.restore(data)?;
        self.memtable.clear();
        self.memtable_bytes = 0;
        self.dirty_state = true;
        // See install_begin: a replaced state invalidates the watermark.
        self.applied = LogIndex::ZERO;
        self.drop_all_segments();
        self.flush();
        Ok(())
    }

    fn restore_merged(&mut self, parts: &[Bytes]) -> Result<()> {
        self.restores += 1;
        self.inner.restore_merged(parts)?;
        self.memtable.clear();
        self.memtable_bytes = 0;
        self.dirty_state = true;
        // Merge resumption renumbers the log; the old lineage's watermark
        // must not survive into the new one.
        self.applied = LogIndex::ZERO;
        self.drop_all_segments();
        self.flush();
        Ok(())
    }

    fn retain_ranges(&mut self, ranges: &RangeSet) {
        let before = self.inner.len();
        self.inner.retain_ranges(ranges);
        self.memtable.retain(|k| ranges.contains(k));
        if self.inner.len() == before {
            return; // nothing dropped: the flushed image still matches
        }
        self.dirty_state = true;
        // A split's RangeSet hands off whole files: segments fully outside
        // the retained ranges are simply deleted; segments the retention cut
        // into are rewritten by the flush below (the clean survivors keep
        // their files through the incremental flush).
        let dir = self.dir.clone();
        let (keep, drop): (Vec<Segment>, Vec<Segment>) = std::mem::take(&mut self.segments)
            .into_iter()
            .partition(|s| {
                range_covered(ranges, &s.first, &s.last)
                    && self
                        .inner
                        .entries()
                        .range::<[u8], _>((
                            std::ops::Bound::Included(s.first.as_slice()),
                            std::ops::Bound::Included(s.last.as_slice()),
                        ))
                        .count() as u64
                        == s.count
            });
        self.segments = keep;
        self.stale_files
            .extend(drop.into_iter().map(|s| s.path(&dir)));
        self.flush();
    }

    // ---- Streaming surface (native: one chunk per key sub-range) --------

    fn snapshot_chunks(&self, ranges: &RangeSet) -> Vec<Bytes> {
        let revision = self.inner.revision();
        let mut chunks = Vec::new();
        // Whole-file handoff: a clean segment fully inside `ranges`
        // contributes its cached payload verbatim (no re-encode, no copy).
        // `spans` collects the covered intervals so the sweep below can
        // skip their keys.
        let mut spans: Vec<(&[u8], &[u8])> = Vec::new();
        let mut reused_revision = 0u64;
        for seg in &self.segments {
            if seg.count == 0 || self.segment_dirty(seg) {
                continue;
            }
            let fully_covered = range_covered(ranges, &seg.first, &seg.last)
                && self
                    .inner
                    .entries()
                    .range::<[u8], _>((
                        std::ops::Bound::Included(seg.first.as_slice()),
                        std::ops::Bound::Included(seg.last.as_slice()),
                    ))
                    .count() as u64
                    == seg.count;
            if fully_covered {
                chunks.push(seg.payload.clone());
                spans.push((seg.first.as_slice(), seg.last.as_slice()));
                reused_revision = reused_revision.max(seg.revision);
            }
        }
        spans.sort();
        // Everything else in range — dirty spans, partially-covered
        // segments, unflushed keys — re-encodes into fresh bounded chunks.
        let in_span = |key: &[u8]| {
            let i = spans.partition_point(|(_, b)| *b < key);
            i < spans.len() && spans[i].0 <= key
        };
        let extras: Vec<(&Vec<u8>, &Bytes)> = self
            .inner
            .entries()
            .iter()
            .filter(|(k, _)| ranges.contains(k) && !in_span(k))
            .collect();
        let had_extras = !extras.is_empty();
        for (_, _, _, payload) in chunk_runs(&extras, revision, self.opts.chunk_bytes) {
            chunks.push(payload);
        }
        // The restored revision is the maximum over the chunks' embedded
        // revisions. Reused payloads embed their flush-time revision, which
        // read-only applies may have advanced past — a tiny marker chunk
        // pins the live revision so every receiver lands on the exact same
        // state an unchunked restore would produce.
        if chunks.is_empty() || (!had_extras && reused_revision < revision) {
            // The degenerate empty-state chunk: `[revision][empty map]`.
            chunks.push(KvStore::encode_image(revision, []));
        }
        chunks
    }

    fn chunked_install(&self) -> bool {
        true // install_chunk merges sub-range blobs
    }

    fn install_begin(&mut self) {
        self.restores += 1;
        self.inner = KvStore::new();
        self.memtable.clear();
        self.memtable_bytes = 0;
        self.dirty_state = true;
        // The install surface carries no log index, so the watermark of the
        // replaced state is meaningless for the incoming image (it may even
        // come from a renumbered log lineage after a merge). Reset it —
        // ZERO is trivially honest ("this image contains at least nothing
        // past index 0") — and let subsequent applies re-establish it.
        self.applied = LogIndex::ZERO;
        self.drop_all_segments();
    }

    fn install_chunk(&mut self, chunk: &Bytes) -> Result<()> {
        self.dirty_state = true;
        self.inner.absorb_snapshot_blob(chunk)
    }

    fn install_finish(&mut self) -> Result<()> {
        // Persist the installed image: a reboot right after an install
        // recovers it without waiting for the next organic flush.
        self.flush();
        Ok(())
    }

    fn power_cut(&mut self, keep_unsynced: usize) {
        // The flushed image is commit-point durable (write-tmp + rename);
        // what dies with the process is the memtable. Model the write that
        // was striking the platter at the instant of death: torn garbage
        // appended past the newest segment's frame, plus an orphaned tmp
        // file — both of which recovery must detect and drop.
        if keep_unsynced > 0 {
            let garbage = vec![0x5Au8; keep_unsynced];
            if let Some(seg) = self.segments.last() {
                if let Ok(mut f) = fs::OpenOptions::new()
                    .append(true)
                    .open(seg.path(&self.dir))
                {
                    use std::io::Write as _;
                    let _ = f.write_all(&garbage);
                }
            }
            let _ = fs::write(self.dir.join("MANIFEST.tmp"), &garbage);
        }
        // The store object is dead after this; the caller reopens the dir.
    }

    fn resident_bytes(&self) -> usize {
        self.data_size()
    }

    fn split_hint(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        self.split_key(ranges)
    }
}

// ---- Chunk partitioning and codecs -----------------------------------------

/// Splits `pairs` (key-ordered) into encoded chunks of at most
/// `chunk_bytes` payload (always at least one pair per chunk), returning
/// `(first, last, count, payload)` per chunk.
fn chunk_runs(
    pairs: &[(&Vec<u8>, &Bytes)],
    revision: u64,
    chunk_bytes: usize,
) -> Vec<(Vec<u8>, Vec<u8>, u64, Bytes)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < pairs.len() {
        let mut end = start;
        let mut bytes = 0usize;
        while end < pairs.len() {
            let (key, value) = pairs[end];
            let pair_bytes = key.len() + value.len() + 16;
            if bytes + pair_bytes > chunk_bytes && end > start {
                break;
            }
            bytes += pair_bytes;
            end += 1;
        }
        let run = &pairs[start..end];
        out.push((
            run[0].0.clone(),
            run[run.len() - 1].0.clone(),
            run.len() as u64,
            KvStore::encode_image(revision, run.iter().copied()),
        ));
        start = end;
    }
    out
}

/// Whether `[first, last]` lies entirely inside `ranges`. Conservative: the
/// interval is inside when both endpoints are in the *same* contained
/// range (segments never straddle a range boundary after the flush that
/// follows every `retain_ranges`, so this only skips reuse briefly after a
/// range change — correctness never depends on it).
fn range_covered(ranges: &RangeSet, first: &[u8], last: &[u8]) -> bool {
    ranges
        .ranges()
        .iter()
        .any(|r| r.contains(first) && r.contains(last))
}

/// One segment's directory entry in the manifest.
struct SegMeta {
    seq: u64,
    first: Vec<u8>,
    last: Vec<u8>,
    count: u64,
}

/// The manifest: the flush commit record.
struct Manifest {
    revision: u64,
    watermark: LogIndex,
    lineage: u64,
    segments: Vec<SegMeta>,
}

codec!(
    struct SegMeta {
        seq: u64,
        first: Vec<u8>,
        last: Vec<u8>,
        count: u64,
    }
);

codec!(
    struct Manifest {
        revision: u64,
        watermark: LogIndex,
        lineage: u64,
        segments: Vec<SegMeta>,
    }
);

#[cfg(test)]
pub(crate) mod testdir {
    //! Unique, self-cleaning temp directories for kv tests.

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A temp directory removed on drop.
    pub struct TestDir(pub PathBuf);

    impl TestDir {
        pub fn new(tag: &str) -> TestDir {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("recraft-kv-test-{}-{tag}-{n}", std::process::id()));
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
    use crate::store::KvResp;
    use recraft_types::KeyRange;

    /// The flush commit record read back by a later build: bytes written
    /// by the hand-rolled codec this list replaced.
    #[test]
    fn manifest_bytes_pinned() {
        let seg = |seq, first: &[u8], last: &[u8], count| SegMeta {
            seq,
            first: first.to_vec(),
            last: last.to_vec(),
            count,
        };
        let manifest = Manifest {
            revision: 9,
            watermark: LogIndex(17),
            lineage: 3,
            segments: vec![seg(1, b"a", b"m", 5), seg(2, b"n", b"z", 4)],
        };
        let hex: String = manifest
            .encode_to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "000000000000000900000000000000110000000000000003000000020000000000000001\
             0000000161000000016d00000000000000050000000000000002000000016e000000017a\
             0000000000000004"
        );
    }

    fn opts() -> DurableKvOptions {
        DurableKvOptions {
            fsync: false,
            chunk_bytes: 256,    // tiny: everything partitions
            memtable_bytes: 512, // tiny: flushes happen mid-test
        }
    }

    fn put(kv: &mut DurableKv, i: u64, key: &str, value: &str) -> KvResp {
        let raw = kv.apply(
            LogIndex(i),
            &KvCmd::Put {
                key: key.as_bytes().to_vec(),
                value: Bytes::from(value.to_string()),
            }
            .encode(),
        );
        KvResp::decode(&raw).unwrap()
    }

    fn fill(kv: &mut DurableKv, from: u64, to: u64) {
        for i in from..=to {
            put(kv, i, &format!("k{i:04}"), &format!("value-{i:04}-padding"));
        }
    }

    #[test]
    fn matches_mem_store_responses_and_state() {
        let dir = TestDir::new("equiv");
        let mut durable = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
        let mut mem = KvStore::new();
        let cmds: Vec<Bytes> = (1..=40u64)
            .map(|i| {
                if i % 7 == 0 {
                    KvCmd::Delete {
                        key: format!("k{:04}", i / 2).into_bytes(),
                        nonce: i,
                    }
                    .encode()
                } else if i % 5 == 0 {
                    KvCmd::Get {
                        key: format!("k{:04}", i / 2).into_bytes(),
                        nonce: i,
                    }
                    .encode()
                } else {
                    KvCmd::Put {
                        key: format!("k{:04}", i % 13).into_bytes(),
                        value: Bytes::from(format!("v{i}")),
                    }
                    .encode()
                }
            })
            .collect();
        for (i, cmd) in cmds.iter().enumerate() {
            let index = LogIndex(i as u64 + 1);
            assert_eq!(
                durable.apply(index, cmd),
                mem.apply(index, cmd),
                "byte-identical responses at {index}"
            );
        }
        assert_eq!(durable.revision(), mem.revision());
        assert_eq!(durable.len(), mem.len());
        assert_eq!(
            durable.snapshot(&RangeSet::full()),
            mem.snapshot(&RangeSet::full()),
            "whole-blob snapshots agree"
        );
    }

    #[test]
    fn flushed_state_survives_reopen_with_watermark() {
        let dir = TestDir::new("reopen");
        {
            let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
            fill(&mut kv, 1, 30);
            kv.flush();
            assert_eq!(kv.watermark(), LogIndex(30));
            assert!(kv.segment_count() > 1, "partitioned into several files");
        }
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.watermark(), LogIndex(30));
        assert_eq!(kv.len(), 30);
        assert_eq!(kv.revision(), 30);
        assert_eq!(
            kv.get(b"k0007").map(|b| b.as_ref()),
            Some(b"value-0007-padding".as_ref())
        );
    }

    #[test]
    fn unflushed_tail_is_lost_flushed_prefix_is_not() {
        let dir = TestDir::new("tail");
        {
            let mut kv = DurableKv::create(
                &dir.0,
                KvStore::new(),
                DurableKvOptions {
                    memtable_bytes: 1 << 20, // no auto flush
                    ..opts()
                },
            )
            .unwrap();
            fill(&mut kv, 1, 10);
            kv.flush();
            fill(&mut kv, 11, 15); // memtable only
            assert_eq!(kv.watermark(), LogIndex(10));
            kv.power_cut(23);
        }
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.watermark(), LogIndex(10), "recovers to the flush point");
        assert_eq!(kv.len(), 10);
        assert!(kv.get(b"k0011").is_none(), "unflushed writes are gone");
        assert!(kv.get(b"k0010").is_some(), "flushed writes are not");
    }

    #[test]
    fn torn_segment_tail_garbage_is_dropped() {
        let dir = TestDir::new("torn");
        {
            let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
            fill(&mut kv, 1, 20);
            kv.flush();
            kv.power_cut(57); // garbage past the newest segment's frame + tmp
        }
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.len(), 20, "torn tail dropped, frames recovered");
        // The orphaned tmp file was GC'd.
        assert!(!dir.0.join("MANIFEST.tmp").exists());
    }

    #[test]
    fn corrupt_referenced_segment_degrades_to_empty() {
        let dir = TestDir::new("corrupt");
        {
            let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
            fill(&mut kv, 1, 20);
            kv.flush();
        }
        // Flip a byte inside the first segment's frame.
        let seg = fs::read_dir(&dir.0)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "kvs"))
            .min()
            .unwrap();
        let mut raw = fs::read(&seg).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&seg, &raw).unwrap();
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.len(), 0, "atomic degradation, never a partial keyspace");
        assert_eq!(kv.watermark(), LogIndex::ZERO);
    }

    #[test]
    fn snapshot_chunks_are_bounded_and_reassemble() {
        let dir = TestDir::new("chunks");
        let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
        fill(&mut kv, 1, 50);
        kv.flush();
        let chunks = kv.snapshot_chunks(&RangeSet::full());
        assert!(chunks.len() > 1, "several bounded chunks");
        let max = chunks.iter().map(Bytes::len).max().unwrap();
        assert!(
            max <= opts().chunk_bytes + 64,
            "chunk bound holds (got {max})"
        );
        // Reassembly through the install surface reproduces the state.
        let dir2 = TestDir::new("chunks2");
        let mut restored = DurableKv::create(&dir2.0, KvStore::new(), opts()).unwrap();
        restored.restore_chunks(&chunks).unwrap();
        assert_eq!(restored.len(), kv.len());
        assert_eq!(restored.revision(), kv.revision());
        assert_eq!(
            restored.snapshot(&RangeSet::full()),
            kv.snapshot(&RangeSet::full())
        );
        // And the in-memory machine's restore_merged accepts the same
        // chunks (shared blob format).
        let mut mem = KvStore::new();
        mem.restore_merged(&chunks).unwrap();
        assert_eq!(mem.len(), kv.len());
    }

    #[test]
    fn clean_segments_hand_off_whole_payloads() {
        let dir = TestDir::new("handoff");
        let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
        fill(&mut kv, 1, 40);
        kv.flush();
        let seg_payloads: BTreeSet<Bytes> = kv.segments.iter().map(|s| s.payload.clone()).collect();
        let chunks = kv.snapshot_chunks(&RangeSet::full());
        // Every chunk of a clean full-range snapshot IS a segment payload.
        assert!(
            chunks.iter().all(|c| seg_payloads.contains(c)),
            "clean flush: chunks are verbatim segment files"
        );
        // Dirty one key: its covering segment re-encodes, others still
        // hand off.
        put(&mut kv, 41, "k0001", "rewritten");
        let chunks = kv.snapshot_chunks(&RangeSet::full());
        let reused = chunks.iter().filter(|c| seg_payloads.contains(*c)).count();
        assert!(reused > 0, "clean segments still hand off");
        assert!(reused < chunks.len(), "the dirty span re-encoded");
    }

    #[test]
    fn retain_ranges_drops_whole_files_and_stays_durable() {
        let dir = TestDir::new("retain");
        {
            let mut kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
            fill(&mut kv, 1, 40);
            kv.flush();
            let (lo, _) = KeyRange::full().split_at(b"k0020").unwrap();
            kv.retain_ranges(&RangeSet::from(lo));
            assert_eq!(kv.len(), 19, "k0001..=k0019 retained");
        }
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.len(), 19, "retained image is durable");
        assert!(kv.get(b"k0019").is_some());
        assert!(kv.get(b"k0020").is_none());
    }

    #[test]
    fn create_preloads_and_persists() {
        let dir = TestDir::new("preload");
        let mut seed = KvStore::new();
        use recraft_core::StateMachine as _;
        seed.apply(
            LogIndex(1),
            &KvCmd::Put {
                key: b"seeded".to_vec(),
                value: Bytes::from_static(b"yes"),
            }
            .encode(),
        );
        {
            let kv = DurableKv::create(&dir.0, seed, opts()).unwrap();
            assert_eq!(kv.len(), 1);
        }
        let kv = DurableKv::open(&dir.0, opts()).unwrap();
        assert_eq!(kv.get(b"seeded").map(|b| b.as_ref()), Some(b"yes".as_ref()));
        assert_eq!(kv.revision(), 1, "seed revision survives");
    }

    #[test]
    fn empty_store_still_emits_one_chunk() {
        let dir = TestDir::new("empty");
        let kv = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
        let chunks = kv.snapshot_chunks(&RangeSet::full());
        assert_eq!(chunks.len(), 1);
        let mut mem = KvStore::new();
        mem.restore(&chunks[0]).unwrap();
        assert!(mem.is_empty());
    }
}
