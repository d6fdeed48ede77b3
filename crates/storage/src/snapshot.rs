//! Snapshots of the applied state machine, and the one stream they cross
//! the wire as: [`Snapshot::frames`] cuts an image into bounded frames and
//! an [`Assembler`] puts them back together.

use bytes::Bytes;
use recraft_types::{ClusterId, EpochTerm, LogIndex, NodeId, RangeSet, SessionTable};
use std::collections::BTreeMap;

/// A snapshot of the applied state up to (and including) `last_index`.
///
/// The payload is a sequence of opaque, bounded-size *chunks*: the state
/// machine encodes each chunk independently (`recraft-kv` puts one key
/// sub-range per chunk), so no single allocation on either side of a
/// transfer ever holds the whole keyspace. Whole-blob state machines simply
/// produce one chunk. Split and merge exchange snapshots tagged with the
/// key ranges they cover so the merge can combine disjoint chunks
/// ("exchange them, and use the combined snapshot as the base state",
/// §III-C2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The last applied log index folded into this snapshot.
    pub last_index: LogIndex,
    /// The epoch-term of that entry.
    pub last_eterm: EpochTerm,
    /// The cluster that produced the snapshot.
    pub cluster: ClusterId,
    /// The key ranges the payload covers.
    pub ranges: RangeSet,
    /// Opaque encoded state-machine payload, in bounded-size chunks. Node
    /// snapshots always carry at least one chunk (an empty state still
    /// encodes to a non-empty chunk), so a streamed install always has a
    /// first frame to ride the session table on.
    pub chunks: Vec<Bytes>,
    /// The exactly-once session dedup table at the snapshot point. Part of
    /// the applied state: restarts, snapshot installs, split parts, and
    /// merge exchange all carry it so retried client writes stay
    /// deduplicated across reconfigurations.
    pub sessions: SessionTable,
}

impl Snapshot {
    /// An empty snapshot at the log origin for `cluster`.
    #[must_use]
    pub fn empty(cluster: ClusterId, ranges: RangeSet) -> Self {
        Snapshot {
            last_index: LogIndex::ZERO,
            last_eterm: EpochTerm::ZERO,
            cluster,
            ranges,
            chunks: Vec::new(),
            sessions: SessionTable::new(),
        }
    }

    /// The payload size in bytes (what data exchange actually transfers).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(Bytes::len).sum::<usize>() + self.sessions.size_bytes()
    }

    /// The largest single chunk — the peak contiguous allocation any
    /// transfer of this snapshot requires.
    #[must_use]
    pub fn max_chunk_bytes(&self) -> usize {
        self.chunks.iter().map(Bytes::len).max().unwrap_or(0)
    }

    /// Splits the snapshot into its install-stream frames: one frame per
    /// chunk, sharing the stream identity `(cluster, last_index,
    /// last_eterm, total)`. The session table rides *only* the first frame
    /// — it is part of the snapshot, not of every chunk, so a chunked
    /// install sends it exactly once.
    #[must_use]
    pub fn frames(&self) -> Vec<SnapshotFrame> {
        let chunks: &[Bytes] = if self.chunks.is_empty() {
            // Degenerate empty snapshot: one empty frame keeps the stream
            // well-formed (a zero-frame stream could never complete).
            &[Bytes::new()]
        } else {
            &self.chunks
        };
        let total = chunks.len() as u32;
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| SnapshotFrame {
                last_index: self.last_index,
                last_eterm: self.last_eterm,
                cluster: self.cluster,
                ranges: self.ranges.clone(),
                seq: i as u32,
                total,
                chunk: chunk.clone(),
                sessions: (i == 0).then(|| self.sessions.clone()),
            })
            .collect()
    }
}

/// One frame of a chunked snapshot stream — the only form in which an image
/// crosses the wire. Three messages carry frames: `InstallSnapshot` (a
/// leader restoring a laggard), `PullResp` (a pull source restoring a
/// puller behind its compaction point) and `FetchSnapshotResp` (a merge
/// participant's part).
///
/// An [`Assembler`] collects the frames of one stream identity `(cluster,
/// last_index, last_eterm, total)` until every `seq in 0..total` arrived,
/// and only then yields the whole snapshot. Frames are idempotent and
/// reorderable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFrame {
    /// The last applied log index of the snapshot being streamed.
    pub last_index: LogIndex,
    /// The epoch-term of that entry.
    pub last_eterm: EpochTerm,
    /// The cluster that produced the snapshot.
    pub cluster: ClusterId,
    /// The key ranges the snapshot covers.
    pub ranges: RangeSet,
    /// This frame's position in the stream.
    pub seq: u32,
    /// Total number of frames in the stream.
    pub total: u32,
    /// This frame's payload chunk.
    pub chunk: Bytes,
    /// The session table — `Some` on the first frame only (sent once per
    /// install, not once per chunk).
    pub sessions: Option<SessionTable>,
}

impl SnapshotFrame {
    /// The stream identity, ordered so that a sender's newer snapshot sorts
    /// later.
    fn stream(&self) -> (EpochTerm, LogIndex, ClusterId, u32) {
        (self.last_eterm, self.last_index, self.cluster, self.total)
    }

    /// Approximate wire size in bytes (chunk + session table when carried).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.chunk.len() + self.sessions.as_ref().map_or(0, SessionTable::size_bytes)
    }
}

/// Reassembles snapshot streams: the one place where [`SnapshotFrame`]s
/// become a [`Snapshot`].
///
/// Partial streams are keyed by sender, so the frames of the sources a
/// retry rotates through neither mix nor restart one another. A sender's
/// newer stream (by `(last_eterm, last_index)`) replaces its older one, and
/// a late frame of the older one is dropped. The first stream to complete
/// wins: [`Assembler::offer`] returns it and every partial stream is
/// dropped. `M` rides with a stream from the frame that opened it (the
/// configuration an install adopts). Volatile by design: a partial image is
/// never installed and never persisted.
#[derive(Debug, Clone)]
pub struct Assembler<M> {
    streams: BTreeMap<NodeId, (M, BTreeMap<u32, SnapshotFrame>)>,
}

impl<M> Default for Assembler<M> {
    fn default() -> Self {
        Assembler {
            streams: BTreeMap::new(),
        }
    }
}

impl<M> Assembler<M> {
    /// Adds `frame` from `from` (opening a stream tagged `meta` if the
    /// frame starts one) and returns the whole snapshot with its tag when
    /// the frame completes its stream.
    pub fn offer(&mut self, from: NodeId, frame: SnapshotFrame, meta: M) -> Option<(Snapshot, M)> {
        if frame.seq >= frame.total {
            return None; // malformed: can never complete a stream
        }
        let (id, total) = (frame.stream(), frame.total as usize);
        match self.streams.get(&from).and_then(|(_, f)| f.values().next()) {
            Some(head) if head.stream() > id => return None, // an older stream's
            Some(head) if head.stream() == id => {}
            _ => {
                self.streams.insert(from, (meta, BTreeMap::new()));
            }
        }
        let (_, frames) = self.streams.get_mut(&from).expect("ensured above");
        frames.insert(frame.seq, frame); // a duplicate replaces its twin
        if frames.len() < total {
            return None;
        }
        let (meta, frames) = self.streams.remove(&from).expect("just completed");
        self.streams.clear();
        let mut frames = frames.into_values();
        let first = frames.next().expect("seq 0");
        let snapshot = Snapshot {
            last_index: first.last_index,
            last_eterm: first.last_eterm,
            cluster: first.cluster,
            ranges: first.ranges,
            // The session table rides the stream's first frame only.
            sessions: first.sessions.unwrap_or_default(),
            chunks: std::iter::once(first.chunk)
                .chain(frames.map(|f| f.chunk))
                .collect(),
        };
        Some((snapshot, meta))
    }

    /// Drops every partial stream whose frames `stale` picks.
    pub fn forget(&mut self, mut stale: impl FnMut(&SnapshotFrame) -> bool) {
        self.streams
            .retain(|_, (_, frames)| !frames.values().next().is_some_and(&mut stale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::empty(ClusterId(1), RangeSet::full());
        assert_eq!(s.last_index, LogIndex::ZERO);
        assert_eq!(s.size_bytes(), 0);
        assert_eq!(s.max_chunk_bytes(), 0);
        assert_eq!(s.cluster, ClusterId(1));
        // Even the degenerate snapshot streams as one (empty) frame.
        let frames = s.frames();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].sessions.is_some());
    }

    #[test]
    fn frames_carry_sessions_exactly_once() {
        let mut sessions = SessionTable::new();
        sessions.record(recraft_types::SessionId(1), 5, Bytes::from_static(b"ok"));
        let s = Snapshot {
            last_index: LogIndex(9),
            last_eterm: EpochTerm::new(1, 2),
            cluster: ClusterId(3),
            ranges: RangeSet::full(),
            chunks: vec![
                Bytes::from_static(b"aaa"),
                Bytes::from_static(b"bbb"),
                Bytes::from_static(b"cc"),
            ],
            sessions,
        };
        let frames = s.frames();
        assert_eq!(frames.len(), 3);
        assert!(frames[0].sessions.is_some(), "first frame rides the table");
        assert!(frames[1..].iter().all(|f| f.sessions.is_none()));
        assert!(frames.iter().all(|f| f.total == 3));
        assert_eq!(s.max_chunk_bytes(), 3);
        assert_eq!(
            frames.iter().map(|f| f.chunk.len()).sum::<usize>(),
            s.chunks.iter().map(Bytes::len).sum::<usize>()
        );
    }

    fn image(last_index: u64, chunks: &[&'static [u8]]) -> Snapshot {
        let mut sessions = SessionTable::new();
        sessions.record(recraft_types::SessionId(1), 5, Bytes::from_static(b"ok"));
        Snapshot {
            last_index: LogIndex(last_index),
            last_eterm: EpochTerm::new(1, 2),
            cluster: ClusterId(3),
            ranges: RangeSet::full(),
            chunks: chunks.iter().map(|c| Bytes::from_static(c)).collect(),
            sessions,
        }
    }

    #[test]
    fn two_senders_interleaved_with_duplicates_yield_one_image() {
        let snap = image(9, &[b"aa", b"bb", b"cc"]);
        let f = snap.frames();
        let (a, b) = (NodeId(1), NodeId(2));
        let mut asm = Assembler::default();
        let order = [
            (b, 2),
            (a, 2),
            (a, 2),
            (b, 1),
            (a, 0), // sessions arrive mid-stream
            (b, 1),
            (a, 1), // `a` completes first and wins
            (b, 0), // `b`'s partial stream went with the win
        ];
        let done: Vec<_> = order
            .into_iter()
            .filter_map(|(from, i)| asm.offer(from, f[i].clone(), from))
            .collect();
        assert_eq!(done, vec![(snap, a)]);
    }

    #[test]
    fn a_newer_stream_replaces_the_senders_older_one() {
        let (old, new) = (image(9, &[b"o1", b"o2"]), image(12, &[b"n1", b"n2", b"n3"]));
        let from = NodeId(1);
        let mut asm = Assembler::default();
        assert!(asm.offer(from, old.frames().remove(0), ()).is_none());
        let mut new_frames = new.frames();
        let last = new_frames.pop().unwrap();
        for frame in new_frames {
            assert!(asm.offer(from, frame, ()).is_none());
        }
        // The older stream's remaining frame is a straggler: dropped, and
        // the newer stream is undisturbed.
        assert!(asm.offer(from, old.frames().remove(1), ()).is_none());
        assert_eq!(asm.offer(from, last, ()), Some((new, ())));
    }

    #[test]
    fn a_partial_stream_yields_nothing_and_can_be_forgotten() {
        let snap = image(9, &[b"aa", b"bb", b"cc"]);
        let mut asm = Assembler::default();
        let mut frames = snap.frames();
        let last = frames.pop().unwrap();
        for frame in frames.clone() {
            assert!(asm.offer(NodeId(1), frame, ()).is_none());
        }
        // A malformed frame never completes a stream.
        let mut bogus = last.clone();
        bogus.seq = bogus.total;
        assert!(asm.offer(NodeId(1), bogus, ()).is_none());
        asm.forget(|s| s.last_index <= LogIndex(9));
        assert!(asm.offer(NodeId(1), last, ()).is_none(), "forgotten");
        let done: Vec<_> = frames
            .into_iter()
            .filter_map(|frame| asm.offer(NodeId(1), frame, ()))
            .collect();
        assert_eq!(done, vec![(snap, ())], "the stream re-assembled whole");
    }
}
