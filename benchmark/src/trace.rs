//! Outside-in tracing: spans recorded from the benchmark's own files, around
//! the calls into each layer's public functions.
//!
//! `Node<SM, LS>` is generic and sans-io, so the traced run hosts it as
//! `Node<Timed<KvMachine>, Timed<Box<dyn LogStore>>>`: [`Timed`] implements
//! `StateMachine` / `LogStore` by delegating every call inside a span. The
//! loop in [`crate::traced`] wraps `step`, `tick`, `take_outputs` and the
//! `recraft_net` codecs the same way, so the storage and kv spans nest under
//! the core span that caused them and a layer's *self time* is its span
//! minus its children. Spans stay in memory (a thread-local recorder — the
//! traced loop is single-threaded) and are written out once at the end.
//!
//! With the recorder off, [`span`] is a plain call: that is the pass-through
//! the overhead ratio is measured against.

use bytes::Bytes;
use recraft_core::{LogStore, StateMachine};
use recraft_storage::{LogEntry, NodeMeta, Snapshot};
use recraft_types::{ClusterConfig, EpochTerm, LogIndex, RangeSet, Result};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began, or [`ROOT`].
    pub parent: u32,
    /// Index of the newest client operation issued when the span began.
    /// Consensus batches many requests into one message, so a span is shared
    /// by the requests in flight; this ties it to the workload position.
    pub request: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    /// Bytes the state machine produced as snapshot chunks.
    snapshot_bytes: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
        snapshot_bytes: 0,
    });
}

/// Starts (clearing what was recorded) or stops recording on this thread.
pub fn record(on: bool) {
    REC.with_borrow_mut(|r| {
        r.on = on;
        if on {
            r.spans.clear();
            r.open.clear();
            r.snapshot_bytes = 0;
            r.epoch = Instant::now();
        }
    });
}

/// Tags the spans that begin from now on with `request`.
pub fn set_request(request: u64) {
    REC.with_borrow_mut(|r| r.request = request);
}

/// Everything recorded since [`record`]`(true)`.
pub fn take() -> (Vec<Span>, u64) {
    REC.with_borrow_mut(|r| (std::mem::take(&mut r.spans), r.snapshot_bytes))
}

/// Runs `f` inside a span named `name` (or just runs it, recorder off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = REC.with_borrow_mut(|r| {
        r.on.then(|| {
            let idx = r.spans.len() as u32;
            let parent = r.open.last().copied().unwrap_or(ROOT);
            let start_ns = r.epoch.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request: r.request,
            });
            r.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = opened {
        REC.with_borrow_mut(|r| {
            r.spans[idx as usize].end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus the time their direct children cover, ns.
    pub self_ns: u64,
}

/// Totals by span name. A span's self time is its duration minus the
/// durations of its direct children (children of one parent never overlap:
/// the recorder is single-threaded).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// A `StateMachine` / `LogStore` that records a span around every call it
/// delegates. Cheap shape accessors (`last_index`, `len`, …) pass through
/// unrecorded: they are field reads, and a span around each would measure
/// the recorder.
#[derive(Debug)]
pub struct Timed<T>(pub T);

impl<SM: StateMachine> StateMachine for Timed<SM> {
    fn apply(&mut self, index: LogIndex, cmd: &Bytes) -> Bytes {
        span("kv.apply", || self.0.apply(index, cmd))
    }
    fn apply_batch(&mut self, entries: &[(LogIndex, Bytes)]) -> Vec<Bytes> {
        span("kv.apply", || self.0.apply_batch(entries))
    }
    fn query(&self, key: &[u8]) -> Bytes {
        span("kv.query", || self.0.query(key))
    }
    fn snapshot(&self, ranges: &RangeSet) -> Bytes {
        let image = span("kv.snapshot", || self.0.snapshot(ranges));
        REC.with_borrow_mut(|r| r.snapshot_bytes += image.len() as u64);
        image
    }
    fn snapshot_chunks(&self, ranges: &RangeSet) -> Vec<Bytes> {
        let chunks = span("kv.snapshot", || self.0.snapshot_chunks(ranges));
        let bytes: usize = chunks.iter().map(Bytes::len).sum();
        REC.with_borrow_mut(|r| r.snapshot_bytes += bytes as u64);
        chunks
    }
    fn restore(&mut self, data: &Bytes) -> Result<()> {
        span("kv.install", || self.0.restore(data))
    }
    fn restore_merged(&mut self, parts: &[Bytes]) -> Result<()> {
        span("kv.install", || self.0.restore_merged(parts))
    }
    fn retain_ranges(&mut self, ranges: &RangeSet) {
        span("kv.install", || self.0.retain_ranges(ranges));
    }
    fn resident_bytes(&self) -> usize {
        self.0.resident_bytes()
    }
    fn split_hint(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        self.0.split_hint(ranges)
    }
    fn chunked_install(&self) -> bool {
        self.0.chunked_install()
    }
    fn install_begin(&mut self) {
        span("kv.install", || self.0.install_begin());
    }
    fn install_chunk(&mut self, chunk: &Bytes) -> Result<()> {
        span("kv.install", || self.0.install_chunk(chunk))
    }
    fn install_finish(&mut self) -> Result<()> {
        span("kv.install", || self.0.install_finish())
    }
    fn restore_chunks(&mut self, chunks: &[Bytes]) -> Result<()> {
        span("kv.install", || self.0.restore_chunks(chunks))
    }
    fn note_lineage(&mut self, lineage: u64) {
        self.0.note_lineage(lineage);
    }
    fn recovered_watermark(&self) -> Option<(u64, LogIndex)> {
        self.0.recovered_watermark()
    }
    fn power_cut(&mut self, keep_unsynced: usize) {
        self.0.power_cut(keep_unsynced);
    }
}

impl<LS: LogStore> LogStore for Timed<LS> {
    fn base_index(&self) -> LogIndex {
        self.0.base_index()
    }
    fn base_eterm(&self) -> EpochTerm {
        self.0.base_eterm()
    }
    fn first_index(&self) -> LogIndex {
        self.0.first_index()
    }
    fn last_index(&self) -> LogIndex {
        self.0.last_index()
    }
    fn last_eterm(&self) -> EpochTerm {
        self.0.last_eterm()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn entry(&self, index: LogIndex) -> Option<LogEntry> {
        span("storage.read", || self.0.entry(index))
    }
    fn eterm_at(&self, index: LogIndex) -> Option<EpochTerm> {
        span("storage.read", || self.0.eterm_at(index))
    }
    fn matches(&self, index: LogIndex, eterm: EpochTerm) -> bool {
        span("storage.read", || self.0.matches(index, eterm))
    }
    fn slice(&self, from: LogIndex, to: LogIndex) -> Vec<LogEntry> {
        span("storage.read", || self.0.slice(from, to))
    }
    fn tail(&self, from: LogIndex) -> Vec<LogEntry> {
        span("storage.read", || self.0.tail(from))
    }
    fn append(&mut self, entry: LogEntry) {
        span("storage.append", || self.0.append(entry));
    }
    fn append_batch(&mut self, entries: Vec<LogEntry>) {
        span("storage.append", || self.0.append_batch(entries));
    }
    fn truncate_from(&mut self, index: LogIndex) -> Result<usize> {
        span("storage.append", || self.0.truncate_from(index))
    }
    fn compact_to(&mut self, index: LogIndex, eterm: EpochTerm) -> Result<()> {
        span("storage.append", || self.0.compact_to(index, eterm))
    }
    fn reset(&mut self, base_index: LogIndex, base_eterm: EpochTerm) {
        span("storage.append", || self.0.reset(base_index, base_eterm));
    }
    fn save_meta(&mut self, meta: &NodeMeta) {
        span("storage.meta", || self.0.save_meta(meta));
    }
    fn load_meta(&self) -> Option<NodeMeta> {
        span("storage.read", || self.0.load_meta())
    }
    fn save_snapshot(&mut self, snapshot: &Snapshot, config: &ClusterConfig) {
        span("storage.meta", || self.0.save_snapshot(snapshot, config));
    }
    fn load_snapshot(&self) -> Option<(Snapshot, ClusterConfig)> {
        span("storage.read", || self.0.load_snapshot())
    }
    fn sync(&mut self) {
        span("storage.sync", || self.0.sync());
    }
    fn sync_count(&self) -> u64 {
        self.0.sync_count()
    }
    fn persistent(&self) -> bool {
        self.0.persistent()
    }
    fn power_cut(&mut self, keep_unsynced: usize) {
        self.0.power_cut(keep_unsynced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // step [0,100) holds two sibling children, one of which has a child
        // of its own; a second, childless step follows.
        let spans = [
            s("core.step", 0, 100, ROOT),
            s("storage.append", 10, 30, 0),
            s("kv.apply", 40, 90, 0),
            s("storage.read", 50, 60, 2),
            s("core.step", 100, 130, ROOT),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["core.step"],
            Total {
                count: 2,
                total_ns: 130,
                self_ns: (100 - 20 - 50) + 30
            }
        );
        assert_eq!(
            t["kv.apply"].self_ns,
            50 - 10,
            "grandchild is the child's to subtract"
        );
        assert_eq!(t["storage.append"].self_ns, 20);
        assert_eq!(t["storage.read"].self_ns, 10);
        // Self times partition the root spans' wall time exactly.
        let all_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all_self, 130);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        record(false);
        assert_eq!(span("net.encode", || 7), 7);
        assert!(take().0.is_empty());

        record(true);
        set_request(42);
        span("core.step", || {
            span("storage.append", || ());
            span("kv.apply", || span("storage.read", || ()));
        });
        record(false);
        let (spans, _) = take();
        let shape: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("core.step", ROOT),
                ("storage.append", 0),
                ("kv.apply", 0),
                ("storage.read", 2)
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.request == 42 && s.end_ns >= s.start_ns));
        assert!(
            spans[0].end_ns >= spans[3].end_ns,
            "a parent closes after its children"
        );
    }
}
