//! Snapshot streaming: chunked (`DurableKv`) vs whole-blob (`KvStore`)
//! snapshot production, transfer framing, and install — at 10k and 100k
//! keys.
//!
//! The quantity under test is the transfer's **peak contiguous
//! allocation**: the whole-blob machine materializes the entire keyspace as
//! one `Bytes` (and one wire message), while the chunked machine's largest
//! unit is one segment-sized chunk regardless of keyspace size. The run
//! asserts the bound — peak chunk ≤ the configured chunk size (plus frame
//! slack) at every keyspace size — and reports end-to-end install latency
//! for both paths.
//!
//! Run with: `cargo bench -p recraft-bench --bench kv_snapshot_stream`
//! (`BENCH_SMOKE=1` shrinks the iteration count for CI smoke runs).
//! A machine-readable summary lands in
//! `target/bench-summaries/BENCH_kv_snapshot_stream.json`.

use bytes::Bytes;
use recraft_bench::Field;
use recraft_core::StateMachine;
use recraft_kv::{DurableKv, DurableKvOptions, KvCmd, KvStore};
use recraft_storage::Snapshot;
use recraft_types::{ClusterId, EpochTerm, LogIndex, RangeSet, SessionTable};
use std::time::Instant;

const CHUNK_BYTES: usize = 64 * 1024;
/// Chunk-size bound plus per-chunk encoding slack (one oversized pair can
/// push a chunk slightly past the target).
const CHUNK_BOUND: usize = CHUNK_BYTES + 2 * 1024;

struct Point {
    keys: usize,
    mode: &'static str,
    total_bytes: usize,
    peak_alloc: usize,
    frames: usize,
    produce_ms: f64,
    install_ms: f64,
}

fn preload(keys: usize) -> KvStore {
    let mut store = KvStore::new();
    for i in 0..keys {
        let mut value = format!("value-{i}-").into_bytes();
        value.resize(512, b'v');
        store.apply(
            LogIndex(i as u64 + 1),
            &KvCmd::Put {
                key: format!("k{i:08}").into_bytes(),
                value: Bytes::from(value),
            }
            .encode(),
        );
    }
    store
}

/// Wraps a chunk list as the install stream the wire would carry, so both
/// paths are measured through the same `Snapshot::frames()` framing.
fn as_snapshot(chunks: Vec<Bytes>) -> Snapshot {
    Snapshot {
        last_index: LogIndex(1),
        last_eterm: EpochTerm::new(0, 1),
        cluster: ClusterId(1),
        ranges: RangeSet::full(),
        chunks,
        sessions: SessionTable::new(),
    }
}

fn bench_mode(keys: usize, durable: bool, iters: usize, tmp: &std::path::Path) -> Point {
    let seed = preload(keys);
    let src_dir = tmp.join(format!("src-{keys}"));
    let dst_dir = tmp.join(format!("dst-{keys}"));
    let opts = DurableKvOptions {
        fsync: false,
        chunk_bytes: CHUNK_BYTES,
        memtable_bytes: 1 << 30,
    };
    let durable_src =
        durable.then(|| DurableKv::create(&src_dir, seed.clone(), opts).expect("create src"));

    let mut produce = 0.0f64;
    let mut install = 0.0f64;
    let mut point = None;
    for _ in 0..iters {
        // Produce: the machine encodes its transfer payload.
        let t0 = Instant::now();
        let chunks = match &durable_src {
            Some(kv) => kv.snapshot_chunks(&RangeSet::full()),
            None => vec![seed.snapshot(&RangeSet::full())],
        };
        produce += t0.elapsed().as_secs_f64() * 1e3;

        let snapshot = as_snapshot(chunks);
        let frames = snapshot.frames();
        let total_bytes: usize = snapshot.chunks.iter().map(Bytes::len).sum();
        let peak_alloc = snapshot.max_chunk_bytes();

        // Install: the receiver assembles the frames and replaces its state
        // through the streaming surface (the exact path InstallSnapshot
        // drives).
        let t1 = Instant::now();
        let collected: Vec<Bytes> = frames.iter().map(|f| f.chunk.clone()).collect();
        if durable {
            let mut dst = DurableKv::create(&dst_dir, KvStore::new(), opts).expect("create dst");
            dst.restore_chunks(&collected).expect("install");
            assert_eq!(dst.len(), keys);
        } else {
            let mut dst = KvStore::new();
            dst.restore_chunks(&collected).expect("install");
            assert_eq!(dst.len(), keys);
        }
        install += t1.elapsed().as_secs_f64() * 1e3;

        point = Some(Point {
            keys,
            mode: if durable { "chunked" } else { "whole-blob" },
            total_bytes,
            peak_alloc,
            frames: frames.len(),
            produce_ms: 0.0,
            install_ms: 0.0,
        });
    }
    let mut point = point.expect("at least one iteration");
    point.produce_ms = produce / iters as f64;
    point.install_ms = install / iters as f64;
    point
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let iters = if smoke { 2 } else { 5 };
    let tmp = std::env::temp_dir().join(format!("recraft-kv-snapstream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("bench tmp dir");

    println!("=== KV snapshot streaming: chunked vs whole-blob install ===");
    println!("    (512 B values, {CHUNK_BYTES} B chunks, {iters} iterations)\n");
    println!(
        "{:>7} {:>11} | {:>10} {:>11} {:>7} | {:>11} {:>11}",
        "keys", "mode", "total", "peak alloc", "frames", "produce ms", "install ms"
    );

    let mut points = Vec::new();
    for keys in [10_000usize, 100_000] {
        for durable in [false, true] {
            let p = bench_mode(keys, durable, iters, &tmp);
            println!(
                "{:>7} {:>11} | {:>10} {:>11} {:>7} | {:>11.2} {:>11.2}",
                p.keys, p.mode, p.total_bytes, p.peak_alloc, p.frames, p.produce_ms, p.install_ms
            );
            points.push(p);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    // The acceptance bar: the whole-blob peak grows with the keyspace; the
    // chunked peak does not — it stays under the chunk bound at every size.
    for p in &points {
        match p.mode {
            "whole-blob" => assert_eq!(
                p.peak_alloc, p.total_bytes,
                "whole-blob transfers the keyspace as one allocation"
            ),
            _ => assert!(
                p.peak_alloc <= CHUNK_BOUND,
                "chunked peak {} exceeds the {CHUNK_BOUND} bound at {} keys",
                p.peak_alloc,
                p.keys
            ),
        }
    }
    let small = points
        .iter()
        .find(|p| p.mode == "chunked" && p.keys == 10_000)
        .unwrap();
    let large = points
        .iter()
        .find(|p| p.mode == "chunked" && p.keys == 100_000)
        .unwrap();
    assert!(
        large.peak_alloc <= CHUNK_BOUND && small.peak_alloc <= CHUNK_BOUND,
        "peak allocation is bounded by chunk size, not keyspace size"
    );
    println!(
        "\nchunked peak allocation: {} B at 10k keys, {} B at 100k keys \
         (bound {CHUNK_BOUND} B); whole-blob peaks grow {:.1}x with the keyspace",
        small.peak_alloc,
        large.peak_alloc,
        points
            .iter()
            .find(|p| p.mode == "whole-blob" && p.keys == 100_000)
            .unwrap()
            .peak_alloc as f64
            / points
                .iter()
                .find(|p| p.mode == "whole-blob" && p.keys == 10_000)
                .unwrap()
                .peak_alloc as f64
    );
    write_summary(&points).expect("write bench summary");
}

/// Writes the JSON summary CI uploads as the perf-trajectory artifact.
fn write_summary(points: &[Point]) -> std::io::Result<()> {
    let rows: Vec<Vec<Field>> = points
        .iter()
        .map(|p| {
            vec![
                ("keys", p.keys.to_string()),
                ("mode", format!("\"{}\"", p.mode)),
                ("total_bytes", p.total_bytes.to_string()),
                ("peak_alloc", p.peak_alloc.to_string()),
                ("frames", p.frames.to_string()),
                ("produce_ms", format!("{:.3}", p.produce_ms)),
                ("install_ms", format!("{:.3}", p.install_ms)),
            ]
        })
        .collect();
    recraft_bench::write_summary("kv_snapshot_stream", &[], &rows)
}
