//! Replication-pipeline throughput: batch size × in-flight depth × storage
//! backend.
//!
//! The sweep measures committed-entries/sec at leader saturation for the
//! three throughput levers this repo's hot path now exposes:
//!
//! * `max_batch_entries` — how many backlogged entries coalesce into one
//!   AppendEntries frame (and one group-commit WAL record on the follower);
//! * `max_inflight` — how many such frames the leader streams per follower
//!   before waiting for an acknowledgement;
//! * the storage backend — `mem` (no durability cost) vs `wal` (every
//!   `take_outputs` barrier group-commits the round's appends).
//!
//! The `(batch=1, inflight=1)` row is the lockstep baseline: one entry per
//! round trip, the defaults-off configuration. The acceptance bar for the
//! pipelined engine is ≥2× committed-entries/sec over that baseline on the
//! wal backend; the run asserts it.
//!
//! Run with: `cargo bench -p recraft-bench --bench replication_pipeline`
//! (`BENCH_SMOKE=1` shrinks the measurement window for CI smoke runs).
//! A machine-readable summary lands in
//! `target/bench-summaries/BENCH_replication_pipeline.json` so the perf
//! trajectory accumulates across CI runs.

use recraft_bench::{node_ids, Field, SEC};
use recraft_core::PipelineConfig;
use recraft_sim::{Backend, Sim, SimConfig, Workload};
use recraft_types::{ClusterId, RangeSet};

/// One measured configuration.
struct Point {
    backend: &'static str,
    batch: usize,
    inflight: usize,
    kops: f64,
    mean_batch: f64,
    max_depth: usize,
    /// Group-commit sync barriers per committed entry per node — well below
    /// 1.0 when batching amortizes the WAL fsync (always 0 on `mem`).
    sync_per_entry: f64,
}

struct PointResult {
    kops: f64,
    mean_batch: f64,
    max_depth: usize,
    sync_per_entry: f64,
}

fn run_point(backend: Backend, pipeline: PipelineConfig, measure: u64) -> PointResult {
    let seed = 0x51BE ^ (pipeline.max_inflight as u64) << 8 ^ pipeline.max_batch_entries as u64;
    let cfg = SimConfig::with_seed(seed)
        .with_backend(backend)
        .with_pipeline(pipeline);
    let mut sim = Sim::new(cfg);
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &node_ids(3), RangeSet::full());
    sim.run_until_leader(cluster);
    // Open-loop writers: each session keeps a window of proposals in flight,
    // so the leader sees a standing backlog and batching/pipelining engage.
    // Saturation is where those levers pay.
    sim.add_clients(
        64,
        Workload {
            key_count: 10_000,
            value_size: 512,
            get_ratio: 0.0,
            pipeline: 8,
            ..Workload::default()
        },
    );
    sim.run_for(2 * SEC); // warmup
    let from = sim.time();
    sim.run_for(measure);
    let to = sim.time();
    sim.check_invariants();
    sim.check_linearizability();
    let ops = sim.metrics().completed_between(from, to);
    let kops = ops as f64 / (measure as f64 / SEC as f64) / 1000.0;
    let mean_batch = sim.metrics().mean_batch_size().unwrap_or(0.0);
    let (_, max_depth) = sim.metrics().pipeline_maxima();
    // Whole-run fsync amortization: group-commit barriers per committed
    // entry per node (each of the 3 nodes persists every entry once).
    let syncs: u64 = sim.nodes().map(|n| n.log().sync_count()).sum();
    let committed = sim.nodes().map(|n| n.commit_index().0).max().unwrap_or(0);
    let node_count = sim.nodes().count() as f64;
    let sync_per_entry = if committed > 0 {
        syncs as f64 / (committed as f64 * node_count)
    } else {
        0.0
    };
    PointResult {
        kops,
        mean_batch,
        max_depth,
        sync_per_entry,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let measure = if smoke { 2 * SEC } else { 6 * SEC };
    println!("=== Replication pipeline: committed entries/sec at saturation ===");
    println!(
        "    (3 nodes, 64 open-loop write clients x window 8, 512 B values{})\n",
        if smoke { ", smoke window" } else { "" }
    );
    println!(
        "{:>4} {:>6} {:>9} | {:>12} {:>11} {:>10} {:>10} | {:>8}",
        "wal?",
        "batch",
        "inflight",
        "K entries/s",
        "mean batch",
        "max depth",
        "sync/entry",
        "speedup"
    );
    let sweep: &[(usize, usize)] = if smoke {
        &[(1, 1), (128, 64)]
    } else {
        &[(1, 1), (16, 1), (1, 16), (16, 16), (128, 64)]
    };
    let mut points: Vec<Point> = Vec::new();
    let mut wal_speedup = 0.0f64;
    let mut saturated_mean_batch = 0.0f64;
    let saturated = *sweep.last().expect("non-empty sweep");
    for backend in [Backend::Mem, Backend::Wal] {
        let name = match backend {
            Backend::Mem => "mem",
            Backend::Wal => "wal",
        };
        let mut baseline = None;
        for &(batch, inflight) in sweep {
            let pipeline = PipelineConfig {
                max_inflight: inflight,
                max_batch_entries: batch,
                max_batch_bytes: 1 << 20,
            };
            let r = run_point(backend, pipeline, measure);
            let base = *baseline.get_or_insert(r.kops);
            let speedup = if base > 0.0 { r.kops / base } else { 0.0 };
            if backend == Backend::Wal {
                wal_speedup = wal_speedup.max(speedup);
            }
            if (batch, inflight) == saturated {
                saturated_mean_batch = saturated_mean_batch.max(r.mean_batch);
            }
            println!(
                "{name:>4} {batch:>6} {inflight:>9} | {:>12.2} {:>11.2} {:>10} {:>10.3} | \
                 {speedup:>7.2}x",
                r.kops, r.mean_batch, r.max_depth, r.sync_per_entry
            );
            points.push(Point {
                backend: name,
                batch,
                inflight,
                kops: r.kops,
                mean_batch: r.mean_batch,
                max_depth: r.max_depth,
                sync_per_entry: r.sync_per_entry,
            });
        }
    }
    println!(
        "\nBatched+pipelined vs lockstep on the wal backend: {wal_speedup:.2}x \
         (bar: >= 2.0x); mean batch at saturation: {saturated_mean_batch:.2} (bar: > 1.0)"
    );
    write_summary(&points).expect("write bench summary");
    assert!(
        wal_speedup >= 2.0,
        "pipelined replication must clear 2x over lockstep on wal, got {wal_speedup:.2}x"
    );
    assert!(
        saturated_mean_batch > 1.0,
        "open-loop saturation must engage batching (mean batch > 1.0), \
         got {saturated_mean_batch:.2}"
    );
}

/// Writes the JSON summary CI uploads as the perf-trajectory artifact.
fn write_summary(points: &[Point]) -> std::io::Result<()> {
    let rows: Vec<Vec<Field>> = points
        .iter()
        .map(|p| {
            vec![
                ("backend", format!("\"{}\"", p.backend)),
                ("batch", p.batch.to_string()),
                ("inflight", p.inflight.to_string()),
                ("kops", format!("{:.3}", p.kops)),
                ("mean_batch", format!("{:.2}", p.mean_batch)),
                ("max_depth", p.max_depth.to_string()),
                ("sync_per_entry", format!("{:.4}", p.sync_per_entry)),
            ]
        })
        .collect();
    recraft_bench::write_summary("replication_pipeline", &[], &rows)
}
