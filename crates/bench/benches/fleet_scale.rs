//! Fleet autonomy under skew: the controller reshaping a multi-range
//! deployment while zipfian clients hammer it.
//!
//! Sweeps the zipfian skew exponent across a uniform baseline (`s = 0`),
//! YCSB-style skew (`s = 0.99`), and a hotspot-heavy tail (`s = 1.3`),
//! each over the same booted fleet inside the deterministic simulator.
//! Per point it reports client throughput in ops per virtual second, how
//! many autonomous reconfigurations (splits + merges) the controller
//! completed, the most it had in flight at once, and the directory-
//! staleness cost: the fraction of completed operations that first bounced
//! off a node that no longer owned the key (`Redirect` outcomes per
//! completed op). The full safety checks — linearizability witness and the
//! exactly-once session contract — run on every point, so the numbers are
//! only ever produced by correct executions.
//!
//! Run with: `cargo bench -p recraft-bench --bench fleet_scale`
//! (`BENCH_SMOKE=1` shrinks the fleet and the run window for CI smoke).
//! A machine-readable summary lands in
//! `target/bench-summaries/BENCH_fleet_scale.json`.

use recraft_bench::Field;
use recraft_cluster::os_thread_count;
use recraft_sim::{FleetConfig, FleetHarness, SimConfig, Workload};
use std::io::Write;

const SEC: u64 = 1_000_000;
/// Controller sampling interval (µs): load thresholds are per this window.
const INTERVAL: u64 = 500_000;

/// The skew sweep: uniform, YCSB-default, and hotspot-heavy.
const SKEWS: &[f64] = &[0.0, 0.99, 1.3];

struct Scale {
    ranges: usize,
    key_count: u64,
    clients: u64,
    run_us: u64,
}

struct Point {
    zipf_s: f64,
    completed_ops: usize,
    ops_per_vsec: f64,
    splits: u64,
    merges: u64,
    max_overlap: usize,
    ranges_end: usize,
    redirects: u64,
    redirect_rate: f64,
    wall_ms: u128,
    peak_threads: usize,
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        // Sized so evenly-spread load sits below the trigger: only skew
        // concentrates enough traffic on one range to make the controller
        // act. (The sim completes roughly 2-5k ops per interval fleet-wide;
        // uniform load divides that across every range, a zipfian hot spot
        // lands most of it on one.)
        split_ops: 1_500,
        merge_ops: 5,
        split_bytes: 64 << 20,
        merge_bytes: 16 << 20,
        cooldown_us: 2 * SEC,
        stall_us: 60 * SEC,
        max_inflight: 3,
        replication: 1,
        min_ranges: 2,
        max_ranges: 48,
    }
}

fn run_point(scale: &Scale, zipf_s: f64) -> Point {
    // One seed per skew level keeps the points independent but replayable.
    let seed = 0xF1EE_5CA1_E000 | (zipf_s * 100.0) as u64;
    let mut h = FleetHarness::new(SimConfig::with_seed(seed), fleet_cfg(), INTERVAL);
    h.boot_fleet(scale.ranges, scale.key_count);
    h.sim.add_clients(
        scale.clients,
        Workload {
            key_count: scale.key_count,
            value_size: 256,
            get_ratio: 0.2,
            dup_prob: 0.02,
            zipf_s,
            ..Workload::default()
        },
    );
    let started = std::time::Instant::now();
    h.run(scale.run_us);
    let wall_ms = started.elapsed().as_millis();
    // The simulator hosts the whole fleet on the calling thread — recorded
    // as the baseline the TCP benches' fixed worker pools compare against.
    let peak_threads = os_thread_count().unwrap_or(0);

    // The numbers only count if the execution was correct.
    h.sim.check_invariants();
    h.sim.check_linearizability();
    h.sim.assert_exactly_once();

    let r = h.report();
    let vsecs = scale.run_us as f64 / SEC as f64;
    Point {
        zipf_s,
        completed_ops: r.completed_ops,
        ops_per_vsec: r.completed_ops as f64 / vsecs,
        splits: r.splits,
        merges: r.merges,
        max_overlap: r.max_overlap,
        ranges_end: r.ranges,
        redirects: r.redirects,
        redirect_rate: if r.completed_ops == 0 {
            0.0
        } else {
            r.redirects as f64 / r.completed_ops as f64
        },
        wall_ms,
        peak_threads,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let scale = if smoke {
        Scale {
            ranges: 2,
            key_count: 10_000,
            clients: 6,
            run_us: 20 * SEC,
        }
    } else {
        Scale {
            ranges: 8,
            key_count: 100_000,
            clients: 12,
            run_us: 90 * SEC,
        }
    };
    println!("=== Fleet autonomy under skew: split/merge controller vs zipfian load ===");
    println!(
        "    ({} boot ranges, {} keys, {} clients, {} virtual s per point{})\n",
        scale.ranges,
        scale.key_count,
        scale.clients,
        scale.run_us / SEC,
        if smoke { ", smoke scale" } else { "" }
    );
    println!(
        "{:>6} | {:>9} {:>10} | {:>6} {:>6} {:>7} {:>6} | {:>9} {:>8} | {:>8}",
        "zipf_s",
        "ops",
        "ops/vsec",
        "splits",
        "merges",
        "overlap",
        "ranges",
        "redirects",
        "redir/op",
        "wall_ms"
    );
    let mut points = Vec::new();
    for &s in SKEWS {
        let p = run_point(&scale, s);
        println!(
            "{:>6.2} | {:>9} {:>10.1} | {:>6} {:>6} {:>7} {:>6} | {:>9} {:>8.4} | {:>8}",
            p.zipf_s,
            p.completed_ops,
            p.ops_per_vsec,
            p.splits,
            p.merges,
            p.max_overlap,
            p.ranges_end,
            p.redirects,
            p.redirect_rate,
            p.wall_ms
        );
        let _ = std::io::stdout().flush();
        points.push(p);
    }

    // The headline claim: more skew means more autonomous reshaping. The
    // uniform baseline spreads load below the split threshold; the skewed
    // points concentrate it until the controller has to act.
    let baseline = &points[0];
    let most_skewed = points.last().expect("at least one point");
    assert!(
        points.iter().all(|p| p.completed_ops > 0),
        "every point must complete client operations"
    );
    assert!(
        most_skewed.splits >= 1,
        "hotspot-heavy skew must trigger at least one autonomous split"
    );
    assert!(
        most_skewed.splits + most_skewed.merges >= baseline.splits + baseline.merges,
        "skew should drive at least as much reshaping as uniform load"
    );
    write_summary(&scale, &points, smoke).expect("write bench summary");
}

/// Writes the JSON summary CI uploads as the perf-trajectory artifact.
fn write_summary(scale: &Scale, points: &[Point], smoke: bool) -> std::io::Result<()> {
    let header = [
        ("smoke", smoke.to_string()),
        ("boot_ranges", scale.ranges.to_string()),
        ("key_count", scale.key_count.to_string()),
        ("clients", scale.clients.to_string()),
        ("virtual_secs", (scale.run_us / SEC).to_string()),
    ];
    let rows: Vec<Vec<Field>> = points
        .iter()
        .map(|p| {
            vec![
                ("zipf_s", format!("{:.2}", p.zipf_s)),
                ("completed_ops", p.completed_ops.to_string()),
                ("ops_per_vsec", format!("{:.1}", p.ops_per_vsec)),
                ("splits", p.splits.to_string()),
                ("merges", p.merges.to_string()),
                ("max_overlap", p.max_overlap.to_string()),
                ("ranges_end", p.ranges_end.to_string()),
                ("redirects", p.redirects.to_string()),
                ("redirect_rate", format!("{:.4}", p.redirect_rate)),
                ("wall_ms", p.wall_ms.to_string()),
                ("peak_threads", p.peak_threads.to_string()),
            ]
        })
        .collect();
    recraft_bench::write_summary("fleet_scale", &header, &rows)
}
