//! Real-deployment saturation: open-loop clients against loopback-TCP
//! clusters.
//!
//! Unlike every other bench in this crate, nothing here is simulated. Each
//! node runs on its own OS thread; peers exchange the wire messages over
//! real loopback TCP; `wal` nodes physically fsync at every output
//! barrier; and 256 client threads keep a windowed backlog standing at the
//! leader. The numbers are wall-clock: ns per confirmed op (open-loop,
//! fleet-wide) and confirmed ops per millisecond, swept across 1/3/5-node
//! clusters on both storage backends.
//!
//! The run asserts its own acceptance bars: every client finishes, the
//! session table confirms exactly-once delivery, and the 3-node `wal`
//! configuration amortizes group commit well below one fsync barrier per
//! committed entry per node.
//!
//! Run with: `cargo bench -p recraft-bench --bench cluster_harness`
//! (`BENCH_SMOKE=1` shrinks per-client ops and skips the 5-node tier for
//! CI smoke runs). A machine-readable summary lands in
//! `target/bench-summaries/BENCH_cluster_harness.json`.

use recraft_bench::Field;
use recraft_cluster::{
    os_thread_count, verify_sessions, ClientOptions, Cluster, ClusterSpec, HarnessBackend,
};
use std::io::Write;
use std::time::Duration;

/// Fleet size — the target deployment load from the issue brief.
const CLIENTS: u64 = 256;

struct Point {
    nodes: usize,
    backend: &'static str,
    total_ops: u64,
    ns_per_op: f64,
    ops_per_ms: f64,
    sync_per_entry: f64,
    redirects: u64,
    stale_confirmed: u64,
    elections: u64,
    snapshot_installs: u64,
    peak_threads: usize,
    mean_wire_batch: f64,
    /// Envelopes the runtime stepped in the round that produced them.
    local_deliveries: u64,
    idle_wakeups_per_sec: f64,
}

fn run_point(nodes: usize, backend: HarnessBackend, ops_per_client: u64) -> Point {
    let mut spec = ClusterSpec::new(nodes, backend);
    // Size election timeouts to the deployment, as production configs do.
    // With the node drivers plus the whole client fleet contending for the
    // host's cores, a driver can legitimately go seconds without being
    // scheduled; default (150-300 ms) timeouts then read scheduling delay
    // as leader death and the run dissolves into election churn, redirect
    // storms, and snapshot re-images of starved followers (the per-point
    // `elections`/`snapshot_installs` columns make this visible). Nothing
    // crashes in this bench, so failure-detection latency costs nothing —
    // only the liveness condition broadcastTime << electionTimeout has to
    // hold, and loopback broadcast is microseconds.
    spec.timing.election_timeout_min = 10_000_000;
    spec.timing.election_timeout_max = 20_000_000;
    spec.timing.heartbeat_interval = 1_000_000;
    let cluster = Cluster::launch(&spec);
    cluster
        .wait_for_leader(Duration::from_secs(60))
        .expect("leader election");
    // Idle window before the fleet attaches: with heartbeats at 1 s and
    // elections settled, the readiness loop should wake on deadlines only —
    // the column that shows the sweep loop's 2 000/s-per-worker busy-idle
    // is gone.
    let idle_window = Duration::from_millis(1_500);
    let w0 = cluster.wire_stats();
    std::thread::sleep(idle_window);
    let w1 = cluster.wire_stats();
    let idle_wakeups_per_sec =
        (w1.idle_wakeups - w0.idle_wakeups) as f64 / idle_window.as_secs_f64();
    let opts = ClientOptions {
        ops: ops_per_client,
        window: 8,
        value_size: 512,
        // Open-loop queueing delay is the point, not a fault: with
        // clients × window ops standing at the leader, a response can
        // legitimately queue for seconds. Keep the read timeout well above
        // that so reconnect-resend only fires for genuinely lost replies.
        read_timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(600),
        ..ClientOptions::default()
    };
    // A sidecar thread records the process-wide high-water mark while the
    // client fleet is attached: workers + clients, never a per-node term.
    let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let (peak, stop) = (std::sync::Arc::clone(&peak), std::sync::Arc::clone(&stop));
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !stop.load(Ordering::Relaxed) {
                if let Some(n) = os_thread_count() {
                    peak.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let fleet = cluster.run_clients(CLIENTS, &opts);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("sampler thread");
    let peak_threads = peak.load(std::sync::atomic::Ordering::Relaxed);
    let wire = cluster.wire_stats();
    let mean_wire_batch = wire.mean_batch();
    let local_deliveries = wire.local_deliveries - w1.local_deliveries;
    let unfinished = fleet.reports.iter().filter(|r| !r.completed).count();
    assert_eq!(
        unfinished,
        0,
        "{unfinished} of {CLIENTS} clients missed the deadline at {nodes} nodes / {}",
        backend.as_str()
    );
    let total_ops = CLIENTS * ops_per_client;
    assert_eq!(fleet.confirmed_ops(), total_ops);
    let elapsed_ns = fleet.elapsed.as_nanos() as f64;

    let elections = cluster.elections();
    let snapshot_installs = cluster.snapshot_installs();
    let members = cluster.shutdown();
    verify_sessions(&members, CLIENTS, ops_per_client);
    let syncs: u64 = members.iter().map(|n| n.log().sync_count()).sum();
    let committed = members
        .iter()
        .map(|n| n.commit_index().0)
        .max()
        .unwrap_or(0);
    let sync_per_entry = if committed > 0 {
        syncs as f64 / (committed as f64 * members.len() as f64)
    } else {
        0.0
    };
    Point {
        nodes,
        backend: backend.as_str(),
        total_ops,
        ns_per_op: elapsed_ns / total_ops as f64,
        ops_per_ms: total_ops as f64 / (elapsed_ns / 1e6),
        sync_per_entry,
        redirects: fleet.reports.iter().map(|r| r.redirects).sum(),
        stale_confirmed: fleet.reports.iter().map(|r| r.stale_confirmed).sum(),
        elections,
        snapshot_installs,
        peak_threads,
        mean_wire_batch,
        local_deliveries,
        idle_wakeups_per_sec,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    // Full: ~100k ops fleet-wide per configuration. Smoke: enough to
    // saturate briefly while keeping CI wall-clock small.
    let ops_per_client: u64 = if smoke { 8 } else { 390 };
    let node_tiers: &[usize] = if smoke { &[3] } else { &[1, 3, 5] };
    println!("=== Real cluster: OS threads + loopback TCP, open-loop saturation ===");
    println!(
        "    ({CLIENTS} client threads x {ops_per_client} ops, window 8, 512 B values{})\n",
        if smoke { ", smoke scale" } else { "" }
    );
    println!(
        "{:>5} {:>4} | {:>10} {:>10} {:>10} | {:>9} {:>6} {:>6} {:>8} | {:>9}",
        "nodes",
        "wal?",
        "ns/op",
        "op/ms",
        "sync/entry",
        "redirects",
        "stale",
        "elects",
        "installs",
        "local"
    );
    let mut points = Vec::new();
    let mut wal3_sync_per_entry = f64::NAN;
    for &nodes in node_tiers {
        for backend in [HarnessBackend::Mem, HarnessBackend::Wal] {
            let p = run_point(nodes, backend, ops_per_client);
            println!(
                "{:>5} {:>4} | {:>10.0} {:>10.2} {:>10.4} | {:>9} {:>6} {:>6} {:>8} | {:>9}",
                p.nodes,
                p.backend,
                p.ns_per_op,
                p.ops_per_ms,
                p.sync_per_entry,
                p.redirects,
                p.stale_confirmed,
                p.elections,
                p.snapshot_installs,
                p.local_deliveries
            );
            // Keep progress visible when stdout is a file or CI pipe.
            let _ = std::io::stdout().flush();
            if nodes == 3 && backend == HarnessBackend::Wal {
                wal3_sync_per_entry = p.sync_per_entry;
            }
            points.push(p);
        }
    }
    println!(
        "\n3-node wal group-commit amortization: {wal3_sync_per_entry:.4} \
         fsync barriers per committed entry per node (bar: < 1.0)"
    );
    write_summary(&points, ops_per_client).expect("write bench summary");
    assert!(
        wal3_sync_per_entry < 1.0,
        "wal group commit must amortize below one sync per entry, got {wal3_sync_per_entry:.4}"
    );
}

/// Writes the JSON summary CI uploads as the perf-trajectory artifact.
fn write_summary(points: &[Point], ops_per_client: u64) -> std::io::Result<()> {
    let header = [
        ("clients", CLIENTS.to_string()),
        ("ops_per_client", ops_per_client.to_string()),
    ];
    let rows: Vec<Vec<Field>> = points
        .iter()
        .map(|p| {
            vec![
                ("nodes", p.nodes.to_string()),
                ("backend", format!("\"{}\"", p.backend)),
                ("total_ops", p.total_ops.to_string()),
                ("ns_per_op", format!("{:.0}", p.ns_per_op)),
                ("ops_per_ms", format!("{:.3}", p.ops_per_ms)),
                ("sync_per_entry", format!("{:.4}", p.sync_per_entry)),
                ("redirects", p.redirects.to_string()),
                ("stale_confirmed", p.stale_confirmed.to_string()),
                ("elections", p.elections.to_string()),
                ("snapshot_installs", p.snapshot_installs.to_string()),
                ("peak_threads", p.peak_threads.to_string()),
                ("mean_wire_batch", format!("{:.2}", p.mean_wire_batch)),
                ("local_deliveries", p.local_deliveries.to_string()),
                (
                    "idle_wakeups_per_sec",
                    format!("{:.2}", p.idle_wakeups_per_sec),
                ),
            ]
        })
        .collect();
    recraft_bench::write_summary("cluster_harness", &header, &rows)
}
