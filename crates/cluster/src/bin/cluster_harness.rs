//! Run one real loopback-TCP cluster under open-loop client load.
//!
//! ```text
//! cluster_harness [--nodes N] [--clients N] [--ops N] [--backend mem|wal]
//!                 [--value-size BYTES] [--window N] [--read-timeout-ms MS]
//!                 [--no-fsync]
//! ```
//!
//! `--ops` is the per-client operation count. The run boots the cluster,
//! waits for a leader, drives every client to completion, verifies
//! exactly-once delivery against the session table, and prints throughput
//! plus WAL sync amortization. Calibrated latency and CPU numbers come from
//! the repo benchmark (`benchmark/`), not from this binary.

use recraft_cluster::{verify_sessions, ClientOptions, Cluster, ClusterSpec, HarnessBackend};
use std::time::Duration;

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = arg(&args, "--nodes", 3);
    let clients: u64 = arg(&args, "--clients", 64);
    let ops: u64 = arg(&args, "--ops", 100);
    let backend = HarnessBackend::parse(&arg(&args, "--backend", "mem".to_string()))
        .expect("--backend must be mem or wal");
    let mut spec = ClusterSpec::new(nodes, backend);
    spec.fsync = !args.iter().any(|a| a == "--no-fsync");
    let opts = ClientOptions {
        ops,
        window: arg(&args, "--window", 8),
        value_size: arg(&args, "--value-size", 512),
        // Under open-loop saturation a response can legitimately queue for
        // seconds; a timeout below that turns queueing into reconnect
        // storms. Size it to the expected backlog drain time.
        read_timeout: Duration::from_millis(arg(&args, "--read-timeout-ms", 10_000)),
        ..ClientOptions::default()
    };

    println!(
        "booting {nodes} node(s) on {} (fsync: {}) ...",
        backend.as_str(),
        spec.fsync && backend == HarnessBackend::Wal
    );
    let cluster = Cluster::launch(&spec);
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("no leader elected within 10s");
    println!("leader: node {}", leader.0);
    println!(
        "driving {clients} open-loop client(s) x {ops} ops (window {}, {} B values) ...",
        opts.window, opts.value_size
    );
    let run = cluster.run_clients(clients, &opts);
    assert!(
        run.all_completed(),
        "{} of {clients} clients missed the deadline",
        run.reports.iter().filter(|r| !r.completed).count()
    );

    let elections = cluster.elections();
    let installs = cluster.snapshot_installs();
    let nodes_back = cluster.shutdown();
    verify_sessions(&nodes_back, clients, ops);

    let total_ops = clients * ops;
    let elapsed_ns = run.elapsed.as_nanos() as f64;
    let syncs: u64 = nodes_back.iter().map(|n| n.log().sync_count()).sum();
    let committed = nodes_back
        .iter()
        .map(|n| n.commit_index().0)
        .max()
        .unwrap_or(0);
    let sync_per_entry = if committed > 0 {
        syncs as f64 / (committed as f64 * nodes_back.len() as f64)
    } else {
        0.0
    };
    let redirects: u64 = run.reports.iter().map(|r| r.redirects).sum();
    println!("\n=== results ===");
    println!("total ops          {total_ops}");
    println!("elapsed            {:.3} s", elapsed_ns / 1e9);
    println!(
        "throughput         {:.1} op/ms",
        total_ops as f64 / (elapsed_ns / 1e6)
    );
    println!(
        "latency (open)     {:.0} ns/op",
        elapsed_ns / total_ops as f64
    );
    println!("committed index    {committed}");
    println!("sync/entry         {sync_per_entry:.4}");
    println!("redirects          {redirects}");
    println!("elections          {elections}");
    println!("snapshot installs  {installs}");
    println!("exactly-once: every session's last_seq == {ops} ✓");
}
