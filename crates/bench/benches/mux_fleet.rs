//! Fleet scale on a fixed thread budget: hundreds of ranges over loopback
//! TCP, hosted by the sharded driver runtime instead of thread-per-node.
//!
//! Boots a 128-range (64 in smoke), replication-3 `wal` fleet — 384 raft
//! nodes — on a worker pool sized to the host's cores, then runs the full
//! autonomy loop against it: hot-range clients concentrate load on the
//! first range until the controller splits it (staffing joiners from the
//! runtime), a follower of the new child is killed and restarted from its
//! WAL mid-campaign, and the idle fleet merges the children back down to
//! the boot range count. A second, zipfian wave then spreads power-law
//! load across the whole keyspace while the control plane's seat
//! rebalancer migrates hot shards between workers. The run asserts its own
//! acceptance bars: every client finishes and confirms exactly-once, at
//! least one split and one merge complete, cross-worker replication actually
//! multiplexes (mux batch counters nonzero), the idle fleet wakes at
//! least 10x less often than the retired 500 µs sweep loop did, the
//! post-rebalance max/mean worker load ratio sits at or below 2.0, and
//! the whole process stays within `2 x cores + small constant` OS threads
//! at peak — the number thread-per-node could never meet at this range
//! count. It also reports how long the fleet takes from launch until every
//! boot range leads (`boot_led_ms`).
//!
//! Run with: `cargo bench -p recraft-bench --bench mux_fleet`
//! (`BENCH_SMOKE=1` halves the range count and shortens the load for CI
//! smoke). A machine-readable summary lands in
//! `target/bench-summaries/BENCH_mux_fleet.json`.

use recraft_cluster::{
    os_thread_count, ClientOptions, Cluster, ControlOptions, ControlPlane, FleetSpec, FleetView,
    HarnessBackend,
};
use recraft_fleet::FleetConfig;
use recraft_types::{ClusterId, SessionId};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 8;

struct Scale {
    ranges: usize,
    replication: usize,
    ops_per_client: u64,
}

struct Outcome {
    nodes: usize,
    workers: usize,
    cores: usize,
    threads_baseline: usize,
    threads_boot: usize,
    threads_peak: usize,
    boot_led_ms: u128,
    total_ops: u64,
    ops_per_ms: f64,
    wall_ms: u128,
    splits: u64,
    merges: u64,
    staffed: u64,
    reaped: u64,
    wire_batches: u64,
    wire_envelopes: u64,
    mean_wire_batch: f64,
    /// Envelopes the runtime stepped in the round that produced them.
    local_deliveries: u64,
    idle_wakeups_per_sec: f64,
    shard_imbalance: f64,
    seat_migrations: u64,
}

/// What the retired sweep loop cost at idle: every worker re-polled its
/// whole shard each `IDLE_PARK` (500 µs) park, wakeups with zero work to
/// do. The readiness loop must beat this by at least 10x.
const SWEEP_BASELINE_WAKEUPS_PER_SEC: f64 = 2_000.0;

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + timeout;
    while Instant::now() < end {
        if f() {
            return true;
        }
        thread::sleep(Duration::from_millis(50));
    }
    f()
}

fn run(scale: &Scale) -> Outcome {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads_baseline = os_thread_count().expect("/proc thread count");

    let mut fleet = FleetSpec::new(scale.ranges, scale.replication, HarnessBackend::Wal);
    fleet.fsync = false;
    // At least two workers so worker-pair multiplexing engages even on a
    // single-core host; otherwise the pool tracks the machine.
    fleet.workers = Some(cores.max(2));
    // Size election timeouts to the deployment: a worker round visits every
    // node in its shard, so with hundreds of nodes per worker the timeout
    // has to dominate a full round plus scheduling jitter, not just the
    // microsecond loopback broadcast.
    fleet.timing.election_timeout_min = 1_500_000;
    fleet.timing.election_timeout_max = 3_000_000;
    fleet.timing.heartbeat_interval = 300_000;
    let launched = Instant::now();
    let cluster = Arc::new(Cluster::launch_fleet(&fleet));
    let workers = cluster.worker_count();
    for r in 1..=scale.ranges {
        assert!(
            cluster
                .wait_for_leader_of(ClusterId(r as u64), Duration::from_secs(120))
                .is_some(),
            "boot range {r} never led:\n{}",
            cluster.debug_dump()
        );
    }
    // Every range's smallest id campaigns in the round that seats it, so
    // the whole fleet leads after a vote round per range, not a timeout.
    let boot_led_ms = launched.elapsed().as_millis();
    // The fleet-attributable thread bill: the worker pool, nothing per-node.
    let threads_boot = os_thread_count().expect("/proc thread count");
    assert!(
        threads_boot.saturating_sub(threads_baseline) <= workers + 2,
        "{} nodes cost {} extra threads on a {workers}-worker pool",
        scale.ranges * scale.replication,
        threads_boot.saturating_sub(threads_baseline)
    );

    // Idle-wakeup bar, measured before any load or control plane exists:
    // every seat is quiescent (leaders heartbeat at 300 ms; elections are
    // settled), so the readiness loop should wake only on deadlines. A
    // 10x drop from the sweep loop's park cadence is the acceptance floor;
    // in practice deadline-driven waits land orders of magnitude lower.
    let idle_window = Duration::from_secs(2);
    let w0 = cluster.wire_stats();
    thread::sleep(idle_window);
    let w1 = cluster.wire_stats();
    let idle_wakeups_per_sec =
        (w1.idle_wakeups - w0.idle_wakeups) as f64 / idle_window.as_secs_f64();
    let idle_ceiling = workers as f64 * SWEEP_BASELINE_WAKEUPS_PER_SEC / 10.0;
    assert!(
        idle_wakeups_per_sec <= idle_ceiling,
        "idle fleet woke {idle_wakeups_per_sec:.0}/s — less than a 10x drop from the \
         {SWEEP_BASELINE_WAKEUPS_PER_SEC:.0}/s-per-worker sweep baseline ({workers} workers)"
    );

    // Peak sampler: one extra thread recording the process-wide high-water
    // mark while the campaign runs.
    let peak = Arc::new(AtomicUsize::new(threads_boot));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, stop) = (Arc::clone(&peak), Arc::clone(&stop));
        thread::Builder::new()
            .name("thread-peak".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(n) = os_thread_count() {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_millis(50));
                }
            })
            .expect("spawn sampler")
    };

    let view = FleetView::new(cluster.net());
    let plane = ControlPlane::spawn(
        Arc::clone(&cluster),
        Arc::clone(&view),
        ControlOptions {
            fleet: FleetConfig {
                split_ops: 60,
                merge_ops: 8,
                split_bytes: 64 << 20,
                merge_bytes: 16 << 20,
                cooldown_us: 2_000_000,
                stall_us: 600_000_000,
                max_inflight: 1,
                replication: scale.replication,
                // Floor at the boot count: the only merges available are the
                // ones that undo the campaign's splits, so the bench proves
                // both directions without collapsing the whole fleet.
                min_ranges: scale.ranges,
                max_ranges: scale.ranges + 2,
            },
            interval: Duration::from_millis(200),
            next_cluster: scale.ranges as u64 + 1,
        },
    );

    // Hot-range load: every key sits below the first range boundary
    // (`key_space / ranges` keys in), so one range carries the whole fleet's
    // traffic and is the one the controller splits.
    let opts = ClientOptions {
        ops: scale.ops_per_client,
        window: 4,
        value_size: 64,
        key_count: 64,
        read_timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(600),
        view: Some(Arc::clone(&view)),
        ..ClientOptions::default()
    };
    let started = Instant::now();
    let load = {
        let c = Arc::clone(&cluster);
        let opts = opts.clone();
        thread::Builder::new()
            .name("fleet-load".into())
            .spawn(move || c.run_clients(CLIENTS, &opts))
            .expect("spawn load thread")
    };

    // The split: child clusters appear and lead. Capture the first child's
    // leader immediately — the kill below must land while it exists.
    let child = ClusterId(scale.ranges as u64 + 1);
    let leader = cluster
        .wait_for_leader_of(child, Duration::from_secs(180))
        .unwrap_or_else(|| panic!("child {child:?} never led:\n{}", cluster.debug_dump()));

    // Kill a follower of the child mid-load, then reboot it from its WAL
    // onto a fresh shard seat and port — the campaign must ride through it.
    if let Some(victim) = cluster
        .members_of(child)
        .keys()
        .copied()
        .find(|n| *n != leader)
    {
        assert!(cluster.kill(victim), "victim {victim:?} was not running");
        thread::sleep(Duration::from_millis(700));
        cluster.restart(victim);
    }

    let fleet_run = load.join().expect("client threads");
    let wall_ms = started.elapsed().as_millis();
    let unfinished = fleet_run.reports.iter().filter(|r| !r.completed).count();
    assert_eq!(
        unfinished,
        0,
        "{unfinished} of {CLIENTS} clients missed the deadline:\n{}",
        cluster.debug_dump()
    );
    let total_ops = CLIENTS * scale.ops_per_client;
    assert_eq!(fleet_run.confirmed_ops(), total_ops);

    // The merge: idle, the controller folds the children back down to the
    // boot range count and the plane reaps the retirements. The boot count
    // alone proves nothing — the directory holds it until the plane has
    // published the split, and on a slow box may hold it again before this
    // thread looks — so also require a cluster id the boot never assigned:
    // children and merge products are numbered past the boot range, and
    // once one is published one stays.
    let boot_ids = scale.ranges as u64;
    assert!(
        wait_until(Duration::from_secs(180), || view.with_directory(|d| {
            d.len() == scale.ranges && d.clusters().keys().any(|c| c.0 > boot_ids)
        })),
        "fleet never merged back to {} ranges (directory v{}):\n{}",
        scale.ranges,
        view.version(),
        cluster.debug_dump()
    );

    // Phase 2 — the zipfian campaign: a second wave (fresh sessions)
    // spreads power-law-skewed load across the whole keyspace, so every
    // range sees traffic but the low ranges run hot. The control plane is
    // still up: its rebalancer differences the per-seat step/byte counters
    // every round and migrates hot seats off overloaded workers while the
    // wave runs.
    let zipf_opts = ClientOptions {
        ops: scale.ops_per_client / 2,
        window: 4,
        value_size: 64,
        key_count: 10_000,
        key_skew: 2.0,
        read_timeout: Duration::from_secs(10),
        deadline: Duration::from_secs(600),
        session_base: 100,
        view: Some(Arc::clone(&view)),
    };
    let zipf_run = cluster.run_clients(CLIENTS, &zipf_opts);
    assert!(
        zipf_run.all_completed(),
        "zipfian wave incomplete: {:?}\n{}",
        zipf_run.reports,
        cluster.debug_dump()
    );

    let report = plane.stop();
    let (splits, merges, staffed) = report.planned;
    assert!(
        splits >= 1 && merges >= 1,
        "campaign must complete a split and a merge: {report:?}"
    );
    // Post-rebalance balance bar: the last loaded round the rebalancer
    // measured (its moves from earlier rounds already applied) must sit at
    // or below a 2.0 max/mean worker-load ratio.
    assert!(
        report.imbalance > 0.0,
        "rebalancer never measured a loaded round: {report:?}"
    );
    assert!(
        report.imbalance <= 2.0,
        "post-rebalance shard load ratio {:.2} above the 2.0 bar: {report:?}",
        report.imbalance
    );

    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");
    let threads_peak = peak.load(Ordering::Relaxed);
    // Everything in flight at once: workers + clients + load/plane/sampler
    // bookkeeping. Still a fixed budget, never a function of range count.
    assert!(
        threads_peak.saturating_sub(threads_baseline) <= 2 * cores + CLIENTS as usize + 8,
        "peak {} threads over a {threads_baseline} baseline on {cores} cores",
        threads_peak
    );

    let wire = cluster.wire_stats();
    assert!(wire.batches > 0, "no mux batches on a multi-worker fleet");

    // Exactly-once across the surviving fleet. A session's ops can straddle
    // the split children, and the merge that restores the range floor is
    // free to fold a child into a neighbor rather than its sibling — so a
    // session's tail may live in any surviving cluster. The fleet-wide max
    // reaching each client's op count is the exactly-once witness.
    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    for c in 0..CLIENTS {
        let last = nodes
            .iter()
            .filter_map(|n| n.sessions().last_seq(SessionId(c)))
            .max();
        assert_eq!(
            last,
            Some(scale.ops_per_client),
            "session {c}: last_seq {last:?}"
        );
        // The zipfian wave's sessions (offset by its session_base).
        let last2 = nodes
            .iter()
            .filter_map(|n| n.sessions().last_seq(SessionId(100 + c)))
            .max();
        assert_eq!(
            last2,
            Some(zipf_opts.ops),
            "zipf session {c}: last_seq {last2:?}"
        );
    }

    Outcome {
        nodes: scale.ranges * scale.replication,
        workers,
        cores,
        threads_baseline,
        threads_boot,
        threads_peak,
        boot_led_ms,
        total_ops,
        ops_per_ms: total_ops as f64 / wall_ms.max(1) as f64,
        wall_ms,
        splits,
        merges,
        staffed,
        reaped: report.reaped,
        wire_batches: wire.batches,
        wire_envelopes: wire.batched_envelopes,
        mean_wire_batch: wire.mean_batch(),
        local_deliveries: wire.local_deliveries,
        idle_wakeups_per_sec,
        shard_imbalance: report.imbalance,
        seat_migrations: report.migrations,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let scale = if smoke {
        Scale {
            ranges: 64,
            replication: 3,
            ops_per_client: 400,
        }
    } else {
        Scale {
            ranges: 128,
            replication: 3,
            ops_per_client: 1_500,
        }
    };
    println!(
        "=== Mux fleet: {} ranges x {} replicas on a fixed worker pool ===",
        scale.ranges, scale.replication
    );
    println!(
        "    ({CLIENTS} hot-range clients x {} ops, wal backend{})\n",
        scale.ops_per_client,
        if smoke { ", smoke scale" } else { "" }
    );
    let o = run(&scale);
    println!(
        "{} nodes on {} workers ({} cores): threads {} -> {} boot -> {} peak; every range led {} ms after launch",
        o.nodes, o.workers, o.cores, o.threads_baseline, o.threads_boot, o.threads_peak, o.boot_led_ms
    );
    println!(
        "{} ops in {} ms ({:.2} ops/ms); splits {}, merges {}, staffed {}, reaped {}",
        o.total_ops, o.wall_ms, o.ops_per_ms, o.splits, o.merges, o.staffed, o.reaped
    );
    println!(
        "wire: {} mux batches carrying {} envelopes ({:.2} envelopes/batch); {} stepped in-round",
        o.wire_batches, o.wire_envelopes, o.mean_wire_batch, o.local_deliveries
    );
    println!(
        "idle: {:.1} wakeups/s across {} workers (sweep baseline {:.0}/s/worker)",
        o.idle_wakeups_per_sec, o.workers, SWEEP_BASELINE_WAKEUPS_PER_SEC
    );
    println!(
        "rebalance: shard load ratio {:.2} after {} seat migration(s)",
        o.shard_imbalance, o.seat_migrations
    );
    let _ = std::io::stdout().flush();
    write_summary(&scale, &o, smoke).expect("write bench summary");
}

/// Writes the JSON summary CI uploads as the perf-trajectory artifact.
fn write_summary(scale: &Scale, o: &Outcome, smoke: bool) -> std::io::Result<()> {
    let header = [
        ("smoke", smoke.to_string()),
        ("ranges", scale.ranges.to_string()),
        ("replication", scale.replication.to_string()),
        ("nodes", o.nodes.to_string()),
        ("clients", CLIENTS.to_string()),
        ("ops_per_client", scale.ops_per_client.to_string()),
        ("workers", o.workers.to_string()),
        ("cores", o.cores.to_string()),
        ("threads_baseline", o.threads_baseline.to_string()),
        ("threads_boot", o.threads_boot.to_string()),
        ("threads_peak", o.threads_peak.to_string()),
        ("boot_led_ms", o.boot_led_ms.to_string()),
        ("total_ops", o.total_ops.to_string()),
        ("ops_per_ms", format!("{:.3}", o.ops_per_ms)),
        ("wall_ms", o.wall_ms.to_string()),
        ("splits", o.splits.to_string()),
        ("merges", o.merges.to_string()),
        ("staffed", o.staffed.to_string()),
        ("reaped", o.reaped.to_string()),
        ("wire_batches", o.wire_batches.to_string()),
        ("wire_envelopes", o.wire_envelopes.to_string()),
        ("mean_wire_batch", format!("{:.2}", o.mean_wire_batch)),
        ("local_deliveries", o.local_deliveries.to_string()),
        (
            "idle_wakeups_per_sec",
            format!("{:.2}", o.idle_wakeups_per_sec),
        ),
        ("shard_imbalance", format!("{:.3}", o.shard_imbalance)),
        ("seat_migrations", o.seat_migrations.to_string()),
    ];
    recraft_bench::write_summary("mux_fleet", &header, &[])
}
