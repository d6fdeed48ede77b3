//! The socket run: a real `recraft_cluster::Cluster` on loopback TCP, driven
//! by the benchmark's generator, measured from outside.
//!
//! End-to-end metrics come from here and only from here (tracing off). The
//! per-layer numbers this file reports are the generator's own latency
//! record and public accessors differenced over the steady fixed-rate
//! phase — `wire_stats`, `seat_loads`, `elections`, `snapshot_installs`,
//! `os_thread_count`, `data_root`, `fetch_stats`, and after `shutdown()`
//! each node's `log().sync_count()` / `last_index()`.

use crate::gen::{Generator, Load, PhaseStats, Shared, LATENCY_LIMIT};
use crate::reconfig::{self, CycleReport, Script};
use crate::schedule::{self, Schedule, KEYS, SESSIONS};
use crate::sys;
use crate::{Metrics, Workload};
use recraft_cluster::{AdminClient, Cluster, ClusterSpec, HarnessNode};
use recraft_core::{LogStore, Role};
use recraft_net::AdminCmd;
use recraft_types::{NodeId, SessionId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads hosting the fleet. Nodes are seated round-robin, so with
/// two workers placement is deterministic: odd ids on worker 0, even on 1.
pub const WORKERS: usize = 2;
/// The node every workload pins leadership on after boot.
const LEADER: NodeId = NodeId(1);
/// Boots per untraced run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Closed-loop operations of the workload's mix that follow the preload.
const WARMUP_OPS: u64 = 2_000;
/// Log length at which nodes would snapshot and compact: never, within a
/// run. With `Timing::default()`'s 4096 every node writes a ~5 MB image every
/// 4096 entries, co-hosted nodes stall each other past the election timeout,
/// and a follower whose acks lag two heartbeats is rewound below the
/// compaction base — after which the parent commit's leader re-sends the
/// whole snapshot once per client request. Runs with it are bimodal (see
/// README, hazards), so socket runs switch compaction off; the traced run
/// keeps the default and reports what snapshots cost.
const NO_COMPACTION: usize = 1 << 20;
/// Share of `--seconds` the steady fixed-rate phase gets on the steady
/// workloads; the closed-loop saturation phase gets the rest.
const FIXED_SHARE: f64 = 0.8;
/// Shares of `--seconds` `wal6-reconfig` spends in its steady phase and
/// under the reconfiguration cycles (saturation gets the rest).
const STEADY_SHARE: f64 = 0.35;
const RECONFIG_SHARE: f64 = 0.55;
/// Offered rate under the reconfiguration cycles. Low on purpose: the
/// protocol blocks writes for whole steps (merge exchange, `AddAndResize`
/// until two joiners hold the snapshot), and the backlog an open loop builds
/// up meanwhile must drain before the next step for steps to be comparable.
const RECONFIG_RATE: f64 = 100.0;

/// Fleet-wide cumulative counters, summed over the live seats.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetSums {
    pub elections: u64,
    pub snapshot_installs: u64,
    pub steps: u64,
    pub bytes: u64,
}

impl FleetSums {
    pub fn read(cluster: &Cluster) -> FleetSums {
        let loads = cluster.seat_loads();
        FleetSums {
            elections: cluster.elections(),
            snapshot_installs: cluster.snapshot_installs(),
            steps: loads.iter().map(|l| l.steps).sum(),
            bytes: loads.iter().map(|l| l.bytes).sum(),
        }
    }

    /// What `self` (read before seats were destroyed) lost relative to
    /// `after`, accumulated into `into`.
    pub fn credit_lost(self, after: FleetSums, into: &mut FleetSums) {
        into.elections += self.elections.saturating_sub(after.elections);
        into.snapshot_installs += self
            .snapshot_installs
            .saturating_sub(after.snapshot_installs);
        into.steps += self.steps.saturating_sub(after.steps);
        into.bytes += self.bytes.saturating_sub(after.bytes);
    }
}

/// What the socket run hands to `main` beyond the metrics.
pub struct SocketRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Process CPU per confirmed fixed-rate operation, µs (the traced run
    /// subtracts its per-layer self times from it).
    pub cpu_us_per_op: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Boots the workload's cluster, waits for its election and pins leadership
/// onto node 1, so the leader always sits on worker 0 (with the other odd
/// ids) and reaches the even ids over the mux connection — same-worker peers
/// bypass the mux, and the generator shares a cpu with worker 1, so an
/// unpinned leader would make the wire metrics and `cpu_ms_per_kop` depend
/// on who won the election.
fn boot(w: &Workload) -> (Cluster, f64) {
    let began = Instant::now();
    let mut spec = ClusterSpec::new(w.nodes, w.backend);
    spec.workers = Some(WORKERS);
    spec.timing.compaction_threshold = NO_COMPACTION;
    let cluster = Cluster::launch(&spec);
    // One worker per cpu, the generator (and the threads it spawns for
    // `wal6-reconfig`) beside the follower-only worker. Unpinned, which
    // threads share a core is decided anew every run and the wake-ups that
    // cross cores are paid as system time: `cpu_ms_per_kop` then spreads by
    // a third on `mem3-write` and `wal3-write` alike. On `wal` pinning costs
    // some latency and saturation throughput (the kernel's journal and
    // I/O-completion threads want the same cores); the bounded metrics are
    // steadier for it, and the latency ones are per-layer.
    let cpus = thread::available_parallelism().map_or(1, usize::from);
    sys::pin_threads_named("recraft-worker", cpus);
    sys::pin_thread(0, cpus - 1);
    cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("boot election");
    let addr = cluster.addrs()[&LEADER];
    let mut admin = AdminClient::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Leadership is confirmed by the node itself accepting a no-op.
        if admin.send_one(addr, LEADER, AdminCmd::ProposeNoop) == Some(Ok(())) {
            return (cluster, began.elapsed().as_secs_f64());
        }
        assert!(
            Instant::now() < deadline,
            "could not pin leadership on node 1"
        );
        let _ = admin.send_one(addr, LEADER, AdminCmd::Campaign);
        thread::sleep(Duration::from_millis(30));
    }
}

/// Everything measured around one open-loop phase.
struct Phase {
    stats: PhaseStats,
    /// When the phase began offering load.
    began: Instant,
    cpu: Duration,
    wire: (recraft_cluster::WireStats, recraft_cluster::WireStats),
    sums: (FleetSums, FleetSums),
    /// Counters of seats the script destroyed while the phase ran.
    lost: FleetSums,
    commit: (u64, u64),
    cycles: Vec<CycleReport>,
    peak_threads: usize,
    script_error: Option<String>,
}

fn leader_commit(cluster: &Cluster, admin: &mut AdminClient) -> u64 {
    cluster
        .wait_for_leader(Duration::ZERO)
        .and_then(|l| {
            let addr = *cluster.addrs().get(&l)?;
            admin.fetch_stats(addr, l)
        })
        .map_or(0, |s| s.commit)
}

/// Offers `schedule` for `duration` and differences the public accessors
/// around it. With `cycles > 0` the reconfiguration script and the route
/// keeper run on two more threads for the length of the phase.
fn open_phase(
    cluster: &Cluster,
    shared: &Shared,
    gen: &mut Generator,
    schedule: &mut Schedule,
    duration: Duration,
    cycles: u32,
) -> Phase {
    let mut admin = AdminClient::new(3);
    let commit0 = leader_commit(cluster, &mut admin);
    let sums0 = FleetSums::read(cluster);
    let wire0 = cluster.wire_stats();
    let cpu0 = sys::cpu_time();
    let stop = AtomicBool::new(false);
    let scripting = AtomicBool::new(cycles > 0);
    let t0 = Instant::now();
    let (stats, script) = thread::scope(|scope| {
        let script = (cycles > 0).then(|| {
            let keeper = scope.spawn(|| reconfig::route_keeper(cluster, shared, &stop));
            let script = scope.spawn(|| {
                let mut s = Script::new(cluster, shared);
                let outcome = s.run(t0, cycles);
                scripting.store(false, Ordering::Release);
                (outcome, s.lost, s.peak_threads)
            });
            (keeper, script)
        });
        let stats = gen.run(Load::Open {
            schedule,
            duration,
            hold_open: Some(&scripting),
        });
        let script = script.map(|(keeper, script)| {
            let out = script.join().expect("script thread panicked");
            stop.store(true, Ordering::Relaxed);
            keeper.join().expect("route keeper panicked");
            out
        });
        (stats, script)
    });
    let cpu = sys::cpu_time() - cpu0;
    let wire1 = cluster.wire_stats();
    let sums1 = FleetSums::read(cluster);
    let commit1 = leader_commit(cluster, &mut admin);
    let (cycles, lost, threads, script_error) = match script {
        Some((Ok(cycles), lost, threads)) => (cycles, lost, threads, None),
        Some((Err(e), lost, threads)) => (Vec::new(), lost, threads, Some(e)),
        None => (Vec::new(), FleetSums::default(), 0, None),
    };
    Phase {
        stats,
        began: t0,
        cpu,
        wire: (wire0, wire1),
        sums: (sums0, sums1),
        lost,
        commit: (commit0, commit1),
        cycles,
        peak_threads: threads.max(recraft_cluster::os_thread_count().unwrap_or(0)),
        script_error,
    }
}

/// Over-limit (or failed) operations due inside `window`, as milliseconds of
/// offered load.
fn unavail_ms(stats: &PhaseStats, window: (Instant, Instant), rate: f64) -> f64 {
    let n = stats
        .slow
        .iter()
        .filter(|(due, _)| *due >= window.0 && *due <= window.1)
        .count();
    n as f64 / rate * 1e3
}

/// Over-limit (or failed) operations of a steady phase that began at
/// `began`, counted as its median one-second window times the number of
/// windows. On the shared host's disk a `wal` run now and then stalls for
/// whole seconds; counted this way a stall costs the seconds it hits, not
/// the run, while a system that misses the limit most of the time still
/// reads as missing it.
fn steady_over_limit(slow: &[(Instant, Duration)], began: Instant, duration: Duration) -> u64 {
    let windows = duration.as_secs().max(1) as usize;
    let width = duration.as_secs_f64() / windows as f64;
    let mut over = vec![0u64; windows];
    for (due, _) in slow {
        let at = due.saturating_duration_since(began).as_secs_f64();
        over[((at / width) as usize).min(windows - 1)] += 1;
    }
    over.sort_unstable();
    over[windows / 2] * windows as u64
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    ratio(v.iter().sum(), v.len() as f64)
}

/// The correctness gate over the nodes `shutdown()` returned. Every miss is
/// one line in the result.
fn verify(nodes: &[HarnessNode], gen: &Generator) -> Vec<String> {
    let mut misses = gen.violations.clone();
    let serving: Vec<&HarnessNode> = nodes.iter().filter(|n| n.role() != Role::Removed).collect();
    let Some(top) = serving.iter().map(|n| n.applied_index()).max() else {
        return vec!["no serving node survived to shutdown".into()];
    };
    // Every fully caught-up replica must agree — after `wal6-reconfig` that
    // includes nodes that were killed, restarted from their WAL and re-fed.
    let current: Vec<&&HarnessNode> = serving
        .iter()
        .filter(|n| n.applied_index() == top)
        .collect();
    for node in &current {
        for s in 0..SESSIONS {
            let owns_maybe = gen.maybe.keys().any(|k| schedule::owner_of(*k) == s);
            let want = gen.last_write_seq(s);
            let got = node.sessions().last_seq(SessionId(s)).unwrap_or(0);
            if got != want && !owns_maybe {
                misses.push(format!(
                    "node {}: session {s} last_seq {got}, generator confirmed {want}",
                    node.id().0
                ));
            }
        }
        for key in 0..KEYS {
            let owner = schedule::owner_of(key);
            let resident = node.state_machine().get(&schedule::key_bytes(key));
            let matches =
                |seq: u64| resident.is_some_and(|v| v[..] == schedule::value_bytes(owner, seq)[..]);
            let ok = matches(gen.confirmed[key as usize])
                || gen.maybe.get(&key).is_some_and(|seq| matches(*seq));
            if !ok {
                let held = resident.map_or_else(
                    || "nothing".to_string(),
                    |v| String::from_utf8_lossy(&v[..v.len().min(20)]).into_owned(),
                );
                misses.push(format!(
                    "node {}: key {key} holds {held}, its owner s{owner} confirmed write seq {}",
                    node.id().0,
                    gen.confirmed[key as usize]
                ));
            }
        }
    }
    println!(
        "gate: {} of {} serving nodes fully applied (index {}) and checked; {} keys, {} sessions",
        current.len(),
        serving.len(),
        top.0,
        KEYS,
        SESSIONS
    );
    misses.truncate(20);
    misses
}

/// A booted, preloaded and warmed-up cluster with the generator that did it.
struct SetUp {
    cluster: Cluster,
    shared: Arc<Shared>,
    gen: Generator,
    /// Launch → leadership confirmed on node 1, seconds.
    boot_s: f64,
    /// Preload + warm-up, seconds.
    preload_s: f64,
    /// Value bytes the set-up wrote.
    user_bytes: u64,
}

fn set_up(w: &Workload, seed: u64) -> SetUp {
    let (cluster, boot_s) = boot(w);
    let began = Instant::now();
    let shared = Arc::new(Shared::new(reconfig::boot_routes(&cluster, LEADER)));
    let mut gen = Generator::new(Arc::clone(&shared));
    let preload = gen.run(Load::Preload);
    let mut mix = Schedule::new(seed ^ 0x5EED_0001, w.rate, w.read_pct);
    let warmup = gen.run(Load::ClosedOps {
        schedule: &mut mix,
        ops: WARMUP_OPS,
    });
    assert_eq!(
        preload.failed + warmup.failed,
        0,
        "set-up operations failed their deadline"
    );
    SetUp {
        cluster,
        shared,
        gen,
        boot_s,
        preload_s: began.elapsed().as_secs_f64(),
        user_bytes: preload.user_bytes + warmup.user_bytes,
    }
}

/// Runs the workload over sockets. End-to-end metrics are only reported
/// from untraced runs; a traced run boots once (`setup_s` is not reported
/// there) and is otherwise the same run.
///
/// Every workload has a steady fixed-rate phase, which is where the latency
/// percentiles, `cpu_ms_per_kop` and the wire counters come from, and ends
/// with a closed-loop saturation phase. On `wal6-reconfig` the
/// reconfiguration cycles run in between, under a second, slower fixed-rate
/// phase ([`RECONFIG_RATE`]) — so its percentiles describe the 6-node
/// cluster between reconfigurations, and `within_limit_pct` (over the
/// scheduled operations of both fixed-rate phases, the steady one entering
/// by its median second — see [`steady_over_limit`]) plus the per-layer
/// step metrics describe what the reconfigurations cost.
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> SocketRun {
    let total = Duration::from_secs(seconds);
    let (steady_for, reconfig_for) = if w.reconfig {
        (total.mul_f64(STEADY_SHARE), total.mul_f64(RECONFIG_SHARE))
    } else {
        (total.mul_f64(FIXED_SHARE), Duration::ZERO)
    };
    let sat_for = total - steady_for - reconfig_for;
    let cycles = if w.reconfig {
        let room = reconfig_for.saturating_sub(reconfig::FIRST_CYCLE_AT);
        ((room.as_secs_f64() / reconfig::CYCLE.as_secs_f64()) as u32).max(1)
    } else {
        0
    };

    // Boot several times and report the median; measure on the last one.
    let mut setup_s: Vec<f64> = Vec::new();
    for _ in 1..if traced { 1 } else { BOOTS } {
        let (spare, took_s) = boot(w);
        setup_s.push(took_s);
        drop(spare.shutdown());
    }
    let SetUp {
        cluster,
        shared,
        mut gen,
        boot_s,
        preload_s,
        user_bytes: setup_bytes,
    } = set_up(w, seed);
    setup_s.push(boot_s);
    setup_s.sort_by(f64::total_cmp);

    if let Some(root) = cluster.data_root() {
        println!(
            "env: wal on {} at {}, env.fsync_us_p50 {:.1} us over 200 probes",
            sys::fs_type_of(root),
            root.display(),
            sys::fsync_probe_us(root, 200)
        );
    }
    let elections0 = cluster.elections();
    let mut schedule = Schedule::new(seed, w.rate, w.read_pct);
    let steady = open_phase(&cluster, &shared, &mut gen, &mut schedule, steady_for, 0);
    let disturbed = cluster.elections() != elections0;
    let reshaped = w.reconfig.then(|| {
        let mut schedule = Schedule::new(seed ^ 0x5EED_0002, RECONFIG_RATE, w.read_pct);
        open_phase(
            &cluster,
            &shared,
            &mut gen,
            &mut schedule,
            reconfig_for,
            cycles,
        )
    });
    // Saturation last: all 64 sessions re-issue on completion. On
    // `wal6-reconfig` that is the restaffed cluster the cycles left behind.
    let mut schedule = Schedule::new(seed ^ 0x5EED_0003, w.rate, w.read_pct);
    let sat = gen.run(Load::ClosedFor {
        schedule: &mut schedule,
        duration: sat_for,
    });
    let disk_bytes = cluster.data_root().map_or(0, sys::dir_bytes);
    let peak_rss_mb = sys::peak_rss_mb();
    let nodes = cluster.shutdown();

    // ---- the correctness gate ------------------------------------------
    let misses = verify(&nodes, &gen);
    for m in &misses {
        println!("gate MISS: {m}");
    }
    let script_error = reshaped.as_ref().and_then(|p| p.script_error.clone());
    if let Some(e) = &script_error {
        println!("gate MISS: reconfiguration step incomplete: {e}");
    }
    if disturbed {
        println!("disturbed: an election happened inside the steady timed phase");
    }

    let st = &steady.stats;
    let scheduled: Vec<&PhaseStats> = std::iter::once(st)
        .chain(reshaped.as_ref().map(|p| &p.stats))
        .collect();
    let attempted: u64 = scheduled.iter().map(|p| p.attempted).sum();
    let failed: u64 = scheduled.iter().map(|p| p.failed).sum();
    let over: u64 = scheduled.iter().map(|p| p.over_limit).sum();
    let counted_over = steady_over_limit(&st.slow, steady.began, steady_for)
        + reshaped
            .as_ref()
            .map_or(0, |p| p.stats.over_limit + p.stats.failed);
    let ops = st.confirmed as f64;
    let kops = ops / 1e3;
    println!(
        "samples: {} steady operations at {} op/s over {:.1} s ({} beyond p99){}; \
         {} saturation operations over {:.1} s",
        st.latency.count(),
        w.rate,
        steady_for.as_secs_f64(),
        st.latency.count() / 100,
        reshaped.as_ref().map_or(String::new(), |p| format!(
            "; {} operations at {RECONFIG_RATE} op/s under {} reconfiguration cycles over {:.1} s",
            p.stats.latency.count(),
            p.cycles.len(),
            p.stats.span.as_secs_f64(),
        )),
        sat.confirmed_in_span,
        sat.span.as_secs_f64(),
    );
    println!(
        "limit: {} ms; over it {over} of {attempted} scheduled operations \
         ({counted_over} with the steady phase counted by its median second), failed {failed}",
        LATENCY_LIMIT.as_millis(),
    );

    let mut m = Metrics::default();
    // ---- end to end ----------------------------------------------------
    m.e2e("setup_s", setup_s[setup_s.len() / 2], "s");
    m.e2e(
        "within_limit_pct",
        100.0 * (1.0 - ratio(counted_over as f64, attempted as f64)),
        "%",
    );
    // CPU ms per 1000 operations is CPU µs per operation.
    let cpu_us_per_op = ratio(steady.cpu.as_secs_f64() * 1e6, ops);
    m.e2e("cpu_ms_per_kop", cpu_us_per_op, "ms");

    // ---- per layer: generator ------------------------------------------
    m.layer("gen.p50_ms", st.latency.quantile(0.50) / 1e6, "ms");
    m.layer("gen.p99_ms", st.latency.quantile(0.99) / 1e6, "ms");
    m.layer("gen.p999_ms", st.latency.quantile(0.999) / 1e6, "ms");
    m.layer(
        "gen.sat_ops_per_s",
        ratio(sat.confirmed_in_span as f64, sat.span.as_secs_f64()),
        "1/s",
    );
    m.layer("gen.lag_p99_us", st.lag.quantile(0.99) / 1e3, "us");
    m.layer(
        "gen.retries_per_kop",
        ratio(st.retries as f64, kops),
        "1/kop",
    );
    m.layer(
        "gen.redirects_per_kop",
        ratio(st.redirects as f64, kops),
        "1/kop",
    );
    m.layer(
        "gen.wrong_range_per_kop",
        ratio(st.wrong_range as f64, kops),
        "1/kop",
    );
    m.layer("gen.reconnects", st.reconnects as f64, "count");
    m.layer("gen.preload_s", preload_s, "s");

    // ---- per layer: cluster (steady phase) -----------------------------
    let (w0, w1) = steady.wire;
    let (s0, s1) = steady.sums;
    let wakeups = (w1.wakeups - w0.wakeups) as f64;
    let batches = (w1.batches - w0.batches) as f64;
    m.layer("cluster.wakeups_per_op", ratio(wakeups, ops), "1/op");
    m.layer(
        "cluster.idle_wakeup_ratio",
        ratio((w1.idle_wakeups - w0.idle_wakeups) as f64, wakeups),
        "ratio",
    );
    m.layer("cluster.wire_batches_per_op", ratio(batches, ops), "1/op");
    m.layer(
        "cluster.envelopes_per_wire_batch",
        ratio(
            (w1.batched_envelopes - w0.batched_envelopes) as f64,
            batches,
        ),
        "count",
    );
    m.layer(
        "cluster.steps_per_op",
        ratio((s1.steps - s0.steps) as f64, ops),
        "1/op",
    );
    m.layer(
        "cluster.front_door_bytes_per_op",
        ratio((s1.bytes - s0.bytes) as f64, ops),
        "B/op",
    );
    // Elections and installs over both fixed-rate phases; seats the script
    // destroyed are credited back from what it saved.
    let (last, lost) = reshaped
        .as_ref()
        .map_or((s1, FleetSums::default()), |p| (p.sums.1, p.lost));
    m.layer(
        "cluster.elections",
        (last.elections + lost.elections).saturating_sub(s0.elections) as f64,
        "count",
    );
    m.layer(
        "cluster.snapshot_installs",
        (last.snapshot_installs + lost.snapshot_installs).saturating_sub(s0.snapshot_installs)
            as f64,
        "count",
    );
    let peak_threads = reshaped.as_ref().map_or(steady.peak_threads, |p| {
        p.peak_threads.max(steady.peak_threads)
    });
    m.layer("cluster.peak_threads", peak_threads as f64, "count");
    m.layer("cluster.peak_rss_mb", peak_rss_mb, "MiB");
    m.layer(
        "core.entries_per_op",
        ratio(steady.commit.1.saturating_sub(steady.commit.0) as f64, ops),
        "1/op",
    );

    // ---- per layer: the reconfiguration phase --------------------------
    // All zero on the steady workloads, which run no script.
    let none = Vec::new();
    let (cy, rst) = reshaped
        .as_ref()
        .map_or((&none, None), |p| (&p.cycles, Some(&p.stats)));
    let per_cycle = |f: &dyn Fn(&CycleReport) -> f64| mean(cy.iter().map(f));
    let window_unavail = |pick: fn(&CycleReport) -> (Instant, Instant)| {
        mean(
            cy.iter()
                .map(|c| rst.map_or(0.0, |s| unavail_ms(s, pick(c), RECONFIG_RATE))),
        )
    };
    let split_ms = per_cycle(&CycleReport::split_ms);
    let merge_ms = per_cycle(&CycleReport::merge_ms);
    let staff_ms = per_cycle(&CycleReport::staff_ms);
    m.layer(
        "gen.unavail_ms_per_cycle",
        rst.map_or(0.0, |s| {
            ratio(
                (s.over_limit + s.failed) as f64 / RECONFIG_RATE * 1e3,
                cy.len() as f64,
            )
        }),
        "ms",
    );
    m.layer(
        "cluster.failover_ms",
        per_cycle(&CycleReport::failover_ms),
        "ms",
    );
    m.layer(
        "cluster.catchup_ms",
        per_cycle(&CycleReport::catchup_ms),
        "ms",
    );
    m.layer("core.split_ms", split_ms, "ms");
    m.layer("core.merge_ms", merge_ms, "ms");
    m.layer("core.staff_ms", staff_ms, "ms");
    m.layer("core.reconfig_ms", split_ms + merge_ms + staff_ms, "ms");
    m.layer("core.split_unavail_ms", window_unavail(|c| c.split), "ms");
    m.layer("core.merge_unavail_ms", window_unavail(|c| c.merge), "ms");
    m.layer("core.staff_unavail_ms", window_unavail(|c| c.staff), "ms");

    // ---- per layer: storage --------------------------------------------
    let serving = nodes.iter().filter(|n| n.role() != Role::Removed);
    m.layer(
        "storage.syncs_per_entry",
        mean(serving.map(|n| ratio(n.log().sync_count() as f64, n.log().last_index().0 as f64))),
        "1/entry",
    );
    let user_bytes =
        setup_bytes + sat.user_bytes + scheduled.iter().map(|p| p.user_bytes).sum::<u64>();
    m.layer(
        "storage.disk_bytes_per_user_byte",
        ratio(disk_bytes as f64, user_bytes as f64),
        "ratio",
    );

    SocketRun {
        metrics: m,
        attempted: attempted + sat.attempted,
        failed: failed + sat.failed,
        correct: misses.is_empty() && script_error.is_none(),
        cpu_us_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_costs_its_seconds_and_a_slow_system_its_run() {
        let began = Instant::now();
        let slow_at = |ms: u64| (began + Duration::from_millis(ms), LATENCY_LIMIT * 2);
        let eight = Duration::from_secs(8);
        // 300 operations over the limit, all due in seconds 2 and 3 of 8.
        let stall: Vec<_> = (0..300).map(|i| slow_at(2_000 + i * 6)).collect();
        assert_eq!(steady_over_limit(&stall, began, eight), 0);
        // 10 over the limit in every second but the first.
        let always: Vec<_> = (0..70).map(|i| slow_at(1_000 + i * 100)).collect();
        assert_eq!(steady_over_limit(&always, began, eight), 80);
        // A phase shorter than a second is one window.
        assert_eq!(
            steady_over_limit(&stall, began, Duration::from_millis(500)),
            300
        );
    }
}
