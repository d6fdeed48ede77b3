//! The shared driver runtime under a multi-range autonomous campaign: many
//! raft groups on a deliberately tiny worker pool, with kill/restart faults,
//! spare-pool staffing, and retired-WAL reclaim — the deployment shape
//! thread-per-node could not host.

use recraft_cluster::{
    os_thread_count, ClientOptions, ClientsRun, Cluster, ControlOptions, ControlPlane, FleetSpec,
    FleetView, HarnessBackend,
};
use recraft_fleet::FleetConfig;
use recraft_types::{ClusterId, SessionId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Same serialization discipline as the other harness suites: concurrent
/// clusters starve each other's heartbeats on small machines.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// WAL directories currently on disk under the fleet's scratch root.
fn wal_dirs(cluster: &Cluster) -> usize {
    let root = cluster.data_root().expect("wal-backed fleet");
    std::fs::read_dir(root)
        .map(|it| it.filter_map(Result::ok).count())
        .unwrap_or(0)
}

/// Eight single-node ranges boot on a two-worker pool: every range elects
/// its leader and the process grew by only the fixed worker count, not by
/// anything proportional to the range count.
#[test]
fn eight_ranges_boot_on_two_workers() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = os_thread_count().expect("/proc thread count");
    let mut fleet = FleetSpec::new(8, 1, HarnessBackend::Mem);
    fleet.workers = Some(2);
    let cluster = Cluster::launch_fleet(&fleet);
    assert_eq!(cluster.worker_count(), 2);
    for r in 1..=8 {
        assert!(
            cluster
                .wait_for_leader_of(ClusterId(r), Duration::from_secs(10))
                .is_some(),
            "range {r} never led:\n{}",
            cluster.debug_dump()
        );
    }
    let after = os_thread_count().expect("/proc thread count");
    assert!(
        after.saturating_sub(before) <= fleet.workers.unwrap() + 2,
        "8 ranges cost {} extra threads on a {}-worker pool",
        after.saturating_sub(before),
        fleet.workers.unwrap()
    );
    let nodes = cluster.shutdown();
    assert_eq!(nodes.len(), 8);
}

/// The full autonomy loop on the shared runtime: a two-range WAL fleet on
/// two workers takes hot-range load, the control plane splits the hot range
/// (staffing three joiners), a follower is killed and restarted from its WAL
/// mid-campaign, the idle fleet merges back down to one range, the retired
/// nodes are reaped — their WAL directories reclaimed, their ids pooled —
/// and a later staffing recycles a pooled id. Exactly-once holds across all
/// of it, and cross-worker replication actually multiplexed (batch counters
/// nonzero).
#[test]
fn autonomy_campaign_on_two_workers_with_spare_reuse() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = os_thread_count().expect("/proc thread count");
    let mut fleet = FleetSpec::new(2, 3, HarnessBackend::Wal);
    fleet.fsync = false;
    fleet.workers = Some(2);
    let cluster = Arc::new(Cluster::launch_fleet(&fleet));
    let boot = [ClusterId(1), ClusterId(2)];
    for c in boot {
        assert!(
            cluster
                .wait_for_leader_of(c, Duration::from_secs(10))
                .is_some(),
            "boot range {c:?} never led:\n{}",
            cluster.debug_dump()
        );
    }
    // Six nodes, two extra threads: the budget is the worker pool.
    let after_boot = os_thread_count().expect("/proc thread count");
    assert!(
        after_boot.saturating_sub(before) <= fleet.workers.unwrap() + 2,
        "6 nodes cost {} extra threads",
        after_boot.saturating_sub(before)
    );

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
                cooldown_us: 1_500_000,
                stall_us: 600_000_000,
                max_inflight: 1,
                replication: 3,
                min_ranges: 1,
                max_ranges: 3,
            },
            interval: Duration::from_millis(100),
            next_cluster: 3,
        },
    );

    // Hot-range load: every key lands below the k00005000 boundary, so
    // range 1 carries all of it and is the one the controller splits. The
    // load stays on, in waves of eight fresh sessions, until the kill and
    // restart below are done: an optimized build finishes one wave before
    // the controller has staffed the range, and a fleet that has gone idle
    // by then merges its two boot ranges instead of splitting one.
    let opts = ClientOptions {
        ops: 3_000,
        window: 4,
        value_size: 64,
        key_count: 4_000,
        deadline: Duration::from_secs(180),
        view: Some(Arc::clone(&view)),
        ..ClientOptions::default()
    };
    let faults_done = Arc::new(AtomicBool::new(false));
    let load = {
        let (c, opts, faults_done) = (Arc::clone(&cluster), opts.clone(), Arc::clone(&faults_done));
        thread::Builder::new()
            .name("fleet-load".into())
            .spawn(move || {
                let mut waves: Vec<ClientsRun> = Vec::new();
                loop {
                    let wave = ClientOptions {
                        session_base: 8 * waves.len() as u64,
                        ..opts.clone()
                    };
                    waves.push(c.run_clients(8, &wave));
                    let last = waves.last().expect("just pushed");
                    if faults_done.load(Ordering::SeqCst) || !last.all_completed() {
                        return waves;
                    }
                }
            })
            .expect("spawn load thread")
    };

    // The controller staffs three joiners and splits the hot range into
    // children 3 and 4 on its own. Grab child A's leader the moment it
    // appears — at debug speed the campaign keeps moving, and the kill
    // below must land while the child still exists.
    let (a, b) = (ClusterId(3), ClusterId(4));
    let leader_a = cluster
        .wait_for_leader_of(a, Duration::from_secs(90))
        .unwrap_or_else(|| panic!("child {a:?} never led:\n{}", cluster.debug_dump()));
    assert!(
        cluster
            .wait_for_leader_of(b, Duration::from_secs(90))
            .is_some(),
        "child {b:?} never led:\n{}",
        cluster.debug_dump()
    );

    // Kill a follower of one child mid-load (the leader completes the
    // split first; its followers join the child a moment later), then
    // reboot it from its WAL onto a fresh shard seat and port.
    let mut victim = None;
    wait_until(Duration::from_secs(10), || {
        let members = cluster.members_of(a);
        victim = members.keys().copied().find(|n| *n != leader_a);
        victim.is_some()
    });
    let victim = victim.unwrap_or_else(|| panic!("no child follower:\n{}", cluster.debug_dump()));
    assert!(cluster.kill(victim), "victim {victim:?} was not running");
    thread::sleep(Duration::from_millis(700));
    cluster.restart(victim);
    faults_done.store(true, Ordering::SeqCst);

    let waves = load.join().expect("client threads");
    for run in &waves {
        assert!(
            run.all_completed(),
            "routed fleet incomplete: {:?}\n{}",
            run.reports,
            cluster.debug_dump()
        );
        assert_eq!(run.confirmed_ops(), 8 * opts.ops);
    }

    // Idle fleet: the controller merges back down to one range, retiring a
    // quorum's worth of nodes per merge; the plane reaps each retirement
    // into the spare pool and reclaims its WAL directory.
    assert!(
        wait_until(Duration::from_secs(120), || view
            .with_directory(|d| d.len() == 1)),
        "fleet never merged back to one range (directory v{}):\n{}",
        view.version(),
        cluster.debug_dump()
    );
    assert!(
        wait_until(Duration::from_secs(30), || cluster.spare_count() >= 3),
        "retired nodes never reaped into the spare pool (spares={}):\n{}",
        cluster.spare_count(),
        cluster.debug_dump()
    );
    // Boot dirs (6) + staffed joiners (3), minus one reclaimed per spare.
    let spares = cluster.spare_count();
    assert!(
        wal_dirs(&cluster) <= 9 - spares,
        "reaped WAL directories not reclaimed: {} dirs on disk, {spares} spares",
        wal_dirs(&cluster)
    );

    let report = plane.stop();
    let (splits, merges, staffed) = report.planned;
    assert!(
        splits >= 1 && merges >= 1 && staffed >= 1,
        "campaign underplanned: {report:?}"
    );
    assert!(report.reaped >= 3, "plane reaped too few: {report:?}");

    // Staffing after retirement recycles a pooled id instead of minting.
    let merged = view
        .with_directory(|d| d.lookup(b"k00000000").map(|(c, _)| c))
        .expect("merged route");
    let spares_before = cluster.spare_count();
    let recycled = cluster.spawn_joiner(merged);
    assert_eq!(
        cluster.spare_count(),
        spares_before - 1,
        "joiner did not draw from the spare pool"
    );
    assert!(
        recycled.0 <= 9,
        "recycled id {recycled:?} was freshly minted, not pooled"
    );

    // The whole campaign ran cross-worker replication through mux batches.
    let wire = cluster.wire_stats();
    assert!(wire.batches > 0, "no mux batches on a two-worker fleet");
    assert!(wire.mean_batch() >= 1.0);

    // Exactly-once on the merged cluster's most-applied member.
    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    let survivor = nodes
        .iter()
        .filter(|n| n.cluster() == merged)
        .max_by_key(|n| n.applied_index().0)
        .expect("a merged-cluster node");
    for wave in 0..waves.len() as u64 {
        for c in 0..8 {
            let session = SessionId(8 * wave + c);
            let last = survivor.sessions().last_seq(session);
            assert_eq!(last, Some(opts.ops), "{session:?}: last_seq {last:?}");
        }
    }
}

/// Live seat migration: while an open-loop fleet hammers a three-node range
/// hosted on two workers, every seat is repeatedly handed between the
/// workers. The seat's node, listener, and live connections quiesce at the
/// source's barrier and re-register on the target's poller — mid-window,
/// mid-replication — and exactly-once must hold as if nothing happened.
#[test]
fn seat_migration_under_load_preserves_exactly_once() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut fleet = FleetSpec::new(1, 3, HarnessBackend::Mem);
    fleet.workers = Some(2);
    let cluster = Arc::new(Cluster::launch_fleet(&fleet));
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no leader within 10s"
    );

    let clients = 4;
    let opts = ClientOptions {
        ops: 400,
        window: 4,
        value_size: 64,
        key_count: 4_000,
        deadline: Duration::from_secs(120),
        ..ClientOptions::default()
    };
    let load = {
        let c = Arc::clone(&cluster);
        let opts = opts.clone();
        thread::Builder::new()
            .name("migration-load".into())
            .spawn(move || c.run_clients(clients, &opts))
            .expect("spawn load thread")
    };

    // Shuffle every seat between the two workers while the load runs. Each
    // move must flip the runtime's assignment, which is also what
    // `seat_loads` reports.
    let ids: Vec<_> = cluster.seat_loads().iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), 3);
    for round in 0..6 {
        for (i, id) in ids.iter().enumerate() {
            let target = (round + i) % cluster.worker_count();
            if cluster.seat_owner(*id) == Some(target) {
                continue;
            }
            assert!(
                cluster.migrate_seat(*id, target),
                "migrate {id:?} -> worker {target} refused"
            );
            assert_eq!(cluster.seat_owner(*id), Some(target));
        }
        assert!(
            cluster
                .seat_loads()
                .iter()
                .all(|s| cluster.seat_owner(s.id) == Some(s.worker)),
            "seat_loads disagrees with the assignment map"
        );
        thread::sleep(Duration::from_millis(100));
    }

    let run = load.join().expect("client threads");
    assert!(
        run.all_completed(),
        "fleet incomplete across migrations: {:?}\n{}",
        run.reports,
        cluster.debug_dump()
    );
    assert_eq!(run.confirmed_ops(), clients * opts.ops);

    // The load counters the rebalancer would difference actually moved.
    let loads = cluster.seat_loads();
    assert!(
        loads.iter().all(|s| s.steps > 0),
        "a seat stepped nothing under load: {loads:?}"
    );

    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    recraft_cluster::verify_sessions(&nodes, clients, opts.ops);
}

/// A short client run that must complete: the cluster still commits.
fn commits(cluster: &Cluster, session_base: u64) -> bool {
    let opts = ClientOptions {
        ops: 20,
        window: 2,
        value_size: 32,
        deadline: Duration::from_secs(5),
        session_base,
        ..ClientOptions::default()
    };
    cluster.run_clients(2, &opts).all_completed()
}

/// A leader's seat sent to worker 1 and straight back to worker 0, again
/// and again: the second move is ordered while the seat may still be in
/// flight from the first, so wherever it lands it must end up hosted where
/// the assignment map points — or its peers' acks go to a worker that drops
/// them while it heartbeats on, and nothing commits.
#[test]
fn a_seat_moved_back_while_in_flight_still_commits() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut fleet = FleetSpec::new(1, 3, HarnessBackend::Mem);
    fleet.workers = Some(2);
    let cluster = Cluster::launch_fleet(&fleet);
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("a leader");
    for round in 0..5 {
        for _ in 0..4 {
            assert!(cluster.migrate_seat(leader, 1));
            assert!(cluster.migrate_seat(leader, 0));
        }
        assert!(
            commits(&cluster, 100 * round),
            "round {round}: no commit after the moves\n{}",
            cluster.debug_dump()
        );
    }
    assert_eq!(cluster.seat_owner(leader), Some(0));
}

/// A kill issued right after a move finds the seat wherever it is — hosted
/// at either worker or in flight between them — withdraws it, and hands the
/// node back, so the restart that follows reboots it.
#[test]
fn a_kill_right_after_a_move_withdraws_the_seat() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut fleet = FleetSpec::new(1, 3, HarnessBackend::Mem);
    fleet.workers = Some(2);
    let cluster = Cluster::launch_fleet(&fleet);
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("a leader");
    let follower = cluster
        .seat_loads()
        .iter()
        .map(|s| s.id)
        .find(|id| *id != leader)
        .expect("a follower");
    for round in 0..5 {
        let target = 1 - cluster.seat_owner(follower).expect("hosted");
        assert!(cluster.migrate_seat(follower, target));
        assert!(cluster.kill(follower), "round {round}: kill during a move");
        assert_eq!(cluster.seat_owner(follower), None);
        cluster.restart(follower);
        assert!(cluster.seat_owner(follower).is_some());
    }
    assert!(commits(&cluster, 0), "{}", cluster.debug_dump());
}
