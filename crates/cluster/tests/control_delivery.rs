//! The control plane's delivery rule over loopback TCP: a command the
//! controller owes goes out once per sampling round, so a cluster that
//! cannot accept it holds up nothing else the plane does.

use recraft_cluster::{
    Cluster, ControlOptions, ControlPlane, FleetSpec, FleetView, HarnessBackend,
};
use recraft_fleet::FleetConfig;
use recraft_types::{ClusterId, NodeId};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Two cold three-node ranges: the planner pairs them for a merge at once,
/// with range 1 (the lower keys) as its coordinator.
fn cold_merge_cfg() -> FleetConfig {
    FleetConfig {
        split_ops: u64::MAX,
        merge_ops: 50,
        split_bytes: usize::MAX,
        merge_bytes: 16 << 20,
        cooldown_us: 0,
        stall_us: 600_000_000,
        max_inflight: 2,
        replication: 3,
        min_ranges: 1,
        max_ranges: 2,
    }
}

/// Every member of the merge's coordinator is cut off from every other
/// node, and its leader is restarted, so range 1 has no leader — yet each
/// member still answers `StatsReq`, and `NotLeader` to the merge. The plane
/// keeps its cadence while the merge stays owed, and stops at once.
#[test]
fn a_leaderless_coordinator_holds_up_no_round() {
    let cluster = Arc::new(Cluster::launch_fleet(&FleetSpec::new(
        2,
        3,
        HarnessBackend::Mem,
    )));
    let coordinator = ClusterId(1);
    for r in [coordinator, ClusterId(2)] {
        assert!(
            cluster
                .wait_for_leader_of(r, Duration::from_secs(10))
                .is_some(),
            "range {r:?} never led:\n{}",
            cluster.debug_dump()
        );
    }
    let members: Vec<NodeId> = cluster.members_of(coordinator).into_keys().collect();
    assert_eq!(members.len(), 3);
    for m in &members {
        cluster.isolate(*m);
    }
    let leader = cluster
        .wait_for_leader_of(coordinator, Duration::ZERO)
        .expect("range 1 led before it was cut off");
    assert!(cluster.kill(leader));
    cluster.restart(leader);
    assert!(
        cluster
            .wait_for_leader_of(coordinator, Duration::ZERO)
            .is_none(),
        "an isolated member cannot win an election"
    );

    let view = FleetView::new(cluster.net());
    let plane = ControlPlane::spawn(
        Arc::clone(&cluster),
        Arc::clone(&view),
        ControlOptions {
            fleet: cold_merge_cfg(),
            interval: Duration::from_millis(100),
            next_cluster: 3,
        },
    );
    thread::sleep(Duration::from_secs(3));
    let stopping = Instant::now();
    let report = plane.stop();
    let stopped_in = stopping.elapsed();

    assert_eq!(
        report.planned.1, 1,
        "the cold pair was not paired: {report:?}"
    );
    assert_eq!(
        report.delivered, 0,
        "a leaderless coordinator accepted the merge: {report:?}"
    );
    assert!(
        report.rounds >= 20,
        "{} rounds in 3 s at a 100 ms interval: {report:?}",
        report.rounds
    );
    assert!(
        stopped_in < Duration::from_secs(1),
        "stop took {stopped_in:?}"
    );
    assert!(
        cluster
            .wait_for_leader_of(coordinator, Duration::ZERO)
            .is_none(),
        "range 1 stayed leaderless throughout"
    );
    let cluster = Arc::into_inner(cluster).expect("the plane is joined");
    drop(cluster.shutdown());
}
