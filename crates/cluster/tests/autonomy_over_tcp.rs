//! The closed autonomy loop over real sockets, with faults.
//!
//! `fleet_over_tcp.rs` hand-feeds the controller its samples; these tests
//! feed it nothing. A [`ControlPlane`] thread polls live nodes' `StatsReq`
//! answers on a wall-clock cadence, plans splits and merges from the
//! deltas, and executes them against whoever leads — while a routed client
//! fleet follows the shard directory the plane publishes, and a fault
//! injector kills, restarts, and partitions nodes mid-campaign.
//!
//! On failure each test writes the fleet's [`Cluster::debug_dump`] to
//! `target/tmp/harness-logs/` so CI can attach it to the build artifacts.

use recraft_cluster::{
    run_open_loop, AdminClient, ClientOptions, Cluster, ClusterSpec, ControlOptions, ControlPlane,
    FleetView, HarnessBackend,
};
use recraft_fleet::{Controller, FleetCmd, FleetConfig, RangeSample};
use recraft_net::AdminCmd;
use recraft_types::{ClusterId, KeyRange, NodeId, RangeSet, SessionId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Same serialization discipline as the other harness suites: concurrent
/// clusters starve each other's heartbeats on small machines.
static SERIAL: Mutex<()> = Mutex::new(());

/// Writes the fleet's debug dump (plus an optional trailer) where CI
/// uploads failure artifacts from.
fn dump_state(name: &str, cluster: &Cluster, trailer: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("harness-logs");
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join(format!("{name}.log")),
        format!("{}\n{trailer}\n", cluster.debug_dump()),
    );
}

/// Dumps the fleet state on panic so a CI failure leaves evidence behind.
struct DumpOnPanic {
    name: &'static str,
    cluster: Arc<Cluster>,
}

impl Drop for DumpOnPanic {
    fn drop(&mut self) {
        if thread::panicking() {
            dump_state(self.name, &self.cluster, "(dumped by panic guard)");
        }
    }
}

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

/// Thresholds sized for a debug-build smoke: one split once the fleet is
/// loaded, one merge once it goes idle, never more than two ranges.
fn autonomy_cfg() -> FleetConfig {
    FleetConfig {
        split_ops: 60,
        merge_ops: 8,
        split_bytes: 64 << 20,
        merge_bytes: 16 << 20,
        cooldown_us: 1_500_000,
        stall_us: 600_000_000,
        max_inflight: 1,
        replication: 3,
        min_ranges: 1,
        max_ranges: 2,
    }
}

/// The seeded autonomous campaign the CI smoke job runs: a six-node WAL
/// fleet under routed open-loop load, a control plane sampling it live, at
/// least one split and one merge planned and executed with zero hand-fed
/// samples — surviving a node kill and WAL restart mid-campaign — and
/// exactly-once intact at the end.
fn autonomous_campaign(name: &'static str, clients: u64, ops: u64, fsync: bool) {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut spec = ClusterSpec::new(6, HarnessBackend::Wal);
    spec.fsync = fsync;
    let cluster = Arc::new(Cluster::launch(&spec));
    let panic_guard = DumpOnPanic {
        name,
        cluster: Arc::clone(&cluster),
    };
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no boot leader within 10s"
    );

    let view = FleetView::new(cluster.net());
    let plane = ControlPlane::spawn(
        Arc::clone(&cluster),
        Arc::clone(&view),
        ControlOptions {
            fleet: autonomy_cfg(),
            interval: Duration::from_millis(100),
            next_cluster: 2,
        },
    );

    // Directory-routed load: enough volume that the campaign (split,
    // kill/restart) happens while clients are still in flight.
    let opts = ClientOptions {
        ops,
        window: 4,
        value_size: 64,
        key_count: 10_000,
        deadline: Duration::from_secs(180),
        view: Some(Arc::clone(&view)),
        ..ClientOptions::default()
    };
    let load = {
        let c = Arc::clone(&cluster);
        let opts = opts.clone();
        thread::Builder::new()
            .name("autonomy-load".into())
            .spawn(move || c.run_clients(clients, &opts))
            .expect("spawn load thread")
    };

    // The controller splits the loaded fleet on its own (children 2 and 3).
    let (a, b) = (ClusterId(2), ClusterId(3));
    assert!(
        cluster.wait_for_clusters(&[a, b], Duration::from_secs(90)),
        "no autonomous split within 90s:\n{}",
        cluster.debug_dump()
    );

    // Fault mid-campaign: kill a follower of one child, then restart it —
    // a real WAL reboot under wall-clock elections, on a fresh port.
    let leader_a = cluster
        .wait_for_leader_of(a, Duration::from_secs(20))
        .expect("child cluster leader");
    let victim = cluster
        .members_of(a)
        .keys()
        .copied()
        .find(|n| *n != leader_a)
        .expect("child cluster follower");
    assert!(cluster.kill(victim), "victim {victim:?} was not running");
    thread::sleep(Duration::from_millis(700));
    cluster.restart(victim);

    let fleet = load.join().expect("client threads");
    assert!(
        fleet.all_completed(),
        "routed fleet incomplete: {:?}\n{}",
        fleet.reports,
        cluster.debug_dump()
    );
    assert_eq!(fleet.confirmed_ops(), clients * ops);

    // Idle fleet: the controller merges the cold pair back on its own. The
    // directory converges to a single full-keyspace cluster that is not the
    // boot cluster (campaigns may cycle more than once; any post-boot id
    // qualifies).
    assert!(
        wait_until(Duration::from_secs(90), || view.with_directory(|d| {
            d.len() == 1 && d.lookup(b"k00000000").is_some_and(|(c, _)| c.0 > 1)
        })),
        "no autonomous merge within 90s (directory v{}):\n{}",
        view.version(),
        cluster.debug_dump()
    );
    let merged = view
        .with_directory(|d| d.lookup(b"k00000000").map(|(c, _)| c))
        .expect("merged route");
    assert!(
        cluster
            .wait_for_leader_of(merged, Duration::from_secs(20))
            .is_some(),
        "merged cluster {merged:?} never led:\n{}",
        cluster.debug_dump()
    );

    let report = plane.stop();
    let (splits, merges, _) = report.planned;
    assert!(
        splits >= 1 && merges >= 1,
        "campaign underplanned: {report:?}"
    );
    assert!(
        report.delivered >= 2,
        "fewer than two commands accepted: {report:?}"
    );
    println!("control plane events:\n  {}", report.events.join("\n  "));

    // Exactly-once across the whole reshaping, verified on the merged
    // cluster's own most-applied node (its log was renumbered by the merge).
    drop(panic_guard);
    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    let survivor = nodes
        .iter()
        .filter(|n| n.cluster() == merged)
        .max_by_key(|n| n.applied_index().0)
        .expect("a merged-cluster node");
    for c in 0..clients {
        let last = survivor.sessions().last_seq(SessionId(c));
        assert_eq!(last, Some(ops), "session {c}: last_seq {last:?}");
    }
}

#[test]
fn autonomous_campaign_survives_kill_restart() {
    autonomous_campaign("autonomy-campaign", 8, 2_000, false);
}

/// The nightly soak: same campaign, real fsync, more volume.
#[test]
#[ignore = "multi-minute fsync soak; run explicitly or from the nightly job"]
fn autonomous_campaign_soak() {
    autonomous_campaign("autonomy-soak", 16, 4_000, true);
}

/// Builds the controller-shaped sample the protocol fault tests hand-feed
/// (those tests inject faults at precise points, so they drive the
/// controller directly rather than racing a sampling thread).
fn sample(
    cluster: ClusterId,
    ranges: RangeSet,
    members: &BTreeMap<NodeId, SocketAddr>,
    ops: u64,
    split_key: Option<&[u8]>,
) -> RangeSample {
    RangeSample {
        cluster,
        ranges,
        members: members.keys().copied().collect(),
        ops,
        bytes: 0,
        split_key: split_key.map(<[u8]>::to_vec),
    }
}

fn fault_cfg() -> FleetConfig {
    FleetConfig {
        split_ops: 100,
        merge_ops: 50,
        split_bytes: 64 << 20,
        merge_bytes: 16 << 20,
        cooldown_us: 0,
        stall_us: 600_000_000,
        max_inflight: 2,
        replication: 3,
        min_ranges: 1,
        max_ranges: 4,
    }
}

fn plan_split(ctl: &mut Controller, cluster: &Cluster) -> AdminCmd {
    let cmds = ctl.plan(
        1,
        &[sample(
            ClusterId(1),
            RangeSet::full(),
            &cluster.members_of(ClusterId(1)),
            10_000,
            Some(b"k00005000"),
        )],
    );
    cmds.iter()
        .find_map(|c| match c {
            FleetCmd::Admin {
                cmd: cmd @ AdminCmd::Split(_),
                ..
            } => Some(cmd.clone()),
            _ => None,
        })
        .expect("controller plans a split")
}

/// Partition tolerance over real TCP: the leader that accepted a split is
/// isolated from every peer mid-campaign. A new leader finishes the
/// campaign (re-delivering the command if the accepted entry died
/// uncommitted with the old leader — exactly what controller stall
/// tracking does), both children serve, and every session survives into
/// both of them.
#[test]
fn leader_isolated_mid_split_campaign_completes() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Arc::new(Cluster::launch(&ClusterSpec::new(6, HarnessBackend::Mem)));
    let panic_guard = DumpOnPanic {
        name: "leader-isolated-mid-split",
        cluster: Arc::clone(&cluster),
    };
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no leader within 10s"
    );

    let opts = ClientOptions {
        ops: 20,
        window: 4,
        value_size: 64,
        key_count: 10_000,
        ..ClientOptions::default()
    };
    let fleet = cluster.run_clients(8, &opts);
    assert!(fleet.all_completed(), "pre-split fleet incomplete");

    let mut ctl = Controller::new(fault_cfg(), 2);
    let split = plan_split(&mut ctl, &cluster);
    let mut admin = AdminClient::new(1);
    let accepted_by = admin
        .run_on_leader(&cluster.addrs(), &split, Duration::from_secs(10))
        .expect("split accepted by the leader");

    // Sever the accepting leader from every peer, immediately. Client and
    // admin traffic still reaches it — only the Raft planes are cut.
    cluster.isolate(accepted_by);

    // `wait_for_clusters` would never converge here — the isolated node
    // stays parked in the old cluster until the partition heals — so wait
    // on each child's leader instead.
    let (a, b) = (ClusterId(2), ClusterId(3));
    let children_led = |each: Duration| {
        cluster.wait_for_leader_of(a, each).is_some()
            && cluster.wait_for_leader_of(b, each).is_some()
    };
    if !children_led(Duration::from_secs(15)) {
        // The accepted entry died uncommitted with the isolated leader;
        // re-deliver to the survivors. Harmless if the campaign is merely
        // slow — a second split of a since-vanished cluster is rejected.
        let survivors: BTreeMap<NodeId, SocketAddr> = cluster
            .addrs()
            .into_iter()
            .filter(|(n, _)| *n != accepted_by)
            .collect();
        let _ = admin.run_on_leader(&survivors, &split, Duration::from_secs(10));
        assert!(
            children_led(Duration::from_secs(30)),
            "split never completed after leader isolation:\n{}",
            cluster.debug_dump()
        );
    }

    // Both children serve while the old leader is still cut off, then the
    // partition heals and it rejoins whichever child owns it.
    for c in [a, b] {
        let members = cluster.members_of(c);
        admin
            .run_on_leader(&members, &AdminCmd::ProposeNoop, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("child {c:?} not serving: {e}"));
    }
    cluster.heal_all();
    assert!(
        wait_until(Duration::from_secs(20), || {
            let placed = cluster.node_clusters();
            placed.get(&accepted_by) == Some(&a) || placed.get(&accepted_by) == Some(&b)
        }),
        "isolated ex-leader never rejoined a child:\n{}",
        cluster.debug_dump()
    );

    // Sessions were inherited by both children, intact.
    drop(panic_guard);
    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    for child in [a, b] {
        let witness = nodes
            .iter()
            .filter(|n| n.cluster() == child)
            .max_by_key(|n| n.applied_index().0)
            .unwrap_or_else(|| panic!("no node ended in {child:?}"));
        for c in 0..8 {
            assert_eq!(
                witness.sessions().last_seq(SessionId(c)),
                Some(opts.ops),
                "session {c} lost in {child:?}"
            );
        }
    }
}

/// Crash tolerance across a generation change: a coordinator follower is
/// killed the moment a merge is accepted. The merge completes without it;
/// the victim reboots from its WAL into a pre-merge generation, catches up
/// across the log renumbering, and its own session table proves
/// exactly-once for both the pre-merge and post-merge client waves.
#[test]
fn kill_during_merge_exactly_once_across_generations() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut spec = ClusterSpec::new(6, HarnessBackend::Wal);
    spec.fsync = false;
    let cluster = Arc::new(Cluster::launch(&spec));
    let panic_guard = DumpOnPanic {
        name: "kill-during-merge",
        cluster: Arc::clone(&cluster),
    };
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no leader within 10s"
    );

    let opts = ClientOptions {
        ops: 20,
        window: 4,
        value_size: 64,
        key_count: 10_000,
        ..ClientOptions::default()
    };
    let fleet = cluster.run_clients(8, &opts);
    assert!(fleet.all_completed(), "pre-split fleet incomplete");

    // Split first (the generations under test are the merge's).
    let mut ctl = Controller::new(fault_cfg(), 2);
    let split = plan_split(&mut ctl, &cluster);
    let mut admin = AdminClient::new(1);
    admin
        .run_on_leader(&cluster.addrs(), &split, Duration::from_secs(10))
        .expect("split accepted");
    let (a, b) = (ClusterId(2), ClusterId(3));
    assert!(
        cluster.wait_for_clusters(&[a, b], Duration::from_secs(30)),
        "split never completed:\n{}",
        cluster.debug_dump()
    );
    let (ma, mb) = (cluster.members_of(a), cluster.members_of(b));

    // Controller-built merge of the cold pair (first round observes the
    // children and clears the pending split; second round plans the merge).
    let ranges_a =
        RangeSet::from_ranges([KeyRange::new(Vec::new(), b"k00005000".to_vec()).unwrap()]).unwrap();
    let ranges_b = RangeSet::from_ranges([KeyRange::from_start(b"k00005000".to_vec())]).unwrap();
    let world = [
        sample(a, ranges_a, &ma, 0, None),
        sample(b, ranges_b, &mb, 0, None),
    ];
    let mut cmds = ctl.plan(2, &world);
    cmds.extend(ctl.plan(3, &world));
    let (coordinator, merge) = cmds
        .iter()
        .find_map(|c| match c {
            FleetCmd::Admin {
                cluster,
                cmd: cmd @ AdminCmd::Merge(_),
            } => Some((*cluster, cmd.clone())),
            _ => None,
        })
        .expect("controller plans the merge");

    // Kill a coordinator follower the moment the merge is accepted: the
    // 2-of-3 quorum carries the transaction through without it.
    let coord_members = cluster.members_of(coordinator);
    let coord_leader = cluster
        .wait_for_leader_of(coordinator, Duration::from_secs(20))
        .expect("coordinator leader");
    let victim = coord_members
        .keys()
        .copied()
        .find(|n| *n != coord_leader)
        .expect("coordinator follower");
    admin
        .run_on_leader(&coord_members, &merge, Duration::from_secs(10))
        .expect("merge accepted by the coordinator's leader");
    assert!(cluster.kill(victim), "victim {victim:?} was not running");

    let merged = ClusterId(4);
    assert!(
        cluster
            .wait_for_leader_of(merged, Duration::from_secs(30))
            .is_some(),
        "merge never completed without the killed follower:\n{}",
        cluster.debug_dump()
    );

    // The victim reboots from its WAL — pre-merge generation — and must
    // catch up across the renumbering into the merged cluster.
    cluster.restart(victim);
    assert!(
        wait_until(Duration::from_secs(30), || {
            cluster.node_clusters().get(&victim) == Some(&merged)
        }),
        "restarted {victim:?} never adopted the merged generation:\n{}",
        cluster.debug_dump()
    );

    // A post-merge client wave (fresh sessions) completes, then the whole
    // merged cluster converges so the victim's table can be inspected.
    let run2 = run_open_loop(
        &cluster.members_of(merged),
        8,
        &ClientOptions {
            session_base: 100,
            ..opts.clone()
        },
    );
    assert!(
        run2.iter().all(|r| r.completed),
        "post-merge fleet incomplete: {run2:?}"
    );
    let mut prober = AdminClient::new(9);
    assert!(
        wait_until(Duration::from_secs(20), || {
            let applied: Vec<u64> = cluster
                .members_of(merged)
                .iter()
                .filter_map(|(id, addr)| prober.fetch_stats(*addr, *id))
                .map(|s| s.applied)
                .collect();
            applied.len() == 3 && applied.iter().min() == applied.iter().max()
        }),
        "merged cluster never converged on applied index:\n{}",
        cluster.debug_dump()
    );

    // Exactly-once across the generation change, on the restarted node
    // itself: both waves' sessions, each at exactly its final sequence.
    drop(panic_guard);
    let nodes = Arc::try_unwrap(cluster)
        .unwrap_or_else(|_| panic!("cluster handles still outstanding"))
        .shutdown();
    let victim_node = nodes
        .iter()
        .find(|n| n.id() == victim)
        .expect("victim present at shutdown");
    assert_eq!(
        victim_node.cluster(),
        merged,
        "victim not in the merged cluster"
    );
    for c in (0..8).chain(100..108) {
        assert_eq!(
            victim_node.sessions().last_seq(SessionId(c)),
            Some(opts.ops),
            "session {c} on the restarted node"
        );
    }
}
