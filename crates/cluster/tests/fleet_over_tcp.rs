//! The fleet control plane against the real harness: controller-built
//! split and merge plans delivered to live leaders over loopback TCP.
//!
//! The deterministic simulator is the correctness oracle for the fleet
//! layer; this test is the deployment truth — the same `AdminReq` wire
//! messages, real elections, real sockets. A six-node cluster serves a
//! client fleet, the controller splits it into two three-node subclusters
//! at the keyspace midpoint, both halves elect and serve, and a
//! controller-built merge folds them back into one cluster that serves the
//! full keyspace again with every session intact — while the participant
//! it resumed without retires and keeps answering.

use recraft_cluster::{
    verify_sessions, AdminClient, ClientOptions, Cluster, ClusterSpec, ControlOptions,
    ControlPlane, FleetView, HarnessBackend, CLIENT_BASE,
};
use recraft_core::Role;
use recraft_fleet::{Controller, FleetCmd, FleetConfig, RangeSample};
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{AdminCmd, Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClusterId, Error, KeyRange, NodeId, RangeSet, SessionId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Same serialization discipline as `loopback_cluster.rs`: concurrent
/// clusters starve each other's heartbeats on small machines.
static SERIAL: Mutex<()> = Mutex::new(());

fn fleet_cfg() -> FleetConfig {
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

/// One planning round's samples, assembled from live harness state the way
/// a production embedding would: ranges and membership from the directory,
/// load figures from metrics (synthesized here to steer the plan).
fn sample(
    cluster: ClusterId,
    ranges: RangeSet,
    members: &Members,
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

/// A six-node cluster, led.
fn launch() -> Cluster {
    let cluster = Cluster::launch(&ClusterSpec::new(6, HarnessBackend::Mem));
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no leader within 10s"
    );
    cluster
}

/// What [`split_then_merge`] left behind.
struct Reshaped {
    /// The two subclusters' members.
    halves: [Members; 2],
    /// The merged cluster, led.
    merged: ClusterId,
}

type Members = BTreeMap<NodeId, SocketAddr>;

/// The controller splits the six-node boot cluster into two three-node
/// subclusters at the keyspace midpoint, both halves elect and serve, and
/// a controller-built merge folds them back into one cluster.
fn split_then_merge(cluster: &Cluster, admin: &mut AdminClient) -> Reshaped {
    // The controller sees one hot range and plans a split at the midpoint.
    let mut ctl = Controller::new(fleet_cfg(), 2);
    let boot = ClusterId(1);
    let cmds = ctl.plan(
        1,
        &[sample(
            boot,
            RangeSet::full(),
            &cluster.members_of(boot),
            10_000,
            Some(b"k00005000"),
        )],
    );
    let split = cmds
        .iter()
        .find_map(|c| match c {
            FleetCmd::Admin {
                cmd: cmd @ AdminCmd::Split(_),
                ..
            } => Some(cmd.clone()),
            _ => None,
        })
        .expect("controller plans a split");

    admin
        .run_on_leader(&cluster.addrs(), &split, Duration::from_secs(10))
        .expect("split accepted by the leader");

    // Both subclusters (controller-allocated ids 2 and 3) elect and serve.
    let (a, b) = (ClusterId(2), ClusterId(3));
    assert!(
        cluster.wait_for_clusters(&[a, b], Duration::from_secs(20)),
        "fleet did not converge on the two subclusters: {:?}",
        cluster.node_clusters()
    );
    let (ma, mb) = (cluster.members_of(a), cluster.members_of(b));
    assert_eq!(ma.len(), 3, "subcluster {a:?} staffing: {ma:?}");
    assert_eq!(mb.len(), 3, "subcluster {b:?} staffing: {mb:?}");

    // Prove both halves are live post-split: each leader commits a no-op.
    for members in [&ma, &mb] {
        admin
            .run_on_leader(members, &AdminCmd::ProposeNoop, Duration::from_secs(10))
            .expect("subcluster leader serves");
    }

    // Feed the controller the post-split world twice: the first round
    // observes both children (clearing the pending split), the second
    // plans the merge of the now-cold pair.
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
    let coord_members = cluster.members_of(coordinator);
    admin
        .run_on_leader(&coord_members, &merge, Duration::from_secs(10))
        .expect("merge accepted by the coordinator's leader");

    // The merged cluster (controller-allocated id 4) leads.
    let merged = ClusterId(4);
    assert!(
        cluster
            .wait_for_leader_of(merged, Duration::from_secs(30))
            .is_some(),
        "merged cluster never elected: {:?}",
        cluster.node_clusters()
    );
    // It resumes with the coordinator's members — `resume_members` caps
    // resumption at the configured replication factor; the other
    // participant's nodes retire. Each member adopts the merged identity
    // when its own exchange completes, which can trail the leader its vote
    // elected (the wait above returns the moment that leader publishes), so
    // wait for the member set to settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.members_of(merged).keys().eq(coord_members.keys()) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    Reshaped {
        halves: [ma, mb],
        merged,
    }
}

#[test]
fn controller_split_and_merge_over_tcp() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch();

    // Load the cluster so the split has data to partition.
    let opts = ClientOptions {
        ops: 20,
        window: 4,
        key_count: 10_000,
        ..ClientOptions::default()
    };
    let run1 = cluster.run_clients(8, &opts);
    assert!(run1.all_completed(), "pre-split fleet incomplete");

    let Reshaped {
        halves: [ma, _],
        merged,
    } = split_then_merge(&cluster, &mut AdminClient::new(0));

    // The merged cluster resumes with the coordinator's members; the other
    // participant's nodes retire to the spare pool.
    let mm = cluster.members_of(merged);
    assert_eq!(
        mm.keys().copied().collect::<Vec<_>>(),
        ma.keys().copied().collect::<Vec<_>>(),
        "merged cluster should resume with the coordinator's members"
    );

    // Full-keyspace service is restored: a fresh client fleet (new
    // sessions) completes against the merged cluster.
    let run2 = recraft_cluster::run_open_loop(
        &mm,
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

    // Exactly-once held across the whole reshaping: both generations'
    // sessions are intact on the merged cluster (whose log was renumbered —
    // check its own most-applied node, not a retired one).
    let nodes = cluster.shutdown();
    let survivor = nodes
        .iter()
        .filter(|n| n.cluster() == merged)
        .max_by_key(|n| n.applied_index().0)
        .expect("a merged-cluster node");
    for c in (0..8).chain(100..108) {
        let last = survivor.sessions().last_seq(SessionId(c));
        assert_eq!(
            last,
            Some(opts.ops),
            "session {c}: last_seq {last:?}, expected {}",
            opts.ops
        );
    }
}

/// A node the merge resumed without retires, and still answers: a sampler
/// gets its stats with an empty member set (so the control plane drops the
/// route instead of timing out on it), and a client is sent on to the
/// merged cluster instead of waiting out its resend timer.
#[test]
fn a_merged_away_node_answers_samplers_and_clients() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch();
    let Reshaped { halves, merged } = split_then_merge(&cluster, &mut AdminClient::new(0));
    let resumed = cluster.members_of(merged);
    let retired: Members = halves
        .into_iter()
        .flatten()
        .filter(|(id, _)| !resumed.contains_key(id))
        .collect();
    assert_eq!(retired.len(), 3, "one participant's members retire");

    let mut sampler = AdminClient::new(1);
    for (&id, &addr) in &retired {
        // Retirement comes when the node's own snapshot exchange finishes,
        // which may trail the merged cluster's election.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = sampler.fetch_stats(addr, id);
            if stats.as_ref().is_some_and(|s| s.members.is_empty()) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{id} never reported itself retired: last answer {stats:?}"
            );
            thread::sleep(Duration::from_millis(50));
        }

        let mut stream = TcpStream::connect(addr).expect("dial the retired node");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let req = ClientRequest {
            session: SessionId(900),
            seq: 1,
            op: ClientOp::Get {
                key: b"k00000001".to_vec(),
            },
        };
        let me = NodeId(CLIENT_BASE + 900);
        write_frame(
            &mut stream,
            &Envelope::new(me, id, Message::ClientReq { req }),
        )
        .expect("write get");
        match read_frame(&mut stream) {
            Ok(Some(Envelope {
                msg: Message::ClientResp { resp },
                ..
            })) => assert_eq!(
                resp.outcome,
                ClientOutcome::Rejected {
                    error: Error::WrongRange(Some(merged))
                },
                "{id} should send the client on to {merged:?}"
            ),
            other => panic!("{id} did not answer a client request: {other:?}"),
        }
    }
    drop(cluster.shutdown());
}

/// A routed client fleet follows its leader's removal. Mid-run, a
/// `RemoveAndResize` retires the node the routed clients send to. It
/// answers `WrongRange` for the cluster it left; the clients drop it as
/// their hint, the control plane's next directory lists the four members
/// that remain, and every client re-routes to the new leader and completes,
/// each write applied exactly once.
#[test]
fn routed_clients_complete_across_the_leaders_removal() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Arc::new(Cluster::launch(&ClusterSpec::new(5, HarnessBackend::Mem)));
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("no leader within 10s");
    let view = FleetView::new(cluster.net());
    // The plane only samples and publishes: nothing is hot enough to split.
    let fleet = FleetConfig {
        split_ops: u64::MAX,
        split_bytes: usize::MAX,
        max_ranges: 1,
        ..fleet_cfg()
    };
    let plane = ControlPlane::spawn(
        Arc::clone(&cluster),
        Arc::clone(&view),
        ControlOptions {
            fleet,
            interval: Duration::from_millis(100),
            ..ControlOptions::default()
        },
    );
    let opts = ClientOptions {
        ops: 1_000,
        window: 4,
        value_size: 64,
        deadline: Duration::from_secs(60),
        view: Some(view),
        ..ClientOptions::default()
    };
    let load = {
        let c = Arc::clone(&cluster);
        let opts = opts.clone();
        thread::spawn(move || c.run_clients(8, &opts))
    };
    thread::sleep(Duration::from_millis(100));
    let remove = AdminCmd::RemoveAndResize(BTreeSet::from([leader]));
    let mut admin = AdminClient::new(0);
    // The leader can retire before its acknowledgement is read; the retry
    // then meets a configuration it has already left.
    match admin.run_on_leader(&cluster.addrs(), &remove, Duration::from_secs(10)) {
        Ok(_) | Err(Error::InvalidConfig(_)) => {}
        Err(e) => panic!("the leader's removal failed: {e}"),
    }
    let run = load.join().expect("load thread");
    let _ = plane.stop();
    assert!(
        run.all_completed(),
        "a client stalled behind the removed leader: {:?}",
        run.reports
    );
    let cluster = Arc::into_inner(cluster).expect("the load and the plane are joined");
    let nodes = cluster.shutdown();
    assert!(
        nodes
            .iter()
            .all(|n| n.id() != leader || n.role() == Role::Removed),
        "{leader} was never removed"
    );
    verify_sessions(&nodes, 8, opts.ops);
}
