//! Real-deployment scenarios: OS threads, loopback TCP, real timers.
//!
//! These run in debug on whatever machine executes the test suite (CI runs
//! single-core), so they are deliberately moderate in scale. The 256-client
//! variant is kept here behind `#[ignore]`; the nightly workflow runs it in
//! release.
//!
//! Clusters contend for the same cores, so every test serializes on one
//! lock: parallel clusters on a small machine starve each other's
//! heartbeats into spurious elections.

use recraft_cluster::{
    verify_sessions, ClientOptions, Cluster, ClusterSpec, HarnessBackend, CLIENT_BASE,
};
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{Envelope, Message};
use recraft_types::{ClientOp, ClientOutcome, ClientRequest, ClusterId, NodeId, SessionId};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn run(nodes: usize, backend: HarnessBackend, clients: u64, opts: &ClientOptions) {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(nodes, backend));
    let leader = cluster.wait_for_leader(Duration::from_secs(10));
    assert!(leader.is_some(), "no leader within 10s");
    let fleet = cluster.run_clients(clients, opts);
    for r in &fleet.reports {
        assert!(
            r.completed,
            "client {} missed the deadline ({} of {} ops confirmed)",
            r.client, r.replies, opts.ops
        );
    }
    // Every op confirmed exactly once from the client's view: one reply
    // each, duplicates are counted separately.
    assert_eq!(fleet.confirmed_ops(), clients * opts.ops);

    let nodes_back = cluster.shutdown();
    verify_sessions(&nodes_back, clients, opts.ops);

    // All nodes shut down through the same barrier-flushing path, so the
    // fleet's writes are committed cluster-wide, not just on the leader.
    let committed = nodes_back
        .iter()
        .map(|n| n.commit_index().0)
        .max()
        .unwrap_or(0);
    assert!(
        committed >= clients * opts.ops,
        "committed index {committed} below total ops {}",
        clients * opts.ops
    );
    if backend == HarnessBackend::Wal {
        // Group commit must amortize: strictly fewer barriers than entries
        // per node (lockstep would be ~1.0+).
        let syncs: u64 = nodes_back.iter().map(|n| n.log().sync_count()).sum();
        let per_entry = syncs as f64 / (committed as f64 * nodes_back.len() as f64);
        assert!(
            per_entry < 1.0,
            "wal sync/entry {per_entry:.3} not amortized below 1.0"
        );
    }
}

#[test]
fn one_node_mem_quick() {
    run(
        1,
        HarnessBackend::Mem,
        8,
        &ClientOptions {
            ops: 10,
            window: 4,
            ..ClientOptions::default()
        },
    );
}

#[test]
fn three_node_mem_exactly_once() {
    run(
        3,
        HarnessBackend::Mem,
        32,
        &ClientOptions {
            ops: 10,
            window: 4,
            ..ClientOptions::default()
        },
    );
}

#[test]
fn three_node_wal_group_commit() {
    run(
        3,
        HarnessBackend::Wal,
        16,
        &ClientOptions {
            ops: 8,
            window: 4,
            ..ClientOptions::default()
        },
    );
}

/// A killed `mem` node keeps its in-memory log, and `Cluster::restart`
/// reopens it like a WAL directory. Once the third member is killed too,
/// the writes that follow can commit only through the restarted node.
#[test]
fn a_killed_mem_node_restarts_from_its_kept_store() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(3, HarnessBackend::Mem));
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("no leader within 10s");
    let mut followers = (1..=3).map(NodeId).filter(|n| *n != leader);
    let (victim, other) = (followers.next().unwrap(), followers.next().unwrap());
    let opts = ClientOptions {
        ops: 10,
        window: 4,
        ..ClientOptions::default()
    };
    assert!(cluster.run_clients(4, &opts).all_completed());

    assert!(cluster.kill(victim));
    cluster.restart(victim);
    assert!(cluster.kill(other));
    let after = ClientOptions {
        session_base: 4,
        ..opts
    };
    let run = cluster.run_clients(4, &after);
    assert!(
        run.all_completed(),
        "{:?}\n{}",
        run.reports,
        cluster.debug_dump()
    );
    let nodes = cluster.shutdown();
    let back = nodes.iter().find(|n| n.id() == victim).expect("restarted");
    assert!(back.log().last_index().0 >= 80);
}

/// A fresh cluster's smallest id campaigns in the round that seats it, and
/// every member is seated before anyone ticks, so the first election is
/// node 1's and the only one. Asserted on who leads and how many elections
/// ran, not on wall-clock time.
#[test]
fn a_launched_cluster_is_led_by_node_1_after_one_election() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(3, HarnessBackend::Wal));
    let leader = cluster.wait_for_leader(Duration::from_secs(10));
    assert_eq!(leader, Some(NodeId(1)), "{}", cluster.debug_dump());
    assert_eq!(cluster.elections(), 1, "{}", cluster.debug_dump());
}

/// Six members boot their WALs in parallel and are still seated as one
/// group: node 1 leads after the only election. A member killed the moment
/// `launch` returns reboots through `Node::reopen`, which refuses a store
/// without boot state — so its boot state was durable before it was
/// seated.
#[test]
fn a_launched_six_node_wal_cluster_is_led_by_node_1_after_one_election() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(6, HarnessBackend::Wal));
    let victim = NodeId(6);
    assert!(cluster.kill(victim));
    cluster.restart(victim);
    let leader = cluster.wait_for_leader(Duration::from_secs(10));
    assert_eq!(leader, Some(NodeId(1)), "{}", cluster.debug_dump());
    assert_eq!(cluster.elections(), 1, "{}", cluster.debug_dump());
    let opts = ClientOptions {
        ops: 5,
        window: 2,
        ..ClientOptions::default()
    };
    assert!(cluster.run_clients(2, &opts).all_completed());
    let nodes = cluster.shutdown();
    assert!(nodes.iter().any(|n| n.id() == victim), "the restarted seat");
}

/// The leader's seat is withdrawn and the survivors elect on their timers;
/// the waiter, blocked on the seat signal, returns the new leader.
#[test]
fn a_waiter_finds_the_successor_of_a_killed_leader() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(3, HarnessBackend::Mem));
    let first = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("no leader within 10s");
    assert!(cluster.kill(first));
    let next = cluster.wait_for_leader_of(ClusterId(1), Duration::from_secs(10));
    assert!(
        next.is_some_and(|n| n != first),
        "after killing {first:?}: {next:?}\n{}",
        cluster.debug_dump()
    );
}

/// A zero timeout is one read of the seat status: with no member alive
/// nothing will ever publish, and the call must not wait for anything.
#[test]
fn a_zero_timeout_wait_probes_once_and_returns() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = Cluster::launch(&ClusterSpec::new(1, HarnessBackend::Mem));
    assert_eq!(
        cluster.wait_for_leader(Duration::from_secs(10)),
        Some(NodeId(1))
    );
    assert!(cluster.kill(NodeId(1)));
    let began = Instant::now();
    assert_eq!(cluster.wait_for_leader(Duration::ZERO), None);
    let took = began.elapsed();
    assert!(took < Duration::from_millis(50), "took {took:?}");
}

/// With every seat on one worker, a linearizable read is one poll round:
/// the leader steps the request and probes its fastest peer, and the
/// in-round passes step the probe at the follower and the ack back at the
/// leader, which serves and replies — all before the worker polls again.
/// Were each same-worker hop left to the next round, probe, ack and serve
/// would take a round each.
#[test]
fn a_read_among_co_hosted_seats_costs_one_worker_round() {
    const READS: u64 = 1_000;
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut spec = ClusterSpec::new(3, HarnessBackend::Mem);
    spec.workers = Some(1);
    let cluster = Cluster::launch(&spec);
    let leader = cluster
        .wait_for_leader(Duration::from_secs(10))
        .expect("no leader within 10s");
    let mut stream = TcpStream::connect(cluster.addrs()[&leader]).expect("dial the leader");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let me = NodeId(CLIENT_BASE + 1);
    let mut seq = 0;
    let mut get = |stream: &mut TcpStream| -> ClientOutcome {
        seq += 1;
        let req = ClientRequest {
            session: SessionId(1),
            seq,
            op: ClientOp::Get {
                key: b"k00000001".to_vec(),
            },
        };
        let env = Envelope::new(me, leader, Message::ClientReq { req });
        write_frame(stream, &env).expect("write get");
        match read_frame(stream) {
            Ok(Some(Envelope {
                msg: Message::ClientResp { resp },
                ..
            })) => resp.outcome,
            other => panic!("expected a ClientResp, got {other:?}"),
        }
    };
    // Until the leader has committed in its term (and timed its peers).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(get(&mut stream), ClientOutcome::Reply { .. }) {
        assert!(Instant::now() < deadline, "the leader never served a read");
        thread::sleep(Duration::from_millis(10));
    }
    let before = cluster.wire_stats();
    for _ in 0..READS {
        let outcome = get(&mut stream);
        assert!(
            matches!(outcome, ClientOutcome::Reply { .. }),
            "read answered with {outcome:?}"
        );
    }
    let after = cluster.wire_stats();
    let per_read = (after.wakeups - before.wakeups) as f64 / READS as f64;
    assert!(
        per_read <= 1.5,
        "{per_read:.2} worker wakeups per read on one worker"
    );
    assert!(
        after.local_deliveries - before.local_deliveries >= 2 * READS,
        "probe and ack were not stepped in-round: {} local deliveries for {READS} reads",
        after.local_deliveries - before.local_deliveries
    );
    drop(stream);
    drop(cluster.shutdown());
}

/// The acceptance-scale fleet. Heavy on small machines (hundreds of
/// threads); run explicitly with `--ignored`, as the nightly soak does.
#[test]
#[ignore = "256 OS threads; run by the nightly soak in release"]
fn three_node_mem_256_clients() {
    run(
        3,
        HarnessBackend::Mem,
        256,
        &ClientOptions {
            ops: 4,
            window: 2,
            deadline: Duration::from_secs(300),
            ..ClientOptions::default()
        },
    );
}
