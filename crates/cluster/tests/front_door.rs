//! The front door and the reply path, driven with raw sockets: what a
//! worker does with a connection that misbehaves, stalls, is duplicated, or
//! addresses the wrong node.
//!
//! Every test hosts its nodes on one worker, so "the worker is not stalled
//! or spinning" is a statement about the only thread there is. Clusters
//! contend for the same cores, so the tests serialize on one lock.

use bytes::Bytes;
use recraft_cluster::{
    AdminClient, ClientOptions, Cluster, ClusterSpec, HarnessBackend, ADMIN_BASE, CLIENT_BASE,
};
use recraft_kv::KvCmd;
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{AdminCmd, Envelope, Message};
use recraft_types::{ClientOp, ClientOutcome, ClientRequest, NodeId, SessionId};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// `nodes` mem nodes on one worker, with a leader elected.
fn launch(nodes: usize) -> Cluster {
    let mut spec = ClusterSpec::new(nodes, HarnessBackend::Mem);
    spec.workers = Some(1);
    let cluster = Cluster::launch(&spec);
    assert!(
        cluster.wait_for_leader(Duration::from_secs(10)).is_some(),
        "no leader within 10s"
    );
    cluster
}

fn dial(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("dial front door");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    stream
}

fn send_stats_req(stream: &mut TcpStream, from: NodeId, to: NodeId, req_id: u64) {
    let msg = Message::StatsReq { req_id };
    write_frame(stream, &Envelope { from, to, msg }).expect("write stats request");
}

/// The next frame on `stream`, which must be a `StatsResp`: `(from, req_id)`.
fn read_stats_resp(stream: &mut TcpStream) -> (NodeId, u64) {
    match read_frame(stream) {
        Ok(Some(Envelope {
            from,
            msg: Message::StatsResp { req_id, .. },
            ..
        })) => (from, req_id),
        other => panic!("expected a StatsResp, got {other:?}"),
    }
}

/// Asserts that nothing is waiting to be read on `stream`.
fn assert_silent(stream: &TcpStream, what: &str) {
    stream.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    match (&*stream).read(&mut byte) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("{what}: expected no bytes, read returned {other:?}"),
    }
    stream.set_nonblocking(false).expect("blocking");
}

/// Four bytes that are neither a frame length within bounds nor the mux
/// magic close the connection in the round that reads them, although the
/// peer keeps its end open: the worker goes back to sleeping until its next
/// protocol deadline, and keeps serving everyone else.
#[test]
fn garbage_held_open_does_not_spin() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch(1);
    let addr = cluster.addrs()[&NodeId(1)];
    let window = Duration::from_millis(500);
    let wakeups_over_window = || {
        let before = cluster.wire_stats().wakeups;
        thread::sleep(window);
        cluster.wire_stats().wakeups - before
    };

    let idle = wakeups_over_window();
    let mut junk = dial(addr);
    junk.write_all(&[0xFF, 0xFF, 0xFF, 0xF0])
        .expect("write garbage");
    let held_open = wakeups_over_window();
    assert!(
        held_open <= 10 * idle.max(1),
        "worker spins on a held-open garbage connection: {held_open} wakeups in {window:?} \
         against {idle} idle"
    );

    let accepted_by = AdminClient::new(0).run_on_leader(
        &cluster.addrs(),
        &AdminCmd::ProposeNoop,
        Duration::from_secs(5),
    );
    assert_eq!(accepted_by, Ok(NodeId(1)), "node stopped answering");

    let mut byte = [0u8; 1];
    match junk.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("garbage connection was not closed by the server: {other:?}"),
    }
    drop(cluster.shutdown());
}

/// A client that stops reading cannot hold more than the kernel's socket
/// buffers plus the reply-buffer cap of the node's memory, and costs the
/// clients beside it nothing.
#[test]
fn client_that_never_reads_is_cut_off_while_others_complete() {
    const GETS: u64 = 128;
    const VALUE_BYTES: usize = 256 * 1024;
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch(1);
    let node = NodeId(1);
    let addr = cluster.addrs()[&node];
    let me = NodeId(CLIENT_BASE + 900);
    let session = SessionId(900);
    let key = b"big".to_vec();
    let request = |seq: u64, op: ClientOp| {
        let req = ClientRequest { session, seq, op };
        Envelope::new(me, node, Message::ClientReq { req })
    };

    let mut stalled = dial(addr);
    let put = KvCmd::Put {
        key: key.clone(),
        value: Bytes::from(vec![b'v'; VALUE_BYTES]),
    };
    let cmd = put.encode();
    let op = ClientOp::Command {
        key: key.clone(),
        cmd,
    };
    write_frame(&mut stalled, &request(1, op)).expect("write put");
    match read_frame(&mut stalled) {
        Ok(Some(Envelope {
            msg: Message::ClientResp { resp },
            ..
        })) if matches!(resp.outcome, ClientOutcome::Reply { .. }) => {}
        other => panic!("put not confirmed: {other:?}"),
    }

    // 32 MiB of replies, far past what loopback socket buffers hold, and
    // nobody reading them.
    for seq in 2..2 + GETS {
        let op = ClientOp::Get { key: key.clone() };
        write_frame(&mut stalled, &request(seq, op)).expect("write get");
    }

    let opts = ClientOptions {
        ops: 50,
        window: 4,
        deadline: Duration::from_secs(60),
        ..ClientOptions::default()
    };
    let run = cluster.run_clients(1, &opts);
    assert!(
        run.all_completed(),
        "a well-behaved client starved behind a stalled one: {:?}",
        run.reports
    );

    // Whatever the kernel had buffered still arrives; the rest never does.
    let mut delivered = 0;
    while let Ok(Some(_)) = read_frame(&mut stalled) {
        delivered += 1;
    }
    assert!(
        delivered < GETS,
        "all {GETS} replies reached a client that was not reading"
    );
    drop(cluster.shutdown());
}

/// A client that dials again under the same identity, leaving its first
/// socket open, is answered on the new connection from then on — also for a
/// request it still sends down the old one.
#[test]
fn replies_follow_the_newest_connection_of_an_identity() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch(1);
    let node = NodeId(1);
    let addr = cluster.addrs()[&node];
    let me = NodeId(ADMIN_BASE + 77);

    let mut first = dial(addr);
    send_stats_req(&mut first, me, node, 1);
    assert_eq!(read_stats_resp(&mut first), (node, 1));

    let mut second = dial(addr);
    send_stats_req(&mut second, me, node, 2);
    assert_eq!(read_stats_resp(&mut second), (node, 2));

    send_stats_req(&mut first, me, node, 3);
    send_stats_req(&mut second, me, node, 4);
    let mut later = [read_stats_resp(&mut second), read_stats_resp(&mut second)];
    later.sort_unstable();
    assert_eq!(later, [(node, 3), (node, 4)]);
    assert_silent(&first, "superseded connection");
    drop(cluster.shutdown());
}

/// An envelope that arrives at one node's front door addressed to another
/// node goes nowhere: it is neither stepped nor answered, and the
/// connection keeps serving requests for the node behind the door.
#[test]
fn envelope_for_another_node_is_dropped_at_the_door() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cluster = launch(3);
    let door = NodeId(1);
    let addr = cluster.addrs()[&door];
    let me = NodeId(ADMIN_BASE + 78);

    let mut stream = dial(addr);
    send_stats_req(&mut stream, me, NodeId(2), 1);
    send_stats_req(&mut stream, me, door, 2);
    assert_eq!(read_stats_resp(&mut stream), (door, 2));
    send_stats_req(&mut stream, me, door, 3);
    assert_eq!(read_stats_resp(&mut stream), (door, 3));
    assert_silent(&stream, "after the misaddressed request");
    drop(cluster.shutdown());
}
