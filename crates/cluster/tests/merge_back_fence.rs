//! Deterministic regression for the merge-back stale-confirm race.
//!
//! The race (crates/cluster/src/clients.rs module docs, "one reconfiguration
//! sequence can cross generations"): a write parks on `WrongRange`, the
//! refusing lineage splits and merges back *before* the client ever re-sends,
//! and the merged session table — a per-session max across both lineages —
//! answers the re-send with `SessionStale` even though the write never
//! applied anywhere. The pre-fence client took that answer as confirmation
//! and silently lost the write.
//!
//! The fleet suites only hit this window probabilistically. Here the servers
//! are *scripted*: plain listeners speaking the client frame protocol with
//! hand-written answers, and the directory is hand-published, so the exact
//! interleaving — park, generation bump, stale answer — happens every run.
//! The assertions pin the fixed behavior precisely where the old client
//! misbehaved: no `stale_confirmed` on faith, a probe read, and a reissue
//! when the probe proves the write was burned.

use bytes::Bytes;
use recraft_cluster::{run_open_loop, ClientOptions, FleetNet, FleetView, CLIENT_BASE};
use recraft_kv::KvResp;
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterId, Error, NodeId, RangeSet,
    SessionId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::Sender;
use std::thread;
use std::time::Duration;

/// The unique value client `idx` writes at `seq` — must mirror the client's
/// own `value_for` so a scripted probe answer can claim "applied".
fn value_of(idx: u64, seq: u64, size: usize) -> Bytes {
    let mut v = format!("c{idx}-s{seq}-").into_bytes();
    v.resize(size.max(v.len()), b'x');
    Bytes::from(v)
}

/// Serves `listener` as node `me`: every `ClientReq` frame is answered by
/// `script`, on every connection the client dials, until the process ends
/// (the thread is detached; listeners die with the test).
fn scripted_server(
    listener: TcpListener,
    me: NodeId,
    notify: Option<Sender<()>>,
    mut script: impl FnMut(&ClientRequest) -> ClientOutcome + Send + 'static,
) {
    thread::Builder::new()
        .name(format!("scripted-{}", me.0))
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                while let Ok(Some(env)) = read_frame(&mut s) {
                    let Message::ClientReq { req } = env.msg else {
                        continue;
                    };
                    let resp = ClientResponse {
                        session: req.session,
                        seq: req.seq,
                        outcome: script(&req),
                    };
                    let reply = Envelope::new(me, env.from, Message::ClientResp { resp });
                    if write_frame(&mut s, &reply).is_err() {
                        break;
                    }
                    if let Some(tx) = &notify {
                        let _ = tx.send(());
                    }
                }
            }
        })
        .expect("spawn scripted server");
}

/// One full-keyspace directory record.
fn record(cluster: u64, member: u64, epoch: u32) -> (ClusterId, RangeSet, BTreeSet<NodeId>, u32) {
    (
        ClusterId(cluster),
        RangeSet::full(),
        BTreeSet::from([NodeId(member)]),
        epoch,
    )
}

struct Stage {
    view: std::sync::Arc<FleetView>,
    addrs: BTreeMap<NodeId, SocketAddr>,
    l1: TcpListener,
    l2: TcpListener,
}

/// Two scripted nodes on loopback, node 1 routed as the boot cluster.
fn stage(boot_epoch: u32) -> Stage {
    let l1 = TcpListener::bind("127.0.0.1:0").expect("bind node 1");
    let l2 = TcpListener::bind("127.0.0.1:0").expect("bind node 2");
    let net = FleetNet::new();
    net.register(NodeId(1), l1.local_addr().expect("addr 1"));
    net.register(NodeId(2), l2.local_addr().expect("addr 2"));
    let view = FleetView::new(net);
    view.publish([record(1, 1, boot_epoch)]);
    let addrs = BTreeMap::from([(NodeId(1), l1.local_addr().expect("addr 1"))]);
    Stage {
        view,
        addrs,
        l1,
        l2,
    }
}

fn opts(view: &std::sync::Arc<FleetView>) -> ClientOptions {
    ClientOptions {
        ops: 1,
        window: 1,
        value_size: 16,
        key_count: 10_000,
        read_timeout: Duration::from_millis(500),
        deadline: Duration::from_secs(20),
        view: Some(std::sync::Arc::clone(view)),
        ..ClientOptions::default()
    }
}

/// The core race, burned-write arm: the parked write's re-send lands on a
/// *merged* generation (epoch moved past the refuser), the table answers
/// `SessionStale`, and the probe read finds nothing — the write never
/// applied and its sequence number is blocked forever. The client must not
/// count a confirmation; it must reissue under a fresh sequence number.
///
/// The pre-fence client fails exactly here: it counted `stale_confirmed: 1`
/// (a silently lost write) and never probed or reissued.
#[test]
fn merged_generation_stale_answer_is_probed_and_burned_write_reissued() {
    let stage = stage(1);
    let (tx, rx) = std::sync::mpsc::channel();

    // Node 1 (boot cluster, epoch 1): refuses everything — the park.
    scripted_server(stage.l1, NodeId(1), Some(tx), |_| ClientOutcome::Rejected {
        error: Error::WrongRange(None),
    });

    // Node 2 (merged cluster 9, epoch 3): the merged table burned seq 1, so
    // the re-sent write gets `SessionStale`; the probe read finds the key
    // absent; the reissue under seq 2 applies.
    scripted_server(stage.l2, NodeId(2), None, |req| match (&req.op, req.seq) {
        (ClientOp::Command { .. }, 1) => ClientOutcome::Rejected {
            error: Error::SessionStale,
        },
        (ClientOp::Get { .. }, 1) => ClientOutcome::Reply {
            payload: KvResp::Value {
                revision: 7,
                value: None,
            }
            .encode(),
        },
        (ClientOp::Command { .. }, seq) => ClientOutcome::Reply {
            payload: KvResp::Ok { revision: seq }.encode(),
        },
        (ClientOp::Get { .. }, _) => ClientOutcome::Reply {
            payload: KvResp::Value {
                revision: 7,
                value: None,
            }
            .encode(),
        },
    });

    let view = std::sync::Arc::clone(&stage.view);
    let o = opts(&stage.view);
    let addrs = stage.addrs.clone();
    let load = thread::spawn(move || run_open_loop(&addrs, 1, &o));

    // The client parked (node 1 answered `WrongRange`). Now the refusing
    // lineage "merges back": the key's route jumps to cluster 9 at epoch 3,
    // strictly past the epoch the client parked under — the fence case.
    rx.recv_timeout(Duration::from_secs(10))
        .expect("node 1 never saw the write");
    view.publish([record(9, 2, 3)]);

    let reports = load.join().expect("client thread");
    let r = &reports[0];
    assert!(r.completed, "client never completed: {r:?}");
    assert_eq!(r.wrong_range, 1, "the park never happened: {r:?}");
    assert_eq!(
        r.stale_confirmed, 0,
        "burned write was confirmed on faith — the pre-fence bug: {r:?}"
    );
    assert_eq!(r.probes, 1, "fenced stale answer must be probed: {r:?}");
    assert_eq!(r.reissued, 1, "burned write must be reissued: {r:?}");
    assert_eq!(r.replies, 1, "the reissue's reply settles the op: {r:?}");
    assert_eq!(
        r.last_seq, 2,
        "reissue draws a fresh wire sequence number: {r:?}"
    );
}

/// The core race, applied arm: same fenced interleaving, but the probe read
/// finds the write's unique value resident — the write did apply (only its
/// reply was lost), so the probe confirms it and nothing is reissued.
#[test]
fn merged_generation_stale_answer_probe_confirms_applied_write() {
    let stage = stage(1);
    let (tx, rx) = std::sync::mpsc::channel();

    scripted_server(stage.l1, NodeId(1), Some(tx), |_| ClientOutcome::Rejected {
        error: Error::WrongRange(None),
    });

    // Node 2: stale answer for the re-send, but the probe finds the value
    // client 0 wrote at seq 1 (16-byte values, mirroring the options).
    scripted_server(stage.l2, NodeId(2), None, |req| match (&req.op, req.seq) {
        (ClientOp::Command { .. }, 1) => ClientOutcome::Rejected {
            error: Error::SessionStale,
        },
        _ => ClientOutcome::Reply {
            payload: KvResp::Value {
                revision: 7,
                value: Some(value_of(0, 1, 16)),
            }
            .encode(),
        },
    });

    let view = std::sync::Arc::clone(&stage.view);
    let o = opts(&stage.view);
    let addrs = stage.addrs.clone();
    let load = thread::spawn(move || run_open_loop(&addrs, 1, &o));

    rx.recv_timeout(Duration::from_secs(10))
        .expect("node 1 never saw the write");
    view.publish([record(9, 2, 3)]);

    let reports = load.join().expect("client thread");
    let r = &reports[0];
    assert!(r.completed, "client never completed: {r:?}");
    assert_eq!(r.probes, 1, "fenced stale answer must be probed: {r:?}");
    assert_eq!(
        r.stale_confirmed, 1,
        "probe found the value — confirmed: {r:?}"
    );
    assert_eq!(r.reissued, 0, "applied write must not be reissued: {r:?}");
    assert_eq!(r.last_seq, 1, "no reissue, no extra sequence: {r:?}");
}

/// The negative control: a parked window re-routed to a *sibling* of the
/// same generation (a split child — same epoch value, no merge in between)
/// keeps the plain `SessionStale ⇒ applied` inference. No fence, no probe:
/// the stale answer confirms directly, exactly as before the fix.
#[test]
fn same_generation_sibling_stale_answer_confirms_without_probe() {
    let stage = stage(5);
    let (tx, rx) = std::sync::mpsc::channel();

    scripted_server(stage.l1, NodeId(1), Some(tx), |_| ClientOutcome::Rejected {
        error: Error::WrongRange(None),
    });

    // Node 2 plays the split sibling (cluster 2, same epoch 5): its
    // inherited table already holds a higher sequence, so the re-send gets
    // `SessionStale` — which, within one generation, proves application.
    scripted_server(stage.l2, NodeId(2), None, |_| ClientOutcome::Rejected {
        error: Error::SessionStale,
    });

    let view = std::sync::Arc::clone(&stage.view);
    let o = opts(&stage.view);
    let addrs = stage.addrs.clone();
    let load = thread::spawn(move || run_open_loop(&addrs, 1, &o));

    rx.recv_timeout(Duration::from_secs(10))
        .expect("node 1 never saw the write");
    // Sibling route: different cluster, same reconfiguration epoch.
    view.publish([record(2, 2, 5)]);

    let reports = load.join().expect("client thread");
    let r = &reports[0];
    assert!(r.completed, "client never completed: {r:?}");
    assert_eq!(
        r.stale_confirmed, 1,
        "same-generation inference must still confirm: {r:?}"
    );
    assert_eq!(r.probes, 0, "no fence, no probe: {r:?}");
    assert_eq!(r.reissued, 0, "nothing burned, nothing reissued: {r:?}");
    assert_eq!(r.last_seq, 1, "{r:?}");
}

/// A known gap, pinned: sent is not accepted. A leader answers
/// `MergeBlocked` *before* proposing (a split's leave phase, a pending merge
/// outcome), and the session table takes any sequence number above its max
/// as fresh — so seq 1 can bounce while seq 2 of the same window lands once
/// the gate lifts. The resend of seq 1 then meets `SessionStale` within one
/// generation, where the client infers "applied" without a probe, and a
/// write that never applied is counted as confirmed. Un-ignore once the
/// client settles this case by reading, as it does for fenced writes.
#[test]
#[ignore = "open: the client confirms a write that bounced with MergeBlocked"]
fn a_bounced_write_overtaken_by_its_successor_is_not_confirmed_on_faith() {
    let stage = stage(1);
    let mut bounced = false;
    scripted_server(stage.l1, NodeId(1), None, move |req| {
        match (&req.op, req.seq) {
            (ClientOp::Command { .. }, 1) if !bounced => {
                bounced = true;
                ClientOutcome::Rejected {
                    error: Error::MergeBlocked,
                }
            }
            (ClientOp::Command { .. }, 1) => ClientOutcome::Rejected {
                error: Error::SessionStale,
            },
            (ClientOp::Get { .. }, _) => ClientOutcome::Reply {
                payload: KvResp::Value {
                    revision: 7,
                    value: None,
                }
                .encode(),
            },
            (ClientOp::Command { .. }, seq) => ClientOutcome::Reply {
                payload: KvResp::Ok { revision: seq }.encode(),
            },
        }
    });
    let o = ClientOptions {
        ops: 2,
        window: 2,
        ..opts(&stage.view)
    };
    let reports = run_open_loop(&stage.addrs, 1, &o);
    let r = &reports[0];
    assert!(r.completed, "client never completed: {r:?}");
    assert_eq!(
        r.stale_confirmed, 0,
        "seq 1 never applied, yet was confirmed: {r:?}"
    );
}

/// Sanity: the client wire identity used by the scripted servers' replies
/// (`env.from`) is the session plus [`CLIENT_BASE`] — pin the convention the
/// scripts rely on.
#[test]
fn scripted_reply_addressing_matches_client_identity() {
    assert_eq!(SessionId(0).0 + CLIENT_BASE, NodeId(CLIENT_BASE).0);
}
