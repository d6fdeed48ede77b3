//! A `SessionStale` answer is never a confirmation.
//!
//! The server's session table keeps the reply of every applied sequence
//! number within `SESSION_WINDOW` of a session's highest, and the client
//! issues a number only while it stays within that window of its oldest
//! pending one. So a cluster that keeps the window answers every retry of a
//! pending write with a `Reply` — applied once, or replayed from the table —
//! and never with `SessionStale`. The exactly-once property itself is
//! checked on the real `Node` (the core tests of a write bounced by
//! `MergeBlocked`, and of a write left unapplied across a split and merge
//! back). What this file pins is the client's side: faced with a server
//! that does answer `SessionStale` for a pending write, the client does not
//! count the write as applied, and the run ends incomplete.
//!
//! The server is *scripted*: a plain listener speaking the client frame
//! protocol with hand-written answers, so the exact interleaving happens
//! every run.

use recraft_cluster::{run_open_loop, ClientOptions, CLIENT_BASE};
use recraft_kv::KvResp;
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, Error, NodeId, SessionId,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::thread;
use std::time::Duration;

/// Serves `listener` as node `me`: every `ClientReq` frame is answered by
/// `script`, on every connection the client dials, until the process ends
/// (the thread is detached; the listener dies with the test).
fn scripted_server(
    listener: TcpListener,
    me: NodeId,
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
                }
            }
        })
        .expect("spawn scripted server");
}

/// The interleaving a window-less table could produce: seq 1 bounces with
/// `MergeBlocked` before it is proposed, seq 2 applies, and the resend of
/// seq 1 meets `SessionStale`. Seq 1 never applied, so the client must not
/// confirm it: it gives the write up, counts it stale, and the run ends
/// `completed: false` with only seq 2 replied.
#[test]
fn a_stale_answer_for_a_pending_write_is_never_a_confirmation() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node 1");
    let addrs = BTreeMap::from([(NodeId(1), listener.local_addr().expect("addr 1"))]);
    let mut bounced = false;
    scripted_server(listener, NodeId(1), move |req| match (&req.op, req.seq) {
        (ClientOp::Command { .. }, 1) if !bounced => {
            bounced = true;
            ClientOutcome::Rejected {
                error: Error::MergeBlocked,
            }
        }
        (ClientOp::Command { .. }, 1) => ClientOutcome::Rejected {
            error: Error::SessionStale,
        },
        (_, seq) => ClientOutcome::Reply {
            payload: KvResp::Ok { revision: seq }.encode(),
        },
    });
    let opts = ClientOptions {
        ops: 2,
        window: 2,
        value_size: 16,
        read_timeout: Duration::from_millis(500),
        deadline: Duration::from_secs(20),
        ..ClientOptions::default()
    };
    let reports = run_open_loop(&addrs, 1, &opts);
    let r = &reports[0];
    assert_eq!(r.stale, 1, "seq 1's stale answer was not counted: {r:?}");
    assert_eq!(r.replies, 1, "only seq 2 was replied: {r:?}");
    assert!(!r.completed, "a stale answer completed the run: {r:?}");
}

/// Sanity: the client wire identity used by the scripted server's replies
/// (`env.from`) is the session plus [`CLIENT_BASE`] — pin the convention the
/// script relies on.
#[test]
fn scripted_reply_addressing_matches_client_identity() {
    assert_eq!(SessionId(0).0 + CLIENT_BASE, NodeId(CLIENT_BASE).0);
}
