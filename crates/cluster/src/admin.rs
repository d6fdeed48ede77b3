//! A TCP admin client: delivers [`AdminCmd`]s to a live cluster's leader.
//!
//! This is the fleet controller's transport when it runs against the real
//! harness instead of the simulator — the same `AdminReq`/`AdminResp` wire
//! messages a node's admin plane speaks, over one short-lived loopback
//! connection per attempt.
//!
//! Leader discovery is by probing, under the one admin rule every caller
//! drives ([`AdminCall`]): each attempt goes to the node the last answer
//! pointed at, else to the next candidate in turn. A `NotLeader` naming
//! another node points there; an unreachable node or any other `NotLeader`
//! passes the turn on; the other rejections [`Error::is_transient`] names
//! (P1, P3, `MergeBlocked`) are waited out on the node that gave them,
//! until the deadline. Every other rejection is returned to the caller — a
//! P2 failure is a planning error, not transport noise.

use crate::CLIENT_BASE;
use recraft_fleet::AdminCall;
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{AdminCmd, Envelope, Message, NodeStats};
use recraft_types::{Error, NodeId};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// First retry pause in [`AdminClient::run_on_leader`]; doubles per retry.
const BACKOFF_FLOOR: Duration = Duration::from_millis(10);

/// Retry pause ceiling — keeps the probe responsive to elections (which
/// resolve in a few hundred ms) while not hammering a stuck cluster.
const BACKOFF_CAP: Duration = Duration::from_millis(160);

/// Admin endpoints address themselves above even the client range, so the
/// hosting worker registers the identity on the connection for the response
/// and no session-owning client ever collides with it.
pub const ADMIN_BASE: u64 = 2_000_000;

/// One admin endpoint with a stable identity for response routing.
#[derive(Debug)]
pub struct AdminClient {
    me: NodeId,
    next_req: u64,
    /// Per-attempt socket timeout.
    pub io_timeout: Duration,
}

impl AdminClient {
    /// A client with identity `ADMIN_BASE + idx` (use distinct `idx` for
    /// concurrent admin endpoints).
    #[must_use]
    pub fn new(idx: u64) -> Self {
        AdminClient {
            me: NodeId(ADMIN_BASE + idx),
            next_req: 1,
            io_timeout: Duration::from_millis(500),
        }
    }

    /// Sends `cmd` to the node at `addr` and awaits its verdict. Transport
    /// failures (dial, write, read, timeout) come back as `None`; protocol
    /// verdicts — acceptance or rejection — as `Some`.
    pub fn send_one(
        &mut self,
        addr: SocketAddr,
        to: NodeId,
        cmd: AdminCmd,
    ) -> Option<Result<(), Error>> {
        let request = |req_id| Message::AdminReq { req_id, cmd };
        self.round_trip(addr, to, request, |msg| match msg {
            Message::AdminResp { req_id, result } => Some((req_id, result)),
            _ => None,
        })
    }

    /// Asks the node at `addr` for its live [`NodeStats`] — the sampling
    /// plane's one query. Any node answers for itself (leader or not);
    /// transport failures come back as `None`.
    pub fn fetch_stats(&mut self, addr: SocketAddr, to: NodeId) -> Option<NodeStats> {
        let request = |req_id| Message::StatsReq { req_id };
        self.round_trip(addr, to, request, |msg| match msg {
            Message::StatsResp { req_id, stats } => Some((req_id, *stats)),
            _ => None,
        })
    }

    /// One exchange over a fresh connection: dials `addr`, writes the
    /// request `request` builds for a new `req_id`, and reads until `answer`
    /// finds the reply carrying that `req_id`. The dial and each read wait
    /// at most `io_timeout`; transport failures come back as `None`.
    fn round_trip<T>(
        &mut self,
        addr: SocketAddr,
        to: NodeId,
        request: impl FnOnce(u64) -> Message,
        answer: impl Fn(Message) -> Option<(u64, T)>,
    ) -> Option<T> {
        let req_id = self.next_req;
        self.next_req += 1;
        let mut stream = TcpStream::connect_timeout(&addr, self.io_timeout).ok()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.io_timeout));
        write_frame(&mut stream, &Envelope::new(self.me, to, request(req_id))).ok()?;
        loop {
            let env = read_frame(&mut stream).ok()??;
            match answer(env.msg) {
                Some((rid, found)) if rid == req_id => return Some(found),
                _ => {}
            }
        }
    }

    /// Delivers `cmd` to whichever of `candidates` is leader, each attempt
    /// going where an [`AdminCall`] points (a hint outside `candidates`
    /// counts as unreachable), until `deadline`.
    /// Retry pauses start at 10 ms and double to a 160 ms cap, so a cluster
    /// that stays unready is probed gently instead of hammered.
    ///
    /// Returns the node that accepted, or the last rejection seen.
    ///
    /// # Errors
    /// [`Error::DeadlineExceeded`] when the deadline elapses before any
    /// candidate answers at all; the last retryable rejection when
    /// candidates answered but none accepted in time; the first
    /// non-retryable rejection otherwise.
    pub fn run_on_leader(
        &mut self,
        candidates: &BTreeMap<NodeId, SocketAddr>,
        cmd: &AdminCmd,
        deadline: Duration,
    ) -> Result<NodeId, Error> {
        let until = Instant::now() + deadline;
        let mut call = AdminCall::new(cmd.clone());
        let mut backoff = BACKOFF_FLOOR;
        let mut last_err: Option<Error> = None;
        while Instant::now() < until {
            let Some(id) = call.target(None, candidates.keys().copied()) else {
                let none = format!("{}: no candidate nodes", cmd.kind());
                return Err(Error::DeadlineExceeded(none));
            };
            let send = |addr: &SocketAddr| self.send_one(*addr, id, cmd.clone());
            let answer = candidates.get(&id).and_then(send);
            last_err = answer.clone().and_then(Result::err).or(last_err);
            if let Some(end) = call.on_answer(id, answer) {
                return end.map(|()| id);
            }
            thread::sleep(backoff.min(until.saturating_duration_since(Instant::now())));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
        Err(last_err.unwrap_or_else(|| {
            Error::DeadlineExceeded(format!(
                "{}: no candidate reachable within {deadline:?}",
                cmd.kind()
            ))
        }))
    }
}

/// `NodeId(CLIENT_BASE)`-relative sanity: admin ids must sit above client
/// ids so the two identity ranges never collide.
const _: () = assert!(ADMIN_BASE > CLIENT_BASE);

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A leader in a merge's data exchange answers `MergeBlocked`; once the
    /// exchange is over it accepts. The client waits that out on the same
    /// node, as it does P1 and P3, instead of failing the command.
    #[test]
    fn a_merge_blocked_answer_is_waited_out_on_the_same_node() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let candidates = BTreeMap::from([(NodeId(1), listener.local_addr().expect("addr"))]);
        let server = thread::spawn(move || {
            let mut answers = vec![Err(Error::MergeBlocked), Ok(())].into_iter();
            for conn in listener.incoming() {
                let mut stream = conn.expect("accept");
                let Ok(Some(env)) = read_frame(&mut stream) else {
                    continue;
                };
                let Message::AdminReq { req_id, .. } = env.msg else {
                    continue;
                };
                let result = answers.next().expect("asked at most twice");
                let done = result.is_ok();
                let msg = Message::AdminResp { req_id, result };
                write_frame(&mut stream, &Envelope::new(NodeId(1), env.from, msg)).expect("answer");
                if done {
                    return answers.len();
                }
            }
            unreachable!("the listener outlives its answers")
        });
        let accepted = AdminClient::new(0).run_on_leader(
            &candidates,
            &AdminCmd::ProposeNoop,
            Duration::from_secs(5),
        );
        assert_eq!(accepted, Ok(NodeId(1)));
        assert_eq!(server.join().expect("server"), 0, "both answers were read");
    }

    /// A fake node `id` on a fresh loopback port: it answers the admin
    /// requests it is sent with `answers`, in order, until a connection
    /// brings no request ([`stop`]), and returns how many it was sent.
    fn fake_node(
        id: u64,
        answers: Vec<Result<(), Error>>,
    ) -> (SocketAddr, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let mut answers = answers.into_iter();
            let mut asked = 0;
            for conn in listener.incoming() {
                let mut stream = conn.expect("accept");
                let Ok(Some(env)) = read_frame(&mut stream) else {
                    return asked;
                };
                let Message::AdminReq { req_id, .. } = env.msg else {
                    continue;
                };
                asked += 1;
                let result = answers.next().expect("asked once too often");
                let msg = Message::AdminResp { req_id, result };
                write_frame(&mut stream, &Envelope::new(NodeId(id), env.from, msg))
                    .expect("answer");
            }
            unreachable!("the listener outlives its answers")
        });
        (addr, server)
    }

    /// Stops a [`fake_node`] and returns how many requests it was sent.
    fn stop((addr, server): (SocketAddr, thread::JoinHandle<usize>)) -> usize {
        drop(TcpStream::connect(addr).expect("the fake node listens"));
        server.join().expect("server")
    }

    fn run(candidates: &BTreeMap<NodeId, SocketAddr>) -> Result<NodeId, Error> {
        let cmd = AdminCmd::ProposeNoop;
        AdminClient::new(0).run_on_leader(candidates, &cmd, Duration::from_secs(5))
    }

    /// A `NotLeader` naming another candidate sends the next attempt there,
    /// and the node that named it is not asked again.
    #[test]
    fn a_named_leader_is_asked_next() {
        let one = fake_node(1, vec![Err(Error::NotLeader(Some(NodeId(2))))]);
        let two = fake_node(2, vec![Ok(())]);
        let candidates = BTreeMap::from([(NodeId(1), one.0), (NodeId(2), two.0)]);
        assert_eq!(run(&candidates), Ok(NodeId(2)));
        assert_eq!(stop(one), 1, "node 1 is asked exactly once");
        assert_eq!(stop(two), 1);
    }

    /// A rejection no retry cures comes back after the one attempt.
    #[test]
    fn a_rejection_no_retry_cures_comes_back_at_once() {
        let invalid = Error::InvalidConfig("stale".into());
        let one = fake_node(1, vec![Err(invalid.clone())]);
        let two = fake_node(2, Vec::new());
        let candidates = BTreeMap::from([(NodeId(1), one.0), (NodeId(2), two.0)]);
        assert_eq!(run(&candidates), Err(invalid));
        assert_eq!(stop(one), 1);
        assert_eq!(stop(two), 0, "no second attempt");
    }

    /// A candidate whose port refuses connections is passed over.
    #[test]
    fn an_unreachable_candidate_is_passed_over() {
        let closed = TcpListener::bind("127.0.0.1:0").expect("bind");
        let refused = closed.local_addr().expect("addr");
        drop(closed);
        let two = fake_node(2, vec![Ok(())]);
        let candidates = BTreeMap::from([(NodeId(1), refused), (NodeId(2), two.0)]);
        assert_eq!(run(&candidates), Ok(NodeId(2)));
        assert_eq!(stop(two), 1);
    }
}
