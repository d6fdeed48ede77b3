//! The load generator: one thread, at most two connections, 64 sessions.
//!
//! The harness's own `run_open_loop` is thread-per-session and records no
//! latency, so the benchmark brings its own client. All 64 logical sessions
//! ride one framed connection per leader currently addressed: the envelope's
//! `from` is a single client id (replies route on it) and the session lives
//! inside the `ClientRequest`. A session has at most one operation
//! outstanding and only ever touches the keys it owns
//! ([`crate::schedule::owner_of`]), which makes every retry under the same
//! `(session, seq)` exactly-once-safe and every read's expected value exact.
//!
//! Two load shapes run on the same machinery:
//!
//! * **open loop** — arrivals come from a seeded Poisson [`Schedule`]; an
//!   arrival takes a free session or waits in the generator's queue, and its
//!   latency runs from the *due* time to the confirming `Reply`, across every
//!   `Redirect` / `NotLeader` / `WrongRange` / reconnect retry in between;
//! * **closed loop** — every free session issues at once (preload, warm-up,
//!   saturation).

use crate::hist::Hist;
use crate::schedule::{self, Arrival, Schedule, KEYS, SESSIONS};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use bytes::Bytes;
use recraft_cluster::CLIENT_BASE;
use recraft_kv::{KvCmd, KvResp};
use recraft_net::frame::encode_frame;
use recraft_net::mux::MuxReader;
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterId, Error, NodeId, RangeSet,
    SessionId,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// An operation unconfirmed this long after its due time is failed. As long
/// as a reconfiguration step may take before it fails the run: `merge` and
/// `AddAndResize` block writes for their whole duration, and two slow steps
/// back to back have been seen to block for over five seconds.
pub const OP_DEADLINE: Duration = Duration::from_secs(10);
/// The latency limit behind the availability metrics.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Connections the generator may hold at once.
const MAX_CONNS: usize = 2;
/// An unanswered request is re-sent after this long (a reply lost to a
/// leader change the node did not announce).
const RESEND_AFTER: Duration = Duration::from_millis(400);
/// Pause before retrying after a stale route or a broken connection.
const TRANSIENT_BACKOFF: Duration = Duration::from_millis(5);
/// While a cluster is not serving (no leader, `MergeBlocked`, a dropped
/// proposal, a leader yet to commit in its term) one operation probes it
/// this often and the rest wait — 64 sessions each retrying on their own
/// would load the very leader whose recovery is being timed.
const PROBE_EVERY: Duration = Duration::from_millis(5);
/// How long a node that refused a dial, or answered that it does not lead,
/// is passed over when looking for a leader. Without this a stale hint
/// chain (follower → deposed leader → follower …) can orbit forever past
/// the node that actually leads.
const SKIP_FOR: Duration = Duration::from_millis(100);

/// One serving cluster as the generator routes to it.
#[derive(Debug, Clone)]
pub struct Route {
    pub cluster: ClusterId,
    pub ranges: RangeSet,
    pub members: Vec<(NodeId, SocketAddr)>,
    pub leader: Option<NodeId>,
}

/// State shared between the generator thread and whoever reshapes the
/// cluster under it (the reconfiguration script).
pub struct Shared {
    /// The zero of every cross-thread timestamp.
    pub epoch: Instant,
    routes: RwLock<Vec<Route>>,
    version: AtomicU64,
    /// Send time (ns since `epoch`) of the most recently *sent* request that
    /// has been confirmed: a value past a kill's timestamp proves the
    /// surviving cluster served a request it received after the kill.
    pub confirmed_sent_ns: AtomicU64,
}

impl Shared {
    pub fn new(routes: Vec<Route>) -> Shared {
        Shared {
            epoch: Instant::now(),
            routes: RwLock::new(routes),
            version: AtomicU64::new(1),
            confirmed_sent_ns: AtomicU64::new(0),
        }
    }

    /// Replaces the route table.
    pub fn publish(&self, routes: Vec<Route>) {
        *self.routes.write().expect("route table lock") = routes;
        self.version.fetch_add(1, Ordering::Release);
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// How a phase offers load.
pub enum Load<'a> {
    /// Fixed-rate open loop for `duration`, from a seeded schedule — and for
    /// as long after that as `hold_open` stays set (the reconfiguration
    /// script needs load to observe until its last step completes).
    Open {
        schedule: &'a mut Schedule,
        duration: Duration,
        hold_open: Option<&'a AtomicBool>,
    },
    /// Closed loop until `ops` operations were issued, drawn from `schedule`.
    ClosedOps {
        schedule: &'a mut Schedule,
        ops: u64,
    },
    /// Closed loop for `duration`, drawn from `schedule` (saturation).
    ClosedFor {
        schedule: &'a mut Schedule,
        duration: Duration,
    },
    /// Every session writes each key it owns once, in order.
    Preload,
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseStats {
    /// Due time → confirming reply, nanoseconds.
    pub latency: Hist,
    /// Due time → first byte handed to a socket, nanoseconds.
    pub lag: Hist,
    /// Wall time the phase offered load for.
    pub span: Duration,
    pub attempted: u64,
    pub confirmed: u64,
    /// Confirmations that landed inside `span` (closed-loop throughput).
    pub confirmed_in_span: u64,
    pub failed: u64,
    /// Confirmed later than [`LATENCY_LIMIT`] after the due time.
    pub over_limit: u64,
    /// `(due, latency)` of every over-limit or failed operation, for
    /// attributing unavailability to reconfiguration steps.
    pub slow: Vec<(Instant, Duration)>,
    pub retries: u64,
    pub redirects: u64,
    pub wrong_range: u64,
    pub reconnects: u64,
    /// Value bytes of confirmed writes.
    pub user_bytes: u64,
}

struct Conn {
    node: NodeId,
    stream: TcpStream,
    reader: MuxReader,
    out: Vec<u8>,
    last_used: Instant,
}

struct Op {
    seq: u64,
    key: u64,
    read: bool,
    due: Instant,
    /// Whether the request has been handed to a socket at least once.
    sent: bool,
    last_sent: Instant,
    /// The node (and its cluster) the request was last sent to.
    target: Option<(ClusterId, NodeId)>,
}

#[derive(Default)]
struct Session {
    last_seq: u64,
    op: Option<Op>,
    /// Bumped whenever the operation's timer is (re)armed; only the heap
    /// entry carrying the current value acts. Per session, not per
    /// operation, so a settled operation's leftover entry can never match
    /// its successor.
    timer: u32,
    /// Next key to preload.
    preload_at: u64,
}

/// The generator. Lives on one thread for a whole workload: sessions,
/// sequence numbers and the confirmed-write record carry across phases.
pub struct Generator {
    me: NodeId,
    shared: Arc<Shared>,
    seen_version: u64,
    routes: Vec<Route>,
    /// Per-cluster rotation cursor for leaderless probing.
    cursor: BTreeMap<ClusterId, usize>,
    /// Clusters believed not to be serving, and when the next probe may go.
    gate: BTreeMap<ClusterId, Instant>,
    /// Nodes to pass over until the given instant (see [`SKIP_FOR`]).
    skip: BTreeMap<NodeId, Instant>,
    conns: Vec<Conn>,
    sessions: Vec<Session>,
    free: VecDeque<u64>,
    timers: BinaryHeap<Reverse<(Instant, u64, u32)>>,
    scratch: Vec<u8>,
    /// `confirmed[key]`: sequence number of the owner's last confirmed write.
    pub confirmed: Vec<u64>,
    /// Keys whose last write failed its deadline: the write may or may not
    /// have applied, so either value is acceptable at verification.
    pub maybe: BTreeMap<u64, u64>,
    /// Reads that returned anything but the owner's latest confirmed value,
    /// and `SessionStale` answers (impossible with one operation per
    /// session outstanding) — each one is a correctness failure.
    pub violations: Vec<String>,
}

impl Generator {
    pub fn new(shared: Arc<Shared>) -> Generator {
        sys::tighten_timer_slack();
        Generator {
            me: NodeId(CLIENT_BASE + 700_000),
            shared,
            seen_version: 0,
            routes: Vec::new(),
            cursor: BTreeMap::new(),
            gate: BTreeMap::new(),
            skip: BTreeMap::new(),
            conns: Vec::new(),
            sessions: (0..SESSIONS).map(|_| Session::default()).collect(),
            free: (0..SESSIONS).collect(),
            timers: BinaryHeap::new(),
            scratch: vec![0u8; 64 * 1024],
            confirmed: vec![0; KEYS as usize],
            maybe: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// The last sequence number each session had confirmed as a write.
    pub fn last_write_seq(&self, session: u64) -> u64 {
        (0..schedule::keys_owned(session))
            .map(|n| self.confirmed[schedule::key_index(session, n) as usize])
            .max()
            .unwrap_or(0)
    }

    /// Runs one phase to completion: offers `load`, then drains every
    /// outstanding operation (confirming it or failing it at its deadline).
    pub fn run(&mut self, mut load: Load<'_>) -> PhaseStats {
        let start = Instant::now();
        let mut stats = PhaseStats::default();
        let mut queue: VecDeque<Arrival> = VecDeque::new();
        let mut next_arrival: Option<Arrival> = None;
        let mut issued = 0u64;
        let mut offering;
        loop {
            let now = Instant::now();
            self.refresh_routes();

            // 1. Offer load.
            match &mut load {
                Load::Open {
                    schedule,
                    duration,
                    hold_open,
                } => {
                    let held = hold_open.is_some_and(|h| h.load(Ordering::Acquire));
                    offering = held || now < start + *duration;
                    if offering {
                        // Everything due by now joins the queue.
                        loop {
                            let arrival = next_arrival
                                .take()
                                .or_else(|| schedule.next())
                                .expect("endless schedule");
                            if start + arrival.due > now {
                                next_arrival = Some(arrival);
                                break;
                            }
                            queue.push_back(arrival);
                        }
                    }
                    while !queue.is_empty() && !self.free.is_empty() {
                        let a = queue.pop_front().expect("checked non-empty");
                        let s = self.free.pop_front().expect("checked non-empty");
                        self.begin(s, a.read, a.draw, start + a.due, now, &mut stats);
                    }
                }
                Load::ClosedOps { schedule, ops } => {
                    while issued < *ops && !self.free.is_empty() {
                        let s = self.free.pop_front().expect("checked non-empty");
                        let (read, draw) = schedule.draw_op();
                        self.begin(s, read, draw, now, now, &mut stats);
                        issued += 1;
                    }
                    offering = issued < *ops;
                }
                Load::ClosedFor { schedule, duration } => {
                    offering = now < start + *duration;
                    while offering && !self.free.is_empty() {
                        let s = self.free.pop_front().expect("checked non-empty");
                        let (read, draw) = schedule.draw_op();
                        self.begin(s, read, draw, now, now, &mut stats);
                    }
                }
                Load::Preload => {
                    let mut spent = VecDeque::new();
                    while let Some(s) = self.free.pop_front() {
                        let at = self.sessions[s as usize].preload_at;
                        if at < schedule::keys_owned(s) {
                            self.sessions[s as usize].preload_at += 1;
                            self.begin(s, false, at, now, now, &mut stats);
                        } else {
                            spent.push_back(s);
                        }
                    }
                    offering = spent.len() < SESSIONS as usize;
                    self.free = spent;
                }
            }
            if !offering && stats.span.is_zero() {
                stats.span = now - start;
            }

            // 2. Timers: scheduled retries, resend timeouts, deadlines.
            while let Some(Reverse((at, s, timer))) = self.timers.peek().copied() {
                if at > now {
                    break;
                }
                self.timers.pop();
                self.on_timer(s, timer, now, &mut stats);
            }

            // 3. One write per connection per round.
            self.flush();

            // 4. Done? The offer is over and nothing is outstanding.
            if !offering && queue.is_empty() && self.free.len() == SESSIONS as usize {
                return stats;
            }

            // 5. Sleep until a reply, the next arrival, the next timer, or the
            // end of the offer (a held-open phase past it keeps the 20 ms cap).
            let mut wake = now + Duration::from_millis(20);
            if let Some(Reverse((at, _, _))) = self.timers.peek() {
                wake = wake.min(*at);
            }
            if offering {
                if let Some(a) = &next_arrival {
                    wake = wake.min(start + a.due);
                }
                if let Load::Open { duration, .. } | Load::ClosedFor { duration, .. } = &load {
                    if now < start + *duration {
                        wake = wake.min(start + *duration);
                    }
                }
            }
            let mut fds = [PollFd {
                fd: -1, // poll(2) ignores negative descriptors
                events: 0,
                revents: 0,
            }; MAX_CONNS];
            for (fd, c) in fds.iter_mut().zip(&self.conns) {
                fd.fd = c.stream.as_raw_fd();
                fd.events = if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
            }
            sys::poll(&mut fds, wake.saturating_duration_since(Instant::now()));

            // 6. Read whatever arrived.
            let in_span = stats.span.is_zero();
            for i in 0..self.conns.len() {
                if fds.get(i).is_some_and(|f| f.revents != 0) {
                    self.read_conn(i, in_span, &mut stats);
                }
            }
            self.conns.retain(|c| c.stream.peer_addr().is_ok());
        }
    }

    fn refresh_routes(&mut self) {
        let v = self.shared.version.load(Ordering::Acquire);
        if v == self.seen_version {
            return;
        }
        self.seen_version = v;
        let fresh = self.shared.routes.read().expect("route table lock").clone();
        // A leader learned from the protocol's own answers outlives a table
        // that does not name one yet.
        let learned: BTreeMap<ClusterId, NodeId> = self
            .routes
            .iter()
            .filter_map(|r| r.leader.map(|l| (r.cluster, l)))
            .collect();
        self.routes = fresh;
        for r in &mut self.routes {
            if r.leader.is_none() {
                r.leader = learned
                    .get(&r.cluster)
                    .copied()
                    .filter(|l| r.members.iter().any(|(n, _)| n == l));
            }
        }
    }

    /// Starts a fresh operation on `session`.
    fn begin(
        &mut self,
        session: u64,
        read: bool,
        draw: u64,
        due: Instant,
        now: Instant,
        stats: &mut PhaseStats,
    ) {
        let sess = &mut self.sessions[session as usize];
        sess.last_seq += 1;
        let key = schedule::key_index(session, draw % schedule::keys_owned(session));
        sess.op = Some(Op {
            seq: sess.last_seq,
            key,
            read,
            due,
            sent: false,
            last_sent: now,
            target: None,
        });
        stats.attempted += 1;
        self.send(session, now, stats);
    }

    fn request_of(session: u64, op: &Op) -> ClientRequest {
        let key = schedule::key_bytes(op.key);
        let body = if op.read {
            ClientOp::Get { key }
        } else {
            ClientOp::Command {
                key: key.clone(),
                cmd: KvCmd::Put {
                    key,
                    value: Bytes::from(schedule::value_bytes(session, op.seq)),
                }
                .encode(),
            }
        };
        ClientRequest {
            session: SessionId(session),
            seq: op.seq,
            op: body,
        }
    }

    /// Picks where `key` goes right now: the owning cluster's known leader,
    /// or the next member in rotation while none is known.
    fn pick_target(&self, key: &[u8], now: Instant) -> Option<(ClusterId, NodeId, SocketAddr)> {
        let route = self.routes.iter().find(|r| r.ranges.contains(key))?;
        let tag = |(n, a): (NodeId, SocketAddr)| (route.cluster, n, a);
        let up = |n: &NodeId| self.skip.get(n).is_none_or(|until| *until <= now);
        if let Some(hit) = route
            .leader
            .and_then(|l| route.members.iter().find(|(n, _)| *n == l && up(n)))
        {
            return Some(tag(*hit));
        }
        let at = self.cursor.get(&route.cluster).copied().unwrap_or(0);
        let n = route.members.len();
        (0..n)
            .map(|i| route.members[(at + i) % n])
            .find(|(node, _)| up(node))
            .map(tag)
    }

    /// Encodes the session's operation onto the connection for its target.
    /// Whatever happens, exactly one timer is armed for the operation.
    fn send(&mut self, session: u64, now: Instant, stats: &mut PhaseStats) {
        let Some(op) = self.sessions[session as usize].op.as_ref() else {
            return;
        };
        if now >= op.due + OP_DEADLINE {
            self.fail(session, now, stats);
            return;
        }
        let key = schedule::key_bytes(op.key);
        let Some((cluster, node, addr)) = self.pick_target(&key, now) else {
            self.arm(session, now + TRANSIENT_BACKOFF);
            return;
        };
        match self.gate.get(&cluster).copied() {
            Some(next_probe) if now < next_probe => {
                self.arm(session, next_probe);
                return;
            }
            // This operation is the probe; the rest keep waiting.
            Some(_) => {
                self.gate.insert(cluster, now + PROBE_EVERY);
            }
            None => {}
        }
        let Some(ci) = self.conn_to(node, addr, now, stats) else {
            self.forget_leader(node);
            self.hold(session, cluster, now);
            return;
        };
        let op = self.sessions[session as usize]
            .op
            .as_mut()
            .expect("checked above");
        let env = Envelope::new(
            self.me,
            node,
            Message::ClientReq {
                req: Self::request_of(session, op),
            },
        );
        let conn = &mut self.conns[ci];
        conn.out.extend_from_slice(&encode_frame(&env));
        conn.last_used = now;
        if !op.sent {
            op.sent = true;
            stats
                .lag
                .record(now.saturating_duration_since(op.due).as_nanos() as u64);
        } else {
            stats.retries += 1;
        }
        op.last_sent = now;
        op.target = Some((cluster, node));
        let deadline = op.due + OP_DEADLINE;
        self.arm(session, (now + RESEND_AFTER).min(deadline));
    }

    /// Parks the operation behind `cluster`'s gate (closing it if open): it
    /// retries when the next probe is due.
    fn hold(&mut self, session: u64, cluster: ClusterId, now: Instant) {
        let next_probe = *self.gate.entry(cluster).or_insert(now + PROBE_EVERY);
        self.arm(session, next_probe.max(now));
    }

    /// Arms the operation's single timer for `at`.
    fn arm(&mut self, session: u64, at: Instant) {
        let sess = &mut self.sessions[session as usize];
        if sess.op.is_some() {
            sess.timer += 1;
            self.timers.push(Reverse((at, session, sess.timer)));
        }
    }

    fn on_timer(&mut self, session: u64, timer: u32, now: Instant, stats: &mut PhaseStats) {
        let sess = &self.sessions[session as usize];
        if sess.op.is_some() && sess.timer == timer {
            self.send(session, now, stats);
        }
    }

    /// The connection to `node`, dialing (and evicting the least recently
    /// used connection beyond [`MAX_CONNS`]) as needed.
    fn conn_to(
        &mut self,
        node: NodeId,
        addr: SocketAddr,
        now: Instant,
        stats: &mut PhaseStats,
    ) -> Option<usize> {
        if let Some(i) = self.conns.iter().position(|c| c.node == node) {
            return Some(i);
        }
        let stream = match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(s) => s,
            Err(_) => {
                self.skip.insert(node, now + SKIP_FOR);
                return None;
            }
        };
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .expect("nonblocking client socket");
        if self.conns.len() >= MAX_CONNS {
            let lru = (0..self.conns.len())
                .min_by_key(|i| self.conns[*i].last_used)
                .expect("non-empty");
            let evicted = self.conns.swap_remove(lru).node;
            self.retry_in_flight_to(evicted, now);
        }
        stats.reconnects += 1;
        self.conns.push(Conn {
            node,
            stream,
            reader: MuxReader::new(),
            out: Vec::new(),
            last_used: now,
        });
        Some(self.conns.len() - 1)
    }

    /// Re-arms every operation last sent to `node` for a prompt retry.
    fn retry_in_flight_to(&mut self, node: NodeId, now: Instant) {
        for s in 0..SESSIONS {
            let hit = self.sessions[s as usize]
                .op
                .as_ref()
                .is_some_and(|op| op.target.is_some_and(|(_, n)| n == node));
            if hit {
                self.arm(s, now + TRANSIENT_BACKOFF);
            }
        }
    }

    /// Drops `node` as any cluster's believed leader and advances that
    /// cluster's probe rotation.
    fn forget_leader(&mut self, node: NodeId) {
        for r in &mut self.routes {
            if let Some(at) = r.members.iter().position(|(n, _)| *n == node) {
                if r.leader == Some(node) {
                    r.leader = None;
                }
                self.cursor.insert(r.cluster, at + 1);
            }
        }
    }

    fn flush(&mut self) {
        let mut dead: Vec<NodeId> = Vec::new();
        for conn in &mut self.conns {
            let mut at = 0;
            while at < conn.out.len() {
                match conn.stream.write(&conn.out[at..]) {
                    Ok(0) => {
                        dead.push(conn.node);
                        break;
                    }
                    Ok(n) => at += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead.push(conn.node);
                        break;
                    }
                }
            }
            conn.out.drain(..at);
        }
        for node in dead {
            self.drop_conn(node, Instant::now());
        }
    }

    fn drop_conn(&mut self, node: NodeId, now: Instant) {
        self.conns.retain(|c| c.node != node);
        self.forget_leader(node);
        self.retry_in_flight_to(node, now);
    }

    fn read_conn(&mut self, i: usize, in_span: bool, stats: &mut PhaseStats) {
        let node = self.conns[i].node;
        let mut closed = false;
        loop {
            match self.conns[i].stream.read(&mut self.scratch) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.conns[i].reader.feed(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        loop {
            match self.conns[i].reader.next_envelope() {
                Ok(Some(env)) => {
                    if let Message::ClientResp { resp } = env.msg {
                        self.on_response(node, resp, in_span, stats);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed {
            // Marks the socket so the caller's retain pass drops it.
            let _ = self.conns[i].stream.shutdown(std::net::Shutdown::Both);
            let now = Instant::now();
            self.forget_leader(node);
            self.retry_in_flight_to(node, now);
        }
    }

    fn on_response(
        &mut self,
        from: NodeId,
        resp: ClientResponse,
        in_span: bool,
        stats: &mut PhaseStats,
    ) {
        let session = resp.session.0;
        let current = self
            .sessions
            .get(session as usize)
            .and_then(|s| s.op.as_ref())
            .is_some_and(|op| op.seq == resp.seq);
        if !current {
            return; // a late answer to a request already settled
        }
        let now = Instant::now();
        let sent_to = self.sessions[session as usize]
            .op
            .as_ref()
            .and_then(|op| op.target)
            .map(|(cluster, _)| cluster);
        match resp.outcome {
            ClientOutcome::Reply { payload } => {
                self.confirm(session, &payload, now, in_span, stats);
            }
            ClientOutcome::Redirect { leader_hint, .. }
            | ClientOutcome::Rejected {
                error: Error::NotLeader(leader_hint),
            } => {
                stats.redirects += 1;
                self.skip.insert(from, now + SKIP_FOR);
                let usable =
                    leader_hint.filter(|h| self.skip.get(h).is_none_or(|until| *until <= now));
                let mut resolved = false;
                for r in &mut self.routes {
                    if let Some(at) = r.members.iter().position(|(n, _)| *n == from) {
                        r.leader = usable.filter(|h| r.members.iter().any(|(n, _)| n == h));
                        resolved |= r.leader.is_some();
                        // No leader to name: ask the member after `from` next.
                        self.cursor.insert(r.cluster, at + 1);
                    }
                }
                match (resolved, sent_to) {
                    (false, Some(cluster)) => self.hold(session, cluster, now),
                    _ => self.send(session, now, stats),
                }
            }
            ClientOutcome::Rejected {
                error: Error::WrongRange(_),
            } => {
                // The route was stale; the table catches up within one
                // publishing round.
                stats.wrong_range += 1;
                self.arm(session, now + TRANSIENT_BACKOFF);
            }
            ClientOutcome::Rejected {
                error: Error::SessionStale,
            } => {
                self.violations.push(format!(
                    "session {session} seq {}: SessionStale with one operation outstanding",
                    resp.seq
                ));
                self.fail(session, now, stats);
            }
            ClientOutcome::Rejected { .. } => match sent_to {
                Some(cluster) => self.hold(session, cluster, now),
                None => self.arm(session, now + TRANSIENT_BACKOFF),
            },
        }
    }

    fn confirm(
        &mut self,
        session: u64,
        payload: &Bytes,
        now: Instant,
        in_span: bool,
        stats: &mut PhaseStats,
    ) {
        let op = self.sessions[session as usize]
            .op
            .take()
            .expect("caller matched the operation");
        if op.read {
            let want = self.confirmed[op.key as usize];
            let expected = schedule::value_bytes(session, want);
            let ok = match KvResp::decode(payload) {
                Ok(KvResp::Value { value: Some(v), .. }) => v[..] == expected[..],
                Ok(KvResp::Value { value: None, .. }) => want == 0,
                _ => false,
            };
            let maybe = self.maybe.contains_key(&op.key);
            if !ok && !maybe {
                self.violations.push(format!(
                    "read of key {} by session {session} did not return its write seq {want}",
                    op.key
                ));
            }
        } else {
            self.confirmed[op.key as usize] = op.seq;
            self.maybe.remove(&op.key);
            stats.user_bytes += schedule::VALUE_BYTES as u64;
        }
        if let Some((cluster, _)) = op.target {
            self.gate.remove(&cluster); // it serves
        }
        let latency = now.saturating_duration_since(op.due);
        stats.latency.record(latency.as_nanos() as u64);
        stats.confirmed += 1;
        stats.confirmed_in_span += u64::from(in_span);
        if latency > LATENCY_LIMIT {
            stats.over_limit += 1;
            stats.slow.push((op.due, latency));
        }
        self.shared
            .confirmed_sent_ns
            .fetch_max(self.shared.ns_since_epoch(op.last_sent), Ordering::Release);
        self.free.push_back(session);
    }

    /// Gives up on the session's operation: it counts as failed and as over
    /// every latency limit, and its key accepts either value from now on.
    fn fail(&mut self, session: u64, now: Instant, stats: &mut PhaseStats) {
        if let Some(op) = self.sessions[session as usize].op.take() {
            if !op.read {
                self.maybe.insert(op.key, op.seq);
            }
            stats.failed += 1;
            stats
                .slow
                .push((op.due, now.saturating_duration_since(op.due)));
            self.free.push_back(session);
        }
    }
}
