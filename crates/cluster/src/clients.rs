//! The open-loop client driver: many concurrent sessions over real TCP.
//!
//! Each client is one OS thread owning one [`SessionId`]. It keeps a
//! bounded window of writes in flight ([`ClientOptions::window`]), which is
//! what makes the load *open-loop*: the leader sees a standing backlog from
//! every session at once, so replication batching and pipelining engage.
//!
//! Clients come in two routing modes. Without a [`FleetView`] they rotate
//! blindly over the launch-time address list — right for a single-range
//! cluster. With one ([`ClientOptions::view`]), each write is routed
//! through the shared shard directory the control plane publishes: the
//! client connects to the cluster serving its next key, follows
//! `Redirect`/`NotLeader` hints within it, and treats `WrongRange` as the
//! staleness signal it is — park the write, wait for the directory to move
//! the key, re-route. The directory may be arbitrarily stale; the
//! protocol's own answers are what keep routing convergent (§V). A client
//! holds one connection, so its window is **cluster-homogeneous**: filling
//! stops at the first key the directory maps elsewhere, and that key starts
//! the next window once this one drains.
//!
//! Exactly-once under retries is the server's session table: a write is
//! retried under its original `(session, seq)` until answered (on every
//! reconnection the pending window is resent), and the table keeps the
//! reply of every applied number within [`SESSION_WINDOW`] of the
//! session's highest. The client keeps its side of that bargain by issuing
//! `seq` only while `seq < oldest pending + SESSION_WINDOW`, so every retry
//! it can send is answered — applied once, or replayed from the table —
//! wherever splits and merges have moved its key. A write is confirmed only
//! by a `Reply`. A [`Error::SessionStale`] for a pending write cannot come
//! from a server that keeps the window; the client gives that write up
//! unconfirmed and the run ends `completed: false`.

use crate::control::FleetView;
use crate::CLIENT_BASE;
use bytes::Bytes;
use recraft_kv::KvCmd;
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterId, Error, NodeId, SessionId,
    SESSION_WINDOW,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Knobs for one open-loop run. Every client uses the same options.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Writes each client performs (sequence numbers `1..=ops`).
    pub ops: u64,
    /// In-flight window per client; `1` degenerates to closed-loop.
    pub window: usize,
    /// Value payload size in bytes (the paper's evaluation uses 512).
    pub value_size: usize,
    /// Distinct keys across the run.
    pub key_count: u64,
    /// Key-popularity skew exponent: `0.0` spreads ops uniformly over the
    /// keyspace; larger values concentrate them zipf-style on the low end
    /// (inverse-transform power law: a uniform draw `u` picks rank
    /// `key_count * u^key_skew`). Skewed-but-broad load is what gives the
    /// seat rebalancer hot shards worth migrating while still touching
    /// every range.
    pub key_skew: f64,
    /// Socket read timeout; expiry triggers reconnect-and-resend, which is
    /// the retry path for lost responses.
    pub read_timeout: Duration,
    /// Overall per-client deadline; a client that cannot finish by then
    /// reports `completed: false` instead of hanging the run.
    pub deadline: Duration,
    /// Offset added to every client's session id (and wire identity). Lets
    /// a second fleet run against the same cluster use fresh sessions
    /// instead of colliding with the first run's sequence numbers.
    pub session_base: u64,
    /// Directory-served routing: when set, clients route each write through
    /// the shared fleet view instead of rotating blindly.
    pub view: Option<Arc<FleetView>>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            ops: 100,
            window: 8,
            value_size: 512,
            key_count: 10_000,
            key_skew: 0.0,
            read_timeout: Duration::from_millis(1000),
            deadline: Duration::from_secs(120),
            session_base: 0,
            view: None,
        }
    }
}

/// What one client observed.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// Client index (also its session id).
    pub client: u64,
    /// Writes confirmed by a reply.
    pub replies: u64,
    /// Writes answered `SessionStale` and given up unconfirmed. A cluster
    /// that keeps the session window never sends one for a pending write.
    pub stale: u64,
    /// Replies for operations already confirmed (duplicate deliveries).
    pub duplicates: u64,
    /// Redirect outcomes followed.
    pub redirects: u64,
    /// `WrongRange` rejections — each one is a stale route the client
    /// recovered from by re-routing through the directory.
    pub wrong_range: u64,
    /// Connections dialed (including the first).
    pub connects: u64,
    /// Whether every operation was confirmed by a reply before the deadline.
    pub completed: bool,
}

/// Runs `clients` concurrent open-loop sessions against the cluster and
/// joins them all.
///
/// # Panics
/// Panics if a client thread panics.
#[must_use]
pub fn run_open_loop(
    addrs: &BTreeMap<NodeId, SocketAddr>,
    clients: u64,
    opts: &ClientOptions,
) -> Vec<ClientReport> {
    let nodes: Vec<(NodeId, SocketAddr)> = addrs.iter().map(|(n, a)| (*n, *a)).collect();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let nodes = nodes.clone();
            let opts = opts.clone();
            thread::Builder::new()
                .name(format!("recraft-client-{i}"))
                .spawn(move || OpenLoopClient::new(i, nodes, opts).run())
                .expect("spawn client thread")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

struct OpenLoopClient {
    idx: u64,
    me: NodeId,
    session: SessionId,
    /// Launch-time address list — the blind-rotation target set, and the
    /// routed mode's fallback while the directory is still empty.
    nodes: Vec<(NodeId, SocketAddr)>,
    target: usize,
    /// The node the current connection was dialed to.
    dest: Option<NodeId>,
    /// The directory cluster the current window is addressed to (routed
    /// mode; `None` while falling back to blind rotation).
    window_cluster: Option<ClusterId>,
    /// A cluster that answered `WrongRange` for the oldest pending write:
    /// do not re-send there until the directory moves the key elsewhere.
    avoid: Option<ClusterId>,
    /// Leader hint from the last `Redirect`/`NotLeader` answer.
    prefer: Option<NodeId>,
    stream: Option<TcpStream>,
    /// The retry window: every unconfirmed request, keyed by seq.
    pending: BTreeMap<u64, ClientRequest>,
    /// The next sequence number to issue (`1..=ops`).
    next_seq: u64,
    opts: ClientOptions,
    report: ClientReport,
}

impl OpenLoopClient {
    fn new(idx: u64, nodes: Vec<(NodeId, SocketAddr)>, opts: ClientOptions) -> Self {
        let target = (idx as usize) % nodes.len().max(1);
        OpenLoopClient {
            idx,
            me: NodeId(CLIENT_BASE + opts.session_base + idx),
            session: SessionId(opts.session_base + idx),
            nodes,
            target,
            dest: None,
            window_cluster: None,
            avoid: None,
            prefer: None,
            stream: None,
            pending: BTreeMap::new(),
            next_seq: 1,
            opts,
            report: ClientReport {
                client: idx,
                ..ClientReport::default()
            },
        }
    }

    fn run(mut self) -> ClientReport {
        let deadline = Instant::now() + self.opts.deadline;
        while self.next_seq <= self.opts.ops || !self.pending.is_empty() {
            if Instant::now() >= deadline {
                break;
            }
            if self.stream.is_none() && !self.connect_and_resend() {
                continue;
            }
            self.fill_window();
            self.read_one();
        }
        self.report.completed = self.report.replies == self.opts.ops;
        self.report
    }

    /// The key the client must make progress on next: the oldest pending
    /// write's, or the next fresh sequence number's.
    fn frontier_key(&self) -> Vec<u8> {
        match self.pending.values().next() {
            Some(req) => req.key().to_vec(),
            None => self.key_for(self.next_seq),
        }
    }

    /// Picks the destination for a new connection. In routed mode the
    /// frontier key is resolved through the directory; a key still mapped
    /// to the cluster that just said `WrongRange` means the directory has
    /// not caught up — wait rather than re-send there.
    fn pick_dest(&mut self) -> Option<(NodeId, SocketAddr)> {
        let Some(view) = self.opts.view.clone() else {
            return self.blind_pick();
        };
        match view.route(&self.frontier_key()) {
            Some((cluster, _)) if Some(cluster) == self.avoid => {
                // Stale route: the rejecting cluster still claims the key.
                thread::sleep(Duration::from_millis(5));
                None
            }
            Some((cluster, members)) => {
                self.avoid = None;
                self.window_cluster = Some(cluster);
                let chosen = self
                    .prefer
                    .and_then(|p| members.iter().find(|(n, _)| *n == p).copied())
                    .unwrap_or_else(|| members[self.target % members.len()]);
                Some(chosen)
            }
            None => {
                // Directory not populated yet (or the members' addresses
                // are all withdrawn): fall back to blind rotation.
                self.window_cluster = None;
                self.blind_pick()
            }
        }
    }

    /// Launch-list targeting: the hinted leader when one is known, else the
    /// rotation cursor.
    fn blind_pick(&self) -> Option<(NodeId, SocketAddr)> {
        if let Some(p) = self.prefer {
            if let Some(hit) = self.nodes.iter().find(|(n, _)| *n == p) {
                return Some(*hit);
            }
        }
        (!self.nodes.is_empty()).then(|| self.nodes[self.target % self.nodes.len()])
    }

    /// Dials the picked destination and replays the whole pending window.
    fn connect_and_resend(&mut self) -> bool {
        let Some((nid, addr)) = self.pick_dest() else {
            return false;
        };
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(self.opts.read_timeout));
                self.stream = Some(s);
                self.dest = Some(nid);
                self.report.connects += 1;
                let window: Vec<ClientRequest> = self.pending.values().cloned().collect();
                for req in window {
                    if !self.send(nid, req) {
                        return false;
                    }
                }
                true
            }
            Err(_) => {
                // Node down (or not yet up): try the next one.
                self.rotate();
                thread::sleep(Duration::from_millis(10));
                false
            }
        }
    }

    fn send(&mut self, to: NodeId, req: ClientRequest) -> bool {
        let env = Envelope::new(self.me, to, Message::ClientReq { req });
        let ok = self
            .stream
            .as_mut()
            .is_some_and(|s| write_frame(s, &env).is_ok());
        if !ok {
            // Reconnect to the same target; rotation is driven by
            // redirects and connect failures, not write errors.
            self.stream = None;
        }
        ok
    }

    fn rotate(&mut self) {
        self.target = self.target.wrapping_add(1);
        self.prefer = None;
    }

    /// Points the next connection at the hinted leader (or the next node
    /// round-robin when the cluster has no leader to hint at).
    fn retarget(&mut self, hint: Option<NodeId>) {
        match hint {
            Some(h) => self.prefer = Some(h),
            None => {
                self.rotate();
                // No leader known — likely an election; back off briefly.
                thread::sleep(Duration::from_millis(20));
            }
        }
        self.stream = None;
    }

    /// Issues fresh writes until the in-flight window is full, and only
    /// while the next sequence number stays below the oldest pending one
    /// plus [`SESSION_WINDOW`]. Routed windows stay cluster-homogeneous:
    /// filling stops at the first key the directory maps to a different
    /// cluster than the connection serves — that boundary starts the next
    /// window once this one drains.
    fn fill_window(&mut self) {
        while self.stream.is_some()
            && self.pending.len() < self.opts.window.max(1)
            && self.next_seq <= self.opts.ops
            && self
                .pending
                .keys()
                .next()
                .is_none_or(|&oldest| self.next_seq < oldest + SESSION_WINDOW)
        {
            let seq = self.next_seq;
            if let (Some(view), Some(cluster)) = (self.opts.view.as_ref(), self.window_cluster) {
                if view.route(&self.key_for(seq)).map(|(c, _)| c) != Some(cluster) {
                    if self.pending.is_empty() {
                        // Nothing in flight here and the next key lives
                        // elsewhere: move the connection, not the key.
                        self.stream = None;
                    }
                    break;
                }
            }
            self.next_seq += 1;
            let req = self.make_req(seq);
            self.pending.insert(seq, req.clone());
            let to = self
                .dest
                .unwrap_or_else(|| self.nodes[self.target % self.nodes.len()].0);
            if !self.send(to, req) {
                break;
            }
        }
    }

    fn key_for(&self, seq: u64) -> Vec<u8> {
        let mix = self
            .idx
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(seq.wrapping_mul(0x85EB_CA6B));
        let rank = if self.opts.key_skew > 0.0 {
            // Deterministic power-law skew: low ranks absorb most draws,
            // the tail still covers the whole keyspace.
            let u = (mix as f64 / u64::MAX as f64).powf(self.opts.key_skew);
            ((self.opts.key_count as f64 * u) as u64).min(self.opts.key_count - 1)
        } else {
            mix % self.opts.key_count
        };
        format!("k{rank:08}").into_bytes()
    }

    /// The unique value write `seq` stores — per `(client, seq)`.
    fn value_for(&self, seq: u64) -> Bytes {
        let mut value = format!("c{}-s{}-", self.idx, seq).into_bytes();
        value.resize(self.opts.value_size.max(value.len()), b'x');
        Bytes::from(value)
    }

    fn make_req(&self, seq: u64) -> ClientRequest {
        let key = self.key_for(seq);
        ClientRequest {
            session: self.session,
            seq,
            op: ClientOp::Command {
                key: key.clone(),
                cmd: KvCmd::Put {
                    key,
                    value: self.value_for(seq),
                }
                .encode(),
            },
        }
    }

    /// Blocks (up to the read timeout) for one response. Timeout or error
    /// drops the connection; the next loop iteration reconnects and resends
    /// the window — that is the retry path.
    fn read_one(&mut self) {
        let Some(s) = self.stream.as_mut() else {
            return;
        };
        match read_frame(s) {
            Ok(Some(env)) => {
                if let Message::ClientResp { resp } = env.msg {
                    self.on_resp(resp);
                }
            }
            Ok(None) | Err(_) => self.stream = None,
        }
    }

    fn on_resp(&mut self, resp: ClientResponse) {
        if resp.session != self.session {
            return;
        }
        let seq = resp.seq;
        match resp.outcome {
            ClientOutcome::Reply { .. } => {
                if self.pending.remove(&seq).is_some() {
                    self.report.replies += 1;
                } else {
                    self.report.duplicates += 1;
                }
            }
            ClientOutcome::Redirect { leader_hint, .. } => {
                if self.pending.contains_key(&seq) {
                    self.report.redirects += 1;
                    self.retarget(leader_hint);
                }
            }
            ClientOutcome::Rejected { error } => {
                if !self.pending.contains_key(&seq) {
                    return;
                }
                match error {
                    Error::SessionStale => {
                        // Not evidence the write applied: give it up
                        // unconfirmed.
                        self.pending.remove(&seq);
                        self.report.stale += 1;
                    }
                    Error::NotLeader(hint) => {
                        self.report.redirects += 1;
                        self.retarget(hint);
                    }
                    Error::WrongRange(_) => {
                        // The route was stale: park the window (the write
                        // stays pending, nothing new is issued) and refuse
                        // to re-send to this cluster until the directory
                        // moves the key somewhere else.
                        self.report.wrong_range += 1;
                        self.avoid = self.window_cluster.take();
                        self.prefer = None;
                        self.stream = None;
                    }
                    _ => {
                        // Transient (e.g. the proposal was dropped at a
                        // leader change, or a reconfiguration gated it):
                        // drop the connection, and the reconnect resends
                        // the window.
                        self.stream = None;
                    }
                }
            }
        }
    }
}
