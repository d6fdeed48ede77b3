//! The open-loop client driver: many concurrent sessions over real TCP.
//!
//! Each client is one OS thread owning one session: a
//! [`RoutedClient`] — the session machine the simulator's clients run
//! too — behind a TCP transport and the wall clock. The machine decides
//! everything a session decides: which sequence number goes out next (a
//! window of [`ClientOptions::window`] writes in flight, which is what
//! makes the load *open-loop*), which node each write goes to, and when it
//! is resent under its original `(session, seq)`. This module carries its
//! actions. It holds at most one connection per node the machine
//! addresses, waits on all of them with one [`Poller`] until the machine's
//! next deadline, and hands back every answer and every node it cannot
//! reach.
//!
//! One machine, two directories. With a [`FleetView`]
//! ([`ClientOptions::view`]) the machine routes through the shard
//! directory the control plane publishes. Without one — and while that
//! directory is still empty — it routes through a one-record directory
//! that serves the whole keyspace on the launch-time nodes, which is right
//! for a single-range cluster. Either directory may be stale: the protocol's own
//! `Redirect`/`NotLeader`/`WrongRange` answers keep routing convergent (§V).
//!
//! Exactly-once under retries is the server's session table: it keeps the
//! reply of every applied number within a fixed window below the session's
//! highest, and the machine issues a number only within that window of its
//! oldest pending one, so every resend is answered — applied once, or
//! replayed from the table — wherever splits and merges have moved its key.
//! A write is confirmed only by a `Reply`. A [`Error::SessionStale`] for a
//! pending write cannot come from a server that keeps the window; the
//! write is given up unconfirmed and the run ends `completed: false`.

use crate::control::FleetView;
use crate::CLIENT_BASE;
use bytes::Bytes;
use recraft_fleet::{ClientAction, RoutedClient, ShardDirectory};
use recraft_kv::KvCmd;
use recraft_net::frame::write_frame;
use recraft_net::mux::MuxReader;
use recraft_net::poll::{fd_of, Poller, INTEREST_READ};
use recraft_net::{Envelope, Message};
use recraft_types::{ClientOp, ClientRequest, ClusterId, Error, NodeId, RangeSet, SessionId};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
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
    /// How long a write waits for an answer before it is resent — the
    /// retry path for lost responses.
    pub read_timeout: Duration,
    /// Overall per-client deadline; a client that cannot finish by then
    /// reports `completed: false` instead of hanging the run.
    pub deadline: Duration,
    /// Offset added to every client's session id (and wire identity). Lets
    /// a second fleet run against the same cluster use fresh sessions
    /// instead of colliding with the first run's sequence numbers.
    pub session_base: u64,
    /// Directory-served routing: when set, clients route each write through
    /// the shared fleet view instead of the launch-time nodes.
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
    /// `WrongRange` rejections — each one a stale route the client
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
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addrs = addrs.clone();
            let opts = opts.clone();
            thread::Builder::new()
                .name(format!("recraft-client-{i}"))
                .spawn(move || OpenLoopClient::new(i, addrs, opts).run())
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
    machine: RoutedClient,
    /// The launch-time nodes as a one-record directory: the routing of a
    /// client without a view, or whose view is still empty.
    launch: ShardDirectory,
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// One connection per node addressed, with the answers read off it.
    conns: BTreeMap<NodeId, (TcpStream, MuxReader)>,
    /// The zero of the machine's clock.
    epoch: Instant,
    opts: ClientOptions,
    report: ClientReport,
}

impl OpenLoopClient {
    fn new(idx: u64, addrs: BTreeMap<NodeId, SocketAddr>, opts: ClientOptions) -> Self {
        let session = SessionId(opts.session_base + idx);
        let resend_after = opts.read_timeout.as_micros() as u64;
        let mut launch = ShardDirectory::default();
        launch.upsert(
            ClusterId(0),
            RangeSet::full(),
            addrs.keys().copied().collect(),
        );
        OpenLoopClient {
            idx,
            me: NodeId(CLIENT_BASE + session.0),
            machine: RoutedClient::new(session, opts.window, resend_after),
            launch,
            addrs,
            conns: BTreeMap::new(),
            epoch: Instant::now(),
            opts,
            report: ClientReport {
                client: idx,
                ..ClientReport::default()
            },
        }
    }

    /// Microseconds since the client started.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn run(mut self) -> ClientReport {
        let deadline = self.now() + self.opts.deadline.as_micros() as u64;
        let mut poller = Poller::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let now = self.now();
            while self.machine.next_seq() <= self.opts.ops && self.machine.can_issue() {
                let op = self.op_for(self.machine.next_seq());
                let actions = self.with_dir(|machine, dir| machine.issue(now, op, dir));
                self.act(actions);
            }
            let drained = self.machine.next_seq() > self.opts.ops && self.machine.pending() == 0;
            if drained || now >= deadline {
                break;
            }
            poller.clear();
            let nodes: Vec<NodeId> = self.conns.keys().copied().collect();
            for (stream, _) in self.conns.values() {
                poller.register(fd_of(stream), INTEREST_READ);
            }
            let wake = deadline.min(self.machine.next_deadline().unwrap_or(deadline));
            let _ = poller.wait(Some(Duration::from_micros(wake.saturating_sub(now))));
            for (token, node) in nodes.into_iter().enumerate() {
                if poller.readiness(token).any() {
                    self.read_from(node, &mut buf);
                }
            }
            let now = self.now();
            if self.machine.next_deadline().is_some_and(|d| d <= now) {
                let actions = self.with_dir(|machine, dir| machine.on_timeout(now, dir));
                self.act(actions);
            }
        }
        let stats = self.machine.stats();
        self.report.redirects = stats.redirects;
        self.report.wrong_range = stats.wrong_range;
        self.report.completed = self.report.replies == self.opts.ops;
        self.report
    }

    /// Runs one machine step against the directory it routes by: the view's
    /// when it has records, else the launch nodes'.
    fn with_dir<T>(&mut self, step: impl FnOnce(&mut RoutedClient, &ShardDirectory) -> T) -> T {
        let machine = &mut self.machine;
        match &self.opts.view {
            Some(view) => view.with_directory(|dir| {
                step(machine, if dir.is_empty() { &self.launch } else { dir })
            }),
            None => step(machine, &self.launch),
        }
    }

    /// Carries out the machine's actions. A send that cannot be delivered
    /// tells the machine its node is unreachable, which may yield more.
    fn act(&mut self, actions: Vec<ClientAction>) {
        let mut queue = VecDeque::from(actions);
        while let Some(action) = queue.pop_front() {
            match action {
                ClientAction::Send { to, req } => {
                    if !self.send(to, req) {
                        queue.extend(self.unreachable(to));
                    }
                }
                ClientAction::Done { result, .. } => match result {
                    Ok(_) => self.report.replies += 1,
                    Err(e) => self.report.stale += u64::from(e == Error::SessionStale),
                },
                ClientAction::Duplicate { .. } => self.report.duplicates += 1,
            }
        }
    }

    /// Writes `req` to node `to`, dialing it first if no connection is
    /// open. Returns whether the frame went out.
    fn send(&mut self, to: NodeId, req: ClientRequest) -> bool {
        if !self.conns.contains_key(&to) {
            let addr = self.opts.view.as_ref().and_then(|v| v.addr_of(to));
            let Some(stream) = addr
                .or_else(|| self.addrs.get(&to).copied())
                .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(500)).ok())
            else {
                return false;
            };
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(self.opts.read_timeout));
            self.report.connects += 1;
            self.conns.insert(to, (stream, MuxReader::new()));
        }
        let env = Envelope::new(self.me, to, Message::ClientReq { req });
        let (stream, _) = self.conns.get_mut(&to).expect("dialed above");
        write_frame(stream, &env).is_ok()
    }

    /// Reads what node `node`'s connection holds and hands every answer to
    /// the machine. An end of stream or a corrupt frame drops the
    /// connection and marks the node unreachable.
    fn read_from(&mut self, node: NodeId, buf: &mut [u8]) {
        let Some((stream, reader)) = self.conns.get_mut(&node) else {
            return;
        };
        let mut answers = Vec::new();
        let open = match stream.read(buf) {
            Ok(0) | Err(_) => false,
            Ok(n) => {
                reader.feed(&buf[..n]);
                loop {
                    match reader.next_envelope() {
                        Ok(Some(env)) => answers.push(env),
                        Ok(None) => break true,
                        Err(_) => break false,
                    }
                }
            }
        };
        let now = self.now();
        for env in answers {
            if let Message::ClientResp { resp } = env.msg {
                let actions = self.with_dir(|m, dir| m.on_response(now, env.from, resp, dir));
                self.act(actions);
            }
        }
        if !open {
            let actions = self.unreachable(node);
            self.act(actions);
        }
    }

    /// Drops `node`'s connection and tells the machine it is unreachable.
    fn unreachable(&mut self, node: NodeId) -> Vec<ClientAction> {
        self.conns.remove(&node);
        let now = self.now();
        self.with_dir(|m, dir| m.on_unreachable(now, node, dir))
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

    fn op_for(&self, seq: u64) -> ClientOp {
        let key = self.key_for(seq);
        ClientOp::Command {
            key: key.clone(),
            cmd: KvCmd::Put {
                key,
                value: self.value_for(seq),
            }
            .encode(),
        }
    }
}
