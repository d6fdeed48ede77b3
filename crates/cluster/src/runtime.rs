//! The sharded driver runtime: a fixed pool of worker threads hosting the
//! whole fleet.
//!
//! The previous harness spent ~3 OS threads per node (driver + acceptor +
//! one blocking reader per inbound connection) and one socket per
//! node-pair, which walls off "hundreds of ranges over real sockets" behind
//! a thread explosion. This runtime keeps the loop shape — event in,
//! [`step`](recraft_core::Node::step), [`tick`](recraft_core::Node::tick)
//! on the wall clock, then the
//! [`take_outputs`](recraft_core::Node::take_outputs) write-ahead barrier,
//! then route — but runs it for a *shard* of nodes per worker:
//!
//! * **N workers, period.** Each worker owns a disjoint set of nodes and
//!   all their I/O. Total thread count is workers + whatever the embedding
//!   spawns (control plane, clients), independent of how many raft groups
//!   the process hosts. Every round ticks every hosted seat (a tick on a
//!   node with no expired timer is a few comparisons) and publishes its
//!   status block. One barrier still covers everything a node drained from
//!   the poll (and one more for each in-round pass that stepped it), so
//!   group commit per node is preserved; nodes that externalized nothing
//!   skip the barrier entirely ([`recraft_core::Node::has_outputs`]), so
//!   an idle range costs no fsync.
//! * **A worker owns every fd it polls, including the reply half.** A
//!   worker blocks in a [`recraft_net::poll::Poller`] over its waker, its
//!   mux endpoint, every hosted front door, every inbound connection, and
//!   in-flight outbound dials, with the timeout set to the earliest
//!   protocol deadline among its seats
//!   ([`recraft_core::Node::next_deadline`]). No socket is shared between
//!   threads and none is duplicated: the connection a request arrived on
//!   belongs to the seat that answers it, so the reply is appended to that
//!   connection's own buffer and flushed once per round by the thread that
//!   reads it. A flush the socket will not take leaves the bytes in the
//!   buffer with write interest on the same poll slot, bounded by
//!   `CLIENT_WRITE_BUFFER_MAX` and `CLIENT_WRITE_DEADLINE`. An idle shard
//!   makes no syscalls between deadlines; [`WireStats::idle_wakeups`]
//!   counts the rounds that found nothing to do.
//! * **Connections close explicitly.** EOF, an I/O error, a corrupt frame,
//!   the reply-buffer cap, and the write deadline each mark the connection
//!   closed, and it is dropped — leaving the poll set — at the end of that
//!   same round, whether or not the peer has closed its end.
//! * **Same-worker traffic is stepped in the round that produced it.** A
//!   round services readiness, steps what arrived, ticks every seat, and
//!   takes each active seat's barrier, routing its outputs to the wire or
//!   to co-hosted seats. Then up to `LOCAL_PASSES` in-round passes each
//!   step what the seats addressed to one another, take the barrier of
//!   every seat that produced output, and route and flush again — so a
//!   request → append → ack → reply exchange among seats of one worker
//!   costs one poll round, not three. Whatever the last pass leaves waits
//!   for the next round. [`WireStats::local_deliveries`] counts the
//!   envelopes the passes stepped.
//! * **One multiplexed connection per worker pair.** Outbound envelopes for
//!   other workers are grouped by destination endpoint and flushed as
//!   [`recraft_net::mux`] batches — one write per destination per pass,
//!   never ahead of the barrier of the seat that sent them. A
//!   [`MuxReader`] per inbound connection demultiplexes by `Envelope::to`
//!   and forwards the rare mis-delivery (a node re-adopted elsewhere
//!   mid-flight) to the owning shard's queue. Pair connections dial
//!   *nonblocking*: the socket sits in the poll set until writability
//!   reports the connect done, and batches produced meanwhile queue
//!   (bounded) instead of stalling every co-hosted seat behind a blocking
//!   dial. Established pair connections write whole batches blocking, with
//!   a 1 s timeout.
//! * **Per-node front doors.** Every node keeps its own listener *socket*
//!   (accepted and read by its worker — no thread), published in
//!   [`FleetNet`]. Clients and the admin plane dial a node's own address
//!   and address that node: an envelope read off a front door whose `to`
//!   is not the seat behind it is dropped at the door. The first envelope
//!   from a client/admin identity registers that identity on the
//!   connection; a reply for it goes to the newest live connection of the
//!   replying seat that carries it, so a client that reconnects is
//!   answered on its new socket. A kill closes the listener so blind
//!   clients still see connection-refused and rotate away, exactly as with
//!   thread-per-node.
//! * **Seat migration.** [`DriverRuntime::migrate`] moves a hosted node
//!   between workers at a round boundary: ownership flips in the
//!   assignment map first (new traffic queues to the target; the source
//!   forwards), then the source hands the whole seat — node, status block,
//!   front door, live connections with their unsent reply bytes, load
//!   counters — to the target through its channel. `poll(2)` keeps no
//!   kernel registry, so the moved fds are simply part of the target's
//!   next poll set. Outputs still queued inside the node flush through the
//!   *target's* next write-ahead barrier, so group commit is preserved
//!   across the move.

use crate::fleet_net::{FleetNet, HarnessNode, NodeStatus};
use crate::CLIENT_BASE;
use bytes::{Buf, BytesMut};
use recraft_core::{NodeEvent, Role};
use recraft_net::frame::put_frame;
use recraft_net::mux::{put_batch, MuxReader};
use recraft_net::poll::{
    self, Poller, Readiness, WakeReceiver, Waker, INTEREST_READ, INTEREST_WRITE,
};
use recraft_net::Envelope;
use recraft_types::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an outbound worker-pair connection stays down after a failed
/// dial or write before the worker tries again (µs on the runtime clock).
const RECONNECT_BACKOFF_US: u64 = 50_000;

/// How long a front-door connection may hold reply bytes its socket would
/// not take before it is closed. Client resend (on a new connection)
/// recovers the response; the bound keeps one pathological client from
/// accumulating buffers forever.
const CLIENT_WRITE_DEADLINE: Duration = Duration::from_millis(500);

/// Ceiling on unsent reply bytes buffered for one connection; beyond it
/// the connection is closed (the client is not reading its replies).
const CLIENT_WRITE_BUFFER_MAX: usize = 1 << 20;

/// Ceiling on envelopes per mux batch (one wire write). A round producing
/// more for one destination flushes multiple batches.
const MUX_BATCH: usize = 512;

/// Ceiling on in-round passes: how many times a round steps the envelopes
/// its own seats addressed to each other before leaving the rest to the
/// next round. A request → append → ack → reply exchange among co-hosted
/// seats takes two; the bound keeps a chatty shard from starving its poll.
const LOCAL_PASSES: usize = 4;

/// Ceiling on envelopes queued behind one in-flight outbound dial.
/// Overflow drops the newest — the protocol retransmits.
const OUT_QUEUE_MAX: usize = 4096;

/// Defensive cap on how long a worker blocks in `poll` even with no
/// protocol deadline armed (an empty shard). Wakers cover every planned
/// wakeup; this bounds the damage of a lost one.
const IDLE_CAP_US: u64 = 1_000_000;

/// Poll cap while reply bytes sit buffered, so their write deadline is
/// enforced even if the client's socket never signals writability.
const WRITE_SWEEP_US: u64 = 100_000;

/// Wire-level and scheduling counters the runtime accumulates across its
/// lifetime, summed over all workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Mux batches written to worker-pair connections.
    pub batches: u64,
    /// Envelopes carried by those batches.
    pub batched_envelopes: u64,
    /// Worker loop rounds (each is one return from the poller).
    pub wakeups: u64,
    /// Rounds that found nothing to do — no message, no readable byte, no
    /// output. A readiness-driven idle fleet keeps this near zero; the old
    /// fixed-cadence park burned ~2000 of these per second per worker.
    pub idle_wakeups: u64,
    /// Envelopes stepped in the round that produced them: same-worker
    /// traffic delivered by an in-round pass instead of a later round.
    pub local_deliveries: u64,
}

impl WireStats {
    /// Mean envelopes per wire write (1.0 = no batching happened).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_envelopes as f64 / self.batches as f64
        }
    }
}

/// The OS thread count of this process, from `/proc/self/status` (Linux
/// only — `None` elsewhere). Benches record it to prove the fixed thread
/// budget holds independent of range count.
#[must_use]
pub fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// What flows into a worker's channel.
enum WorkerMsg {
    /// Take ownership of a node (its status block and front-door listener
    /// ride along).
    Adopt(Box<Seat>),
    /// Release a node: flush a final barrier, close its front door and
    /// connections, and send it back.
    Remove(NodeId, Sender<Box<HarnessNode>>),
    /// An envelope owned by this shard, forwarded from another worker.
    Forward(Envelope),
    /// Hand the named seat to worker `target` (sent to the current owner).
    Migrate(NodeId, usize),
    /// A migrated seat arriving at its new owner, live connections and
    /// load counters included.
    Arrive(NodeId, Box<Hosted>),
}

/// One node as handed to its worker.
struct Seat {
    node: HarnessNode,
    status: Arc<NodeStatus>,
    listener: TcpListener,
}

/// State shared by the runtime handle and every worker.
struct Shared {
    net: Arc<FleetNet>,
    /// node → owning worker index. Written by adopt/remove/migrate, read
    /// on every routing decision.
    assignment: RwLock<HashMap<NodeId, usize>>,
    /// Worker index → mux endpoint address (fixed at start).
    endpoints: Vec<SocketAddr>,
    /// Worker index → poll waker. Every channel send is followed by a wake
    /// so the receiver's blocked `poll` returns. Held here for the
    /// runtime's lifetime — if every sender dropped, the receiver's pipe
    /// would read EOF and spin the poller.
    wakers: Vec<Waker>,
    batches: AtomicU64,
    batched_envelopes: AtomicU64,
    wakeups: AtomicU64,
    idle_wakeups: AtomicU64,
    local_deliveries: AtomicU64,
    stop: AtomicBool,
    start: Instant,
}

/// A running worker pool. All methods take `&self`; the runtime is made to
/// be shared behind the `Cluster` the way the fleet itself is.
pub struct DriverRuntime {
    shared: Arc<Shared>,
    txs: Mutex<Vec<Sender<WorkerMsg>>>,
    joins: Mutex<Vec<JoinHandle<Vec<HarnessNode>>>>,
    next_worker: AtomicUsize,
}

impl DriverRuntime {
    /// Binds one mux endpoint per worker and spawns the pool of `workers`
    /// threads (`None` = the host's available parallelism).
    ///
    /// # Panics
    /// Panics on endpoint bind, waker creation, or thread-spawn failure.
    #[must_use]
    pub fn start(net: Arc<FleetNet>, workers: Option<usize>) -> DriverRuntime {
        let workers = workers
            .unwrap_or_else(|| thread::available_parallelism().map_or(4, usize::from))
            .max(1);
        let listeners: Vec<TcpListener> = (0..workers)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind worker endpoint");
                l.set_nonblocking(true).expect("nonblocking endpoint");
                l
            })
            .collect();
        let endpoints = listeners
            .iter()
            .map(|l| l.local_addr().expect("endpoint addr"))
            .collect();
        let mut wakers = Vec::with_capacity(workers);
        let mut wake_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (w, rx) = poll::waker().expect("worker waker");
            wakers.push(w);
            wake_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            net,
            assignment: RwLock::new(HashMap::new()),
            endpoints,
            wakers,
            batches: AtomicU64::new(0),
            batched_envelopes: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            idle_wakeups: AtomicU64::new(0),
            local_deliveries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            start: Instant::now(),
        });
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let joins = listeners
            .into_iter()
            .zip(rxs)
            .zip(wake_rxs)
            .enumerate()
            .map(|(idx, ((endpoint, rx), wake_rx))| {
                let ctx = Worker {
                    idx,
                    shared: Arc::clone(&shared),
                    rx,
                    txs: txs.clone(),
                    endpoint,
                    wake_rx,
                };
                thread::Builder::new()
                    .name(format!("recraft-worker-{idx}"))
                    .spawn(move || ctx.run())
                    .expect("spawn runtime worker")
            })
            .collect();
        DriverRuntime {
            shared,
            txs: Mutex::new(txs),
            joins: Mutex::new(joins),
            next_worker: AtomicUsize::new(0),
        }
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared.endpoints.len()
    }

    /// Lifetime wire and scheduling counters.
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            batches: self.shared.batches.load(Ordering::Relaxed),
            batched_envelopes: self.shared.batched_envelopes.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
            idle_wakeups: self.shared.idle_wakeups.load(Ordering::Relaxed),
            local_deliveries: self.shared.local_deliveries.load(Ordering::Relaxed),
        }
    }

    /// The worker currently assigned to host `id`, if any.
    #[must_use]
    pub fn owner_of(&self, id: NodeId) -> Option<usize> {
        self.shared
            .assignment
            .read()
            .expect("assignment lock")
            .get(&id)
            .copied()
    }

    /// Hands `node` (with its front-door `listener`) to a worker,
    /// round-robin. The caller registers the listener's address in the
    /// [`FleetNet`] before calling, so peers can dial from the first
    /// heartbeat.
    pub fn adopt(&self, node: HarnessNode, status: Arc<NodeStatus>, listener: TcpListener) {
        self.adopt_group(vec![(node, status, listener)]);
    }

    /// Adopts the members of one new cluster together. Each seat is placed
    /// round-robin in the given order, as successive [`DriverRuntime::adopt`]
    /// calls would place it, but every placement is published before any
    /// seat is handed over, and the seats go to their workers last to
    /// first. The first seat — the cluster's smallest id, which campaigns in
    /// the round that seats it — thus arrives after every peer it addresses
    /// is routable and has its `Adopt` queued ahead of any vote request: a
    /// worker drains its channel before it delivers. Adopted one by one, a
    /// busy worker could tick the campaigner while the caller had yet to
    /// place the next member, and the dropped votes left the first election
    /// to the timers.
    pub(crate) fn adopt_group(&self, group: Vec<(HarnessNode, Arc<NodeStatus>, TcpListener)>) {
        let workers = self.worker_count();
        let placed: Vec<(usize, Box<Seat>)> = group
            .into_iter()
            .map(|(node, status, listener)| {
                listener
                    .set_nonblocking(true)
                    .expect("nonblocking front door");
                let w = self.next_worker.fetch_add(1, Ordering::Relaxed) % workers;
                let seat = Seat {
                    node,
                    status,
                    listener,
                };
                (w, Box::new(seat))
            })
            .collect();
        {
            let mut assignment = self.shared.assignment.write().expect("assignment lock");
            for (w, seat) in &placed {
                assignment.insert(seat.node.id(), *w);
            }
        }
        let txs = self.txs.lock().expect("worker sender lock");
        for (w, seat) in placed.into_iter().rev() {
            txs[w].send(WorkerMsg::Adopt(seat)).expect("worker alive");
            self.shared.wakers[w].wake();
        }
    }

    /// Withdraws `id` from its worker: the seat's final barrier is flushed,
    /// its front door and connections close, and the node comes back for
    /// inspection (or to be dropped — that is a kill). `None` if the node
    /// is not hosted (or a concurrent migration raced the removal — rare,
    /// and the caller's retry sees the node wherever it landed).
    pub fn remove(&self, id: NodeId) -> Option<HarnessNode> {
        let w = self
            .shared
            .assignment
            .write()
            .expect("assignment lock")
            .remove(&id)?;
        let (reply_tx, reply_rx) = channel();
        {
            let txs = self.txs.lock().expect("worker sender lock");
            txs[w].send(WorkerMsg::Remove(id, reply_tx)).ok()?;
        }
        self.shared.wakers[w].wake();
        reply_rx
            .recv_timeout(Duration::from_secs(10))
            .ok()
            .map(|boxed| *boxed)
    }

    /// Moves the seat for `id` to worker `target` at its current owner's
    /// next round boundary. Ownership flips immediately — new traffic for
    /// the node queues at the target while the seat is in flight — and the
    /// node, its front door, its live connections, and its load counters
    /// arrive intact. Returns whether a move was initiated (`true` also
    /// when `id` is already hosted by `target`).
    pub fn migrate(&self, id: NodeId, target: usize) -> bool {
        if target >= self.worker_count() {
            return false;
        }
        let source = {
            let mut map = self.shared.assignment.write().expect("assignment lock");
            let Some(cur) = map.get(&id).copied() else {
                return false;
            };
            if cur == target {
                return true;
            }
            map.insert(id, target);
            cur
        };
        let sent = {
            let txs = self.txs.lock().expect("worker sender lock");
            txs[source].send(WorkerMsg::Migrate(id, target)).is_ok()
        };
        if sent {
            self.shared.wakers[source].wake();
        }
        sent
    }

    /// Stops the pool and collects every hosted node (each with a final
    /// storage barrier flushed). Idempotent: a second call returns empty.
    pub fn shutdown_collect(&self) -> Vec<HarnessNode> {
        self.shared.stop.store(true, Ordering::Relaxed);
        for w in &self.shared.wakers {
            w.wake();
        }
        let joins: Vec<JoinHandle<Vec<HarnessNode>>> =
            std::mem::take(&mut *self.joins.lock().expect("join lock"));
        let mut nodes = Vec::new();
        for j in joins {
            nodes.extend(j.join().expect("runtime worker panicked"));
        }
        self.shared
            .assignment
            .write()
            .expect("assignment lock")
            .clear();
        nodes
    }
}

impl Drop for DriverRuntime {
    fn drop(&mut self) {
        let _ = self.shutdown_collect();
    }
}

/// One inbound connection: a worker-pair mux stream on the endpoint, or a
/// client/admin stream on a seat's front door. Exactly one worker owns it —
/// reads, reply writes, and the close all happen on the thread that polls
/// the fd — and a migrating seat carries its connections with it.
struct Conn {
    stream: TcpStream,
    reader: MuxReader,
    /// Front doors only: the client/admin identity the connection's first
    /// envelope carried. Replies addressed to it leave on this connection.
    peer: Option<NodeId>,
    /// Reply bytes the socket has not taken yet are `out[sent..]`.
    out: BytesMut,
    sent: usize,
    /// Set when a flush reports `WouldBlock`: the connection holds write
    /// interest until the buffer drains (cleared) or this instant passes
    /// (closed).
    write_deadline: Option<Instant>,
    /// EOF, an I/O error, a corrupt frame, the reply-buffer cap, or the
    /// write deadline. A closed connection is dropped at the end of the
    /// round that closed it, whatever the peer does with its end.
    closed: bool,
}

impl Conn {
    /// Drains the socket's readable bytes into the frame decoder; returns
    /// how many came off it.
    fn fill(&mut self, scratch: &mut [u8]) -> usize {
        let mut total = 0;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    total += n;
                    self.reader.feed(&scratch[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        total
    }

    /// Encodes one reply frame behind whatever is still unsent, so frames
    /// stay ordered and the payload is written once, where it is sent from.
    /// The cap counts only bytes the socket has refused: a burst that
    /// outgrows it is offered to the socket first, and a client that has
    /// stopped reading is closed.
    fn queue(&mut self, env: &Envelope) {
        self.out.advance(self.sent);
        self.sent = 0;
        let refused = self.out.len();
        put_frame(&mut self.out, env);
        if refused > 0 && self.out.len() > CLIENT_WRITE_BUFFER_MAX {
            if self.write_deadline.is_none() {
                self.flush();
            }
            if !self.out.is_empty() {
                self.closed = true;
            }
        }
    }

    /// Hands the socket as much of the buffer as it takes without blocking.
    fn flush(&mut self) {
        while !self.closed && self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => self.closed = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_deadline
                        .get_or_insert_with(|| Instant::now() + CLIENT_WRITE_DEADLINE);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        self.out.clear();
        self.sent = 0;
        self.write_deadline = None;
    }
}

/// An outbound worker-pair connection's lifecycle.
enum OutState {
    /// No socket; redial after `down_until`.
    Down,
    /// A nonblocking dial in flight: registered for writability, resolved
    /// by [`poll::connect_ready`]. Batches queue behind it (bounded).
    Connecting(TcpStream),
    /// Established; writes are blocking with a bounded write timeout.
    Ready(TcpStream),
}

/// One outbound worker-pair connection: dialed lazily and *nonblocking*,
/// dropped on write failure, redialed after a backoff. Batches produced
/// while a dial is in flight queue up to [`OUT_QUEUE_MAX`]; batches sent
/// while the far side is down are dropped — the protocol retransmits.
struct OutConn {
    state: OutState,
    down_until: u64,
    queued: Vec<Envelope>,
}

/// A seat as the worker holds it: the node plus its front-door I/O and
/// cumulative load counters (these travel with the seat on migration).
struct Hosted {
    node: HarnessNode,
    status: Arc<NodeStatus>,
    listener: TcpListener,
    conns: Vec<Conn>,
    /// Envelopes stepped into the node + messages it externalized.
    steps: u64,
    /// Bytes read off this seat's front-door connections.
    bytes: u64,
}

/// What each poll-set token maps back to when readiness comes in.
enum PollSlot {
    Wake,
    Endpoint,
    Mux(usize),
    Door(NodeId),
    SeatConn(NodeId, usize),
    Dial(SocketAddr),
}

/// Everything one worker thread owns.
struct Worker {
    idx: usize,
    shared: Arc<Shared>,
    rx: Receiver<WorkerMsg>,
    txs: Vec<Sender<WorkerMsg>>,
    endpoint: TcpListener,
    wake_rx: WakeReceiver,
}

impl Worker {
    fn run(self) -> Vec<HarnessNode> {
        let mut seats: BTreeMap<NodeId, Hosted> = BTreeMap::new();
        let mut mux_conns: Vec<Conn> = Vec::new();
        let mut outs: HashMap<SocketAddr, OutConn> = HashMap::new();
        let mut inbox: VecDeque<Envelope> = VecDeque::new();
        let mut scratch = vec![0u8; 64 * 1024];
        // Every outbound mux batch of this worker is encoded here.
        let mut wire_buf = BytesMut::new();
        let mut poller = Poller::new();
        let mut slots: Vec<PollSlot> = Vec::new();
        // Set when the previous round left envelopes queued locally: the
        // next poll is a nonblocking readiness check, not a sleep.
        let mut work_pending = false;
        while !self.shared.stop.load(Ordering::Relaxed) {
            // 1. Register everything this round can wait on. poll(2) is
            // stateless per call, so adopted/migrated/accepted fds are
            // simply part of the next set — nothing to transfer.
            poller.clear();
            slots.clear();
            let mut stalled = false;
            slots.push(PollSlot::Wake);
            poller.register(self.wake_rx.raw_fd(), INTEREST_READ);
            slots.push(PollSlot::Endpoint);
            poller.register(poll::fd_of(&self.endpoint), INTEREST_READ);
            for (i, conn) in mux_conns.iter().enumerate() {
                slots.push(PollSlot::Mux(i));
                poller.register(poll::fd_of(&conn.stream), INTEREST_READ);
            }
            for (id, seat) in &seats {
                slots.push(PollSlot::Door(*id));
                poller.register(poll::fd_of(&seat.listener), INTEREST_READ);
                for (i, conn) in seat.conns.iter().enumerate() {
                    slots.push(PollSlot::SeatConn(*id, i));
                    let interest = if conn.write_deadline.is_some() {
                        stalled = true;
                        INTEREST_READ | INTEREST_WRITE
                    } else {
                        INTEREST_READ
                    };
                    poller.register(poll::fd_of(&conn.stream), interest);
                }
            }
            for (addr, out) in &outs {
                if let OutState::Connecting(s) = &out.state {
                    slots.push(PollSlot::Dial(*addr));
                    poller.register(poll::fd_of(s), INTEREST_WRITE);
                }
            }

            // 2. Sleep until the earliest protocol deadline among this
            // shard's seats, or until readiness / a waker interrupts.
            let timeout = if work_pending {
                Duration::ZERO
            } else {
                let now = self.now_us();
                let due = seats
                    .values()
                    .map(|s| s.node.next_deadline())
                    .min()
                    .unwrap_or(u64::MAX);
                let mut park = if due == u64::MAX {
                    IDLE_CAP_US
                } else {
                    due.saturating_sub(now).min(IDLE_CAP_US)
                };
                if stalled {
                    park = park.min(WRITE_SWEEP_US);
                }
                Duration::from_micros(park)
            };
            let n_ready = poller.wait(Some(timeout)).unwrap_or(0);
            self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
            let mut busy = false;

            // 3. Service exactly what reported readiness.
            if n_ready > 0 {
                let now = self.now_us();
                for (token, slot) in slots.iter().enumerate() {
                    let ready = poller.readiness(token);
                    if !ready.any() {
                        continue;
                    }
                    match *slot {
                        PollSlot::Wake => self.wake_rx.drain(),
                        PollSlot::Endpoint => {
                            busy |= accept_into(&self.endpoint, &mut mux_conns);
                        }
                        PollSlot::Mux(i) => {
                            if let Some(conn) = mux_conns.get_mut(i) {
                                busy |= read_conn(conn, &mut scratch, None, &mut inbox) > 0;
                            }
                        }
                        PollSlot::Door(id) => {
                            if let Some(seat) = seats.get_mut(&id) {
                                busy |= accept_into(&seat.listener, &mut seat.conns);
                            }
                        }
                        PollSlot::SeatConn(id, i) => {
                            if let Some(seat) = seats.get_mut(&id) {
                                if let Some(conn) = seat.conns.get_mut(i) {
                                    if ready.writable {
                                        conn.flush();
                                        busy = true;
                                    }
                                    if ready.readable || ready.error {
                                        let n = read_conn(conn, &mut scratch, Some(id), &mut inbox);
                                        seat.bytes += n as u64;
                                        busy |= n > 0;
                                    }
                                }
                            }
                        }
                        PollSlot::Dial(addr) => {
                            busy |= self.resolve_dial(&mut outs, addr, ready, now, &mut wire_buf);
                        }
                    }
                }
            }

            // 4. Control-plane messages and forwarded envelopes (the waker
            // fires for these, but a cheap drain costs nothing either way).
            while let Ok(msg) = self.rx.try_recv() {
                busy = true;
                self.handle(msg, &mut seats, &mut inbox);
            }

            // 5. Step. Envelopes for nodes this shard owns are stepped;
            // anything owned elsewhere (re-adoption races, migrations in
            // flight) is forwarded to its shard.
            let now = self.now_us();
            while let Some(env) = inbox.pop_front() {
                busy = true;
                self.deliver(env, &mut seats, now);
            }

            // 6. Tick + write-ahead barrier + route, per node. One barrier
            // covers the whole burst the node drained this round; nodes
            // with nothing to externalize skip it. Replies queue on the
            // seat's own connections and each connection flushes once;
            // then the wire is flushed.
            let now = self.now_us();
            let mut local: Vec<Envelope> = Vec::new();
            let mut wire: HashMap<SocketAddr, Vec<Envelope>> = HashMap::new();
            for (id, seat) in &mut seats {
                seat.node.tick(now);
                if seat.node.has_outputs() {
                    busy = true;
                    self.externalize(*id, seat, &mut local, &mut wire);
                }
                publish_seat(seat);
            }
            self.flush_wire(&mut outs, &mut wire, now, &mut wire_buf);

            // 7. In-round passes: step what the seats just addressed to one
            // another, then barrier, route and flush whatever that produced,
            // up to LOCAL_PASSES times. As in step 6, a seat's outputs are
            // routed only after its own barrier, so nothing leaves ahead of
            // the state it promises; what is left after the last pass waits
            // for the next round.
            for _ in 0..LOCAL_PASSES {
                if local.is_empty() {
                    break;
                }
                let now = self.now_us();
                let mut stepped: Vec<NodeId> = Vec::new();
                for env in std::mem::take(&mut local) {
                    let to = env.to;
                    if self.deliver(env, &mut seats, now) {
                        stepped.push(to);
                    }
                }
                self.shared
                    .local_deliveries
                    .fetch_add(stepped.len() as u64, Ordering::Relaxed);
                stepped.sort_unstable();
                stepped.dedup();
                for id in stepped {
                    if let Some(seat) = seats.get_mut(&id) {
                        if seat.node.has_outputs() {
                            self.externalize(id, seat, &mut local, &mut wire);
                        }
                        publish_seat(seat);
                    }
                }
                self.flush_wire(&mut outs, &mut wire, now, &mut wire_buf);
            }
            inbox.extend(local);

            // 8. Reap: connections closed this round, and those whose
            // buffered replies outlived the write deadline. Dropping the
            // stream closes the fd; it is in no later poll set.
            let cutoff = Instant::now();
            for seat in seats.values_mut() {
                seat.conns
                    .retain(|c| !c.closed && c.write_deadline.is_none_or(|d| cutoff < d));
            }
            mux_conns.retain(|c| !c.closed);

            work_pending = !inbox.is_empty();
            if !busy {
                self.shared.idle_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Final barrier for every hosted node, then hand them back.
        seats
            .into_values()
            .map(|mut seat| {
                let _ = seat.node.take_outputs();
                publish_seat(&seat);
                seat.node
            })
            .collect()
    }

    fn now_us(&self) -> u64 {
        self.shared.start.elapsed().as_micros() as u64
    }

    fn handle(
        &self,
        msg: WorkerMsg,
        seats: &mut BTreeMap<NodeId, Hosted>,
        inbox: &mut VecDeque<Envelope>,
    ) {
        match msg {
            WorkerMsg::Adopt(seat) => {
                let id = seat.node.id();
                seats.insert(
                    id,
                    Hosted {
                        node: seat.node,
                        status: seat.status,
                        listener: seat.listener,
                        conns: Vec::new(),
                        steps: 0,
                        bytes: 0,
                    },
                );
            }
            WorkerMsg::Remove(id, reply) => {
                if let Some(mut seat) = seats.remove(&id) {
                    // Flush the final barrier so a wal-backed node's state
                    // is on disk for a later restart, then close the front
                    // door (and every conn behind it) so dialing clients
                    // see refused-connection and rotate.
                    let _ = seat.node.take_outputs();
                    publish_seat(&seat);
                    drop(seat.listener);
                    drop(seat.conns);
                    let _ = reply.send(Box::new(seat.node));
                }
            }
            WorkerMsg::Forward(env) => inbox.push_back(env),
            WorkerMsg::Migrate(id, target) => {
                // Hand the whole seat over. Outputs still queued inside the
                // node travel with it and flush through the target's next
                // barrier; envelopes still in our inbox re-route through
                // the flipped assignment on delivery. Unsent reply bytes
                // travel inside the seat's connections.
                if target == self.idx || target >= self.txs.len() {
                    return;
                }
                if let Some(seat) = seats.remove(&id) {
                    match self.txs[target].send(WorkerMsg::Arrive(id, Box::new(seat))) {
                        Ok(()) => self.shared.wakers[target].wake(),
                        Err(send_err) => {
                            // Target gone (shutdown race): keep hosting.
                            let WorkerMsg::Arrive(_, seat) = send_err.0 else {
                                return;
                            };
                            self.shared
                                .assignment
                                .write()
                                .expect("assignment lock")
                                .insert(id, self.idx);
                            seats.insert(id, *seat);
                        }
                    }
                }
            }
            WorkerMsg::Arrive(id, seat) => {
                seats.insert(id, *seat);
            }
        }
    }

    /// The write-ahead barrier for one seat, then routing: replies onto
    /// the seat's own connections (each flushed once), peer envelopes into
    /// `local` or the wire batch of the owning worker's endpoint.
    fn externalize(
        &self,
        id: NodeId,
        seat: &mut Hosted,
        local: &mut Vec<Envelope>,
        wire: &mut HashMap<SocketAddr, Vec<Envelope>>,
    ) {
        let (outbox, events) = seat.node.take_outputs();
        count_events(&events, &seat.status);
        seat.steps += outbox.len() as u64;
        for env in outbox {
            if env.to.0 >= CLIENT_BASE {
                queue_reply(&mut seat.conns, &env);
            } else {
                self.route_out(id, env, local, wire);
            }
        }
        for conn in &mut seat.conns {
            if !conn.out.is_empty() && conn.write_deadline.is_none() {
                conn.flush();
            }
        }
    }

    /// Writes everything routed to the wire so far: one mux batch per
    /// destination endpoint (chunked at the batch ceiling inside the
    /// writer).
    fn flush_wire(
        &self,
        outs: &mut HashMap<SocketAddr, OutConn>,
        wire: &mut HashMap<SocketAddr, Vec<Envelope>>,
        now: u64,
        buf: &mut BytesMut,
    ) {
        for (addr, envs) in wire.drain() {
            self.send_batch(outs, addr, envs, now, buf);
        }
    }

    /// Steps an envelope into its owner, or forwards it to the owning
    /// shard. Unowned destinations (killed nodes, stale conns) drop — the
    /// protocol retransmits. Returns whether a hosted seat stepped it.
    fn deliver(&self, env: Envelope, seats: &mut BTreeMap<NodeId, Hosted>, now: u64) -> bool {
        if let Some(seat) = seats.get_mut(&env.to) {
            if self.shared.net.is_blocked(env.to, env.from) {
                return false;
            }
            seat.steps += 1;
            seat.node.step(now, env.from, env.msg);
            return true;
        }
        let owner = self
            .shared
            .assignment
            .read()
            .expect("assignment lock")
            .get(&env.to)
            .copied();
        if let Some(w) = owner {
            if w != self.idx && self.txs[w].send(WorkerMsg::Forward(env)).is_ok() {
                self.shared.wakers[w].wake();
            }
            // Owned by us but not yet adopted (the Adopt is in our own
            // queue): drop rather than self-forward forever.
        }
        false
    }

    /// Routes one outbound peer envelope: same-worker memory hop, or the
    /// wire batch for the owning worker's endpoint.
    fn route_out(
        &self,
        from: NodeId,
        env: Envelope,
        local: &mut Vec<Envelope>,
        wire: &mut HashMap<SocketAddr, Vec<Envelope>>,
    ) {
        if self.shared.net.is_blocked(from, env.to) {
            return;
        }
        // A peer with no registered address is down (killed, or a joiner
        // not yet listening): drop — the protocol resends.
        if self.shared.net.addr_of(env.to).is_none() {
            return;
        }
        let owner = self
            .shared
            .assignment
            .read()
            .expect("assignment lock")
            .get(&env.to)
            .copied();
        match owner {
            Some(w) if w == self.idx => local.push(env),
            Some(w) => wire.entry(self.shared.endpoints[w]).or_default().push(env),
            None => {}
        }
    }

    /// Writes one round's envelopes for `addr`: dials lazily (nonblocking),
    /// queues behind an in-flight dial, drops during backoff.
    fn send_batch(
        &self,
        outs: &mut HashMap<SocketAddr, OutConn>,
        addr: SocketAddr,
        envs: Vec<Envelope>,
        now: u64,
        buf: &mut BytesMut,
    ) {
        let out = outs.entry(addr).or_insert(OutConn {
            state: OutState::Down,
            down_until: 0,
            queued: Vec::new(),
        });
        match &out.state {
            OutState::Ready(_) => self.write_out(out, envs, now, buf),
            OutState::Connecting(_) => queue_out(out, envs),
            OutState::Down => {
                if now < out.down_until {
                    return; // dropped; the protocol retransmits
                }
                match poll::connect_start(&addr) {
                    Ok(s) => {
                        if s.peer_addr().is_ok() {
                            // Loopback dials often complete synchronously.
                            finalize_out(&s);
                            out.state = OutState::Ready(s);
                            self.write_out(out, envs, now, buf);
                        } else {
                            out.state = OutState::Connecting(s);
                            queue_out(out, envs);
                        }
                    }
                    Err(_) => {
                        out.down_until = now + RECONNECT_BACKOFF_US;
                    }
                }
            }
        }
    }

    /// Resolves an in-flight dial after its writability/error event; on
    /// success the queued backlog flushes immediately.
    fn resolve_dial(
        &self,
        outs: &mut HashMap<SocketAddr, OutConn>,
        addr: SocketAddr,
        ready: Readiness,
        now: u64,
        buf: &mut BytesMut,
    ) -> bool {
        let Some(out) = outs.get_mut(&addr) else {
            return false;
        };
        let OutState::Connecting(s) = &out.state else {
            return false;
        };
        match poll::connect_ready(s, ready) {
            Ok(true) => {
                let OutState::Connecting(s) = std::mem::replace(&mut out.state, OutState::Down)
                else {
                    unreachable!("state checked above");
                };
                finalize_out(&s);
                out.state = OutState::Ready(s);
                let backlog = std::mem::take(&mut out.queued);
                if !backlog.is_empty() {
                    self.write_out(out, backlog, now, buf);
                }
                true
            }
            Ok(false) => false,
            Err(_) => {
                out.state = OutState::Down;
                out.down_until = now + RECONNECT_BACKOFF_US;
                out.queued.clear();
                true
            }
        }
    }

    /// Writes `envs` on an established connection in mux-batch chunks, each
    /// encoded into the worker's one wire buffer, downing the connection on
    /// failure.
    fn write_out(&self, out: &mut OutConn, envs: Vec<Envelope>, now: u64, buf: &mut BytesMut) {
        let mut failed = false;
        if let OutState::Ready(s) = &mut out.state {
            for chunk in envs.chunks(MUX_BATCH) {
                buf.clear();
                if put_batch(buf, chunk).is_err() || s.write_all(buf).is_err() {
                    failed = true;
                    break;
                }
                self.shared.batches.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .batched_envelopes
                    .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            }
        }
        if failed {
            out.state = OutState::Down;
            out.down_until = now + RECONNECT_BACKOFF_US;
            out.queued.clear();
        }
    }
}

/// Accepts every pending connection on a nonblocking listener.
fn accept_into(listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
    let mut busy = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn {
                    stream,
                    reader: MuxReader::new(),
                    peer: None,
                    out: BytesMut::new(),
                    sent: 0,
                    write_deadline: None,
                    closed: false,
                });
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    busy
}

/// Drains one connection's readable bytes and queues the decoded
/// envelopes; returns how many bytes came off the socket. `door` names the
/// seat behind a front-door connection (`None` on the mux endpoint): an
/// envelope addressed to any other node is dropped there, and the first
/// one from a client/admin identity registers that identity for replies.
fn read_conn(
    conn: &mut Conn,
    scratch: &mut [u8],
    door: Option<NodeId>,
    inbox: &mut VecDeque<Envelope>,
) -> usize {
    let total = conn.fill(scratch);
    loop {
        match conn.reader.next_envelope() {
            Ok(Some(env)) => {
                if let Some(seat) = door {
                    if env.to != seat {
                        continue;
                    }
                    if conn.peer.is_none() && env.from.0 >= CLIENT_BASE {
                        conn.peer = Some(env.from);
                    }
                }
                inbox.push_back(env);
            }
            Ok(None) => break,
            Err(_) => {
                // Corrupt stream: no trustworthy framing boundary left.
                conn.closed = true;
                break;
            }
        }
    }
    total
}

/// Queues a reply on the newest live connection of the replying seat that
/// carries the addressee's identity. With none, the reply drops: the
/// client's resend on its next connection recovers the response
/// (exactly-once via the session table).
fn queue_reply(conns: &mut [Conn], env: &Envelope) {
    let live = conns
        .iter_mut()
        .rev()
        .find(|c| !c.closed && c.peer == Some(env.to));
    if let Some(conn) = live {
        conn.queue(env);
    }
}

/// Settles an established outbound pair connection: blocking writes with a
/// bounded timeout (whole mux frames only — a partial nonblocking write
/// would corrupt the stream's framing).
fn finalize_out(stream: &TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
}

/// Queues envelopes behind an in-flight dial, bounded; overflow drops the
/// newest (the protocol retransmits).
fn queue_out(out: &mut OutConn, envs: Vec<Envelope>) {
    let room = OUT_QUEUE_MAX.saturating_sub(out.queued.len());
    out.queued.extend(envs.into_iter().take(room));
}

/// Folds one round's node events into the status counters.
fn count_events(events: &[NodeEvent], status: &NodeStatus) {
    for ev in events {
        match ev {
            NodeEvent::BecameLeader { .. } => {
                status.elections.fetch_add(1, Ordering::Relaxed);
            }
            NodeEvent::SnapshotInstalled { .. } => {
                status.snapshot_installs.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Publishes the seat's observable protocol state and load counters.
fn publish_seat(seat: &Hosted) {
    let (node, status) = (&seat.node, &seat.status);
    status.is_leader.store(node.is_leader(), Ordering::Relaxed);
    status.cluster.store(node.cluster().0, Ordering::Relaxed);
    status
        .commit
        .store(node.commit_index().0, Ordering::Relaxed);
    status
        .applied
        .store(node.applied_index().0, Ordering::Relaxed);
    status
        .retired
        .store(node.role() == Role::Removed, Ordering::Relaxed);
    status.steps.store(seat.steps, Ordering::Relaxed);
    status.net_bytes.store(seat.bytes, Ordering::Relaxed);
}
