//! The sharded driver runtime: a fixed pool of worker threads hosting the
//! whole fleet.
//!
//! The previous harness spent ~3 OS threads per node (driver + acceptor +
//! one blocking reader per inbound connection) and one socket per
//! node-pair, which walls off "hundreds of ranges over real sockets" behind
//! a thread explosion. Here each worker drives one [`Shard`] — the sans-io
//! round the simulator drives too, which owns the ordering rules: each
//! seat's write-ahead barrier before its output leaves, in-round passes
//! among co-hosted seats, a seat leaving at its barrier, and status
//! reports. This module is its I/O:
//!
//! * **N workers, period.** Each worker owns a disjoint set of nodes and
//!   all their I/O. Total thread count is workers + whatever the embedding
//!   spawns (control plane, clients), independent of how many raft groups
//!   the process hosts. Every round ticks every hosted seat on the wall
//!   clock and publishes each seat's reported status into its status block;
//!   a report that flags a changed leader flag, cluster or retirement also
//!   notifies the fleet's [`crate::fleet_net::SeatSignal`], which wakes any
//!   thread blocked in a `Cluster::wait_for_*` call (nobody waiting: one
//!   fence and one relaxed load, in that round only).
//! * **A worker owns every fd it polls, including the reply half.** A
//!   worker blocks in a [`recraft_net::poll::Poller`] over its waker, its
//!   mux endpoint, every hosted front door and every connection it holds,
//!   with the timeout set to the earliest protocol deadline among its seats
//!   ([`recraft_core::Shard::next_deadline`]). No socket is shared between
//!   threads and none is duplicated: the connection a request arrived on
//!   belongs to the seat that answers it, so the reply is appended to that
//!   connection's own buffer and flushed once per seat report by the thread
//!   that reads it. An idle shard makes no syscalls between deadlines;
//!   [`WireStats::idle_wakeups`] counts the rounds that found nothing to do.
//! * **One connection rule.** Every socket a worker holds — a front door's
//!   client or admin stream, a pair link it dialed, a mux stream accepted on
//!   its endpoint — is a nonblocking `Conn` for its whole life, polled for
//!   read, and written only through its own buffer. A unit (a reply frame or
//!   a mux batch) is appended whole, or dropped whole when more bytes than
//!   the connection's cap still wait after they were offered to the socket:
//!   1 MiB on a front door, [`MAX_FRAME_BYTES`] on a pair link, so one
//!   maximal batch can always wait behind a partly taken one. What the
//!   socket declines waits with write interest. The protocol resends what
//!   drops, as it resends what a down link drops.
//! * **Connections close explicitly.** EOF, an I/O error, a corrupt frame,
//!   and declined bytes that do not drain within one `WRITE_DEADLINE` (1 s)
//!   each mark the connection closed, and it is dropped — leaving the poll
//!   set — at the end of that same round, whether or not the peer has
//!   closed its end. A closed pair link is dialed again after a backoff.
//! * **One multiplexed link per worker pair.** When a pass of the shard's
//!   round would step an envelope between two of its seats, the route
//!   closure the worker hands it checks, at that moment, that the link is
//!   not blocked, the address is live and the seat is still owned here, or
//!   the envelope drops ([`WireStats::local_deliveries`] counts those
//!   stepped). Every other peer envelope is grouped by its owning worker and
//!   encoded as [`recraft_net::mux`] batches straight into that worker's
//!   link, which is flushed once per pass of the round. The link is dialed
//!   nonblocking and the dial is resolved by write interest, so no seat
//!   ever waits on a dial or on a peer that reads slowly. A [`MuxReader`]
//!   per accepted connection demultiplexes by `Envelope::to` and forwards
//!   the rare mis-delivery (a node re-adopted elsewhere mid-flight) to the
//!   owning shard's queue.
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
//! * **The assignment map places every seat.** [`DriverRuntime::migrate`]
//!   and [`DriverRuntime::remove`] change the map first (new traffic queues
//!   to the new owner; the old one forwards), then tell the worker the map
//!   named. That worker takes the seat out of its shard at its barrier and
//!   sends the whole seat — node, status block, front door, live
//!   connections with their unsent reply bytes, load counters — wherever
//!   the map points *now*; a worker a seat arrives at does the same. So a
//!   seat still in flight from an earlier move is passed on to its newest
//!   owner, and one removed in flight is handed to the remover wherever it
//!   lands. `poll(2)` keeps no kernel registry, so the moved fds are simply
//!   part of the target's next poll set.

use crate::fleet_net::{FleetNet, HarnessNode, HarnessStore, NodeStatus, SeatSignal};
use crate::CLIENT_BASE;
use bytes::{Buf, BytesMut};
use recraft_core::{Flushed, Role, Shard};
use recraft_kv::KvMachine;
use recraft_net::frame::{put_frame, MAX_FRAME_BYTES};
use recraft_net::mux::{put_batch_prefix, MuxReader};
use recraft_net::poll::{
    self, Poller, Readiness, WakeReceiver, Waker, INTEREST_READ, INTEREST_WRITE,
};
use recraft_net::Envelope;
use recraft_types::NodeId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a pair link stays down after its dial failed or it was closed
/// before the worker dials it again (µs on the runtime clock).
const RECONNECT_BACKOFF_US: u64 = 50_000;

/// How long any connection may hold bytes its socket declined before it is
/// closed. A client resends on a new connection and a pair link is dialed
/// again, so nothing is lost but one peer that stopped reading cannot hold
/// a buffer forever.
const WRITE_DEADLINE: Duration = Duration::from_secs(1);

/// A front door's cap on waiting reply bytes while its socket declines.
const CLIENT_WRITE_BUFFER_MAX: usize = 1 << 20;

/// A pair link's cap on waiting batch bytes while its socket declines: one
/// maximal batch can always wait behind a partly taken one.
const LINK_WRITE_BUFFER_MAX: usize = MAX_FRAME_BYTES;

/// Ceiling on envelopes per mux batch. A pass producing more for one
/// destination appends several batches to its link.
const MUX_BATCH: usize = 512;

/// Defensive cap on how long a worker blocks in `poll` even with no
/// protocol deadline armed (an empty shard). Wakers cover every planned
/// wakeup; this bounds the damage of a lost one.
const IDLE_CAP_US: u64 = 1_000_000;

/// Poll cap while declined bytes wait, so their write deadline is enforced
/// even if the socket never signals writability.
const WRITE_SWEEP_US: u64 = 100_000;

/// Wire-level and scheduling counters the runtime accumulates across its
/// lifetime, summed over all workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Mux batches handed to worker-pair links.
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
    /// A seat arriving — adopted, or moved from another worker. The worker
    /// places it where the assignment map says.
    Seat(Box<Seat>),
    /// The map moved (or dropped) this seat: if hosted here, it leaves at
    /// its barrier and is placed where the map says.
    Release(NodeId),
    /// An envelope owned by this shard, forwarded from another worker.
    Forward(Envelope),
}

/// A seat as it travels between threads: the node and its front door.
struct Seat {
    node: HarnessNode,
    door: Door,
}

/// State shared by the runtime handle and every worker.
struct Shared {
    net: Arc<FleetNet>,
    /// node → owning worker index. Written by adopt/remove/migrate, read
    /// on every routing decision.
    assignment: RwLock<HashMap<NodeId, usize>>,
    /// Where a seat removed from the map goes: registered under the map's
    /// write lock, taken by whichever worker holds the seat next.
    removals: Mutex<HashMap<NodeId, Sender<Box<HarnessNode>>>>,
    /// Worker index → mux endpoint address (fixed at start).
    endpoints: Vec<SocketAddr>,
    /// Worker index → channel.
    txs: Vec<Sender<WorkerMsg>>,
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

impl Shared {
    fn owner_of(&self, id: NodeId) -> Option<usize> {
        let map = self.assignment.read().expect("assignment lock");
        map.get(&id).copied()
    }

    /// Sends `msg` to worker `w` and wakes it. Hands `msg` back if the
    /// worker has stopped.
    fn send(&self, w: usize, msg: WorkerMsg) -> Option<WorkerMsg> {
        if let Err(unsent) = self.txs[w].send(msg) {
            return Some(unsent.0);
        }
        self.wakers[w].wake();
        None
    }

    fn removals(&self) -> MutexGuard<'_, HashMap<NodeId, Sender<Box<HarnessNode>>>> {
        self.removals.lock().expect("removal lock")
    }
}

/// A running worker pool. All methods take `&self`; the runtime is made to
/// be shared behind the `Cluster` the way the fleet itself is.
pub struct DriverRuntime {
    shared: Arc<Shared>,
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
        let (mut endpoints, mut wakers, mut txs, mut parts) = (vec![], vec![], vec![], vec![]);
        for _ in 0..workers {
            let endpoint = TcpListener::bind("127.0.0.1:0").expect("bind worker endpoint");
            endpoint
                .set_nonblocking(true)
                .expect("nonblocking endpoint");
            endpoints.push(endpoint.local_addr().expect("endpoint addr"));
            let (waker, wake_rx) = poll::waker().expect("worker waker");
            wakers.push(waker);
            let (tx, rx) = channel();
            txs.push(tx);
            parts.push((endpoint, wake_rx, rx));
        }
        let shared = Arc::new(Shared {
            net,
            assignment: RwLock::new(HashMap::new()),
            removals: Mutex::new(HashMap::new()),
            endpoints,
            txs,
            wakers,
            batches: AtomicU64::new(0),
            batched_envelopes: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            idle_wakeups: AtomicU64::new(0),
            local_deliveries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            start: Instant::now(),
        });
        let joins = parts
            .into_iter()
            .enumerate()
            .map(|(idx, (endpoint, wake_rx, rx))| {
                let ctx = Worker {
                    idx,
                    shared: Arc::clone(&shared),
                    rx,
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
        self.shared.owner_of(id)
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
    /// is routable and has its seat queued ahead of any vote request: a
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
                let door = Door {
                    status,
                    listener,
                    conns: Vec::new(),
                };
                (w, Box::new(Seat { node, door }))
            })
            .collect();
        {
            let mut assignment = self.shared.assignment.write().expect("assignment lock");
            for (w, seat) in &placed {
                assignment.insert(seat.node.id(), *w);
            }
        }
        for (w, seat) in placed.into_iter().rev() {
            assert!(
                self.shared.send(w, WorkerMsg::Seat(seat)).is_none(),
                "worker alive"
            );
        }
    }

    /// Withdraws `id` from its worker: the seat's final barrier is flushed,
    /// its front door and connections close, and the node comes back for
    /// inspection (or to be dropped — that is a kill), also when it was in
    /// flight between workers. `None` if the node is not hosted.
    pub fn remove(&self, id: NodeId) -> Option<HarnessNode> {
        let (reply_tx, reply_rx) = channel();
        let w = {
            let mut map = self.shared.assignment.write().expect("assignment lock");
            let w = map.remove(&id)?;
            self.shared.removals().insert(id, reply_tx);
            w
        };
        let _ = self.shared.send(w, WorkerMsg::Release(id));
        let node = reply_rx.recv_timeout(Duration::from_secs(10)).ok();
        self.shared.removals().remove(&id);
        node.map(|boxed| *boxed)
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
            map.insert(id, target);
            cur
        };
        source == target || self.shared.send(source, WorkerMsg::Release(id)).is_none()
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

/// One connection a worker holds: a pair link it dialed, a mux stream
/// accepted on its endpoint, or a client/admin stream on a seat's front
/// door. It is nonblocking for its whole life, and every byte written to it
/// goes through [`Conn::queue`] and [`Conn::flush`]. Exactly one worker owns
/// it — reads, writes, and the close all happen on the thread that polls
/// the fd — and a migrating seat carries its front-door connections with it.
struct Conn {
    stream: TcpStream,
    reader: MuxReader,
    /// Front doors only: the client/admin identity the connection's first
    /// envelope carried. Replies addressed to it leave on this connection.
    peer: Option<NodeId>,
    /// Pair links only: the nonblocking dial has not completed yet. Its
    /// write interest resolves it ([`poll::connect_ready`]).
    connecting: bool,
    /// Bytes the socket has not taken yet are `out[sent..]`.
    out: BytesMut,
    sent: usize,
    /// Set when the socket declines bytes: the connection holds write
    /// interest until the buffer drains (cleared) or this instant passes
    /// (closed).
    write_deadline: Option<Instant>,
    /// EOF, an I/O error, a corrupt frame, or a failed dial. A closed
    /// connection is dropped at the end of the round that closed it,
    /// whatever the peer does with its end.
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            reader: MuxReader::new(),
            peer: None,
            connecting: false,
            out: BytesMut::new(),
            sent: 0,
            write_deadline: None,
            closed: false,
        }
    }

    /// A pair link to `addr`, dialed nonblocking.
    fn dial(addr: &SocketAddr) -> std::io::Result<Conn> {
        let link = Conn::new(poll::connect_start(addr)?);
        // Loopback dials often complete synchronously.
        let connecting = link.stream.peer_addr().is_err();
        Ok(Conn { connecting, ..link })
    }

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

    /// The buffer to append one whole unit (a reply frame or a mux batch)
    /// to, behind whatever is still unsent, so units stay ordered and each
    /// is encoded once, where it is sent from. More than `cap` waiting bytes
    /// are offered to the socket first, unless it is already declining; if
    /// more than `cap` still wait, or the connection is closed, this is
    /// `None` and the unit drops whole. So a connection holds at most `cap`
    /// bytes plus one unit waiting. Dropping the sent prefix moves every
    /// waiting byte, so it waits until the prefix is at least as long as
    /// what still waits: each byte moves amortised O(1) times.
    fn queue(&mut self, cap: usize) -> Option<&mut BytesMut> {
        if self.write_deadline.is_none() && self.out.len() - self.sent > cap {
            self.flush();
        }
        if self.sent >= self.out.len() - self.sent {
            self.out.advance(self.sent);
            self.sent = 0;
        }
        (!self.closed && self.out.len() - self.sent <= cap).then_some(&mut self.out)
    }

    /// Hands the socket as much of the buffer as it takes without blocking.
    /// What it declines — all of it while a dial is in flight — waits with
    /// write interest.
    fn flush(&mut self) {
        while !self.closed && self.sent < self.out.len() {
            let wrote = if self.connecting {
                Err(ErrorKind::WouldBlock.into())
            } else {
                self.stream.write(&self.out[self.sent..])
            };
            match wrote {
                Ok(0) => self.closed = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_deadline
                        .get_or_insert_with(|| Instant::now() + WRITE_DEADLINE);
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

    /// Read interest always (an EOF or a reset closes the connection at
    /// once), write interest while declined bytes wait.
    fn interest(&self) -> u8 {
        if self.write_deadline.is_some() {
            INTEREST_READ | INTEREST_WRITE
        } else {
            INTEREST_READ
        }
    }

    /// Whether the connection outlives the round ending at `now`: not
    /// closed, and its declined bytes, if any, still within their deadline.
    fn live(&self, now: Instant) -> bool {
        !self.closed && self.write_deadline.is_none_or(|d| now < d)
    }
}

/// A seat's front door as its worker holds it beside the shard's node:
/// status block, listener and live connections (all of it travels with the
/// seat on migration).
struct Door {
    status: Arc<NodeStatus>,
    listener: TcpListener,
    conns: Vec<Conn>,
}

/// What each poll-set token maps back to when readiness comes in.
enum PollSlot {
    Wake,
    Endpoint,
    Mux(usize),
    Door(NodeId),
    SeatConn(NodeId, usize),
    Link(usize),
}

/// Everything one worker thread owns.
struct Worker {
    idx: usize,
    shared: Arc<Shared>,
    rx: Receiver<WorkerMsg>,
    endpoint: TcpListener,
    wake_rx: WakeReceiver,
}

impl Worker {
    fn run(self) -> Vec<HarnessNode> {
        let mut shard: Shard<KvMachine, HarnessStore> = Shard::default();
        let mut doors: BTreeMap<NodeId, Door> = BTreeMap::new();
        let mut mux_conns: Vec<Conn> = Vec::new();
        // Pair links by peer worker, and when each may be dialed again.
        let mut links: HashMap<usize, Conn> = HashMap::new();
        let mut redial_at = vec![0u64; self.shared.endpoints.len()];
        let mut inbox: VecDeque<Envelope> = VecDeque::new();
        let mut wire: HashMap<usize, Vec<Envelope>> = HashMap::new();
        let mut scratch = vec![0u8; 64 * 1024];
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
            slots.push(PollSlot::Wake);
            poller.register(self.wake_rx.raw_fd(), INTEREST_READ);
            slots.push(PollSlot::Endpoint);
            poller.register(poll::fd_of(&self.endpoint), INTEREST_READ);
            for (i, conn) in mux_conns.iter().enumerate() {
                slots.push(PollSlot::Mux(i));
                poller.register(poll::fd_of(&conn.stream), conn.interest());
            }
            for (id, door) in &doors {
                slots.push(PollSlot::Door(*id));
                poller.register(poll::fd_of(&door.listener), INTEREST_READ);
                for (i, conn) in door.conns.iter().enumerate() {
                    slots.push(PollSlot::SeatConn(*id, i));
                    poller.register(poll::fd_of(&conn.stream), conn.interest());
                }
            }
            for (w, link) in &links {
                slots.push(PollSlot::Link(*w));
                poller.register(poll::fd_of(&link.stream), link.interest());
            }
            let stalled = links
                .values()
                .chain(doors.values().flat_map(|door| &door.conns))
                .any(|conn| conn.write_deadline.is_some());

            // 2. Sleep until the earliest protocol deadline among this
            // shard's seats, or until readiness / a waker interrupts.
            let timeout = if work_pending {
                Duration::ZERO
            } else {
                let due = shard.next_deadline();
                let mut park = if due == u64::MAX {
                    IDLE_CAP_US
                } else {
                    due.saturating_sub(self.now_us()).min(IDLE_CAP_US)
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
                                let n = serve(conn, ready, &mut scratch, None, &mut inbox);
                                busy |= ready.writable || n > 0;
                            }
                        }
                        PollSlot::Door(id) => {
                            if let Some(door) = doors.get_mut(&id) {
                                busy |= accept_into(&door.listener, &mut door.conns);
                            }
                        }
                        PollSlot::SeatConn(id, i) => {
                            if let Some(door) = doors.get_mut(&id) {
                                if let Some(conn) = door.conns.get_mut(i) {
                                    let n = serve(conn, ready, &mut scratch, Some(id), &mut inbox);
                                    let bytes = &door.status.net_bytes;
                                    bytes.fetch_add(n as u64, Ordering::Relaxed);
                                    busy |= ready.writable || n > 0;
                                }
                            }
                        }
                        PollSlot::Link(w) => {
                            if let Some(link) = links.get_mut(&w) {
                                let n = serve(link, ready, &mut scratch, None, &mut inbox);
                                busy |= ready.writable || n > 0;
                            }
                        }
                    }
                }
            }

            // 4. Seats arriving or leaving, and forwarded envelopes (the
            // waker fires for these, but a cheap drain costs nothing either
            // way).
            while let Ok(msg) = self.rx.try_recv() {
                busy = true;
                match msg {
                    WorkerMsg::Seat(seat) => self.place(*seat, &mut shard, &mut doors),
                    WorkerMsg::Release(id) => {
                        if let Some(node) = shard.take_out(id) {
                            let door = doors.remove(&id).expect("a hosted seat has a door");
                            self.place(Seat { node, door }, &mut shard, &mut doors);
                        }
                    }
                    WorkerMsg::Forward(env) => inbox.push_back(env),
                }
            }

            // 5. Step what arrived for this shard's seats; anything owned
            // elsewhere (re-adoption races, migrations in flight) is
            // forwarded to its worker.
            let now = self.now_us();
            for env in inbox.drain(..) {
                busy = true;
                if !self.shared.net.is_blocked(env.to, env.from) {
                    if let Some(env) = shard.step(now, env) {
                        self.forward(env);
                    }
                }
            }

            // 6. Tick, then the shard's round: per pass, publish each
            // seat's report, queue its replies on its own connections, and
            // flush the wire.
            let now = self.now_us();
            shard.tick(now);
            let left = shard.flush(
                now,
                |env| self.owner_of_peer(env) == Some(self.idx),
                |shard, pass| {
                    for flushed in pass {
                        busy |= !flushed.outbox.is_empty() || !flushed.events.is_empty();
                        let node = shard.node(flushed.seat).expect("a reported seat is hosted");
                        let door = doors
                            .get_mut(&flushed.seat)
                            .expect("a hosted seat has a door");
                        publish(&flushed, node, door, self.shared.net.seat_signal());
                        let local = &self.shared.local_deliveries;
                        local.fetch_add(flushed.local, Ordering::Relaxed);
                        self.send_out(flushed.outbox, door, &mut wire);
                    }
                    let now = self.now_us();
                    for (w, envs) in wire.drain() {
                        let addr = &self.shared.endpoints[w];
                        if let Some(link) = link_to(&mut links, &mut redial_at[w], w, addr, now) {
                            send_batches(link, &envs, |n| {
                                self.shared.batches.fetch_add(1, Ordering::Relaxed);
                                let envelopes = &self.shared.batched_envelopes;
                                envelopes.fetch_add(n as u64, Ordering::Relaxed);
                            });
                        }
                    }
                },
            );
            inbox.extend(left);

            // 7. Reap: connections closed this round, and those whose
            // declined bytes outlived the write deadline. Dropping the
            // stream closes the fd; it is in no later poll set.
            let cutoff = Instant::now();
            for door in doors.values_mut() {
                door.conns.retain(|c| c.live(cutoff));
            }
            mux_conns.retain(|c| c.live(cutoff));
            let now = self.now_us();
            for (w, _) in links.extract_if(|_, link| !link.live(cutoff)) {
                redial_at[w] = now + RECONNECT_BACKOFF_US;
            }

            work_pending = !inbox.is_empty();
            if !busy {
                self.shared.idle_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Final barrier for every hosted node, then hand them back.
        doors.keys().filter_map(|id| shard.take_out(*id)).collect()
    }

    fn now_us(&self) -> u64 {
        self.shared.start.elapsed().as_micros() as u64
    }

    /// Hosts `seat`, passes it on, or completes its removal — whichever the
    /// assignment map says now. A seat in flight from an earlier move thus
    /// lands where the latest move sent it, and one removed meanwhile goes
    /// to the remover. Dropping a removed seat's door closes its front door
    /// and every connection behind it, so dialing clients see refused
    /// connections and rotate.
    fn place(
        &self,
        seat: Seat,
        shard: &mut Shard<KvMachine, HarnessStore>,
        doors: &mut BTreeMap<NodeId, Door>,
    ) {
        let id = seat.node.id();
        let seat = match self.shared.owner_of(id) {
            Some(w) if w != self.idx => {
                match self.shared.send(w, WorkerMsg::Seat(Box::new(seat))) {
                    None => return,
                    // Target gone (shutdown race): keep hosting.
                    Some(WorkerMsg::Seat(seat)) => *seat,
                    Some(_) => return,
                }
            }
            Some(_) => seat,
            None => {
                if let Some(remover) = self.shared.removals().remove(&id) {
                    let _ = remover.send(Box::new(seat.node));
                }
                return;
            }
        };
        shard.adopt(seat.node);
        doors.insert(id, seat.door);
    }

    /// Forwards an envelope for a seat this shard does not host to the
    /// worker that owns it. Unowned destinations (killed nodes, stale
    /// conns), and those owned here but not yet arrived, drop — the
    /// protocol retransmits.
    fn forward(&self, env: Envelope) {
        if let Some(w) = self.shared.owner_of(env.to).filter(|w| *w != self.idx) {
            let _ = self.shared.send(w, WorkerMsg::Forward(env));
        }
    }

    /// The worker a peer envelope goes to, or `None` when it drops: its link
    /// is blocked, or its destination has no registered address (killed, or
    /// a joiner not yet listening) or no owner — the protocol resends.
    fn owner_of_peer(&self, env: &Envelope) -> Option<usize> {
        if self.shared.net.is_blocked(env.from, env.to) || self.shared.net.addr_of(env.to).is_none()
        {
            return None;
        }
        self.shared.owner_of(env.to)
    }

    /// Sends what a seat externalized: replies onto the seat's own
    /// connections (each flushed once), peer envelopes into the pass's list
    /// for the owning worker's link.
    fn send_out(
        &self,
        outbox: Vec<Envelope>,
        door: &mut Door,
        wire: &mut HashMap<usize, Vec<Envelope>>,
    ) {
        for env in outbox {
            if env.to.0 >= CLIENT_BASE {
                queue_reply(&mut door.conns, &env);
            } else if let Some(w) = self.owner_of_peer(&env).filter(|w| *w != self.idx) {
                wire.entry(w).or_default().push(env);
            }
        }
        for conn in &mut door.conns {
            if !conn.out.is_empty() && conn.write_deadline.is_none() {
                conn.flush();
            }
        }
    }
}

/// The link to worker `w` at `addr`, dialed nonblocking when there is none
/// and its backoff has passed (`None` then: what it would carry drops, and
/// the protocol resends).
fn link_to<'a>(
    links: &'a mut HashMap<usize, Conn>,
    redial_at: &mut u64,
    w: usize,
    addr: &SocketAddr,
    now: u64,
) -> Option<&'a mut Conn> {
    match links.entry(w) {
        Entry::Occupied(link) => Some(link.into_mut()),
        Entry::Vacant(_) if now < *redial_at => None,
        Entry::Vacant(slot) => match Conn::dial(addr) {
            Ok(link) => Some(slot.insert(link)),
            Err(_) => {
                *redial_at = now + RECONNECT_BACKOFF_US;
                None
            }
        },
    }
}

/// Appends `envs` to `link` as mux batches of at most [`MUX_BATCH`]
/// envelopes, each cut before its encoding would pass the frame cap and
/// reported to `counted`, then flushes the link once. An envelope past the
/// frame cap on its own is dropped: no reader would take it. A batch the
/// link's cap refuses is dropped whole, and so is the rest of `envs`.
fn send_batches(link: &mut Conn, mut envs: &[Envelope], mut counted: impl FnMut(usize)) {
    while !envs.is_empty() {
        let Some(buf) = link.queue(LINK_WRITE_BUFFER_MAX) else {
            break;
        };
        let n = put_batch_prefix(buf, &envs[..envs.len().min(MUX_BATCH)]);
        if n > 0 {
            counted(n);
        }
        envs = &envs[n.max(1)..];
    }
    link.flush();
}

/// Accepts every pending connection on a nonblocking listener.
fn accept_into(listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
    let mut busy = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn::new(stream));
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    busy
}

/// Services one readiness report on `conn`: resolves a dial in flight,
/// hands the socket its declined bytes again, and reads; returns how many
/// bytes came off the socket.
fn serve(
    conn: &mut Conn,
    ready: Readiness,
    scratch: &mut [u8],
    door: Option<NodeId>,
    inbox: &mut VecDeque<Envelope>,
) -> usize {
    if conn.connecting {
        match poll::connect_ready(&conn.stream, ready) {
            Ok(done) => conn.connecting = !done,
            Err(_) => conn.closed = true,
        }
    }
    if ready.writable {
        conn.flush();
    }
    if ready.readable || ready.error {
        read_conn(conn, scratch, door, inbox)
    } else {
        0
    }
}

/// Drains one connection's readable bytes and queues the decoded
/// envelopes; returns how many bytes came off the socket. `door` names the
/// seat behind a front-door connection (`None` on a pair link): an
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
    if let Some(buf) = live.and_then(|conn| conn.queue(CLIENT_WRITE_BUFFER_MAX)) {
        put_frame(buf, env);
    }
}

/// Stores a reported seat's protocol state and load counters into its
/// status block, and announces a changed leader flag, cluster or retirement
/// on `signal`.
fn publish(flushed: &Flushed, node: &HarnessNode, door: &Door, signal: &SeatSignal) {
    let status = &door.status;
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
    status
        .elections
        .fetch_add(flushed.elections, Ordering::Relaxed);
    status
        .snapshot_installs
        .fetch_add(flushed.snapshot_installs, Ordering::Relaxed);
    status.steps.fetch_add(flushed.steps, Ordering::Relaxed);
    if flushed.moved {
        signal.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use recraft_net::mux::MUX_MAGIC;
    use recraft_net::Message;
    use recraft_storage::SnapshotFrame;
    use recraft_types::{ClusterId, EpochTerm, LogIndex, RangeSet, TxId};

    /// A merge part of one chunk, as a one-chunk image travels.
    fn part(to: u64, chunk: Bytes) -> Envelope {
        let frame = SnapshotFrame {
            last_index: LogIndex(9),
            last_eterm: EpochTerm::new(0, 2),
            cluster: ClusterId(1),
            ranges: RangeSet::full(),
            seq: 0,
            total: 1,
            chunk,
            sessions: None,
        };
        let msg = Message::FetchSnapshotResp {
            tx_id: TxId(4),
            frame: Box::new(frame),
        };
        Envelope::new(NodeId(1), NodeId(to), msg)
    }

    /// A pair link dialed as a round dials it, settled as a round settles it
    /// once its poller reports the dial writable, and the listener's end of
    /// it, which nobody reads until the test says so.
    fn linked() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut link = Conn::dial(&listener.local_addr().expect("addr")).expect("dial");
        let (far, _) = listener.accept().expect("accept");
        let writable = Readiness {
            writable: true,
            ..Readiness::default()
        };
        serve(&mut link, writable, &mut [], None, &mut VecDeque::new());
        assert!(!link.connecting && !link.closed, "the dial settled");
        (link, far)
    }

    /// Feeds `sink` everything the far end receives while `link` drains,
    /// then closes the link and feeds it the rest up to EOF.
    fn drain(link: Conn, far: &mut TcpStream, mut sink: impl FnMut(&[u8])) {
        far.set_nonblocking(true).expect("nonblocking");
        let (mut link, mut chunk) = (Some(link), vec![0u8; 1 << 16]);
        loop {
            match far.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => sink(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => match &mut link {
                    Some(open) if !open.out.is_empty() => open.flush(),
                    _ => link = None,
                },
                Err(e) => panic!("far end: {e}"),
            }
        }
    }

    /// Each batch's `(count, body length)` header, walking a stream that
    /// must hold whole batches only.
    fn headers(mut wire: &[u8]) -> Vec<(u32, usize)> {
        let word = |w: &[u8], at: usize| u32::from_be_bytes(w[at..at + 4].try_into().unwrap());
        let mut found = Vec::new();
        while !wire.is_empty() {
            assert_eq!(word(wire, 0), MUX_MAGIC, "every unit is one whole batch");
            let len = word(wire, 4) as usize;
            found.push((word(wire, 8), len));
            wire = &wire[8 + len..];
        }
        found
    }

    #[test]
    fn a_round_past_the_frame_cap_is_cut_and_only_an_envelope_past_it_alone_drops() {
        // Two parts of just over half the cap fit one batch each, not one
        // together; a part past the cap fits none. The parts share one
        // allocation, so the test holds one image, not four.
        let data = Bytes::from(vec![7u8; MAX_FRAME_BYTES + 1]);
        let half = MAX_FRAME_BYTES / 2 + 1024;
        let envs = vec![
            part(2, Bytes::new()),
            part(3, data.slice(..half)),
            part(4, data.slice(..half)),
            part(5, data.clone()),
            part(6, Bytes::new()),
        ];
        let ((mut link, mut far), mut counted) = (linked(), Vec::new());
        send_batches(&mut link, &envs, |n| counted.push(n));
        let mut wire = Vec::new();
        drain(link, &mut far, |bytes| wire.extend_from_slice(bytes));
        let wire = headers(&wire);
        let counts: Vec<u32> = wire.iter().map(|&(count, _)| count).collect();
        assert_eq!(
            counts,
            [2, 1, 1],
            "cut by size; only the oversized part dropped"
        );
        assert_eq!(counted, [2, 1, 1]);
        assert!(wire.iter().all(|&(_, len)| len <= MAX_FRAME_BYTES));
    }

    #[test]
    fn a_round_is_cut_by_count_too() {
        let envs: Vec<Envelope> = (0..MUX_BATCH as u64 + 3)
            .map(|i| part(i, Bytes::new()))
            .collect();
        let (mut link, mut far) = linked();
        send_batches(&mut link, &envs, |_| {});
        let mut wire = Vec::new();
        drain(link, &mut far, |bytes| wire.extend_from_slice(bytes));
        let counts: Vec<u32> = headers(&wire).iter().map(|&(count, _)| count).collect();
        assert_eq!(counts, [MUX_BATCH as u32, 3]);
    }

    /// A peer worker that stops reading costs the sender nothing but the
    /// batches past the link's cap: every send returns at once (a blocking
    /// write would wait out its timeout here), the link holds write
    /// interest, and what the peer finally reads is whole batches.
    #[test]
    fn a_link_whose_peer_never_reads_takes_no_wait_and_drops_whole_batches_past_its_cap() {
        let (mut link, mut far) = linked();
        // One batch of 16 MiB per send, 128 MiB in all: twice the cap, and
        // far past what loopback socket buffers hold.
        let chunk = Bytes::from(vec![7u8; 4 << 20]);
        let envs: Vec<Envelope> = (2..6).map(|to| part(to, chunk.clone())).collect();
        let (sends, mut counted) = (8, 0);
        for _ in 0..sends {
            let began = Instant::now();
            send_batches(&mut link, &envs, |n| {
                assert_eq!(n, envs.len(), "the parts travel as one batch");
                counted += 1;
            });
            assert!(
                began.elapsed() < WRITE_DEADLINE / 4,
                "a send waited {:?} on a peer that does not read",
                began.elapsed()
            );
            assert_eq!(link.interest(), INTEREST_READ | INTEREST_WRITE);
        }
        assert!(
            0 < counted && counted < sends,
            "{counted} of {sends} batches handed over"
        );
        let waiting = link.out.len() - link.sent;
        assert!(
            waiting <= LINK_WRITE_BUFFER_MAX + (17 << 20),
            "{waiting} bytes wait"
        );

        let (mut reader, mut read) = (MuxReader::new(), 0);
        drain(link, &mut far, |bytes| {
            reader.feed(bytes);
            while reader.next_envelope().expect("whole batches").is_some() {
                read += 1;
            }
        });
        assert_eq!(read, counted * envs.len(), "every counted batch arrived");
        assert_eq!(reader.pending_bytes(), 0, "no partial batch");
    }

    /// A unit queued behind a batch the socket took only part of moves none
    /// of the waiting bytes: the sent prefix is dropped only once it is at
    /// least as long as what waits, so a stalled link's buffer is not
    /// copied once per unit. The far end still reads whole units in order.
    #[test]
    fn queueing_behind_a_partly_taken_batch_moves_no_waiting_byte() {
        let (mut link, mut far) = linked();
        let chunk = Bytes::from(vec![7u8; 8 << 20]);
        let envs: Vec<Envelope> = (2..6).map(|to| part(to, chunk.clone())).collect();
        send_batches(&mut link, &envs, |_| {});
        let (sent, len) = (link.sent, link.out.len());
        assert!(
            0 < sent && sent < len - sent,
            "the socket took {sent} of {len} bytes"
        );
        let waiting = link.out[sent..].as_ptr();
        assert!(link.queue(LINK_WRITE_BUFFER_MAX).is_some());
        assert_eq!(
            (link.sent, link.out[link.sent..].as_ptr()),
            (sent, waiting),
            "queueing moved the waiting bytes"
        );
        send_batches(&mut link, &[part(6, Bytes::new())], |_| {});

        let (mut reader, mut order) = (MuxReader::new(), Vec::new());
        drain(link, &mut far, |bytes| {
            reader.feed(bytes);
            while let Some(env) = reader.next_envelope().expect("whole batches") {
                order.push(env.to.0);
            }
        });
        assert_eq!(order, [2, 3, 4, 5, 6]);
        assert_eq!(reader.pending_bytes(), 0, "no partial batch");
    }

    #[test]
    fn a_link_that_never_drains_is_reaped_once_the_write_deadline_passes() {
        let (mut link, _far) = linked();
        let envs = [part(2, Bytes::from(vec![7u8; 16 << 20]))];
        send_batches(&mut link, &envs, |_| {});
        let now = Instant::now();
        assert!(link.write_deadline.is_some(), "the peer declined bytes");
        assert!(link.live(now), "kept within the deadline");
        assert!(!link.live(now + WRITE_DEADLINE), "reaped past it");
    }
}
