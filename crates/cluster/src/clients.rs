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
//! protocol's own answers are what keep routing convergent (§V).
//!
//! Exactly-once under retries follows the same discipline the simulator's
//! clients use: a write is retried under its original `(session, seq)`
//! until answered, and on every (re)connection the pending window is resent
//! in ascending sequence order. Per-connection FIFO plus ascending resend
//! keeps each session's sequence numbers arriving monotonically. The client
//! draws one inference from that: a [`Error::SessionStale`] rejection for
//! `seq` means some *higher* sequence number already applied, so `seq`,
//! sent first, is taken to have applied earlier with only its reply lost,
//! and is counted as confirmed. Sent is not accepted, though: a leader
//! answers `MergeBlocked` before proposing, and the session table takes any
//! number above its max as fresh, so `seq` can bounce while `seq + 1` of
//! the same window lands once the gate lifts — and the resend of `seq` is
//! then confirmed without having applied. That case is open, pinned by an
//! ignored test in `tests/merge_back_fence.rs`.
//!
//! Routing across splits preserves that inference through three rules:
//! windows are **cluster-homogeneous** (filling stops at the first key the
//! directory maps elsewhere), a `WrongRange` **parks the window** (no new
//! sequence numbers are issued while any write awaits re-routing), and a
//! parked write is only re-sent once the directory maps its key to a
//! *different* cluster than the one that refused it. Together these keep
//! each cluster's view of a session gap-free below any sequence number the
//! client might still re-send to it — *within one lineage generation*.
//!
//! One reconfiguration sequence can cross generations: a split's children
//! merging back before a parked write ever reached the sibling. The merged
//! session table is a per-session **max across both lineages**, so it can
//! hold a higher sequence number (applied by the refusing side after the
//! park) while the parked write itself never applied anywhere — a
//! `SessionStale` answer for it would be a false confirmation. The client
//! fences exactly this case on the directory's **reconfiguration epoch**
//! (every split and merge bumps it; children and siblings share a
//! generation, merge successors exceed it): a `WrongRange` park records
//! the refusing cluster's epoch, and if the key's route moves past that
//! epoch before the re-send, every write parked at that moment is marked
//! *fenced*. A fenced write is still re-sent normally — a `Reply` settles
//! it — but a `SessionStale` answer is no longer taken on faith: the
//! client re-probes with a linearizable `Get` of the write's key (values
//! are unique per `(client, seq)`, so the read is definitive). A resident
//! value confirms the write; an absent one proves it never applied and
//! that the merged table *burned* its sequence number, so the client
//! reissues the same operation under a fresh one. The reissue is
//! exactly-once-safe: servers answer `SessionStale` only for keys they own
//! (range before session table), so the preceding rejection pins the
//! owner's per-session max at or above the burned number — any stale
//! retransmission of the original write is rejected forever. So across a
//! generation change a stale answer confirms a write only where its value
//! is resident, and the write is recovered where it is not.

use crate::control::FleetView;
use crate::CLIENT_BASE;
use bytes::Bytes;
use recraft_kv::{KvCmd, KvResp};
use recraft_net::frame::{read_frame, write_frame};
use recraft_net::{Envelope, Message};
use recraft_types::{
    ClientOp, ClientOutcome, ClientRequest, ClientResponse, ClusterId, Error, NodeId, SessionId,
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
    /// Writes acknowledged with a reply.
    pub replies: u64,
    /// Writes confirmed applied via the `SessionStale` inference (the reply
    /// itself was lost to a reconnect), including fenced writes a probe
    /// read confirmed.
    pub stale_confirmed: u64,
    /// Fenced writes whose probe read found **no** resident value: the
    /// write never applied and the merged session table blocks its
    /// sequence number forever — the exact outcome the pre-fence client
    /// silently misreported as confirmed. Each one was retried under a
    /// fresh sequence number until it actually applied.
    pub reissued: u64,
    /// Probe reads issued for fenced `SessionStale` answers.
    pub probes: u64,
    /// The highest sequence number this session put on the wire
    /// (`ops` plus one per reissue) — what the server-side session table's
    /// max should equal after a completed run.
    pub last_seq: u64,
    /// Replies for operations already confirmed (duplicate deliveries).
    pub duplicates: u64,
    /// Redirect outcomes followed.
    pub redirects: u64,
    /// `WrongRange` rejections — each one is a stale route the client
    /// recovered from by re-routing through the directory.
    pub wrong_range: u64,
    /// Connections dialed (including the first).
    pub connects: u64,
    /// Whether every operation was confirmed before the deadline —
    /// including any merge-burned writes, which count only once their
    /// reissue lands.
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
    /// The reconfiguration epoch the directory recorded for
    /// `window_cluster` when the window was routed there.
    window_epoch: Option<u32>,
    /// A cluster that answered `WrongRange` for the oldest pending write:
    /// do not re-send there until the directory moves the key elsewhere.
    avoid: Option<ClusterId>,
    /// The epoch `avoid` was observed at when the window parked. The
    /// re-route compares against it: a target whose epoch exceeds it means
    /// the lineage reconfigured past the sibling (merged back), so the
    /// parked writes' `SessionStale` answers become untrustworthy.
    parked_epoch: Option<u32>,
    /// Sequence numbers whose window crossed a lineage generation while
    /// parked: their `SessionStale` answers are resolved by probe read, not
    /// inference.
    fenced: std::collections::BTreeSet<u64>,
    /// In-flight probe reads: seq → the unique value the write would have
    /// stored if it applied.
    probing: BTreeMap<u64, Bytes>,
    /// Leader hint from the last `Redirect`/`NotLeader` answer.
    prefer: Option<NodeId>,
    stream: Option<TcpStream>,
    /// The retry window: every unconfirmed request, keyed by seq.
    pending: BTreeMap<u64, ClientRequest>,
    /// The wire sequence allocator: fresh ops and reissues both draw from
    /// it, so it can run past `ops` when merged tables burn numbers.
    next_seq: u64,
    /// Distinct application operations started (each confirmed exactly
    /// once, whatever sequence number finally carried it).
    ops_issued: u64,
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
            window_epoch: None,
            avoid: None,
            parked_epoch: None,
            fenced: std::collections::BTreeSet::new(),
            probing: BTreeMap::new(),
            prefer: None,
            stream: None,
            pending: BTreeMap::new(),
            next_seq: 1,
            ops_issued: 0,
            opts,
            report: ClientReport {
                client: idx,
                ..ClientReport::default()
            },
        }
    }

    fn run(mut self) -> ClientReport {
        let deadline = Instant::now() + self.opts.deadline;
        while self.ops_issued < self.opts.ops || !self.pending.is_empty() {
            if Instant::now() >= deadline {
                break;
            }
            if self.stream.is_none() && !self.connect_and_resend() {
                continue;
            }
            self.fill_window();
            self.read_one();
        }
        self.report.last_seq = self.next_seq - 1;
        self.report.completed = self.pending.is_empty() && self.ops_issued == self.opts.ops;
        self.report
    }

    /// The key the client must make progress on next: the oldest pending
    /// write's, or the next fresh sequence number's.
    fn frontier_key(&self) -> Vec<u8> {
        match self.pending.values().next() {
            Some(req) => match &req.op {
                ClientOp::Command { key, .. } | ClientOp::Get { key } => key.clone(),
            },
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
            Some((cluster, _, _)) if Some(cluster) == self.avoid => {
                // Stale route: the rejecting cluster still claims the key.
                thread::sleep(Duration::from_millis(5));
                None
            }
            Some((cluster, epoch, members)) => {
                if self.avoid.take().is_some() {
                    // Re-routing a parked window. A target epoch beyond the
                    // one we parked under means the refusing lineage
                    // reconfigured again (merged back) before the re-send:
                    // every write parked at that moment loses the
                    // `SessionStale ⇒ applied` inference and resolves by
                    // probe instead.
                    if self.parked_epoch.take().is_some_and(|pe| epoch > pe) {
                        self.fenced.extend(self.pending.keys().copied());
                    }
                }
                self.parked_epoch = None;
                self.window_cluster = Some(cluster);
                self.window_epoch = Some(epoch);
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
                self.window_epoch = None;
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

    /// Dials the picked destination and replays the whole pending window in
    /// ascending sequence order (the monotonicity invariant the
    /// `SessionStale` inference rests on).
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

    /// Issues fresh writes until the in-flight window is full. Routed
    /// windows stay cluster-homogeneous: filling stops at the first key the
    /// directory maps to a different cluster than the connection serves —
    /// that boundary starts the next window once this one drains.
    fn fill_window(&mut self) {
        while self.stream.is_some()
            && self.pending.len() < self.opts.window.max(1)
            && self.ops_issued < self.opts.ops
        {
            let seq = self.next_seq;
            if let (Some(view), Some(cluster)) = (self.opts.view.as_ref(), self.window_cluster) {
                if view.route(&self.key_for(seq)).map(|(c, _, _)| c) != Some(cluster) {
                    if self.pending.is_empty() {
                        // Nothing in flight here and the next key lives
                        // elsewhere: move the connection, not the key.
                        self.stream = None;
                    }
                    break;
                }
            }
            self.next_seq += 1;
            self.ops_issued += 1;
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

    /// The unique value write `seq` stores — per `(client, seq)`, which is
    /// what lets a probe read decide "applied or not" exactly.
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

    /// Replaces a fenced write's pending entry with a linearizable `Get` of
    /// its key and sends it. The read bypasses the session table
    /// (ReadIndex, no dedup), so the answer is authoritative: the write's
    /// unique value is resident iff the write applied. The pending map now
    /// carries the probe, so reconnect resends replay it like any window
    /// entry until the `Reply` settles the seq.
    fn start_probe(&mut self, seq: u64) {
        if self.probing.contains_key(&seq) {
            return; // already in flight (a resent probe's duplicate answer)
        }
        // The key comes from the pending request, not `key_for`: a
        // reissued write carries its original operation's key under a new
        // sequence number.
        let key = self
            .pending
            .get(&seq)
            .map(|req| match &req.op {
                ClientOp::Command { key, .. } | ClientOp::Get { key } => key.clone(),
            })
            .unwrap_or_else(|| self.key_for(seq));
        let probe = ClientRequest {
            session: self.session,
            seq,
            op: ClientOp::Get { key },
        };
        self.pending.insert(seq, probe.clone());
        self.probing.insert(seq, self.value_for(seq));
        self.report.probes += 1;
        if let Some(to) = self.dest {
            let _ = self.send(to, probe);
        }
    }

    /// Retries a burned write under a fresh sequence number. Reached only
    /// when a probe (issued after a `SessionStale` from the key's owner)
    /// found no resident value: the owner's per-session max already exceeds
    /// the burned number, so the original write — including any stale
    /// retransmission still in flight — can never apply, and re-running the
    /// operation once under a new number preserves exactly-once.
    fn reissue(&mut self, key: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.report.reissued += 1;
        let req = ClientRequest {
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
        };
        self.pending.insert(seq, req.clone());
        if let Some(to) = self.dest {
            let _ = self.send(to, req);
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
            ClientOutcome::Reply { payload } => {
                if let Some(expected) = self.probing.remove(&seq) {
                    // The probe read's answer: resident value decides the
                    // fenced write's fate for good.
                    let probe = self.pending.remove(&seq);
                    self.fenced.remove(&seq);
                    let applied = matches!(
                        KvResp::decode(&payload),
                        Ok(KvResp::Value { value: Some(v), .. }) if v == expected
                    );
                    if applied {
                        self.report.stale_confirmed += 1;
                    } else {
                        // Never applied, and the merged table burned the
                        // sequence number: run the operation again under a
                        // fresh one.
                        let key = match probe.map(|req| req.op) {
                            Some(ClientOp::Get { key } | ClientOp::Command { key, .. }) => key,
                            None => self.key_for(seq),
                        };
                        self.reissue(key);
                    }
                } else if self.pending.remove(&seq).is_some() {
                    self.fenced.remove(&seq);
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
                        if self.fenced.contains(&seq) {
                            // The window crossed a lineage generation while
                            // this write was parked: the "higher seq" the
                            // table saw may belong to the *other* lineage.
                            // Resolve by reading, not inferring.
                            self.start_probe(seq);
                        } else {
                            // Same lineage generation: a higher seq applied,
                            // so this one did too; only the reply was lost.
                            // Confirmed.
                            self.pending.remove(&seq);
                            self.report.stale_confirmed += 1;
                        }
                    }
                    Error::NotLeader(hint) => {
                        self.report.redirects += 1;
                        self.retarget(hint);
                    }
                    Error::WrongRange(_) => {
                        // The route was stale: park the window (the write
                        // stays pending, nothing new is issued) and refuse
                        // to re-send to this cluster until the directory
                        // moves the key somewhere else. Remember the epoch
                        // we parked under — the re-route fences on it.
                        self.report.wrong_range += 1;
                        self.avoid = self.window_cluster.take();
                        self.parked_epoch = self.window_epoch.take();
                        self.prefer = None;
                        self.stream = None;
                    }
                    _ => {
                        // Transient (e.g. the proposal was dropped at a
                        // leader change): drop the connection so the whole
                        // window is resent in ascending order — re-sending
                        // just this seq out of order would break the
                        // monotonicity the SessionStale inference needs.
                        self.stream = None;
                    }
                }
            }
        }
    }
}
