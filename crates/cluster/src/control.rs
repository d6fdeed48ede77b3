//! The live control plane: a long-lived controller thread closing the
//! autonomy loop over real sockets.
//!
//! The deterministic simulator drives the sans-io [`Controller`] from a
//! virtual clock with direct access to node state. This module drives the
//! *same* controller against a running [`Cluster`] the way a production
//! deployment would, with zero hand-fed samples:
//!
//! 1. **Sample** — every interval, poll each live node's `StatsReq` admin
//!    query over TCP and distill the answers through
//!    [`recraft_fleet::SampleBook`] (witness per cluster, op-counter
//!    deltas);
//! 2. **Publish** — sync the observed cluster → range/member records into
//!    the shared [`ShardDirectory`] that routed clients read
//!    ([`FleetView`]);
//! 3. **Plan** — feed the samples to [`Controller::plan`] on the wall
//!    clock, and boot the joiners a staffing asks for
//!    ([`Cluster::spawn_joiner`]);
//! 4. **Deliver** — send every command the controller still owes
//!    ([`Controller::owed`]) once, through [`AdminClient::send_one`], to the
//!    member it names, and hand each answer back
//!    ([`Controller::on_admin_answer`]). One attempt waits at most the
//!    client's `io_timeout`; a command that is not accepted this round is
//!    simply owed again the next, for as long as the controller tracks its
//!    operation (bounded by `stall_us`). A cluster with no leader never
//!    holds up sampling, publishing, rebalancing or [`ControlPlane::stop`].
//!
//! The controller is restart-tolerant by construction — its only ground
//! truth is what the fleet reports — so the plane survives node kills,
//! restarts, and partitions mid-campaign: a sample round simply sees fewer
//! reporters, and command delivery fails over to whoever leads now.

use crate::admin::AdminClient;
use crate::fleet_net::FleetNet;
use crate::harness::Cluster;
use recraft_fleet::{Controller, FleetCmd, FleetConfig, SampleBook, ShardDirectory};
use recraft_net::NodeStats;
use recraft_types::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The shared, loosely-consistent fleet view: the [`ShardDirectory`] the
/// control plane publishes each sampling round, plus the live address map
/// to resolve its member sets against. Routed clients read it lock-free of
/// the controller's cadence — they may be arbitrarily stale and recover via
/// the protocol's own `Redirect`/`WrongRange` answers.
pub struct FleetView {
    dir: RwLock<ShardDirectory>,
    net: Arc<FleetNet>,
}

impl std::fmt::Debug for FleetView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = self.dir.read().expect("directory lock");
        f.debug_struct("FleetView")
            .field("version", &dir.version())
            .field("clusters", &dir.len())
            .finish()
    }
}

impl FleetView {
    /// An empty view over `net`; the directory fills on the control plane's
    /// first sampling round.
    #[must_use]
    pub fn new(net: Arc<FleetNet>) -> Arc<FleetView> {
        Arc::new(FleetView {
            dir: RwLock::new(ShardDirectory::default()),
            net,
        })
    }

    /// The directory's change counter.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.dir.read().expect("directory lock").version()
    }

    /// Node `node`'s current address, if it is live.
    #[must_use]
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.net.addr_of(node)
    }

    /// Replaces the directory contents with one observation round.
    pub fn publish(
        &self,
        records: impl IntoIterator<Item = (ClusterId, recraft_types::RangeSet, BTreeSet<NodeId>)>,
    ) {
        self.dir.write().expect("directory lock").sync(records);
    }

    /// Runs `f` under the directory read lock (snapshot inspection).
    pub fn with_directory<T>(&self, f: impl FnOnce(&ShardDirectory) -> T) -> T {
        f(&self.dir.read().expect("directory lock"))
    }
}

/// Max/mean worker-load ratio above which the rebalancing pass moves
/// seats.
const REBALANCE_MAX_RATIO: f64 = 1.5;

/// Upper bound on seat migrations per sampling round.
const REBALANCE_MOVES_PER_ROUND: usize = 2;

/// Minimum fleet-wide load units (step + byte weight) per round before
/// imbalance is even evaluated: an idle fleet is trivially "imbalanced"
/// and must not churn seats.
const REBALANCE_MIN_LOAD: u64 = 512;

/// Knobs for one control plane.
#[derive(Debug, Clone)]
pub struct ControlOptions {
    /// Controller thresholds and limits.
    pub fleet: FleetConfig,
    /// Wall-clock sampling/planning cadence.
    pub interval: Duration,
    /// Seed for the controller's cluster-id allocator; must be above every
    /// id the fleet already uses.
    pub next_cluster: u64,
}

impl Default for ControlOptions {
    fn default() -> Self {
        ControlOptions {
            fleet: FleetConfig::default(),
            interval: Duration::from_millis(200),
            next_cluster: 2,
        }
    }
}

/// What the control plane did over its lifetime.
#[derive(Debug, Default, Clone)]
pub struct ControlReport {
    /// Sampling/planning rounds completed.
    pub rounds: u64,
    /// `(splits, merges, staffings)` the controller planned.
    pub planned: (u64, u64, u64),
    /// Commands delivered and accepted by a leader.
    pub delivered: u64,
    /// Commands a member rejected with an error that no retry resolves
    /// (the controller's stall tracking reclaims the slot; the fleet stays
    /// consistent).
    pub failed: u64,
    /// Retired nodes decommissioned into the spare pool
    /// ([`Cluster::reap_retired`]).
    pub reaped: u64,
    /// Seat migrations the rebalancer executed.
    pub migrations: u64,
    /// The last max/mean worker-load ratio measured on a round whose load
    /// cleared the rebalancer's floor — post-rebalance by construction,
    /// since moves from round *n* are reflected in round *n+1*'s reading.
    pub imbalance: f64,
    /// Human-readable event log, in order.
    pub events: Vec<String>,
}

/// A running control plane thread. Stop it with [`ControlPlane::stop`] to
/// collect the report; dropping without stopping detaches the thread until
/// the `Cluster` it samples shuts down (sampling then just fails quietly).
pub struct ControlPlane {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<ControlReport>>,
}

impl ControlPlane {
    /// Spawns the controller thread over `cluster`, publishing observations
    /// into `view` every round.
    ///
    /// # Panics
    /// Panics if the thread cannot be spawned.
    #[must_use]
    pub fn spawn(
        cluster: Arc<Cluster>,
        view: Arc<FleetView>,
        opts: ControlOptions,
    ) -> ControlPlane {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("recraft-control".into())
            .spawn(move || run_control(&cluster, &view, &opts, &flag))
            .expect("spawn control plane");
        ControlPlane {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the thread and joins it, returning what it did.
    ///
    /// # Panics
    /// Panics if the control thread itself panicked.
    #[must_use]
    pub fn stop(mut self) -> ControlReport {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .expect("control joined once")
            .join()
            .expect("control plane thread panicked")
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Detach: the thread exits at its next stop-flag check.
    }
}

/// The control loop body: sample → publish → plan → execute, every
/// `opts.interval`, until stopped.
fn run_control(
    cluster: &Cluster,
    view: &FleetView,
    opts: &ControlOptions,
    stop: &AtomicBool,
) -> ControlReport {
    let start = Instant::now();
    let mut admin = AdminClient::new(0);
    let mut book = SampleBook::new();
    let mut ctl = Controller::new(opts.fleet.clone(), opts.next_cluster);
    let mut report = ControlReport::default();
    let mut seat_book: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
    while !stop.load(Ordering::Relaxed) {
        let round_began = Instant::now();
        let t_ms = round_began.duration_since(start).as_millis();

        // 0. Decommission nodes whose removal committed: their ids return
        // to the spare pool, so the next staffing recycles them instead of
        // minting new ids (and their WAL directories are reclaimed).
        let reaped = cluster.reap_retired();
        if reaped > 0 {
            report.reaped += reaped as u64;
            report.events.push(format!(
                "t={t_ms}ms reaped {reaped} retired node(s) into the spare pool"
            ));
        }

        // 1. Sample every live node over the admin channel.
        let reports: Vec<(NodeId, NodeStats)> = (cluster.addrs().into_iter())
            .filter_map(|(id, addr)| Some((id, admin.fetch_stats(addr, id)?)))
            .collect();
        let samples = book.build(&reports);

        // 2. Publish what this round observed to the routed clients.
        view.publish(
            samples
                .iter()
                .map(|s| (s.cluster, s.ranges.clone(), s.members.clone())),
        );

        // 3. Plan on the wall clock, booting the joiners a staffing needs.
        let now_us = start.elapsed().as_micros() as u64;
        for cmd in ctl.plan(now_us, &samples) {
            if let FleetCmd::Staff { cluster: to, add } = cmd {
                let joining: BTreeSet<NodeId> =
                    (0..add).map(|_| cluster.spawn_joiner(to)).collect();
                let staff = format!("t={t_ms}ms staff {to:?} += {joining:?}");
                report.events.push(staff);
                ctl.staffed(to, joining);
            }
        }

        // 4. Deliver each owed command once; what is not accepted is owed again.
        for (target, to, cmd) in ctl.owed(&samples, &book) {
            let kind = cmd.kind();
            let addr = cluster.net().addr_of(to);
            let answer = addr.and_then(|addr| admin.send_one(addr, to, cmd));
            let Some(end) = ctl.on_admin_answer(target, to, answer) else {
                continue;
            };
            report.delivered += u64::from(end.is_ok());
            report.failed += u64::from(end.is_err());
            let outcome = end.map_or_else(
                |e| format!("failed: {e} (stall tracking reclaims the slot)"),
                |()| format!("accepted by node {}", to.0),
            );
            (report.events).push(format!("t={t_ms}ms {kind} -> {target:?} {outcome}"));
        }

        // 5. Rebalance seats across workers: difference the per-seat load
        // counters against last round's reading, and when one worker's
        // share of the fleet's load runs too far above the mean, hand its
        // hottest movable seat to the coldest worker.
        rebalance(cluster, &mut seat_book, &mut report, t_ms);

        report.rounds += 1;
        report.planned = ctl.planned();

        // Sleep out the interval in stop-checkable slices.
        while round_began.elapsed() < opts.interval && !stop.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(5).min(opts.interval));
        }
    }
    report
}

/// One rebalancing round: delta the cumulative seat counters in `book`,
/// aggregate per worker, and migrate greedily while the max/mean ratio
/// exceeds [`REBALANCE_MAX_RATIO`].
///
/// Load units are step deltas plus byte deltas weighted down 1024:1 — a
/// KiB of front-door traffic costs a worker about what one protocol step
/// does. A seat only moves when the receiving worker stays below the
/// donor even after taking it, so a single seat hotter than everything
/// else combined never ping-pongs.
fn rebalance(
    cluster: &Cluster,
    book: &mut BTreeMap<NodeId, (u64, u64)>,
    report: &mut ControlReport,
    t_ms: u128,
) {
    let seats = cluster.seat_loads();
    let workers = cluster.worker_count();
    if workers < 2 {
        return;
    }

    // Per-seat load this round. A seat's first sighting contributes zero
    // (its counters may hold history from before this plane started), and
    // a counter running backwards (kill/restart re-adopted the seat with a
    // fresh status block) re-bases the same way.
    let mut loads: Vec<(NodeId, usize, u64)> = Vec::with_capacity(seats.len());
    let mut fresh: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
    for s in &seats {
        let (ps, pb) = book.get(&s.id).copied().unwrap_or((s.steps, s.bytes));
        let load = if s.steps < ps || s.bytes < pb {
            0
        } else {
            (s.steps - ps) + (s.bytes - pb) / 1024
        };
        fresh.insert(s.id, (s.steps, s.bytes));
        loads.push((s.id, s.worker, load));
    }
    *book = fresh;

    let total: u64 = loads.iter().map(|(_, _, l)| l).sum();
    if total < REBALANCE_MIN_LOAD {
        // Idle (or nearly): the ratio would be noise, and migrating cold
        // seats buys nothing.
        return;
    }

    let mut per_worker: Vec<u64> = vec![0; workers];
    for (_, w, l) in &loads {
        per_worker[*w] += l;
    }
    let mean = total as f64 / workers as f64;
    let ratio = |pw: &[u64]| pw.iter().max().copied().unwrap_or(0) as f64 / mean;
    report.imbalance = ratio(&per_worker);

    let mut moved = 0;
    while moved < REBALANCE_MOVES_PER_ROUND && ratio(&per_worker) > REBALANCE_MAX_RATIO {
        let hot = (0..workers).max_by_key(|w| per_worker[*w]).unwrap_or(0);
        let cold = (0..workers).min_by_key(|w| per_worker[*w]).unwrap_or(0);
        let gap = per_worker[hot] - per_worker[cold];
        // Hottest seat on the hot worker that still leaves the receiver
        // below the donor — strictly closing the gap.
        let Some((id, _, load)) = loads
            .iter()
            .filter(|(_, w, l)| *w == hot && *l < gap)
            .max_by_key(|(_, _, l)| *l)
            .copied()
        else {
            break;
        };
        if !cluster.migrate_seat(id, cold) {
            break;
        }
        per_worker[hot] -= load;
        per_worker[cold] += load;
        if let Some(entry) = loads.iter_mut().find(|(i, _, _)| *i == id) {
            entry.1 = cold;
        }
        moved += 1;
        report.migrations += 1;
        report.events.push(format!(
            "t={t_ms}ms rebalance: seat {} worker {hot} -> {cold} ({load} load units, ratio {:.2})",
            id.0,
            ratio(&per_worker),
        ));
    }
}
