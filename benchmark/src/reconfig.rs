//! The `wal6-reconfig` script: split → merge → staffing → leader kill and
//! restart, repeated on a fixed cycle under scheduled load.
//!
//! The script issues the admin commands itself (the `fleet` controller is
//! off the serving path) and times each step from "command sent" to "every
//! resulting cluster answers a `ProposeNoop`" / "every joiner reports the
//! full member set". A second thread keeps the generator's route table fresh
//! from `AdminClient::fetch_stats` (ranges, members) and the seat status
//! blocks (who leads), so client-visible unavailability is the protocol's,
//! not a slow directory's.
//!
//! Staffing comes after a `resume_members` merge on purpose: on the parent
//! commit a joiner added by `AddAndResize` after an earlier
//! `RemoveAndResize` on the same cluster retires itself while replaying the
//! removal entry (see README, hazards).

use crate::gen::{Route, Shared};
use crate::socket::FleetSums;
use recraft_cluster::{AdminClient, Cluster};
use recraft_net::AdminCmd;
use recraft_types::{
    ClusterConfig, ClusterId, Error, KeyRange, MergeParticipant, MergeTx, NodeId, RangeSet,
    SplitSpec, TxId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Length of one split + merge + staffing + failover cycle.
pub const CYCLE: Duration = Duration::from_millis(5000);
/// Offsets of the four steps inside a cycle.
const STEP_AT: [Duration; 4] = [
    Duration::from_millis(0),
    Duration::from_millis(1250),
    Duration::from_millis(2500),
    Duration::from_millis(3500),
];
/// Offset of the first cycle from the start of the fixed-rate phase.
pub const FIRST_CYCLE_AT: Duration = Duration::from_millis(300);
/// A step that does not complete in this long fails the run.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);
/// Least pause between one step completing and the next starting, so an
/// overrunning step does not chain its outage into the next one's.
const SETTLE: Duration = Duration::from_millis(250);
/// Where every split cuts the keyspace.
const SPLIT_KEY: &[u8] = b"k00005000";

/// What one cycle measured. Windows are `(start, end)` of each step.
#[derive(Debug, Clone)]
pub struct CycleReport {
    pub split: (Instant, Instant),
    pub merge: (Instant, Instant),
    pub staff: (Instant, Instant),
    /// Kill → the first operation the survivors confirm.
    pub failover: (Instant, Instant),
    /// Restart → the rebooted node's applied index reaching the leader's
    /// commit index as of the restart.
    catchup: Duration,
}

/// The script's state between steps.
pub struct Script<'a> {
    cluster: &'a Cluster,
    shared: &'a Shared,
    admin: AdminClient,
    /// The cluster currently spanning the whole keyspace.
    whole: ClusterId,
    next_cluster: u64,
    next_tx: u64,
    /// Counters saved from seats the script destroyed (kills, reaps), so
    /// the fleet-wide sums survive them.
    pub lost: FleetSums,
    pub peak_threads: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl CycleReport {
    pub fn split_ms(&self) -> f64 {
        ms(self.split.1 - self.split.0)
    }
    pub fn merge_ms(&self) -> f64 {
        ms(self.merge.1 - self.merge.0)
    }
    pub fn staff_ms(&self) -> f64 {
        ms(self.staff.1 - self.staff.0)
    }
    pub fn failover_ms(&self) -> f64 {
        ms(self.failover.1 - self.failover.0)
    }
    pub fn catchup_ms(&self) -> f64 {
        ms(self.catchup)
    }
}

impl<'a> Script<'a> {
    pub fn new(cluster: &'a Cluster, shared: &'a Shared) -> Script<'a> {
        Script {
            cluster,
            shared,
            admin: AdminClient::new(1),
            whole: ClusterId(1),
            next_cluster: 2,
            next_tx: 1,
            lost: FleetSums::default(),
            peak_threads: 0,
        }
    }

    /// Runs `cycles` cycles, the first starting at `t0 + FIRST_CYCLE_AT`.
    ///
    /// # Errors
    /// Returns a description of the first step that missed its timeout.
    pub fn run(&mut self, t0: Instant, cycles: u32) -> Result<Vec<CycleReport>, String> {
        let mut reports = Vec::new();
        for c in 0..cycles {
            let base = t0 + FIRST_CYCLE_AT + CYCLE * c;
            let at = |i: usize| sleep_until((base + STEP_AT[i]).max(Instant::now() + SETTLE));
            at(0);
            let (split, low, high) = self.split().map_err(|e| format!("cycle {c} split: {e}"))?;
            at(1);
            let merge = self
                .merge(low, high)
                .map_err(|e| format!("cycle {c} merge: {e}"))?;
            at(2);
            let staff = self
                .staff()
                .map_err(|e| format!("cycle {c} staffing: {e}"))?;
            at(3);
            let (failover, catchup) = self
                .fail_leader()
                .map_err(|e| format!("cycle {c} failover: {e}"))?;
            self.peak_threads = self
                .peak_threads
                .max(recraft_cluster::os_thread_count().unwrap_or(0));
            reports.push(CycleReport {
                split,
                merge,
                staff,
                failover,
                catchup,
            });
        }
        Ok(reports)
    }

    /// Credits what the fleet-wide sums lost when seats were just destroyed.
    fn note_lost(&mut self, before: FleetSums) {
        before.credit_lost(FleetSums::read(self.cluster), &mut self.lost);
    }

    fn fresh_cluster(&mut self) -> ClusterId {
        self.next_cluster += 1;
        ClusterId(self.next_cluster - 1)
    }

    fn members_of(&self, c: ClusterId) -> BTreeSet<NodeId> {
        self.cluster.members_of(c).into_keys().collect()
    }

    /// Delivers `cmd` to `target`'s leader. Beyond what
    /// [`AdminClient::run_on_leader`] waits out, a P2' rejection is retried
    /// too: a split issued while the automatic `ResizeQuorum` of the previous
    /// staffing is still committing resolves on its own.
    fn deliver(&mut self, target: ClusterId, cmd: &AdminCmd, until: Instant) -> Result<(), String> {
        loop {
            let left = until.saturating_duration_since(Instant::now());
            match self
                .admin
                .run_on_leader(&self.cluster.members_of(target), cmd, left)
            {
                Ok(_) => return Ok(()),
                Err(Error::PreconditionP2(_)) if !left.is_zero() => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("{} -> {target:?}: {e}", cmd.kind())),
            }
        }
    }

    /// Splits the whole-keyspace cluster 3 + 3 at [`SPLIT_KEY`].
    fn split(&mut self) -> Result<((Instant, Instant), ClusterId, ClusterId), String> {
        let members: Vec<NodeId> = self.members_of(self.whole).into_iter().collect();
        if members.len() != 6 {
            return Err(format!("expected 6 members, found {members:?}"));
        }
        let (lo, hi) = KeyRange::full().split_at(SPLIT_KEY).expect("split key");
        let (low, high) = (self.fresh_cluster(), self.fresh_cluster());
        let sub = |id, nodes: &[NodeId], range| {
            ClusterConfig::new(id, nodes.iter().copied(), RangeSet::from(range))
                .expect("subcluster config")
        };
        let spec = SplitSpec::new(
            vec![sub(low, &members[..3], lo), sub(high, &members[3..], hi)],
            &members.iter().copied().collect(),
            &RangeSet::full(),
        )
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let until = start + STEP_TIMEOUT;
        self.deliver(self.whole, &AdminCmd::Split(spec), until)?;
        if !self.cluster.wait_for_clusters(
            &[low, high],
            until.saturating_duration_since(Instant::now()),
        ) {
            return Err("children did not both elect".into());
        }
        self.deliver(low, &AdminCmd::ProposeNoop, until)?;
        self.deliver(high, &AdminCmd::ProposeNoop, until)?;
        Ok(((start, Instant::now()), low, high))
    }

    /// Merges the two children back; only `low`'s three members resume, the
    /// other three retire.
    fn merge(&mut self, low: ClusterId, high: ClusterId) -> Result<(Instant, Instant), String> {
        let merged = self.fresh_cluster();
        let resume = self.members_of(low);
        let tx = MergeTx {
            id: TxId(self.next_tx),
            coordinator: low,
            participants: vec![
                MergeParticipant {
                    cluster: low,
                    members: resume.clone(),
                },
                MergeParticipant {
                    cluster: high,
                    members: self.members_of(high),
                },
            ],
            new_cluster: merged,
            resume_members: Some(resume),
        };
        self.next_tx += 1;
        let start = Instant::now();
        let until = start + STEP_TIMEOUT;
        self.deliver(low, &AdminCmd::Merge(tx), until)?;
        self.cluster
            .wait_for_leader_of(merged, until.saturating_duration_since(Instant::now()))
            .ok_or("merged cluster elected no leader")?;
        self.deliver(merged, &AdminCmd::ProposeNoop, until)?;
        self.whole = merged;
        Ok((start, Instant::now()))
    }

    /// Reaps the three retired nodes, boots three joiners in their place and
    /// adds them in one `AddAndResize` (snapshot install to each).
    fn staff(&mut self) -> Result<(Instant, Instant), String> {
        let start = Instant::now();
        let until = start + STEP_TIMEOUT;
        let mut reaped = 0;
        while reaped < 3 {
            let before = FleetSums::read(self.cluster);
            reaped += self.cluster.reap_retired();
            self.note_lost(before);
            if Instant::now() >= until {
                return Err(format!("only {reaped} of 3 merged-away nodes retired"));
            }
            thread::sleep(Duration::from_millis(2));
        }
        let joiners: BTreeSet<NodeId> = (0..3)
            .map(|_| self.cluster.spawn_joiner(self.whole))
            .collect();
        self.deliver(self.whole, &AdminCmd::AddAndResize(joiners.clone()), until)?;
        for j in &joiners {
            loop {
                let joined = self
                    .cluster
                    .addrs()
                    .get(j)
                    .and_then(|addr| self.admin.fetch_stats(*addr, *j))
                    .is_some_and(|s| s.cluster == self.whole && s.members.len() == 6);
                if joined {
                    break;
                }
                if Instant::now() >= until {
                    return Err(format!("joiner {j:?} never reported the full member set"));
                }
                thread::sleep(Duration::from_millis(2));
            }
        }
        Ok((start, Instant::now()))
    }

    /// Kills the leader, waits for the survivors to serve, restarts the node
    /// from its WAL and waits for it to catch up.
    fn fail_leader(&mut self) -> Result<((Instant, Instant), Duration), String> {
        let leader = self
            .cluster
            .wait_for_leader_of(self.whole, STEP_TIMEOUT)
            .ok_or("no leader to kill")?;
        let before = FleetSums::read(self.cluster);
        let killed_at = Instant::now();
        self.cluster.kill(leader);
        self.note_lost(before);
        let until = killed_at + STEP_TIMEOUT;
        let killed_ns = self.shared.ns_since_epoch(killed_at);
        while self.shared.confirmed_sent_ns.load(Ordering::Acquire) <= killed_ns {
            if Instant::now() >= until {
                return Err("no operation confirmed after the kill".into());
            }
            thread::sleep(Duration::from_micros(500));
        }
        let served_at = Instant::now();

        let successor = self
            .cluster
            .wait_for_leader_of(self.whole, until.saturating_duration_since(served_at))
            .ok_or("no successor leader")?;
        let target = self
            .cluster
            .addrs()
            .get(&successor)
            .and_then(|a| self.admin.fetch_stats(*a, successor))
            .map(|s| s.commit)
            .ok_or("successor did not answer its stats")?;
        let restarted_at = Instant::now();
        self.cluster.restart(leader);
        loop {
            let applied = self
                .cluster
                .addrs()
                .get(&leader)
                .and_then(|a| self.admin.fetch_stats(*a, leader))
                .map_or(0, |s| s.applied);
            if applied >= target {
                break;
            }
            if Instant::now() >= restarted_at + STEP_TIMEOUT {
                return Err(format!("restarted node applied {applied} of {target}"));
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(((killed_at, served_at), restarted_at.elapsed()))
    }
}

fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// The route table for a freshly booted single cluster led by `leader`.
pub fn boot_routes(cluster: &Cluster, leader: NodeId) -> Vec<Route> {
    vec![Route {
        cluster: ClusterId(1),
        ranges: RangeSet::full(),
        members: cluster.addrs().into_iter().collect(),
        leader: Some(leader),
    }]
}

/// Keeps `shared`'s route table fresh until `stop` is set. Who leads comes
/// from the seat status blocks every round (cheap, in-process); which
/// cluster and ranges a node serves come from `AdminClient::fetch_stats`,
/// swept whenever placement changed and at least every `SWEEP_EVERY`. A node
/// that misses a sweep (its worker is busy) keeps its last answer: a route
/// must not lose members because a node was slow to say it still serves.
pub fn route_keeper(cluster: &Cluster, shared: &Shared, stop: &AtomicBool) {
    const ROUND: Duration = Duration::from_millis(4);
    const SWEEP_EVERY: Duration = Duration::from_millis(40);
    let mut admin = AdminClient::new(2);
    admin.io_timeout = Duration::from_millis(50);
    let mut placement = (cluster.node_clusters(), cluster.addrs());
    let mut swept: Option<Instant> = None;
    // node -> the cluster and ranges it last reported serving
    let mut serving: BTreeMap<NodeId, (ClusterId, RangeSet)> = BTreeMap::new();
    let mut published = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let now_placement = (cluster.node_clusters(), cluster.addrs());
        if now_placement != placement || swept.is_none_or(|t| t.elapsed() >= SWEEP_EVERY) {
            serving.retain(|node, _| now_placement.1.contains_key(node));
            for (node, addr) in &now_placement.1 {
                match admin.fetch_stats(*addr, *node) {
                    // Retired nodes and unadopted joiners report no members.
                    Some(stats) if stats.members.contains(node) && !stats.ranges.is_empty() => {
                        serving.insert(*node, (stats.cluster, stats.ranges));
                    }
                    Some(_) => {
                        serving.remove(node);
                    }
                    None => {}
                }
            }
            placement = now_placement;
            swept = Some(Instant::now());
        }
        let mut routes: Vec<Route> = Vec::new();
        for (node, (c, ranges)) in &serving {
            let Some(addr) = placement.1.get(node) else {
                continue;
            };
            match routes.iter_mut().find(|r| r.cluster == *c) {
                Some(r) => r.members.push((*node, *addr)),
                None => routes.push(Route {
                    cluster: *c,
                    ranges: ranges.clone(),
                    members: vec![(*node, *addr)],
                    leader: None,
                }),
            }
        }
        for r in &mut routes {
            r.leader = cluster
                .wait_for_leader_of(r.cluster, Duration::ZERO)
                .filter(|l| r.members.iter().any(|(n, _)| n == l));
        }
        let digest: Vec<_> = routes
            .iter()
            .map(|r| (r.cluster, r.members.clone(), r.leader))
            .collect();
        if digest != published && !routes.is_empty() {
            shared.publish(routes);
            published = digest;
        }
        thread::sleep(ROUND);
    }
}
