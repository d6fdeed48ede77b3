//! The fleet harness: a whole multi-range deployment inside the simulator.
//!
//! Embeds a [`Controller`] in the deterministic simulation: every sampling
//! interval the harness reads each live cluster's authoritative state (from
//! its most-applied member), feeds the samples to the controller, and
//! delivers the resulting commands through the sim's admin plane. Staffing
//! commands boot fresh joiners (reusing retired nodes from a spare pool) and
//! issue the `AddAndResize`; splits and merges go to the target cluster's
//! leader verbatim. Because the simulation and the controller are both
//! deterministic, an entire autonomous split/merge campaign over hundreds of
//! ranges replays identically from its seed — which is what lets the
//! scenario tests assert linearizability and exactly-once delivery *across*
//! overlapping reconfigurations rather than around them.

use crate::{Metrics, Sim, SimConfig};
use recraft_core::{NodeEvent, Role};
use recraft_fleet::{boot_range, midpoint_key, Controller, FleetCmd, RangeSample};
use recraft_net::AdminCmd;
use recraft_types::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

pub use recraft_fleet::FleetConfig;

/// A simulated fleet: the simulator plus the autonomous controller.
///
/// The simulator is public: tests inject faults, add clients, and run the
/// usual safety checks ([`Sim::check_linearizability`],
/// [`Sim::assert_exactly_once`]) directly on it. Drive virtual time through
/// [`FleetHarness::run`] (not `sim.run_for`) so the controller keeps
/// getting its planning rounds.
pub struct FleetHarness {
    /// The underlying simulation.
    pub sim: Sim,
    controller: Controller,
    interval: u64,
    last_ops: BTreeMap<ClusterId, u64>,
    spares: Vec<NodeId>,
    next_node: u64,
    max_overlap: usize,
}

/// What an autonomous run did, extracted from the sim's trace and metrics.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Distinct clusters that completed a split.
    pub splits: u64,
    /// Distinct merge transactions that reached resumption.
    pub merges: u64,
    /// Completed reconfigurations (`splits + merges`).
    pub reconfigurations: u64,
    /// The most reconfigurations the controller had in flight at once.
    pub max_overlap: usize,
    /// Live ranges (clusters) at the end of the run.
    pub ranges: usize,
    /// Client operations completed.
    pub completed_ops: usize,
    /// `Redirect` bounces clients absorbed — the cost of routing on a
    /// loosely-consistent directory while the fleet reshapes itself.
    pub redirects: u64,
    /// `(splits, merges, staffings)` the controller planned (issued), which
    /// can exceed the completed counts if the run ends mid-reconfiguration.
    pub planned: (u64, u64, u64),
}

impl FleetHarness {
    /// Creates a harness over a fresh simulation. `interval` is the
    /// controller's sampling/planning period in µs — the load thresholds in
    /// `fleet` are counts *per this interval*.
    #[must_use]
    pub fn new(cfg: SimConfig, fleet: FleetConfig, interval: u64) -> Self {
        FleetHarness {
            sim: Sim::new(cfg),
            controller: Controller::new(fleet, 1),
            interval,
            last_ops: BTreeMap::new(),
            spares: Vec::new(),
            next_node: 1,
            max_overlap: 0,
        }
    }

    /// Boots `ranges` clusters evenly partitioning the `k{:08}`-formatted
    /// keyspace of `key_count` keys, each with the configured replication
    /// factor, and runs until every cluster has a leader. Re-seeds the
    /// controller's cluster-id allocator above the boot range.
    pub fn boot_fleet(&mut self, ranges: usize, key_count: u64) {
        assert!(ranges >= 1, "a fleet needs at least one range");
        let replication = self.controller.config().replication.max(1);
        self.controller = Controller::new(self.controller.config().clone(), ranges as u64 + 1);
        for r in 1..=ranges {
            let ids: Vec<NodeId> = (0..replication)
                .map(|i| NodeId((r - 1) as u64 * replication as u64 + i as u64 + 1))
                .collect();
            self.sim
                .boot_cluster(ClusterId(r as u64), &ids, boot_range(r, ranges, key_count));
        }
        self.next_node = ranges as u64 * replication as u64 + 1;
        for r in 1..=ranges {
            self.sim.run_until_leader(ClusterId(r as u64));
        }
    }

    /// Advances virtual time by `dt`, giving the controller a planning round
    /// every sampling interval and recycling retired nodes into the spare
    /// pool.
    pub fn run(&mut self, dt: u64) {
        let end = self.sim.time() + dt;
        while self.sim.time() < end {
            let step = self.interval.min(end - self.sim.time());
            self.sim.run_for(step);
            self.reap_retired();
            self.plan_round();
        }
    }

    /// The embedded controller (inspect pending operations and counters).
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Nodes retired by past reconfigurations, awaiting reuse.
    #[must_use]
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Decommissions every node a reconfiguration retired (`Role::Removed`)
    /// and returns its id to the spare pool for the next staffing.
    fn reap_retired(&mut self) {
        let retired: Vec<NodeId> = self
            .sim
            .nodes()
            .filter(|n| n.role() == Role::Removed)
            .map(recraft_core::Node::id)
            .collect();
        for id in retired {
            self.sim.decommission(id);
            self.spares.push(id);
        }
    }

    /// One controller round: sample, plan, deliver.
    fn plan_round(&mut self) {
        let samples = self.sample();
        let cmds = self.controller.plan(self.sim.time(), &samples);
        self.max_overlap = self.max_overlap.max(self.controller.inflight());
        for cmd in cmds {
            match cmd {
                FleetCmd::Staff { cluster, add } => {
                    let mut joining = BTreeSet::new();
                    for _ in 0..add {
                        let id = self.spares.pop().unwrap_or_else(|| {
                            let id = NodeId(self.next_node);
                            self.next_node += 1;
                            id
                        });
                        self.sim.boot_joiner_into(id, cluster);
                        joining.insert(id);
                    }
                    self.sim.admin(cluster, AdminCmd::AddAndResize(joining));
                }
                FleetCmd::Admin { cluster, cmd } => {
                    self.sim.admin(cluster, cmd);
                }
            }
        }
    }

    /// Builds this round's samples: per live cluster, the view of its
    /// most-applied up member (configuration, resident bytes, suggested
    /// split key) plus the interval's completed-op count from the metrics.
    fn sample(&mut self) -> Vec<RangeSample> {
        let mut best: BTreeMap<ClusterId, (u64, NodeId)> = BTreeMap::new();
        for n in self.sim.nodes() {
            if n.role() == Role::Removed || n.config().members().is_empty() {
                continue; // retired, or a joiner that has not adopted yet
            }
            if !self.sim.is_up(n.id()) {
                continue;
            }
            let applied = n.applied_index().0;
            let entry = best.entry(n.cluster()).or_insert((applied, n.id()));
            if applied > entry.0 {
                *entry = (applied, n.id());
            }
        }
        let mut samples = Vec::with_capacity(best.len());
        for (cluster, (_, witness)) in best {
            let node = self.sim.node(witness).expect("witness exists");
            let ranges = node.config().ranges().clone();
            let members = node.config().members().clone();
            let machine = node.state_machine();
            let bytes = machine.data_size();
            // Prefer the median resident key (balances skewed populations);
            // fall back to a byte midpoint for data-free ranges.
            let split_key = machine
                .split_key(&ranges)
                .or_else(|| ranges.ranges().iter().find_map(midpoint_key));
            let cum = self
                .sim
                .metrics()
                .cluster_ops
                .get(&cluster)
                .copied()
                .unwrap_or(0);
            let prev = self.last_ops.insert(cluster, cum).unwrap_or(0);
            samples.push(RangeSample {
                cluster,
                ranges,
                members,
                ops: cum.saturating_sub(prev),
                bytes,
                split_key,
            });
        }
        samples
    }

    /// Summarizes the run so far.
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let mut split_parents: BTreeSet<ClusterId> = BTreeSet::new();
        let mut merge_txs = BTreeSet::new();
        for (_, _, ev) in self.sim.trace() {
            match ev {
                NodeEvent::SplitCompleted { old_cluster, .. } => {
                    split_parents.insert(*old_cluster);
                }
                NodeEvent::MergeResumed { tx, .. } => {
                    merge_txs.insert(*tx);
                }
                _ => {}
            }
        }
        let live: BTreeSet<ClusterId> = self
            .sim
            .nodes()
            .filter(|n| n.role() != Role::Removed && !n.config().members().is_empty())
            .map(recraft_core::Node::cluster)
            .collect();
        let metrics: &Metrics = self.sim.metrics();
        FleetReport {
            splits: split_parents.len() as u64,
            merges: merge_txs.len() as u64,
            reconfigurations: (split_parents.len() + merge_txs.len()) as u64,
            max_overlap: self.max_overlap,
            ranges: live.len(),
            completed_ops: self.sim.completed_ops(),
            redirects: metrics.redirects,
            planned: self.controller.planned(),
        }
    }
}
