//! The fleet harness: a whole multi-range deployment inside the simulator.
//!
//! Embeds a [`Controller`] in the deterministic simulation: every sampling
//! interval the harness collects every up node's `StatsReq` answer, distills
//! them with the [`SampleBook`] the TCP control plane uses, feeds the samples
//! to the controller, and boots the joiners a staffing asks for (reusing
//! retired nodes from a spare pool). Delivery follows the controller's one
//! rule, as over TCP: every command it still owes
//! ([`Controller::owed`]) goes once per round to the member it names, as a
//! one-shot [`Sim::admin_to`], and the answers read at the next round go
//! back through [`Controller::on_admin_answer`] — a send with no answer by
//! then counts as unreachable. A command lives as long as its tracked
//! operation, which the controller's `stall_us` bounds. Because the
//! simulation and the controller are both deterministic, an entire
//! autonomous split/merge campaign over hundreds of ranges replays
//! identically from its seed — which is what lets the scenario tests assert
//! linearizability and exactly-once delivery *across* overlapping
//! reconfigurations rather than around them.

use crate::{Sim, SimConfig};
use recraft_core::{NodeEvent, Role};
use recraft_fleet::{boot_range, Controller, FleetCmd, SampleBook};
use recraft_types::{ClusterId, NodeId};
use std::collections::BTreeSet;

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
    book: SampleBook,
    /// Last round's sends, awaiting their answers: `(req_id, cluster, to)`.
    sent: Vec<(u64, ClusterId, NodeId)>,
    spares: Vec<NodeId>,
    next_node: u64,
    max_overlap: usize,
}

/// What an autonomous run did, extracted from the sim's trace and nodes.
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
            book: SampleBook::new(),
            sent: Vec::new(),
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

    /// One controller round, as the TCP control plane runs it: reap, take
    /// last round's answers, sample, plan, and send every command owed.
    fn plan_round(&mut self) {
        // Nodes a reconfiguration retired go to the spare pool.
        let retired: Vec<NodeId> = (self.sim.nodes())
            .filter(|n| n.role() == Role::Removed)
            .map(recraft_core::Node::id)
            .collect();
        for id in retired {
            self.sim.decommission(id);
            self.spares.push(id);
        }
        let mut answers = self.sim.take_admin_answers();
        for (req_id, cluster, to) in std::mem::take(&mut self.sent) {
            let answer = answers.remove(&req_id);
            self.controller.on_admin_answer(cluster, to, answer);
        }
        let reports: Vec<_> = (self.sim.nodes())
            .filter(|n| self.sim.is_up(n.id()))
            .map(|n| (n.id(), n.stats()))
            .collect();
        let samples = self.book.build(&reports);
        for cmd in self.controller.plan(self.sim.time(), &samples) {
            if let FleetCmd::Staff { cluster, add } = cmd {
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
                self.controller.staffed(cluster, joining);
            }
        }
        self.max_overlap = self.max_overlap.max(self.controller.inflight());
        for (cluster, to, cmd) in self.controller.owed(&samples, &self.book) {
            self.sent.push((self.sim.admin_to(to, cmd), cluster, to));
        }
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
            .filter(|n| !n.stats().members.is_empty())
            .map(recraft_core::Node::cluster)
            .collect();
        FleetReport {
            splits: split_parents.len() as u64,
            merges: merge_txs.len() as u64,
            reconfigurations: (split_parents.len() + merge_txs.len()) as u64,
            max_overlap: self.max_overlap,
            ranges: live.len(),
            completed_ops: self.sim.completed_ops(),
            planned: self.controller.planned(),
        }
    }
}
