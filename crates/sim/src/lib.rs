//! Deterministic discrete-event simulation of ReCraft clusters.
//!
//! This crate substitutes for the paper's public-cloud testbed (DESIGN.md
//! §2): virtual time in microseconds, per-message latency drawn from a
//! seeded RNG, bandwidth-modelled bulk transfers, message drops, link cuts,
//! node crash/restart with Raft's durability contract, closed-loop clients
//! with leader/range routing, a loosely-consistent naming service, and an
//! admin plane that drives reconfigurations.
//!
//! Every run is reproducible from its seed. While running, the simulator
//! records node trace events, a client history, and the apply order of every
//! command, from which [`Sim::check_invariants`] asserts the paper's safety
//! definitions (state machine safety, election safety) and
//! [`Sim::check_linearizability`] verifies client-visible linearizability.
//!
//! # Example
//! ```
//! use recraft_sim::{Sim, SimConfig};
//! use recraft_types::{ClusterId, NodeId, RangeSet};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! sim.boot_cluster(ClusterId(1), &[NodeId(1), NodeId(2), NodeId(3)], RangeSet::full());
//! sim.run_until_leader(ClusterId(1));
//! assert!(sim.leader_of(ClusterId(1)).is_some());
//! sim.check_invariants();
//! ```

mod client;
mod config;
mod engine;
pub mod fleet;
mod metrics;
pub mod zipf;

pub use client::Workload;
pub use config::{Backend, SimConfig, SmKind};
pub use engine::{Action, Sim, SimStore, ADMIN_ADDR, CLIENT_BASE};
pub use fleet::{FleetConfig, FleetHarness, FleetReport};
pub use metrics::Metrics;
/// The naming service: the fleet layer's loosely-consistent directory of
/// live clusters, under its historical simulator name. The simulator
/// refreshes it a configurable delay after reconfigurations complete;
/// clients route by it and may be arbitrarily stale in between — `Redirect`
/// answers keep routing convergent.
pub use recraft_fleet::ShardDirectory as Directory;
pub use zipf::Zipf;
