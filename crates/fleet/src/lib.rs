//! The multi-raft fleet layer: many ReCraft clusters (*ranges*) jointly
//! serving one keyspace, with an autonomous controller reshaping the fleet
//! under load.
//!
//! ReCraft (§III–§IV) gives a single cluster self-contained split, merge,
//! and membership change. This crate supplies the two pieces a *deployment*
//! of hundreds of such clusters needs on top:
//!
//! * [`ShardDirectory`] — the naming service's data model (§V): a versioned
//!   map from key ranges to the cluster serving them, with the adjacency
//!   queries a controller and a router both need. Deliberately
//!   loosely-consistent: readers may act on a stale version and recover via
//!   the protocol's own `Redirect`/`WrongRange` answers.
//! * [`RoutedClient`] — one client session's sans-io state machine: it
//!   issues sequence numbers within the server's session window, routes
//!   each operation through the directory, and resends it until answered.
//!   The simulator's clients, its one-shot sessions and the TCP client
//!   fleet are all this machine behind their own transport and clock.
//! * [`Controller`] — a sans-io reconfiguration planner. Fed periodic
//!   per-range load/size samples, it decides which hot ranges to split,
//!   which cold adjacent ranges to merge, and which clusters need staffing
//!   first ([`FleetCmd`]). Hysteresis between the split and merge
//!   thresholds, per-cluster cooldowns, and a bound on concurrent in-flight
//!   reconfigurations keep the fleet from thrashing.
//!
//!   Delivery is one rule of the controller as well: every operation it
//!   tracks owes its admin command until a member accepts it, a member
//!   rejects it for good, or the operation leaves the pending set — so a
//!   command lives as long as its operation, bounded by
//!   [`FleetConfig::stall_us`]. Each round the embedding (the simulator's
//!   `FleetHarness`, or the TCP control plane) sends every command
//!   [`Controller::owed`] lists once, to the member its [`AdminCall`]
//!   names, and hands the answer back; a cluster with no leader never blocks the round.
//! * [`AdminCall`] — the one rule by which an admin command finds a member
//!   that takes it: each attempt goes to the leader the caller saw
//!   ([`seen_leader`]: the most committed member that claims to lead), else
//!   to the member the last answer pointed at, else to the next member in
//!   turn; an acceptance, or a rejection
//!   [`Error::is_transient`](recraft_types::Error::is_transient) does not
//!   name, ends it. The controller, the TCP `AdminClient::run_on_leader` and
//!   the simulator's `Sim::admin` all drive it, each with its own clock and
//!   transport.
//!
//! The controller, the call and the client own no clocks, sockets, or
//! threads: `plan(now, samples)`, `owed` / `on_admin_answer`, the call's
//! `target` / `on_answer` and the client's `on_response` / `on_timeout`
//! are pure state-machine steps, so the same
//! decisions replay byte-for-byte in the deterministic simulator and
//! against a real loopback-TCP deployment.

#![warn(missing_docs)]

mod admin_call;
mod client;
mod controller;
mod directory;
mod sampling;

pub use admin_call::{seen_leader, AdminCall};
pub use client::{ClientAction, ClientStats, RoutedClient, RETRY_BACKOFF_US};
pub use controller::{
    boot_range, midpoint_key, Controller, FleetCmd, FleetConfig, PendingKind, RangeSample,
};
pub use directory::{DirRecord, ShardDirectory};
pub use sampling::SampleBook;
