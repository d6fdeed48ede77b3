//! Real-deployment harness: a sharded driver runtime over loopback TCP.
//!
//! The simulator (`recraft-sim`) drives every node from one virtual clock,
//! which is ideal for protocol exploration but measures nothing real. This
//! crate deploys the *same* sans-io [`recraft_core::Node`] the way a
//! production embedding would:
//!
//! * a **fixed pool of worker threads** ([`runtime::DriverRuntime`],
//!   default ≈ available cores) hosts the whole fleet, each worker owning a
//!   *shard* of nodes and running the canonical embedding loop per node —
//!   event in, [`step`](recraft_core::Node::step) /
//!   [`tick`](recraft_core::Node::tick), then the
//!   [`take_outputs`](recraft_core::Node::take_outputs) write-ahead barrier
//!   (one barrier group-commits the node's whole drained burst), then
//!   route. Thread count is a deployment knob, not a function of fleet
//!   size: hundreds of ranges fit on a laptop's cores;
//! * peers exchange the existing `recraft-net` wire messages over **loopback
//!   TCP** via `std::net` — and per-node-pair sockets collapse to one
//!   **multiplexed connection per worker pair** carrying
//!   [`recraft_net::mux`] batches (one write flushes every envelope a
//!   worker round produced for the same destination), while clients and the
//!   admin plane keep dialing each node's own front-door listener with
//!   plain frames. No async runtime, no serialization library;
//! * a many-client **open-loop driver** ([`clients`]) submits sessions
//!   concurrently so leader-side batching and pipelining engage, and
//!   verifies exactly-once semantics against the server-side session table
//!   afterwards.
//!
//! Nothing here is simulated: elections run on real randomized timeouts,
//! `wal`-backed nodes really fsync at the barrier, and every latency the
//! repo benchmark (`benchmark/`) reports over these sockets is wall-clock.
//!
//! ```no_run
//! use recraft_cluster::{ClientOptions, Cluster, ClusterSpec, HarnessBackend};
//! use std::time::Duration;
//!
//! let cluster = Cluster::launch(&ClusterSpec::new(3, HarnessBackend::Mem));
//! cluster.wait_for_leader(Duration::from_secs(5)).expect("leader");
//! let run = cluster.run_clients(8, &ClientOptions { ops: 100, ..ClientOptions::default() });
//! assert!(run.reports.iter().all(|r| r.completed));
//! let nodes = cluster.shutdown();
//! recraft_cluster::harness::verify_sessions(&nodes, 8, 100);
//! ```

pub mod admin;
pub mod clients;
pub mod control;
pub mod fleet_net;
pub mod harness;
pub mod runtime;

pub use admin::{AdminClient, ADMIN_BASE};
pub use clients::{run_open_loop, ClientOptions, ClientReport};
pub use control::{ControlOptions, ControlPlane, ControlReport, FleetView};
pub use fleet_net::{FleetNet, HarnessNode, HarnessStore, NodeStatus};
pub use harness::{
    verify_sessions, ClientsRun, Cluster, ClusterSpec, FleetSpec, HarnessBackend, SeatLoad,
};
pub use runtime::{os_thread_count, DriverRuntime, WireStats};

/// Client endpoints address themselves as `NodeId(CLIENT_BASE + client_id)`,
/// far outside the node-id space — the same convention the simulator uses.
pub const CLIENT_BASE: u64 = 1_000_000;
