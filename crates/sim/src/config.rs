//! Simulation parameters.

use recraft_core::{PipelineConfig, Timing};

/// Which durable-storage backend simulated nodes run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-memory log: crashes keep state in the process (the original
    /// simulator model).
    #[default]
    Mem,
    /// The segmented write-ahead log: every node gets a data dir under a
    /// per-run temp root, crashes can power-cut mid-write, and reboots
    /// recover from disk.
    Wal,
}

impl Backend {
    /// Reads the backend from the `RECRAFT_BACKEND` environment variable
    /// (`mem` | `wal`, case-insensitive; anything else falls back to `Mem`).
    /// CI runs the whole suite once per value.
    #[must_use]
    pub fn from_env() -> Backend {
        match std::env::var("RECRAFT_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("wal") => Backend::Wal,
            _ => Backend::Mem,
        }
    }
}

/// Which key-value state machine simulated nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SmKind {
    /// The in-memory `KvStore` (whole-blob snapshots, restart-only crash
    /// model).
    #[default]
    Mem,
    /// The on-disk `DurableKv`: per-node data dirs, chunked snapshots,
    /// power-cut tears, and reopen recovery on reboot.
    Durable,
}

impl SmKind {
    /// Reads the machine from the `RECRAFT_SM` environment variable
    /// (`mem` | `durable`, case-insensitive; anything else falls back to
    /// `Mem`). Crossed with `RECRAFT_BACKEND`, this gives the CI its four
    /// state-machine × log-backend combinations without test edits.
    #[must_use]
    pub fn from_env() -> SmKind {
        match std::env::var("RECRAFT_SM") {
            Ok(v) if v.eq_ignore_ascii_case("durable") => SmKind::Durable,
            _ => SmKind::Mem,
        }
    }
}

/// Parameters of a simulation run. All times are virtual microseconds.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every run with the same seed and schedule is identical.
    pub seed: u64,
    /// Minimum one-way message latency.
    pub latency_min: u64,
    /// Maximum one-way message latency.
    pub latency_max: u64,
    /// Link bandwidth in bytes per microsecond (bulk payloads add
    /// `size / bandwidth` to their delivery time). 100 B/µs ≈ 100 MB/s.
    pub bandwidth: u64,
    /// Probability of dropping any node-to-node message.
    pub drop_prob: f64,
    /// Serial per-message processing time at a receiving node (µs): models
    /// the single-core server bottleneck that makes a leader saturate — the
    /// effect behind the paper's throughput/latency curves (Fig. 6) and the
    /// post-split aggregate speedup (Fig. 7a).
    pub proc_time: u64,
    /// Node timer configuration.
    pub timing: Timing,
    /// How often node timers are evaluated.
    pub tick_interval: u64,
    /// Client retry timeout for requests that got no answer.
    pub client_timeout: u64,
    /// Delay before a completed reconfiguration is visible in the naming
    /// service (the paper's loosely-consistent DNS-like directory, §V).
    pub directory_delay: u64,
    /// The storage backend nodes boot on. Defaults from `RECRAFT_BACKEND`,
    /// so the entire test suite switches backend without edits.
    pub backend: Backend,
    /// The key-value state machine nodes boot on. Defaults from
    /// `RECRAFT_SM` (same pattern as `RECRAFT_BACKEND`).
    pub sm: SmKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency_min: 200,
            latency_max: 800,
            bandwidth: 100,
            drop_prob: 0.0,
            proc_time: 20,
            timing: Timing::default(),
            tick_interval: 5_000,
            client_timeout: 5_000_000,
            directory_delay: 20_000,
            backend: Backend::from_env(),
            sm: SmKind::from_env(),
        }
    }
}

impl SimConfig {
    /// A convenience constructor varying only the seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// The same configuration with explicit pipeline knobs
    /// (`tests/pipeline_batching.rs` runs lockstep against the default).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.timing.pipeline = pipeline;
        self
    }

    /// The same configuration on an explicit storage backend (overriding
    /// the `RECRAFT_BACKEND` default).
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The same configuration on an explicit state machine (overriding the
    /// `RECRAFT_SM` default) — the cross-backend matrix tests pin all four
    /// combinations in one process this way.
    #[must_use]
    pub fn with_machine(mut self, sm: SmKind) -> Self {
        self.sm = sm;
        self
    }
}
