//! Protocol timing parameters.
//!
//! All times are virtual microseconds. Defaults follow etcd's shape:
//! heartbeats an order of magnitude below election timeouts, election
//! timeouts randomized over a 2× band (the paper's liveness assumption
//! `broadcastTime << electionTimeout << MTBF`, §VI-B).
//!
//! The one retry interval no deployment tuned is a constant beside its use
//! (`RETRY` in `node/mod.rs`): every request a node owes another cluster —
//! a pull, a prepare, an outcome, a participant's decision, a part fetch —
//! is derived from the node's state and sent again, to the next member of
//! its target, every 150 ms until it is answered.

/// Tuning knobs for the pipelined replication engine and batched apply.
///
/// The three levers production Raft implementations pull for throughput:
/// keep several AppendEntries batches in flight per follower instead of one
/// per round trip (`max_inflight`), coalesce backlogged entries into large
/// batches (`max_batch_entries` / `max_batch_bytes`), and let the write-
/// ahead barrier group-commit everything a round appended under one fsync
/// (which falls out of the batch shape — see `LogStore::append_batch`).
/// Setting `max_inflight` and `max_batch_entries` to 1 gives the lockstep
/// one-entry-per-round-trip baseline ([`PipelineConfig::lockstep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Maximum AppendEntries batches in flight per follower before the
    /// leader stops streaming and waits for acknowledgements.
    pub max_inflight: usize,
    /// Maximum entries per AppendEntries batch.
    pub max_batch_entries: usize,
    /// Soft cap on command payload bytes per AppendEntries batch (a batch
    /// always carries at least one entry).
    pub max_batch_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_inflight: 64,
            max_batch_entries: 128,
            max_batch_bytes: 1 << 20,
        }
    }
}

impl PipelineConfig {
    /// The defaults-off configuration: one entry, one batch in flight —
    /// the classic lockstep replication cycle, kept as the baseline the
    /// pipelined default must beat.
    #[must_use]
    pub fn lockstep() -> Self {
        PipelineConfig {
            max_inflight: 1,
            max_batch_entries: 1,
            max_batch_bytes: 1 << 20,
        }
    }
}

/// Timer configuration for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Minimum randomized election timeout (µs).
    pub election_timeout_min: u64,
    /// Maximum randomized election timeout (µs).
    pub election_timeout_max: u64,
    /// Leader heartbeat interval (µs).
    pub heartbeat_interval: u64,
    /// Log length that triggers snapshotting and compaction.
    pub compaction_threshold: usize,
    /// Replication pipelining and batching knobs.
    pub pipeline: PipelineConfig,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            election_timeout_min: 150_000,
            election_timeout_max: 300_000,
            heartbeat_interval: 50_000,
            compaction_threshold: 4096,
            pipeline: PipelineConfig::default(),
        }
    }
}

impl Timing {
    /// Validates the invariants the liveness argument needs.
    ///
    /// # Panics
    /// Panics if the heartbeat interval is not strictly below the minimum
    /// election timeout, the timeout band is empty, or a pipeline bound is
    /// zero.
    pub fn validate(&self) {
        assert!(
            self.heartbeat_interval < self.election_timeout_min,
            "heartbeat must be below the election timeout"
        );
        assert!(
            self.election_timeout_min <= self.election_timeout_max,
            "empty election timeout band"
        );
        assert!(
            self.pipeline.max_batch_entries > 0,
            "batch size must be positive"
        );
        assert!(
            self.pipeline.max_inflight > 0,
            "in-flight window must be positive"
        );
        assert!(
            self.pipeline.max_batch_bytes > 0,
            "batch byte bound must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        Timing::default().validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat")]
    fn inverted_timers_rejected() {
        let t = Timing {
            heartbeat_interval: 400_000,
            ..Timing::default()
        };
        t.validate();
    }

    #[test]
    #[should_panic(expected = "in-flight")]
    fn zero_inflight_rejected() {
        let t = Timing {
            pipeline: PipelineConfig {
                max_inflight: 0,
                ..PipelineConfig::default()
            },
            ..Timing::default()
        };
        t.validate();
    }

    #[test]
    fn lockstep_is_valid_and_minimal() {
        let p = PipelineConfig::lockstep();
        assert_eq!(p.max_inflight, 1);
        assert_eq!(p.max_batch_entries, 1);
        Timing {
            pipeline: p,
            ..Timing::default()
        }
        .validate();
    }
}
