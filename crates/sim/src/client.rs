//! Simulated clients speaking the typed session protocol.
//!
//! Each client owns one [`SessionId`] and tags every operation with a
//! monotonically increasing sequence number, issuing the next one only
//! while it stays within [`SESSION_WINDOW`](recraft_types::SESSION_WINDOW)
//! of the oldest outstanding one. Writes are retried under the *same*
//! `(session, seq)` until answered — the server-side session table keeps a
//! reply for every number in that window, which makes the retry
//! exactly-once — while reads are idempotent and retried as fresh
//! operations. The workload can deliberately deliver write requests twice
//! ([`Workload::dup_prob`]) to exercise the dedup path.

use crate::zipf::Zipf;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use recraft_kv::lin::OpKind;
use recraft_kv::KvCmd;
use recraft_types::{ClientOp, ClusterId, NodeId, SessionId};
use std::collections::BTreeMap;

/// What a client does: random keys (uniform or zipfian), fixed-size values,
/// an optional fraction of linearizable reads. The paper's evaluation uses
/// 512-byte uniform random puts (§VII).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of distinct keys (`k00000000` ... ).
    pub key_count: u64,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Fraction of operations that are reads (0.0 = put-only).
    pub get_ratio: f64,
    /// Probability that a write request is transmitted twice (duplicate
    /// delivery injection, exercising the exactly-once session table).
    pub dup_prob: f64,
    /// Open-loop window: how many operations the client keeps in flight
    /// concurrently. `1` is the classic closed-loop client (wait for each
    /// response before issuing the next op); larger windows sustain
    /// concurrent proposals so leader-side batching and pipelining engage.
    pub pipeline: usize,
    /// Zipfian skew exponent. `0.0` keeps the historical uniform key draw;
    /// any positive value samples key ranks from [`Zipf`] (YCSB-style skew
    /// is `0.99`), deterministic from each client's seeded RNG.
    pub zipf_s: f64,
    /// Rotates the rank → key mapping: rank `r` maps to key index
    /// `(hot_offset + r - 1) % key_count`. Hot ranks are consecutive key
    /// indices, so skew lands on one contiguous key range — moving this
    /// mid-run relocates the hot spot (the fleet scenarios' "skew flip").
    pub hot_offset: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            key_count: 10_000,
            value_size: 512,
            get_ratio: 0.0,
            dup_prob: 0.0,
            pipeline: 1,
            zipf_s: 0.0,
            hot_offset: 0,
        }
    }
}

/// An in-flight client operation.
#[derive(Debug, Clone)]
pub(crate) struct Outstanding {
    /// The session sequence number (the retry identity for writes).
    pub seq: u64,
    pub key: Vec<u8>,
    /// The typed operation, kept for resends.
    pub op: ClientOp,
    pub kind: OpKind,
    pub cluster: Option<ClusterId>,
    pub invoked_at: u64,
    /// Timeout-driven retries so far.
    pub attempts: u32,
}

/// One client session: closed-loop at `pipeline == 1`, open-loop with a
/// bounded in-flight window otherwise.
#[derive(Debug)]
pub(crate) struct Client {
    pub id: u64,
    pub addr: NodeId,
    pub session: SessionId,
    pub rng: StdRng,
    pub workload: Workload,
    pub next_seq: u64,
    /// In-flight operations keyed by sequence number; at most
    /// [`Workload::pipeline`] entries.
    pub outstanding: BTreeMap<u64, Outstanding>,
    pub leader_cache: BTreeMap<ClusterId, NodeId>,
    pub active: bool,
    /// Cached zipf sampler, rebuilt when the workload's `(key_count,
    /// zipf_s)` changes (the skew-flip path mutates workloads mid-run).
    pub(crate) zipf: Option<Zipf>,
}

impl Client {
    /// Draws the next key index under the workload's distribution.
    fn next_key_index(&mut self) -> u64 {
        if self.workload.zipf_s <= 0.0 {
            return self.rng.gen_range(0..self.workload.key_count);
        }
        let stale = self.zipf.as_ref().is_none_or(|z| {
            z.ranks() != self.workload.key_count || z.exponent() != self.workload.zipf_s
        });
        if stale {
            self.zipf = Some(Zipf::new(self.workload.key_count, self.workload.zipf_s));
        }
        let rank = self
            .zipf
            .as_ref()
            .expect("built above")
            .sample(&mut self.rng);
        (self.workload.hot_offset + rank - 1) % self.workload.key_count
    }

    /// Builds the next operation (key, typed op, history kind), consuming
    /// one sequence number.
    pub(crate) fn next_op(&mut self) -> (Vec<u8>, ClientOp, OpKind) {
        let key = format!("k{:08}", self.next_key_index()).into_bytes();
        let seq = self.next_seq;
        let is_get = self.workload.get_ratio > 0.0 && self.rng.gen_bool(self.workload.get_ratio);
        if is_get {
            let op = ClientOp::Get { key: key.clone() };
            (key, op, OpKind::Read { value: None })
        } else {
            // Unique values make duplicate detection and linearizability
            // checking exact.
            let tag = format!("c{}-r{}-", self.id, seq);
            let mut value = tag.into_bytes();
            value.resize(self.workload.value_size.max(value.len()), b'x');
            let value = Bytes::from(value);
            let op = ClientOp::Command {
                key: key.clone(),
                cmd: KvCmd::Put {
                    key: key.clone(),
                    value: value.clone(),
                }
                .encode(),
            };
            (key, op, OpKind::Write { value })
        }
    }
}
