//! Simulated clients: the workload each one draws, and its session.
//!
//! A client's session is a [`RoutedClient`] — the machine the TCP client
//! fleet runs too — behind the simulator's transport and virtual clock.
//! The machine issues sequence numbers within the server's session window,
//! routes every operation through the simulated naming service, and
//! resends it under the same `(session, seq)` until it is answered. The
//! simulator keeps what a transport owns: drawing keys and operations from
//! the [`Workload`], the history and apply-order digests the
//! linearizability check reads, message latency, and deliberately
//! delivering a write twice ([`Workload::dup_prob`]) to exercise the dedup
//! path.

use crate::zipf::Zipf;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use recraft_fleet::RoutedClient;
use recraft_kv::lin::{Op, OpKind};
use recraft_kv::KvCmd;
use recraft_types::ClientOp;
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

/// One client session: closed-loop at `pipeline == 1`, open-loop with a
/// bounded in-flight window otherwise.
#[derive(Debug)]
pub(crate) struct Client {
    pub id: u64,
    pub rng: StdRng,
    pub workload: Workload,
    pub machine: RoutedClient,
    /// The machine's pending operations, as the history will record them.
    pub invoked: BTreeMap<u64, Op>,
    pub active: bool,
    /// The earliest wake-up scheduled for the machine's deadline.
    pub wake_at: Option<u64>,
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

    /// Builds the operation the machine will issue next (key, typed op,
    /// history kind).
    pub(crate) fn next_op(&mut self) -> (Vec<u8>, ClientOp, OpKind) {
        let key = format!("k{:08}", self.next_key_index()).into_bytes();
        let seq = self.machine.next_seq();
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
