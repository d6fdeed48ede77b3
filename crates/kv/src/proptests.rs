//! Property tests for the snapshot image ([`KvStore`]'s streaming encoder
//! and sorted-run decoder against the format's definition) and for
//! [`DurableKv`]: under arbitrary op sequences with
//! interleaved flushes it is observationally identical to the in-memory
//! [`KvStore`], reopen reproduces exactly the flushed image (the persisted
//! applied-index watermark included), and torn segment tails from a power
//! cut never corrupt recovery — mirroring the storage crate's `LogStore`
//! proptest suite.

use crate::durable::testdir::TestDir;
use crate::durable::{DurableKv, DurableKvOptions};
use crate::store::{KvCmd, KvStore};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use recraft_core::StateMachine;
use recraft_types::codec::Encode;
use recraft_types::{KeyRange, LogIndex, RangeSet};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
    /// Explicit flush (organic threshold flushes also fire on their own).
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 32, v)),
        2 => any::<u8>().prop_map(|k| Op::Delete(k % 32)),
        2 => any::<u8>().prop_map(|k| Op::Get(k % 32)),
        1 => Just(Op::Flush),
    ]
}

fn opts() -> DurableKvOptions {
    DurableKvOptions {
        fsync: false,
        chunk_bytes: 96,     // tiny: every state partitions into many files
        memtable_bytes: 160, // tiny: organic flushes interleave with ops
    }
}

fn cmd_of(op: &Op, i: u64) -> Option<Bytes> {
    match op {
        Op::Put(k, v) => Some(
            KvCmd::Put {
                key: format!("key-{k:03}").into_bytes(),
                value: Bytes::from(format!("value-{v}-{i}")),
            }
            .encode(),
        ),
        Op::Delete(k) => Some(
            KvCmd::Delete {
                key: format!("key-{k:03}").into_bytes(),
                nonce: i,
            }
            .encode(),
        ),
        Op::Get(k) => Some(
            KvCmd::Get {
                key: format!("key-{k:03}").into_bytes(),
                nonce: i,
            }
            .encode(),
        ),
        Op::Flush => None,
    }
}

/// A store holding exactly `pairs`, at revision `pairs.len()`.
fn store_of(pairs: &BTreeMap<Vec<u8>, Vec<u8>>) -> KvStore {
    let mut store = KvStore::new();
    for (i, (key, value)) in pairs.iter().enumerate() {
        let put = KvCmd::Put {
            key: key.clone(),
            value: Bytes::from(value.clone()),
        };
        store.apply(LogIndex(i as u64 + 1), &put.encode());
    }
    store
}

/// The image format by its definition — the revision, then the generic map
/// codec over the resident pairs, element by element — which the streaming
/// encoder must reproduce byte for byte.
fn image_by_definition(revision: u64, pairs: &BTreeMap<Vec<u8>, Vec<u8>>) -> Bytes {
    let mut buf = BytesMut::new();
    revision.encode(&mut buf);
    pairs.encode(&mut buf);
    buf.freeze()
}

/// The full observable image of a store, for exact equality checks.
fn image(len: usize, revision: u64, snapshot: Bytes) -> (usize, u64, Bytes) {
    (len, revision, snapshot)
}

proptest! {
    /// Snapshots under a range filter are the defined bytes, restore to
    /// exactly the resident pairs, and merge back to the whole; parts that
    /// share a key are refused.
    #[test]
    fn images_roundtrip_under_range_filters(
        pairs: BTreeMap<Vec<u8>, Vec<u8>>,
        cut in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let store = store_of(&pairs);
        let revision = pairs.len() as u64;
        let (lo, hi) = KeyRange::full().split_at(&cut).unwrap();
        let (lo, hi) = (RangeSet::from(lo), RangeSet::from(hi));
        let (below, above): (BTreeMap<_, _>, BTreeMap<_, _>) =
            pairs.clone().into_iter().partition(|(k, _)| k.as_slice() < cut.as_slice());

        let whole = store.snapshot(&RangeSet::full());
        let low = store.snapshot(&lo);
        let high = store.snapshot(&hi);
        prop_assert_eq!(&whole, &image_by_definition(revision, &pairs));
        prop_assert_eq!(&low, &image_by_definition(revision, &below));
        prop_assert_eq!(&high, &image_by_definition(revision, &above));

        let mut restored = KvStore::new();
        restored.restore(&low).unwrap();
        let mut pruned = store.clone();
        pruned.retain_ranges(&lo);
        prop_assert_eq!(&restored, &pruned);
        restored.restore(&whole).unwrap();
        prop_assert_eq!(&restored, &store);

        let mut merged = KvStore::new();
        merged.restore_merged(&[low.clone(), high.clone()]).unwrap();
        prop_assert_eq!(&merged, &store);
        merged.restore_merged(&[high, low.clone()]).unwrap();
        prop_assert_eq!(&merged, &store, "part order does not matter");
        if !below.is_empty() {
            prop_assert!(merged.restore_merged(&[low, whole]).is_err(), "shared keys");
            prop_assert_eq!(&merged, &store, "a refused merge leaves the state alone");
        }
    }

    /// Durable and in-memory machines answer byte-identically and hold the
    /// same state under arbitrary op/flush interleavings, and reopening the
    /// durable store after a clean flush reproduces the exact image with
    /// its watermark.
    #[test]
    fn reopen_equivalence_under_op_sequences(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let dir = TestDir::new("prop-equiv");
        let mut durable = DurableKv::create(&dir.0, KvStore::new(), opts()).unwrap();
        let mut mem = KvStore::new();
        let mut index = 0u64;
        for op in &ops {
            match cmd_of(op, index) {
                Some(cmd) => {
                    index += 1;
                    let i = LogIndex(index);
                    prop_assert_eq!(
                        durable.apply(i, &cmd),
                        mem.apply(i, &cmd),
                        "responses diverge at {}", i
                    );
                }
                None => durable.flush(),
            }
        }
        prop_assert_eq!(durable.len(), mem.len());
        prop_assert_eq!(durable.revision(), mem.revision());
        prop_assert_eq!(
            durable.snapshot(&RangeSet::full()),
            mem.snapshot(&RangeSet::full())
        );
        // Chunks reassemble into the same image on a fresh store.
        let chunks = durable.snapshot_chunks(&RangeSet::full());
        prop_assert!(!chunks.is_empty());
        let mut rebuilt = KvStore::new();
        rebuilt.restore_merged(
            &chunks.iter().filter(|c| !c.is_empty()).cloned().collect::<Vec<_>>(),
        ).unwrap();
        prop_assert_eq!(rebuilt.len(), mem.len());
        // A clean flush + reopen reproduces the image and the watermark.
        durable.flush();
        let want = image(mem.len(), mem.revision(), mem.snapshot(&RangeSet::full()));
        let watermark = durable.watermark();
        prop_assert_eq!(watermark, LogIndex(index));
        drop(durable);
        let reopened = DurableKv::open(&dir.0, opts()).unwrap();
        let got = image(
            reopened.len(),
            reopened.revision(),
            reopened.snapshot(&RangeSet::full()),
        );
        prop_assert_eq!(got, want);
        prop_assert_eq!(reopened.watermark(), watermark);
    }

    /// Power cuts: whatever garbage byte count a torn in-flight write
    /// leaves behind, recovery reproduces exactly the image at the last
    /// flush — never a partial keyspace, never an invented key, and the
    /// watermark tells precisely which prefix survived.
    #[test]
    fn torn_tail_recovers_exactly_the_flushed_image(
        ops in prop::collection::vec(op_strategy(), 1..60),
        tear in 0usize..200,
    ) {
        let dir = TestDir::new("prop-torn");
        let mut durable = DurableKv::create(
            &dir.0,
            KvStore::new(),
            DurableKvOptions {
                memtable_bytes: 1 << 20, // flushes only where the ops say
                ..opts()
            },
        )
        .unwrap();
        let mut mem = KvStore::new();
        let mut flushed = image(0, 0, mem.snapshot(&RangeSet::full()));
        let mut flushed_at = LogIndex::ZERO;
        let mut index = 0u64;
        for op in &ops {
            match cmd_of(op, index) {
                Some(cmd) => {
                    index += 1;
                    let i = LogIndex(index);
                    durable.apply(i, &cmd);
                    mem.apply(i, &cmd);
                }
                None => {
                    durable.flush();
                    flushed = image(mem.len(), mem.revision(), mem.snapshot(&RangeSet::full()));
                    flushed_at = LogIndex(index);
                }
            }
        }
        durable.power_cut(tear);
        drop(durable);
        let recovered = DurableKv::open(&dir.0, opts()).unwrap();
        let got = image(
            recovered.len(),
            recovered.revision(),
            recovered.snapshot(&RangeSet::full()),
        );
        prop_assert_eq!(got, flushed, "recovery == last flushed image");
        prop_assert_eq!(recovered.watermark(), flushed_at);
    }
}
