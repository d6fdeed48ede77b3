//! The key-value state machine.

use bytes::{Bytes, BytesMut};
use recraft_core::StateMachine;
use recraft_types::codec::{Decode, Encode};
use recraft_types::{codec, Error, LogIndex, RangeSet, Result};
use std::collections::BTreeMap;

/// A command addressed to the key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCmd {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Bytes,
    },
    /// Read `key` (linearizable: gets travel through the log like writes).
    Get {
        /// The key.
        key: Vec<u8>,
        /// A client-unique nonce making the encoded command unique, so the
        /// linearizability checker can identify this exact operation in the
        /// apply order.
        nonce: u64,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: Vec<u8>,
        /// A client-unique nonce (see [`KvCmd::Get::nonce`]).
        nonce: u64,
    },
    /// Bulk-load an encoded map (the TC baseline's data migration path).
    Ingest {
        /// An encoded `BTreeMap<Vec<u8>, Vec<u8>>` snapshot payload.
        data: Bytes,
    },
}

impl KvCmd {
    /// The key this command is routed by.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        match self {
            KvCmd::Put { key, .. } | KvCmd::Get { key, .. } | KvCmd::Delete { key, .. } => key,
            KvCmd::Ingest { .. } => b"",
        }
    }

    /// Encodes the command for transport through the log.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        self.encode_to_bytes()
    }

    /// Decodes a command.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<KvCmd> {
        Decode::decode(&mut raw.clone())
    }
}

codec!(enum KvCmd {
    0 => Put {
        key: Vec<u8>,
        value: Bytes,
    },
    1 => Get {
        key: Vec<u8>,
        nonce: u64,
    },
    2 => Delete {
        key: Vec<u8>,
        nonce: u64,
    },
    3 => Ingest {
        data: Bytes,
    },
});

/// The store's reply to a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResp {
    /// A write succeeded at `revision`.
    Ok {
        /// The store revision after the write.
        revision: u64,
    },
    /// A read result (`None` when the key is absent).
    Value {
        /// The store revision at the read.
        revision: u64,
        /// The value, if present.
        value: Option<Bytes>,
    },
}

impl KvResp {
    /// Encodes the response.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        self.encode_to_bytes()
    }

    /// Decodes a response.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<KvResp> {
        Decode::decode(&mut raw.clone())
    }
}

codec!(enum KvResp {
    0 => Ok {
        revision: u64,
    },
    1 => Value {
        revision: u64,
        value: Option<Bytes>,
    },
});

/// A revisioned key-value store (the etcd layer's data model): every applied
/// command bumps the revision; snapshots are range-scoped encodings of the
/// map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    entries: BTreeMap<Vec<u8>, Bytes>,
    revision: u64,
}

impl KvStore {
    /// An empty store at revision 0.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// The number of stored pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current revision (count of applied commands).
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Direct read access (for tests and the router; linearizable reads go
    /// through the log as [`KvCmd::Get`]).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.entries.get(key)
    }

    /// Approximate data size in bytes (keys + values) — what a snapshot
    /// transfer moves.
    #[must_use]
    pub fn data_size(&self) -> usize {
        self.entries.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// The median resident key within `ranges`, as a split point: half the
    /// stored pairs land on each side, which balances a split far better
    /// than a byte-midpoint when the key population is skewed. `None` when
    /// fewer than two resident keys fall in `ranges` (nothing to balance —
    /// the caller falls back to a byte midpoint or skips the split).
    #[must_use]
    pub fn split_key(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        let resident: Vec<&Vec<u8>> = self.entries.keys().filter(|k| ranges.contains(k)).collect();
        if resident.len() < 2 {
            return None;
        }
        // The BTreeMap iterates in key order: the midpoint element is the
        // median. It is strictly above at least one resident key, so a
        // split at it leaves both sides non-empty.
        Some(resident[resident.len() / 2].clone())
    }

    /// Applies one command: bumps the revision and answers. The single
    /// dispatch both [`StateMachine::apply`] and
    /// [`StateMachine::apply_batch`] go through — replicas must produce
    /// byte-identical responses whichever path delivered the entry.
    /// `DurableKv` routes its applies through the same dispatch, so the two
    /// machines answer byte-identically under identical logs.
    pub(crate) fn apply_cmd(&mut self, cmd: &Bytes) -> KvResp {
        self.revision += 1;
        match KvCmd::decode(cmd) {
            Ok(KvCmd::Put { key, value }) => {
                self.entries.insert(key, value);
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            Ok(KvCmd::Get { key, .. }) => KvResp::Value {
                revision: self.revision,
                value: self.entries.get(&key).cloned(),
            },
            Ok(KvCmd::Delete { key, .. }) => {
                self.entries.remove(&key);
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            Ok(KvCmd::Ingest { data }) => {
                // The payload is a snapshot image (exactly what `snapshot()`
                // produces); its revision is not adopted.
                if let Ok((_, map)) = Self::decode_image(&data) {
                    self.entries.extend(map);
                }
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            // Malformed commands still consume a revision (deterministic
            // across replicas) and answer Ok.
            Err(_) => KvResp::Ok {
                revision: self.revision,
            },
        }
    }

    /// The stored pairs (the `DurableKv` wrapper partitions these into
    /// segment files).
    pub(crate) fn entries(&self) -> &BTreeMap<Vec<u8>, Bytes> {
        &self.entries
    }

    /// Merges a snapshot image into the store: pairs extend the map, the
    /// revision takes the maximum. The chunked install path feeds one
    /// bounded image at a time through this.
    pub(crate) fn absorb_snapshot_blob(&mut self, data: &Bytes) -> Result<()> {
        let (revision, map) = Self::decode_image(data)?;
        self.entries.extend(map);
        self.revision = self.revision.max(revision);
        Ok(())
    }

    /// Replaces the whole state (recovery from decoded segment contents).
    pub(crate) fn set_state(&mut self, entries: BTreeMap<Vec<u8>, Bytes>, revision: u64) {
        self.entries = entries;
        self.revision = revision;
    }

    /// Encodes a snapshot image, `[u64 revision][u32 count]{key, value}*`
    /// (the map format of `recraft_types::codec`), straight from `pairs` in
    /// the order given: every byte run is one slice copy into one buffer,
    /// and the count is patched in once the iterator has been walked.
    pub(crate) fn encode_image<'a>(
        revision: u64,
        pairs: impl IntoIterator<Item = (&'a Vec<u8>, &'a Bytes)>,
    ) -> Bytes {
        let mut buf = BytesMut::new();
        revision.encode(&mut buf);
        let count_at = buf.len();
        0u32.encode(&mut buf);
        let mut count = 0u32;
        for (key, value) in pairs {
            key.encode(&mut buf);
            value.encode(&mut buf);
            count = count.checked_add(1).expect("map too long");
        }
        buf[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
        buf.freeze()
    }

    /// Decodes a snapshot image into its revision and pairs. An image is
    /// written in key order, so the map is built from the sorted run in one
    /// pass; any order is accepted, and of a repeated key the last value
    /// wins. Each value is copied into an allocation of its own, so that no
    /// stored value keeps the image it arrived in alive.
    pub(crate) fn decode_image(data: &Bytes) -> Result<(u64, BTreeMap<Vec<u8>, Bytes>)> {
        let mut buf = data.clone();
        let revision = u64::decode(&mut buf)?;
        let count = u32::decode(&mut buf)? as usize;
        // A pair is at least its two length words: a count the input cannot
        // hold fails on the first missing pair, having reserved nothing for it.
        let mut pairs = Vec::with_capacity(count.min(buf.len() / 8));
        for _ in 0..count {
            let key = Vec::<u8>::decode(&mut buf)?;
            let value = Bytes::decode(&mut buf)?;
            pairs.push((key, Bytes::copy_from_slice(&value)));
        }
        Ok((revision, pairs.into_iter().collect()))
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, _index: LogIndex, cmd: &Bytes) -> Bytes {
        self.apply_cmd(cmd).encode()
    }

    fn apply_batch(&mut self, entries: &[(LogIndex, Bytes)]) -> Vec<Bytes> {
        // One pre-sized pass over the whole committed run, through the same
        // dispatch as the single-entry path.
        let mut responses = Vec::with_capacity(entries.len());
        for (_, cmd) in entries {
            responses.push(self.apply_cmd(cmd).encode());
        }
        responses
    }

    fn query(&self, key: &[u8]) -> Bytes {
        // The ReadIndex fast path: answered from the applied map, no log
        // traffic and no revision bump.
        KvResp::Value {
            revision: self.revision,
            value: self.entries.get(key).cloned(),
        }
        .encode()
    }

    fn snapshot(&self, ranges: &RangeSet) -> Bytes {
        let resident = self.entries.iter().filter(|(k, _)| ranges.contains(k));
        Self::encode_image(self.revision, resident)
    }

    fn restore(&mut self, data: &Bytes) -> Result<()> {
        let (revision, map) = Self::decode_image(data)?;
        self.set_state(map, revision);
        Ok(())
    }

    fn restore_merged(&mut self, parts: &[Bytes]) -> Result<()> {
        let mut pairs = Vec::new();
        let mut revision = 0u64;
        for part in parts {
            let (part_rev, map) = Self::decode_image(part)?;
            revision = revision.max(part_rev);
            pairs.extend(map);
        }
        // Parts arrive in range order, so this is one sorted run; a key two
        // parts both hold is one the map keeps once.
        let total = pairs.len();
        let combined: BTreeMap<Vec<u8>, Bytes> = pairs.into_iter().collect();
        if combined.len() != total {
            return Err(Error::InvalidRange("merge parts overlap on a key".into()));
        }
        self.set_state(combined, revision);
        Ok(())
    }

    fn retain_ranges(&mut self, ranges: &RangeSet) {
        self.entries.retain(|k, _| ranges.contains(k));
    }

    fn resident_bytes(&self) -> usize {
        self.data_size()
    }

    fn split_hint(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        self.split_key(ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::KeyRange;

    fn put(store: &mut KvStore, i: LogIndex, key: &str, value: &str) -> KvResp {
        let raw = store.apply(
            i,
            &KvCmd::Put {
                key: key.as_bytes().to_vec(),
                value: Bytes::from(value.to_string()),
            }
            .encode(),
        );
        KvResp::decode(&raw).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut store = KvStore::new();
        assert_eq!(
            put(&mut store, LogIndex(1), "a", "1"),
            KvResp::Ok { revision: 1 }
        );
        let got = store.apply(
            LogIndex(2),
            &KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        assert_eq!(
            KvResp::decode(&got).unwrap(),
            KvResp::Value {
                revision: 2,
                value: Some(Bytes::from_static(b"1"))
            }
        );
        store.apply(
            LogIndex(3),
            &KvCmd::Delete {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        let got = store.apply(
            LogIndex(4),
            &KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        assert_eq!(
            KvResp::decode(&got).unwrap(),
            KvResp::Value {
                revision: 4,
                value: None
            }
        );
        assert_eq!(store.revision(), 4);
    }

    #[test]
    fn cmd_codec_roundtrip() {
        let cmds = [
            KvCmd::Put {
                key: b"k".to_vec(),
                value: Bytes::from_static(b"v"),
            },
            KvCmd::Get {
                key: b"k".to_vec(),
                nonce: 1,
            },
            KvCmd::Delete {
                key: b"k".to_vec(),
                nonce: 2,
            },
            KvCmd::Ingest {
                data: Bytes::from_static(b"\x00\x00\x00\x00"),
            },
        ];
        for cmd in cmds {
            assert_eq!(KvCmd::decode(&cmd.encode()).unwrap(), cmd);
        }
        assert!(KvCmd::decode(&Bytes::from_static(b"\x09")).is_err());
    }

    #[test]
    fn resp_codec_roundtrip() {
        let resps = [
            KvResp::Ok { revision: 7 },
            KvResp::Value {
                revision: 9,
                value: Some(Bytes::from_static(b"x")),
            },
            KvResp::Value {
                revision: 9,
                value: None,
            },
        ];
        for r in resps {
            assert_eq!(KvResp::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn snapshot_restore_respects_ranges() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "apple", "red");
        put(&mut store, LogIndex(2), "zebra", "striped");
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let lo_snap = store.snapshot(&RangeSet::from(lo));
        let hi_snap = store.snapshot(&RangeSet::from(hi));

        let mut restored = KvStore::new();
        restored.restore(&lo_snap).unwrap();
        assert_eq!(restored.len(), 1);
        assert!(restored.get(b"apple").is_some());
        assert_eq!(restored.revision(), 2);

        let mut merged = KvStore::new();
        merged.restore_merged(&[lo_snap, hi_snap]).unwrap();
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn restore_merged_rejects_overlap() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "k", "v");
        let snap = store.snapshot(&RangeSet::full());
        let mut merged = KvStore::new();
        assert!(merged.restore_merged(&[snap.clone(), snap]).is_err());
    }

    #[test]
    fn ingest_bulk_loads_snapshot_payload() {
        let mut src = KvStore::new();
        put(&mut src, LogIndex(1), "a", "1");
        put(&mut src, LogIndex(2), "b", "2");
        let snap = src.snapshot(&RangeSet::full());
        let mut dst = KvStore::new();
        put(&mut dst, LogIndex(1), "z", "9");
        dst.apply(LogIndex(2), &KvCmd::Ingest { data: snap }.encode());
        assert_eq!(dst.len(), 3, "ingest adds the snapshot's pairs");
        assert_eq!(dst.get(b"a"), Some(&Bytes::from_static(b"1")));
        assert_eq!(dst.get(b"z"), Some(&Bytes::from_static(b"9")));
    }

    #[test]
    fn query_reads_applied_state_without_revision_bump() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "a", "1");
        let raw = store.query(b"a");
        assert_eq!(
            KvResp::decode(&raw).unwrap(),
            KvResp::Value {
                revision: 1,
                value: Some(Bytes::from_static(b"1"))
            }
        );
        let missing = store.query(b"nope");
        assert_eq!(
            KvResp::decode(&missing).unwrap(),
            KvResp::Value {
                revision: 1,
                value: None
            }
        );
        assert_eq!(store.revision(), 1, "queries do not consume revisions");
    }

    #[test]
    fn retain_ranges_prunes() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "apple", "red");
        put(&mut store, LogIndex(2), "zebra", "striped");
        let (lo, _) = KeyRange::full().split_at(b"m").unwrap();
        store.retain_ranges(&RangeSet::from(lo));
        assert_eq!(store.len(), 1);
        assert!(store.get(b"zebra").is_none());
    }

    #[test]
    fn data_size_counts_bytes() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "abc", "wxyz");
        assert_eq!(store.data_size(), 7);
    }

    #[test]
    fn apply_batch_matches_sequential_apply() {
        use recraft_core::StateMachine as _;
        let cmds: Vec<Bytes> = vec![
            KvCmd::Put {
                key: b"a".to_vec(),
                value: Bytes::from_static(b"1"),
            }
            .encode(),
            KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 7,
            }
            .encode(),
            Bytes::from_static(b"\xFF\xFF"), // malformed still consumes a slot
            KvCmd::Delete {
                key: b"a".to_vec(),
                nonce: 8,
            }
            .encode(),
            KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 9,
            }
            .encode(),
        ];
        let mut seq = KvStore::new();
        let seq_resps: Vec<Bytes> = cmds
            .iter()
            .enumerate()
            .map(|(i, c)| seq.apply(LogIndex(i as u64 + 1), c))
            .collect();
        let mut batched = KvStore::new();
        let entries: Vec<(LogIndex, Bytes)> = cmds
            .iter()
            .enumerate()
            .map(|(i, c)| (LogIndex(i as u64 + 1), c.clone()))
            .collect();
        let batch_resps = batched.apply_batch(&entries);
        assert_eq!(seq_resps, batch_resps, "byte-identical responses");
        assert_eq!(seq, batched, "identical end state");
        assert_eq!(batched.revision(), cmds.len() as u64);
    }

    #[test]
    fn malformed_command_is_deterministic() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        let junk = Bytes::from_static(b"\xFF\xFF");
        let ra = a.apply(LogIndex(1), &junk);
        let rb = b.apply(LogIndex(1), &junk);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }
}
