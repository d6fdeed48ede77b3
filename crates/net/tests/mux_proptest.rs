//! Property tests for the mux batch dialect: interleavings of batches and
//! plain frames — fed to the reader in arbitrary chunk sizes — decode to
//! exactly the original envelope sequence, and truncated or corrupted
//! streams surface errors without panicking.

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use recraft_net::frame::{encode_frame, MAX_FRAME_BYTES};
use recraft_net::mux::{encode_batch, MuxReader, MUX_MAGIC};
use recraft_net::{Envelope, Message, PullHint};
use recraft_types::{ClusterId, EpochTerm, LogIndex, NodeId};

/// A small mixed bag of message shapes — fixed-width, optional-field, and
/// variable-length — enough to vary envelope sizes without re-deriving the
/// whole codec sweep (that is `frame_proptest`'s job).
fn sample_message(r: u64) -> Message {
    match r % 4 {
        0 => Message::PullReq {
            commit_index: LogIndex(r),
        },
        1 => Message::RequestVote {
            cluster: ClusterId(1 + r % 5),
            eterm: EpochTerm::new((r % 3) as u32, (r % 9 + 1) as u32),
            last_index: LogIndex(r % 100),
            last_eterm: EpochTerm::new(0, (r % 9) as u32),
        },
        2 => Message::VoteResp {
            cluster: ClusterId(1 + r % 5),
            eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
            granted: r.is_multiple_of(2),
            pull: r.is_multiple_of(3).then_some(PullHint {
                commit_index: LogIndex(r % 60),
                epoch: (r % 4) as u32,
            }),
        },
        _ => Message::NotifyCommit {
            cluster: ClusterId(1 + r % 5),
            cnew_index: LogIndex(r % 1000),
            cnew_eterm: EpochTerm::new(1, (r % 9 + 1) as u32),
        },
    }
}

/// An envelope whose source, destination, and message all derive from `r` —
/// a multiplexed stream carries many (from, to) pairs on one connection.
fn sample_envelope(r: u64) -> Envelope {
    Envelope::new(
        NodeId(1 + r % 7),
        NodeId(1 + (r / 7) % 9),
        sample_message(r),
    )
}

/// One unit on the wire: a batch of `1..=6` envelopes or a single plain
/// frame, mirroring worker-pair and client traffic sharing a listener.
fn encode_units(seeds: &[(bool, u64)]) -> (Vec<u8>, Vec<Envelope>) {
    let mut wire = Vec::new();
    let mut want = Vec::new();
    for &(as_batch, r) in seeds {
        if as_batch {
            let envs: Vec<Envelope> = (0..1 + r % 6)
                .map(|i| sample_envelope(r ^ (i << 32)))
                .collect();
            wire.extend_from_slice(&encode_batch(&envs).unwrap());
            want.extend(envs);
        } else {
            let env = sample_envelope(r);
            wire.extend_from_slice(&encode_frame(&env));
            want.push(env);
        }
    }
    (wire, want)
}

proptest! {
    /// Any interleaving of batches and plain frames, chunked arbitrarily
    /// (including sub-header slivers), decodes to the original sequence.
    #[test]
    fn interleaved_batches_decode_across_any_chunking(
        seeds in prop::collection::vec((any::<bool>(), any::<u64>()), 1..12),
        chunk in 1usize..257,
    ) {
        let (wire, want) = encode_units(&seeds);
        let mut reader = MuxReader::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.feed(piece);
            while let Some(env) = reader
                .next_envelope()
                .map_err(|e| TestCaseError::fail(e.to_string()))?
            {
                got.push(env);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(reader.pending_bytes(), 0);
    }

    /// One read holding 256 plain frames (a client connection's backlog)
    /// drains in order with nothing pending, and the reader takes the next
    /// feed — a frame split across the two — as if nothing had been there:
    /// the consumed prefix is dropped once, by that feed, not per envelope.
    #[test]
    fn one_feed_of_256_frames_drains_in_order(base: u64, split in 1usize..12) {
        let want: Vec<Envelope> = (0..257).map(|i| sample_envelope(base ^ i)).collect();
        let mut wire = Vec::new();
        for env in &want[..256] {
            wire.extend_from_slice(&encode_frame(env));
        }
        let tail = encode_frame(&want[256]);
        wire.extend_from_slice(&tail[..split]);
        let mut reader = MuxReader::new();
        reader.feed(&wire);
        let mut got = Vec::new();
        while let Some(env) = reader
            .next_envelope()
            .map_err(|e| TestCaseError::fail(e.to_string()))?
        {
            got.push(env);
        }
        prop_assert_eq!(got.len(), 256);
        prop_assert_eq!(reader.pending_bytes(), split);
        reader.feed(&tail[split..]);
        got.extend(reader.next_envelope().map_err(|e| TestCaseError::fail(e.to_string()))?);
        prop_assert_eq!(got, want);
        prop_assert_eq!(reader.pending_bytes(), 0);
    }

    /// A truncated stream never panics: the reader either waits for more
    /// bytes or (if the cut landed mid-unit in a way that corrupts framing)
    /// errors — and everything before the cut still decodes.
    #[test]
    fn truncated_streams_never_panic(
        seeds in prop::collection::vec((any::<bool>(), any::<u64>()), 1..8),
        frac: u64,
    ) {
        let (wire, want) = encode_units(&seeds);
        let cut = (frac % wire.len() as u64) as usize;
        let mut reader = MuxReader::new();
        reader.feed(&wire[..cut]);
        let mut got = Vec::new();
        loop {
            match reader.next_envelope() {
                Ok(Some(env)) => got.push(env),
                Ok(None) => break,
                Err(_) => break, // a cut is indistinguishable from waiting
            }
        }
        prop_assert!(got.len() <= want.len());
        prop_assert_eq!(&got[..], &want[..got.len()]);
    }

    /// A single flipped bit anywhere in the stream never panics the reader,
    /// and decoding terminates (no infinite no-progress loop).
    #[test]
    fn corrupted_streams_never_panic(
        seeds in prop::collection::vec((any::<bool>(), any::<u64>()), 1..8),
        at: u64,
        bit: u64,
    ) {
        let (mut wire, _) = encode_units(&seeds);
        let at = (at % wire.len() as u64) as usize;
        wire[at] ^= 1 << (bit % 8);
        let mut reader = MuxReader::new();
        reader.feed(&wire);
        for _ in 0..wire.len() + 1 {
            match reader.next_envelope() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Pure garbage never panics.
    #[test]
    fn garbage_never_panics(data: Vec<u8>) {
        let mut reader = MuxReader::new();
        reader.feed(&data);
        for _ in 0..data.len() + 1 {
            match reader.next_envelope() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A batch header claiming more than the frame cap is rejected without
    /// buffering the claimed length.
    #[test]
    fn oversized_batch_headers_rejected(r: u64) {
        let span = u32::MAX as u64 - MAX_FRAME_BYTES as u64;
        let len = MAX_FRAME_BYTES as u64 + 1 + r % span;
        let mut framed = BytesMut::new();
        framed.put_u32(MUX_MAGIC);
        framed.put_u32(len as u32);
        framed.put_slice(b"short");
        let mut reader = MuxReader::new();
        reader.feed(&framed);
        prop_assert!(reader.next_envelope().is_err());
    }
}

/// Deterministic check that batch encoding is what the reader expects even
/// at the single-envelope edge, and that batches and frames cross-decode in
/// either order on one stream.
#[test]
fn single_envelope_batch_and_frame_cross_decode() {
    let a = sample_envelope(1);
    let b = sample_envelope(2);
    let mut wire = Vec::new();
    wire.extend_from_slice(&encode_batch(std::slice::from_ref(&a)).unwrap());
    wire.extend_from_slice(&encode_frame(&b));
    wire.extend_from_slice(&encode_batch(std::slice::from_ref(&b)).unwrap());
    let mut reader = MuxReader::new();
    reader.feed(&wire);
    assert_eq!(reader.next_envelope().unwrap(), Some(a));
    assert_eq!(reader.next_envelope().unwrap(), Some(b.clone()));
    assert_eq!(reader.next_envelope().unwrap(), Some(b));
    assert_eq!(reader.next_envelope().unwrap(), None);
}
