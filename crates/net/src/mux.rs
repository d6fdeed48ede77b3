//! Multiplexed batch framing: many envelopes per stream, one write per
//! destination per driver round.
//!
//! The plain frame format ([`crate::frame`]) carries one envelope per
//! length prefix — right for a client or admin connection that speaks in
//! single requests. Between *driver workers*, where one round can produce
//! dozens of envelopes for the same destination endpoint (heartbeats,
//! appends, and acks for every node the far worker hosts), per-envelope
//! writes waste a syscall each. A **batch** packs a whole round's worth
//! into one write:
//!
//! ```text
//! MUX_MAGIC (u32 BE) | batch_len (u32 BE) | count (u32 BE)
//!   | count × ( env_len (u32 BE) | encoded Envelope )
//! ```
//!
//! Each of the `count` units is a plain frame, written by the same
//! [`put_frame`] and read by the same `take_envelope` as one sent alone:
//! [`put_batch_prefix`] is a twelve-byte header and up to `count` calls of
//! the former into one buffer, stopping before the body would pass the cap,
//! with `batch_len` and `count` back-patched once the body is there.
//! `batch_len` covers everything after itself (count word included) and is
//! bounded by [`MAX_FRAME_BYTES`], so a corrupt peer cannot force an
//! unbounded allocation. [`MUX_MAGIC`] is deliberately larger than
//! `MAX_FRAME_BYTES`, so the first four bytes of a connection always
//! disambiguate: a value above the frame cap that is not the magic is
//! garbage on either protocol. One listener therefore serves both wire
//! dialects with no handshake — clients keep sending plain frames, worker
//! peers send batches — and [`MuxReader`] decodes the interleaving
//! incrementally from nonblocking reads. The reader consumes its buffer
//! through a cursor and compacts once per [`MuxReader::feed`], so draining a
//! read that holds many frames moves each byte once, not once per frame.
//!
//! Truncated, oversized, and corrupted input surfaces as [`Error::Codec`],
//! never a panic; the property tests drive random chunkings and
//! corruptions through the reader.

use crate::frame::{frame_len, put_frame, take_envelope, MAX_FRAME_BYTES};
use crate::message::Envelope;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use recraft_types::{Error, Result};
use std::collections::VecDeque;

/// Marker distinguishing a batch from a plain frame. Any valid plain frame
/// starts with a length `<= MAX_FRAME_BYTES`; this sits far above the cap,
/// so the two prefixes can never collide.
pub const MUX_MAGIC: u32 = 0xF1EE_CAB1;

const _: () = assert!(MUX_MAGIC as usize > MAX_FRAME_BYTES);

/// Appends `envs` to `buf` as one batch, encoding in place; on error `buf`
/// is left as it was.
///
/// # Errors
/// Returns [`Error::Codec`] when the batch is empty or its encoded size
/// exceeds [`MAX_FRAME_BYTES`] (cut it with [`put_batch_prefix`] instead).
pub fn put_batch(buf: &mut BytesMut, envs: &[Envelope]) -> Result<()> {
    if envs.is_empty() {
        return Err(Error::Codec("empty mux batch".into()));
    }
    let at = buf.len();
    if put_batch_prefix(buf, envs) < envs.len() {
        buf.truncate(at);
        return Err(Error::Codec(format!(
            "mux batch of {} envelopes encodes past the cap {MAX_FRAME_BYTES}",
            envs.len()
        )));
    }
    Ok(())
}

/// Appends to `buf` one batch of the longest prefix of `envs` that encodes
/// within [`MAX_FRAME_BYTES`] and returns that prefix's length — 0, with
/// `buf` as it was, when `envs` is empty or its first envelope alone is
/// past the cap (no batch can carry it).
pub fn put_batch_prefix(buf: &mut BytesMut, envs: &[Envelope]) -> usize {
    let at = buf.len();
    buf.put_u32(MUX_MAGIC);
    buf.put_u32(0);
    buf.put_u32(0);
    let mut count = 0u32;
    for env in envs {
        let end = buf.len();
        put_frame(buf, env);
        if buf.len() - at - 8 > MAX_FRAME_BYTES {
            buf.truncate(end);
            break;
        }
        count += 1;
    }
    if count == 0 {
        buf.truncate(at);
        return 0;
    }
    let body_len = (buf.len() - at - 8) as u32;
    buf[at + 4..at + 8].copy_from_slice(&body_len.to_be_bytes());
    buf[at + 8..at + 12].copy_from_slice(&count.to_be_bytes());
    count as usize
}

/// Encodes `envs` as one batch.
///
/// # Errors
/// As [`put_batch`].
pub fn encode_batch(envs: &[Envelope]) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    put_batch(&mut buf, envs)?;
    Ok(buf.freeze())
}

/// Unpacks a complete batch body — what [`put_batch`] wrote behind
/// `batch_len` — into `ready`.
fn unpack_batch(mut body: Bytes, ready: &mut VecDeque<Envelope>) -> Result<()> {
    if body.remaining() < 4 {
        return Err(Error::Codec("mux batch too short for its count".into()));
    }
    let count = body.get_u32() as usize;
    if count == 0 {
        return Err(Error::Codec("mux batch with zero envelopes".into()));
    }
    for i in 0..count {
        if body.remaining() < 4 {
            return Err(Error::Codec(format!(
                "mux batch truncated at envelope {i} of {count}"
            )));
        }
        let len = body.get_u32() as usize;
        ready.push_back(take_envelope(&mut body, len)?);
    }
    if body.remaining() != 0 {
        return Err(Error::Codec(format!(
            "mux batch has {} trailing bytes after {count} envelopes",
            body.remaining()
        )));
    }
    Ok(())
}

/// Incremental decoder for a stream interleaving plain frames and batches.
///
/// Feed whatever a (possibly nonblocking) read produced with
/// [`MuxReader::feed`], then drain complete envelopes with
/// [`MuxReader::next_envelope`] — `Ok(None)` means "need more bytes", an
/// error means the stream is corrupt and the connection should be dropped.
#[derive(Debug, Default)]
pub struct MuxReader {
    buf: Vec<u8>,
    /// `buf[..consumed]` has been decoded; the next `feed` drops it.
    consumed: usize,
    /// Envelopes decoded from a completed batch, drained before the buffer
    /// is parsed further.
    ready: VecDeque<Envelope>,
}

impl MuxReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> MuxReader {
        MuxReader::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decodable into a complete unit.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// The next complete envelope, if the buffer holds one.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on an oversized prefix, a malformed batch,
    /// or an envelope that fails to decode. The reader is then poisoned in
    /// the sense that its buffer no longer has a trustworthy framing
    /// boundary — drop the connection.
    pub fn next_envelope(&mut self) -> Result<Option<Envelope>> {
        if let Some(env) = self.ready.pop_front() {
            return Ok(Some(env));
        }
        let Some(prefix) = self.word_at(0) else {
            return Ok(None);
        };
        if prefix != MUX_MAGIC {
            let len = frame_len(prefix)?;
            let Some(mut frame) = self.take_unit(4, len) else {
                return Ok(None);
            };
            return take_envelope(&mut frame, len).map(Some);
        }
        let Some(body_len) = self.word_at(4) else {
            return Ok(None);
        };
        let body_len = body_len as usize;
        if body_len > MAX_FRAME_BYTES {
            return Err(Error::Codec(format!(
                "oversized mux batch: {body_len} bytes exceeds cap {MAX_FRAME_BYTES}"
            )));
        }
        let Some(body) = self.take_unit(8, body_len) else {
            return Ok(None);
        };
        unpack_batch(body, &mut self.ready)?;
        Ok(self.ready.pop_front())
    }

    /// The big-endian word `at` bytes past the cursor, if buffered.
    fn word_at(&self, at: usize) -> Option<u32> {
        let word = self.buf.get(self.consumed + at..self.consumed + at + 4)?;
        Some(u32::from_be_bytes(word.try_into().expect("four bytes")))
    }

    /// Consumes a `header`-byte prefix and the `len`-byte unit behind it,
    /// once the whole unit is buffered, and returns the unit.
    fn take_unit(&mut self, header: usize, len: usize) -> Option<Bytes> {
        let start = self.consumed + header;
        let unit = Bytes::copy_from_slice(self.buf.get(start..start + len)?);
        self.consumed = start + len;
        Some(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::message::Message;
    use recraft_types::{LogIndex, NodeId};

    fn env(from: u64, to: u64, n: u64) -> Envelope {
        Envelope::new(
            NodeId(from),
            NodeId(to),
            Message::PullReq {
                commit_index: LogIndex(n),
            },
        )
    }

    #[test]
    fn batch_roundtrip_interleaved_with_plain_frames() {
        let batch: Vec<Envelope> = (0..5).map(|i| env(1, 2 + i, 10 + i)).collect();
        let single = env(7, 8, 99);
        let mut wire = BytesMut::new();
        wire.put_slice(&encode_batch(&batch).unwrap());
        wire.put_slice(&encode_frame(&single));
        wire.put_slice(&encode_batch(&batch[..2]).unwrap());

        let mut reader = MuxReader::new();
        reader.feed(&wire);
        let mut got = Vec::new();
        while let Some(e) = reader.next_envelope().unwrap() {
            got.push(e);
        }
        let mut want = batch.clone();
        want.push(single);
        want.extend_from_slice(&batch[..2]);
        assert_eq!(got, want);
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn byte_at_a_time_feed_decodes_everything() {
        let batch: Vec<Envelope> = (0..3).map(|i| env(1, 2, i)).collect();
        let wire = encode_batch(&batch).unwrap();
        let mut reader = MuxReader::new();
        let mut got = Vec::new();
        for b in wire.iter() {
            reader.feed(&[*b]);
            while let Some(e) = reader.next_envelope().unwrap() {
                got.push(e);
            }
        }
        assert_eq!(got, batch);
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(encode_batch(&[]).is_err());
    }

    #[test]
    fn oversized_and_corrupt_prefixes_error() {
        let mut reader = MuxReader::new();
        // Above the frame cap but not the magic: garbage on both dialects.
        reader.feed(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(reader.next_envelope().is_err());

        let mut reader = MuxReader::new();
        reader.feed(&MUX_MAGIC.to_be_bytes());
        reader.feed(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(reader.next_envelope().is_err());
    }

    #[test]
    fn truncated_batch_waits_then_corrupt_count_errors() {
        let batch = vec![env(1, 2, 3)];
        let wire = encode_batch(&batch).unwrap();
        let mut reader = MuxReader::new();
        reader.feed(&wire[..wire.len() - 1]);
        assert!(reader.next_envelope().unwrap().is_none(), "incomplete");
        reader.feed(&wire[wire.len() - 1..]);
        assert_eq!(reader.next_envelope().unwrap(), Some(batch[0].clone()));

        // A batch whose declared count exceeds its contents is corrupt.
        let mut bad = BytesMut::new();
        bad.put_u32(MUX_MAGIC);
        bad.put_u32(4);
        bad.put_u32(3); // claims 3 envelopes, carries none
        let mut reader = MuxReader::new();
        reader.feed(&bad);
        assert!(reader.next_envelope().is_err());
    }
}
