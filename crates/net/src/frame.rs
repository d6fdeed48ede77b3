//! Length-prefixed framing for envelopes on a byte stream.
//!
//! A frame is a big-endian `u32` payload length followed by the payload —
//! one encoded [`Envelope`]. There is one writer and one reader for that
//! unit, and every way of moving envelopes is built from them:
//!
//! * [`put_frame`] appends a frame to a buffer: it reserves the length word,
//!   encodes the envelope in place behind it, and back-patches the length,
//!   so the payload is written once, where it will be sent from.
//!   [`encode_frame`] and [`write_frame`] are `put_frame` into a fresh
//!   buffer; a mux batch ([`crate::mux`]) is a header and `count` calls of
//!   it; the driver's reply path calls it on the connection's own outbound
//!   buffer.
//! * `frame_len` is where a length word is believed: the one comparison
//!   with [`MAX_FRAME_BYTES`], made *before* anyone waits for or allocates
//!   the body, so a corrupt or hostile peer cannot make a reader buffer
//!   unbounded memory. `take_envelope` then takes exactly that many bytes
//!   and holds the rest of what a reader owes its input — the body is all
//!   there, it decodes, and nothing is left over. [`decode_frame`],
//!   [`read_frame`] and both dialects of [`crate::mux::MuxReader`] are these
//!   two calls around their own way of getting bytes.
//!
//! Oversized, truncated and trailing-garbage frames surface as
//! [`Error::Codec`], never as a panic.

use crate::message::Envelope;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use recraft_types::codec::{Decode, Encode};
use recraft_types::{Error, Result};
use std::io::{Read, Write};

/// Hard upper bound on a frame payload. Generously above anything the
/// protocol produces (append batches cap at ~1 MiB of payload, snapshot
/// frames at one bounded chunk) while still rejecting garbage prefixes
/// before allocating.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Appends `env` to `buf` as one length-prefixed frame, encoding in place.
///
/// # Panics
/// Panics if the envelope encodes to more than `u32::MAX` bytes.
pub fn put_frame(buf: &mut BytesMut, env: &Envelope) {
    let at = buf.len();
    buf.put_u32(0);
    env.encode(buf);
    let len = u32::try_from(buf.len() - at - 4).expect("envelope exceeds u32 frame length");
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Encodes `env` as one length-prefixed frame.
#[must_use]
pub fn encode_frame(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::new();
    put_frame(&mut buf, env);
    buf.freeze()
}

/// Validates a frame's length word against [`MAX_FRAME_BYTES`].
///
/// # Errors
/// Returns [`Error::Codec`] when it claims more than the cap.
pub(crate) fn frame_len(word: u32) -> Result<usize> {
    let len = word as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::Codec(format!(
            "oversized frame: {len} bytes exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    Ok(len)
}

/// Takes the next `len` bytes of `buf` as exactly one envelope.
///
/// # Errors
/// Returns [`Error::Codec`] when `buf` holds fewer than `len` bytes, when
/// they do not decode, or when the envelope ends before they do.
pub(crate) fn take_envelope(buf: &mut Bytes, len: usize) -> Result<Envelope> {
    if buf.remaining() < len {
        return Err(Error::Codec(format!(
            "truncated frame body: need {len}, have {}",
            buf.remaining()
        )));
    }
    let mut payload = buf.copy_to_bytes(len);
    let env = Envelope::decode(&mut payload)?;
    if payload.remaining() != 0 {
        return Err(Error::Codec(format!(
            "frame has {} trailing bytes after envelope",
            payload.remaining()
        )));
    }
    Ok(env)
}

/// Decodes one frame from the front of `buf`, consuming it.
///
/// # Errors
/// Returns [`Error::Codec`] when the prefix claims more than
/// [`MAX_FRAME_BYTES`], when the payload is truncated, or when the payload
/// does not decode to exactly one envelope.
pub fn decode_frame(buf: &mut Bytes) -> Result<Envelope> {
    if buf.remaining() < 4 {
        return Err(Error::Codec(format!(
            "truncated frame header: need 4, have {}",
            buf.remaining()
        )));
    }
    let len = frame_len(buf.get_u32())?;
    take_envelope(buf, len)
}

/// Writes one frame to a blocking stream.
///
/// # Errors
/// Returns [`Error::Storage`] on stream I/O failure.
pub fn write_frame<W: Write>(w: &mut W, env: &Envelope) -> Result<()> {
    let mut frame = BytesMut::new();
    put_frame(&mut frame, env);
    w.write_all(&frame)
        .map_err(|e| Error::Storage(format!("frame write: {e}")))
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF before any header
/// byte). EOF in the middle of a frame, an oversized prefix, or a payload
/// that fails to decode all surface as errors.
///
/// # Errors
/// Returns [`Error::Storage`] on stream I/O failure and [`Error::Codec`]
/// on malformed frames.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Envelope>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::Codec(format!(
                    "stream ended inside frame header ({filled}/4 bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Storage(format!("frame header read: {e}"))),
        }
    }
    let len = frame_len(u32::from_be_bytes(header))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Codec(format!("stream ended inside {len}-byte frame body"))
        } else {
            Error::Storage(format!("frame body read: {e}"))
        }
    })?;
    take_envelope(&mut Bytes::from(payload), len).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use recraft_types::{LogIndex, NodeId};

    fn sample() -> Envelope {
        Envelope::new(
            NodeId(1),
            NodeId(2),
            Message::PullReq {
                commit_index: LogIndex(42),
            },
        )
    }

    #[test]
    fn frame_roundtrip_bytes_and_stream() {
        let env = sample();
        let mut bytes = encode_frame(&env);
        assert_eq!(decode_frame(&mut bytes).unwrap(), env);
        assert_eq!(bytes.remaining(), 0);

        let mut wire = Vec::new();
        write_frame(&mut wire, &env).unwrap();
        write_frame(&mut wire, &env).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(env.clone()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(env));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let env = sample();
        let full = encode_frame(&env);
        for cut in 0..full.len() {
            let mut short = full.slice(..cut);
            assert!(decode_frame(&mut short).is_err(), "cut at {cut}");
            let mut cursor = std::io::Cursor::new(full.slice(..cut).to_vec());
            match cut {
                0 => assert!(matches!(read_frame(&mut cursor), Ok(None))),
                _ => assert!(read_frame(&mut cursor).is_err(), "stream cut at {cut}"),
            }
        }

        let mut oversized = BytesMut::new();
        oversized.put_u32(u32::MAX);
        oversized.put_slice(b"junk");
        let mut bytes = oversized.freeze();
        assert!(decode_frame(&mut bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A frame whose length word covers two bytes more than its envelope.
        let mut framed = BytesMut::new();
        put_frame(&mut framed, &sample());
        let len = (framed.len() - 4 + 2) as u32;
        framed[..4].copy_from_slice(&len.to_be_bytes());
        framed.put_slice(b"xx");
        for cut in [framed.len(), framed.len() - 2] {
            let mut bytes = Bytes::copy_from_slice(&framed[..cut]);
            assert!(
                decode_frame(&mut bytes).is_err(),
                "{cut} of {}",
                framed.len()
            );
        }
    }

    #[test]
    fn put_frame_appends_behind_what_the_buffer_holds() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"unsent");
        put_frame(&mut buf, &sample());
        put_frame(&mut buf, &sample());
        assert_eq!(&buf[..6], b"unsent");
        let mut frames = Bytes::copy_from_slice(&buf[6..]);
        assert_eq!(
            frames,
            [encode_frame(&sample()), encode_frame(&sample())].concat()
        );
        assert_eq!(decode_frame(&mut frames).unwrap(), sample());
        assert_eq!(decode_frame(&mut frames).unwrap(), sample());
        assert_eq!(frames.remaining(), 0);
    }
}
