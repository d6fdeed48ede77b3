//! Shared crc-framed file helpers.
//!
//! One record format serves every durable artifact in the workspace: the
//! WAL's segment records (every operation on the log, the hard state and
//! the compaction base included), its `snapshot.bin`, and the `DurableKv`
//! state machine's manifest and segment files in `recraft-kv`. A record is
//! `[u32 len][u32 crc32][payload]`; whole files that hold exactly one
//! record are replaced atomically with write-tmp + rename.

use bytes::Bytes;
use recraft_types::{Error, Result};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;

/// Upper bound on a single framed record, guarding recovery against insane
/// lengths from corrupt frames.
pub const MAX_RECORD_LEN: usize = 1 << 28;

/// The `[u32 len][u32 crc32]` header that precedes `payload` in a record.
#[must_use]
pub fn frame_header(payload: &[u8]) -> [u8; 8] {
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    out[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    out
}

/// Parses the record starting at `pos`; `None` on a torn or corrupt frame.
#[must_use]
pub fn next_record(raw: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if pos + 8 > raw.len() {
        return None;
    }
    let len = u32::from_be_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(raw[pos + 4..pos + 8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN || pos + 8 + len > raw.len() {
        return None;
    }
    let payload = &raw[pos + 8..pos + 8 + len];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, pos + 8 + len))
}

/// Reads a crc-framed file, returning its payload if intact. Trailing bytes
/// after the frame fail the read (single-record files are replaced whole).
#[must_use]
pub fn read_framed(path: &Path) -> Option<Bytes> {
    let (raw, end) = read_leading_record(path)?;
    (end == raw.len()).then(|| raw.slice(8..))
}

/// Reads a crc-framed file whose tail may be torn by a power cut: the
/// leading frame is returned if intact, and any trailing garbage past it is
/// ignored (the write that was striking the platter at the instant of
/// death). `None` when not even the leading frame survives.
#[must_use]
pub fn read_framed_prefix(path: &Path) -> Option<Bytes> {
    let (raw, end) = read_leading_record(path)?;
    Some(raw.slice(8..end))
}

/// Reads the whole file and validates the record at its start; returns the
/// buffer read and the record's end in it, so the payload handed out is a
/// window of that buffer and not a copy.
fn read_leading_record(path: &Path) -> Option<(Bytes, usize)> {
    let mut raw = Vec::new();
    File::open(path).ok()?.read_to_end(&mut raw).ok()?;
    let (_, end) = next_record(&raw, 0)?;
    Some((Bytes::from(raw), end))
}

/// Atomically replaces `path` with a crc-framed `payload` (write-tmp +
/// rename, syncing file and directory when `fsync` is set).
///
/// # Errors
/// Returns [`Error::Storage`] on I/O failure.
pub fn write_framed(path: &Path, payload: &[u8], fsync: bool) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp).map_err(|e| io_err("create tmp", &tmp, &e))?;
        // Header, then the payload from where it already is: an image is
        // megabytes, and one buffer would copy it to put eight bytes in front.
        file.write_all(&frame_header(payload))
            .and_then(|()| file.write_all(payload))
            .map_err(|e| io_err("write tmp", &tmp, &e))?;
        if fsync {
            file.sync_data().map_err(|e| io_err("sync tmp", &tmp, &e))?;
        }
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename tmp", path, &e))?;
    if fsync {
        if let Some(parent) = path.parent() {
            sync_dir(parent);
        }
    }
    Ok(())
}

/// Best-effort directory fsync (metadata durability after create/rename).
pub fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Formats an I/O failure as a storage error with the path and operation.
#[must_use]
pub fn io_err(what: &str, path: &Path, e: &std::io::Error) -> Error {
    Error::Storage(format!("{what} {}: {e}", path.display()))
}

// ---- CRC-32 (IEEE 802.3) ----------------------------------------------------

/// Slicing-by-16 tables for the reflected polynomial `0xEDB88320`:
/// `TABLES[0]` is the classic byte-at-a-time table, and `TABLES[k][b]` is
/// the checksum state after byte `b` followed by `k` zero bytes — so
/// sixteen input bytes fold into the state with sixteen independent
/// lookups instead of a chain of sixteen dependent ones.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// The IEEE CRC-32 of `data` (the checksum guarding every framed record).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(16);
    for w in &mut words {
        let a = u64::from_le_bytes(w[..8].try_into().expect("8 bytes")) ^ u64::from(crc);
        let b = u64::from_le_bytes(w[8..].try_into().expect("8 bytes"));
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][((a >> 24) & 0xFF) as usize]
            ^ t[11][((a >> 32) & 0xFF) as usize]
            ^ t[10][((a >> 40) & 0xFF) as usize]
            ^ t[9][((a >> 48) & 0xFF) as usize]
            ^ t[8][(a >> 56) as usize]
            ^ t[7][(b & 0xFF) as usize]
            ^ t[6][((b >> 8) & 0xFF) as usize]
            ^ t[5][((b >> 16) & 0xFF) as usize]
            ^ t[4][((b >> 24) & 0xFF) as usize]
            ^ t[3][((b >> 32) & 0xFF) as usize]
            ^ t[2][((b >> 40) & 0xFF) as usize]
            ^ t[1][((b >> 48) & 0xFF) as usize]
            ^ t[0][(b >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The definition the sliced kernel must equal: one bit at a time.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..96u32).map(|i| (i * 151 + 43) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let window = &data[offset..offset + len];
                assert_eq!(
                    crc32(window),
                    crc32_bitwise(window),
                    "offset {offset}, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn frame_roundtrips_through_next_record() {
        let record = [&frame_header(b"payload")[..], b"payload"].concat();
        let (payload, end) = next_record(&record, 0).unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(end, record.len());
        // A flipped byte fails the checksum.
        let mut bad = record.clone();
        bad[10] ^= 0xFF;
        assert!(next_record(&bad, 0).is_none());
    }

    #[test]
    fn prefix_read_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("recraft-framing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.bin");
        write_framed(&path, b"alpha", false).unwrap();
        // Garbage appended past the frame: a torn in-flight write.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xA5; 13]).unwrap();
        }
        assert!(read_framed(&path).is_none(), "strict read rejects the tail");
        assert_eq!(
            read_framed_prefix(&path).as_deref(),
            Some(b"alpha".as_ref()),
            "prefix read recovers the frame"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
