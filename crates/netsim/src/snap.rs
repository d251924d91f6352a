//! Binary snapshot codec for the simulate-once artifact cache.
//!
//! The paper's pipeline is one observation campaign feeding many analyses;
//! this module provides the wire format that lets the reproduction do the
//! same. A simulation's captured state (interned event table, telescope
//! counters, reputation labels, …) is encoded with [`SnapWriter`] and
//! sealed into a self-verifying container under `out/.cache/`. Later runs
//! [`unseal`] and decode with [`SnapReader`] instead of re-simulating.
//!
//! # Container format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CWSNAP\x00\x01"
//! 8       4     format version (u32 LE) — bump on any layout change
//! 12      8     payload length N (u64 LE)
//! 20      N     payload (SnapWriter-encoded body)
//! 20+N    32    SHA-256 of the payload bytes
//! ```
//!
//! [`seal_into`] writes a container in one pass: the header with a zero
//! length, then the payload [`CHUNK`] by chunk as the encoder fills it,
//! each chunk hashed on its way out, then the digest, and one seek back
//! fills in the length. Neither the payload nor the container is ever
//! held whole. [`seal`] wraps a payload already in memory (one
//! [`SnapWriter::new`] encoded) and is the reference the streamed
//! container is tested against: both give the same bytes.
//!
//! [`unseal`] fails closed: a bad magic, unknown version, truncated body,
//! or digest mismatch all return a [`SnapError`] and the caller silently
//! falls back to re-simulating. Corruption can therefore cost time but
//! never correctness.
//!
//! # Encoding rules
//!
//! All integers are little-endian and fixed-width. Collections are
//! length-prefixed with a `u64` count. `f64` travels as its IEEE-754 bit
//! pattern. There is no alignment, padding, or backward compatibility:
//! the format version is part of the cache key, so readers only ever see
//! bytes their own writer produced.
//!
//! A column of fixed-width values (an event table's times, addresses,
//! ASNs and ports) is written value by value but read in bulk:
//! [`SnapReader::get_column`] bounds-checks the whole `n × width` run once
//! and decodes it with `from_le_bytes`, instead of one checked read per
//! value. Both readers see the same bytes, so reading in bulk is not a
//! format change: the format is version 2 either way.
//!
//! Counts come from disk, so they are checked before anything is
//! allocated for them: [`SnapReader::get_count`] rejects a count larger
//! than the bytes left, and [`SnapReader::get_column`] one larger than the
//! bytes left divided by the value width.

use crate::sha256::{sha256, Sha256};
use std::io::{self, Seek, SeekFrom, Write};

/// Leading bytes of every sealed snapshot container.
pub const MAGIC: [u8; 8] = *b"CWSNAP\x00\x01";

/// Current snapshot format version. Bump whenever any encoded layout
/// changes; stale cache entries then miss on the version check (and on
/// the content-addressed filename) and are re-simulated.
///
/// Version history: 1 = initial sealed-container layout; 2 = scenario
/// config carries a serialized [`crate::fault::FaultPlan`].
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot failed to decode.
///
/// Every variant is a cache *miss*, not a hard error: the caller discards
/// the snapshot and re-simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The container or payload ended before an expected field.
    Truncated,
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The container's format version is not the one this build writes.
    VersionMismatch {
        /// Version found in the container header.
        found: u32,
        /// Version this build expects ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// The payload's SHA-256 does not match the stored trailer digest.
    HashMismatch,
    /// A decoded value is structurally impossible (e.g. a non-UTF-8
    /// string, or a count that contradicts a sibling column).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic bytes missing"),
            SnapError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, expected v{expected}")
            }
            SnapError::HashMismatch => write!(f, "snapshot payload hash mismatch"),
            SnapError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// How many payload bytes the writer of [`seal_into`] gathers before it
/// hashes them and writes them out.
pub const CHUNK: usize = 64 << 10;

/// Append-only encoder for the snapshot payload.
///
/// Symmetric with [`SnapReader`]: every `put_*` here has a matching
/// `get_*` there, and a round trip reproduces the values exactly.
///
/// A writer from [`SnapWriter::new`] keeps the whole payload for
/// [`SnapWriter::into_bytes`]. The one [`seal_into`] lends its encoder
/// passes the payload on each time it has gathered [`CHUNK`] bytes, so it
/// holds at most one chunk and one value. Either way the `put_*` calls
/// cannot fail.
#[derive(Default)]
pub struct SnapWriter<'s> {
    buf: Vec<u8>,
    /// Where a sealing writer passes each chunk; `None` keeps the payload
    /// in `buf`.
    sink: Option<ChunkSink<'s>>,
}

/// What a sealing [`SnapWriter`] hands each full chunk to.
type ChunkSink<'s> = &'s mut dyn FnMut(&[u8]);

impl SnapWriter<'_> {
    /// An empty writer that keeps the payload in memory.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consume the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes, passing them on once they fill a chunk of a
    /// sealing writer.
    fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= CHUNK {
            if let Some(sink) = &mut self.sink {
                sink(&self.buf);
                self.buf.clear();
            }
        }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a byte string: `u64` length prefix, then the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_raw(v);
    }

    /// Append a UTF-8 string (same wire form as [`SnapWriter::put_bytes`]).
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor-based decoder over a snapshot payload.
///
/// Reads fail with [`SnapError::Truncated`] rather than panicking, so a
/// damaged cache file can never take down an analysis run.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the payload has been fully consumed (decoders check this
    /// at the end so trailing garbage is treated as corruption).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` (little-endian).
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32` (little-endian).
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` (little-endian).
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Truncated)?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Malformed("non-UTF-8 string"))
    }

    /// Read a `u64` count and sanity-cap it: a count implying more than
    /// `remaining()` single bytes is corruption, not a huge snapshot. Room
    /// reserved for the `n` items is then bounded by the payload's size.
    pub fn get_count(&mut self) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::Truncated)?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// Read a column of `n` fixed-width `W`-byte values as one
    /// bounds-checked `n × W` slice, yielding each value's bytes in order
    /// (decode them with `from_le_bytes`). Fails with
    /// [`SnapError::Truncated`], before anything is allocated, when
    /// `n × W` overflows or exceeds `remaining()`.
    pub fn get_column<const W: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; W]> + 'a, SnapError> {
        let len = n.checked_mul(W).ok_or(SnapError::Truncated)?;
        Ok(self
            .take(len)?
            .chunks_exact(W)
            .map(|value| value.try_into().expect("chunks_exact yields W-byte chunks")))
    }
}

/// Bytes ahead of the payload: magic, format version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// The container header of a `payload_len`-byte payload.
fn header(payload_len: u64) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..].copy_from_slice(&payload_len.to_le_bytes());
    h
}

/// Wrap an encoded payload in the self-verifying container: magic,
/// format version, length, payload, SHA-256 trailer. The in-memory
/// reference for [`seal_into`], which writes the same bytes.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 32);
    out.extend_from_slice(&header(payload.len() as u64));
    out.extend_from_slice(payload);
    out.extend_from_slice(&sha256(payload));
    out
}

/// Encode a payload with `encode` and seal it into `out`, at its current
/// position, in one pass: the bytes written are [`seal`] of the payload
/// `encode` writes.
///
/// The header goes out with a zero length. `encode` then writes into a
/// [`SnapWriter`] that hashes and writes out every [`CHUNK`] it gathers,
/// the digest follows the last chunk, and one seek back fills in the
/// length, which leaves `out` positioned after the length field. The
/// `put_*` calls cannot fail: the first write error is kept, later chunks
/// are dropped, and the error is returned once `encode` is done. On an
/// error `out` holds a partial container, which the caller discards.
pub fn seal_into<W: Write + Seek>(
    out: &mut W,
    encode: impl FnOnce(&mut SnapWriter<'_>),
) -> io::Result<()> {
    let start = out.stream_position()?;
    out.write_all(&header(0))?;
    let (mut hasher, mut len, mut written) = (Sha256::new(), 0u64, Ok(()));
    let mut pass_on = |chunk: &[u8]| {
        if written.is_ok() {
            hasher.update(chunk);
            len += chunk.len() as u64;
            written = out.write_all(chunk);
        }
    };
    let mut w = SnapWriter {
        buf: Vec::with_capacity(CHUNK + 64),
        sink: Some(&mut pass_on),
    };
    encode(&mut w);
    let SnapWriter {
        buf,
        sink: Some(pass_on),
    } = w
    else {
        return Err(io::Error::other("the encoder replaced its sealing writer"));
    };
    pass_on(&buf);
    written?;
    out.write_all(&hasher.finalize())?;
    out.seek(SeekFrom::Start(start + (HEADER_LEN - 8) as u64))?;
    out.write_all(&len.to_le_bytes())
}

/// Verify a sealed container and return its payload slice.
///
/// Checks, in order: magic bytes, format version, declared length vs
/// actual size (exact — trailing bytes are corruption), and the SHA-256
/// trailer over the payload. Any failure is a [`SnapError`] the caller
/// treats as a cache miss.
pub fn unseal(container: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(container);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let len = usize::try_from(r.get_u64()?).map_err(|_| SnapError::Truncated)?;
    if r.remaining() != len + 32 {
        return Err(SnapError::Truncated);
    }
    let payload = r.take(len)?;
    let stored: [u8; 32] = r.take(32)?.try_into().unwrap();
    if sha256(payload) != stored {
        return Err(SnapError::HashMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.1234567890123);
        w.put_bytes(b"\x00blob\xFF");
        w.put_str("p\u{e5}ssword");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -0.1234567890123);
        assert_eq!(r.get_bytes().unwrap(), b"\x00blob\xFF");
        assert_eq!(r.get_str().unwrap(), "p\u{e5}ssword");
        assert!(r.is_exhausted());
    }

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = SnapReader::new(&bytes).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
        // A length prefix promising more bytes than exist is also truncation.
        let mut w = SnapWriter::new();
        w.put_u64(1_000_000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        // After the count is read, 3 bytes remain: 3 items of at least one
        // byte each can fit, 4 cannot.
        for (count, want) in [(3u64, Ok(3)), (4, Err(SnapError::Truncated))] {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 3]);
            let mut r = SnapReader::new(&bytes);
            assert_eq!(r.get_count(), want, "count {count}");
        }
    }

    #[test]
    fn columns_decode_in_order_and_bound_their_length() {
        let mut w = SnapWriter::new();
        for v in [1u32, 0xDEAD_BEEF, 7] {
            w.put_u32(v);
        }
        w.put_u8(0xAA);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let col: Vec<u32> = r
            .get_column::<4>(3)
            .unwrap()
            .map(u32::from_le_bytes)
            .collect();
        assert_eq!(col, [1, 0xDEAD_BEEF, 7]);
        assert_eq!(r.get_u8(), Ok(0xAA));
        assert!(r.is_exhausted());
        // One value more than remaining() / W, and an n × W that overflows.
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_column::<4>(4), Err(SnapError::Truncated)));
        assert!(matches!(
            r.get_column::<8>(usize::MAX / 4),
            Err(SnapError::Truncated)
        ));
        assert_eq!(r.remaining(), bytes.len());
    }

    #[test]
    fn non_utf8_string_is_malformed() {
        let mut w = SnapWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"the quick brown fox";
        let sealed = seal(payload);
        assert_eq!(unseal(&sealed).unwrap(), payload);
    }

    #[test]
    fn unseal_rejects_bad_magic() {
        let mut sealed = seal(b"data");
        sealed[0] ^= 0x01;
        assert_eq!(unseal(&sealed), Err(SnapError::BadMagic));
    }

    #[test]
    fn unseal_rejects_version_mismatch() {
        let mut sealed = seal(b"data");
        sealed[8] = 0xFE; // low byte of the u32 LE version field
        assert!(matches!(
            unseal(&sealed),
            Err(SnapError::VersionMismatch { found: 0xFE, .. })
        ));
    }

    #[test]
    fn unseal_rejects_truncation() {
        let sealed = seal(b"data");
        assert_eq!(
            unseal(&sealed[..sealed.len() - 1]),
            Err(SnapError::Truncated)
        );
        // Trailing garbage is equally fatal: length must match exactly.
        let mut padded = sealed.clone();
        padded.push(0);
        assert_eq!(unseal(&padded), Err(SnapError::Truncated));
    }

    #[test]
    fn unseal_rejects_payload_corruption() {
        let mut sealed = seal(b"exhibit payload bytes");
        let payload_start = MAGIC.len() + 4 + 8;
        sealed[payload_start + 3] ^= 0x20;
        assert_eq!(unseal(&sealed), Err(SnapError::HashMismatch));
    }

    #[test]
    fn empty_payload_seals_fine() {
        let sealed = seal(b"");
        assert_eq!(unseal(&sealed).unwrap(), b"");
    }

    /// Write exactly `len` payload bytes as values of every width, so chunk
    /// boundaries fall inside values as well as between them.
    fn encode_len(w: &mut SnapWriter<'_>, len: usize) {
        let (mut left, mut i) = (len, 0u64);
        while left > 0 {
            left -= match (i % 5, left) {
                (0, 8..) => {
                    w.put_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    8
                }
                (1, 4..) => {
                    w.put_u32(i as u32 ^ 0xA5A5_5A5A);
                    4
                }
                (2, 2..) => {
                    w.put_u16(i as u16);
                    2
                }
                (3, 20..) => {
                    w.put_str("twelve bytes");
                    20
                }
                _ => {
                    w.put_u8(i as u8);
                    1
                }
            };
            i += 1;
        }
    }

    #[test]
    fn streamed_container_equals_the_sealed_payload() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut payload = SnapWriter::new();
            encode_len(&mut payload, len);
            let payload = payload.into_bytes();
            assert_eq!(payload.len(), len);
            // Behind a prefix, to check the length lands in the container's
            // own header.
            let mut out = io::Cursor::new(b"prefix".to_vec());
            out.seek(SeekFrom::End(0)).unwrap();
            seal_into(&mut out, |w| encode_len(w, len)).unwrap();
            let out = out.into_inner();
            assert_eq!(&out[..6], b"prefix");
            assert!(out[6..] == seal(&payload), "payload of {len} bytes");
        }
    }

    #[test]
    fn streamed_container_returns_the_first_write_error() {
        // Room for the header and not for the first chunk.
        let mut room = [0u8; HEADER_LEN + 100];
        let mut out = io::Cursor::new(&mut room[..]);
        let mut encoded = 0;
        let result = seal_into(&mut out, |w| {
            encode_len(w, 3 * CHUNK + 7);
            encoded = 3 * CHUNK + 7;
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::WriteZero);
        assert_eq!(encoded, 3 * CHUNK + 7, "the puts ran on after the error");
    }

    #[test]
    fn an_encoder_that_replaces_its_sealing_writer_is_an_error() {
        let mut out = io::Cursor::new(Vec::new());
        let result = seal_into(&mut out, |w| *w = SnapWriter::new());
        assert!(result.is_err());
    }
}
