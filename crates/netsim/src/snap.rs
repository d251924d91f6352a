//! Binary snapshot codec for the simulate-once artifact cache.
//!
//! The paper's pipeline is one observation campaign feeding many analyses;
//! this module provides the wire format that lets the reproduction do the
//! same. A simulation's captured state (interned event table, telescope
//! counters, reputation labels, …) is encoded with [`SnapWriter`], sealed
//! into a self-verifying container by [`seal`], and written under
//! `out/.cache/`. Later runs [`unseal`] and decode with [`SnapReader`]
//! instead of re-simulating.
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

use crate::sha256::sha256;

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

/// Append-only encoder for the snapshot payload.
///
/// Symmetric with [`SnapReader`]: every `put_*` here has a matching
/// `get_*` there, and a round trip reproduces the values exactly.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Encoded payload size so far, in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a byte string: `u64` length prefix, then the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
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

/// Wrap an encoded payload in the self-verifying container: magic,
/// format version, length, payload, SHA-256 trailer.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len() + 32);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&sha256(payload));
    out
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
        assert_eq!(unseal(&sealed[..sealed.len() - 1]), Err(SnapError::Truncated));
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
}
