//! Binary snapshot codec for the simulate-once artifact cache.
//!
//! The paper's pipeline is one observation campaign feeding many analyses;
//! this module provides the wire format that lets the reproduction do the
//! same. A simulation's captured state (interned event table, telescope
//! counters, reputation labels, …) is encoded with [`SnapWriter`] and
//! sealed into a self-verifying container under `out/.cache/`. Later runs
//! decode it with [`SnapReader`] instead of re-simulating.
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
//! [`SnapReader::open`] reads a container the same way, in one pass. It
//! checks the header (magic, version, and that the payload length fits
//! the file's size exactly) before anything is decoded, then reads the
//! payload [`CHUNK`] by chunk into one reused buffer as the decoders ask
//! for it, hashing each piece as it arrives; [`SnapReader::finish`]
//! requires the payload to be fully consumed and compares the SHA-256
//! trailer. A caller keeps nothing it decoded until `finish` returns `Ok`,
//! so damaged bytes can reach the decoders but never a result, and every
//! decoder fails on them with a [`SnapError`] instead of panicking.
//! [`unseal`] verifies a container already in memory and returns its
//! payload for [`SnapReader::new`]; the two are the in-memory reference
//! the streamed load is tested against.
//!
//! Every failure — a bad magic, unknown version, truncated body, digest
//! mismatch or malformed value — is a [`SnapError`], and the caller falls
//! back to re-simulating. Corruption can therefore cost time but never
//! correctness.
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
//! [`SnapReader::column`] bounds-checks the whole `n × width` run once and
//! decodes it batch by batch, as many whole values at a time as the
//! reader has buffered. A column of variable-length records (the event
//! table's tagged observations) is read the same way through
//! [`SnapReader::records`]. Reading in bulk is not a format change: the
//! format is version 2 either way.
//!
//! Counts come from disk, so they are checked before anything is
//! allocated for them: [`SnapReader::get_count`] rejects a count larger
//! than the payload bytes left, and [`SnapReader::column`] one larger than
//! the bytes left divided by the value width. The bytes left are known
//! from the checked header, so no allocation exceeds the file's size.

use crate::sha256::{sha256, Sha256};
use std::borrow::Cow;
use std::io::{self, Read, Seek, SeekFrom, Write};

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
    /// The container or payload ended before an expected field, a
    /// container's declared length disagrees with its size, or its bytes
    /// could not be read.
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
/// hashes them and writes them out, and how many a streamed
/// [`SnapReader`] reads and hashes at a time.
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

/// Cursor-based decoder over a snapshot payload, held in memory
/// ([`SnapReader::new`]) or streamed from a sealed container
/// ([`SnapReader::open`]).
///
/// Reads fail with [`SnapError::Truncated`] rather than panicking, so a
/// damaged cache file can never take down an analysis run. One set of
/// decoders serves both sources: a streamed reader refills its buffer
/// when a read runs past it, and an in-memory reader holds the whole
/// payload, so its refills are no-ops.
pub struct SnapReader<'a> {
    /// The payload bytes in hand: the whole payload of an in-memory
    /// reader, or a streamed reader's refill buffer, reused from refill to
    /// refill. Always `pos <= end <= buf.len()`.
    buf: Cow<'a, [u8]>,
    /// The next unread byte of `buf`.
    pos: usize,
    /// The end of the payload bytes in `buf`.
    end: usize,
    /// Where a streamed reader's payload comes from; `None` in memory.
    source: Option<Source<'a>>,
}

/// The input of a streamed [`SnapReader`], positioned after the payload
/// bytes read so far.
struct Source<'a> {
    input: Box<dyn Read + 'a>,
    /// Payload bytes not yet read from `input`.
    unread: usize,
    /// SHA-256 of the payload bytes read so far.
    hasher: Sha256,
}

/// Read exactly `buf.len()` bytes; an input that ends early or fails is
/// a truncated snapshot.
fn read_full(input: &mut dyn Read, buf: &mut [u8]) -> Result<(), SnapError> {
    input.read_exact(buf).map_err(|_| SnapError::Truncated)
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `data`, a payload in memory.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader {
            buf: Cow::Borrowed(data),
            pos: 0,
            end: data.len(),
            source: None,
        }
    }

    /// A reader of the payload of the sealed container that `input`
    /// yields, `size` bytes in all.
    ///
    /// The header is checked first, as [`unseal`] checks it: the magic,
    /// the format version, and that the header, the payload length it
    /// declares and the 32-byte trailer add up to exactly `size` (a
    /// shorter or longer file is [`SnapError::Truncated`]). Nothing is
    /// decoded before that. The payload is then read as the decoders ask
    /// for it, up to [`CHUNK`] bytes at a time, and hashed as it arrives;
    /// [`SnapReader::finish`] checks the digest.
    pub fn open(input: impl Read + 'a, size: u64) -> Result<SnapReader<'a>, SnapError> {
        let mut input: Box<dyn Read + 'a> = Box::new(input);
        let mut head = Vec::with_capacity(HEADER_LEN);
        (&mut input)
            .take(HEADER_LEN as u64)
            .read_to_end(&mut head)
            .map_err(|_| SnapError::Truncated)?;
        let len = read_header(&mut SnapReader::new(&head))?;
        let sealed = (len as u64).checked_add((HEADER_LEN + DIGEST_LEN) as u64);
        if sealed != Some(size) {
            return Err(SnapError::Truncated);
        }
        Ok(SnapReader {
            buf: Cow::Owned(vec![0; CHUNK.min(len)]),
            pos: 0,
            end: 0,
            source: Some(Source {
                input,
                unread: len,
                hasher: Sha256::new(),
            }),
        })
    }

    /// Payload bytes not yet consumed: those buffered plus, for a streamed
    /// reader, those not yet read from its input.
    pub fn remaining(&self) -> usize {
        let unread = self.source.as_ref().map_or(0, |s| s.unread);
        self.end - self.pos + unread
    }

    /// Whether the payload has been fully consumed (decoders check this
    /// at the end so trailing garbage is treated as corruption).
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Finish a read: the payload must be fully consumed, and a streamed
    /// reader then reads the SHA-256 trailer, which must match the digest
    /// of the payload it read, and requires its input to end there. Only
    /// after `finish` returns `Ok` has a streamed payload been verified.
    pub fn finish(self) -> Result<(), SnapError> {
        if !self.is_exhausted() {
            return Err(SnapError::Malformed("payload bytes left undecoded"));
        }
        let Some(mut source) = self.source else {
            return Ok(());
        };
        let mut stored = [0; DIGEST_LEN];
        read_full(&mut source.input, &mut stored)?;
        if source.hasher.finalize() != stored {
            return Err(SnapError::HashMismatch);
        }
        let mut beyond = Vec::new();
        source
            .input
            .take(1)
            .read_to_end(&mut beyond)
            .map_err(|_| SnapError::Truncated)?;
        if !beyond.is_empty() {
            return Err(SnapError::Truncated);
        }
        Ok(())
    }

    /// Make at least `need` bytes available from `pos` on. A streamed
    /// reader moves its unconsumed bytes to the front of the buffer (growing
    /// it if `need` exceeds it) and fills the rest from its input, hashing
    /// what it reads. Fails with [`SnapError::Truncated`] when fewer than
    /// `need` payload bytes are left.
    fn fill(&mut self, need: usize) -> Result<(), SnapError> {
        if self.end - self.pos >= need {
            return Ok(());
        }
        if need > self.remaining() {
            return Err(SnapError::Truncated);
        }
        // `need` is within `remaining()` yet beyond the buffered bytes, so
        // some are still unread: this is a streamed reader.
        let Some(source) = &mut self.source else {
            return Err(SnapError::Truncated);
        };
        // A streamed reader's buffer is owned: `to_mut` copies nothing.
        let buf = self.buf.to_mut();
        // Both ranges lie inside `buf`: `pos <= end <= buf.len()`, and
        // `fresh` is at most the room after `end`.
        buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        if buf.len() < need {
            buf.resize(need, 0);
        }
        let fresh = (buf.len() - self.end).min(source.unread);
        let piece = &mut buf[self.end..self.end + fresh];
        read_full(&mut source.input, piece)?;
        source.hasher.update(piece);
        source.unread -= fresh;
        self.end += fresh;
        Ok(())
    }

    /// The bytes in hand, from the cursor on.
    fn buffered(&self) -> &[u8] {
        // In range: `pos <= end <= buf.len()` always.
        &self.buf[self.pos..self.end]
    }

    /// Consume the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&[u8], SnapError> {
        self.fill(n)?;
        let start = self.pos;
        // `fill` left at least `n` bytes between `pos` and `end`.
        self.pos += n;
        Ok(&self.buf[start..self.pos])
    }

    /// Consume the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        self.take(N)?
            .first_chunk()
            .copied()
            .ok_or(SnapError::Truncated)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        let [v] = self.array()?;
        Ok(v)
    }

    /// Read a `u16` (little-endian).
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a `u32` (little-endian).
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a `u64` (little-endian).
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string. The slice borrows the reader:
    /// copy it before the next read.
    pub fn get_bytes(&mut self) -> Result<&[u8], SnapError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Truncated)?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string, borrowing the reader as
    /// [`SnapReader::get_bytes`] does.
    pub fn get_str(&mut self) -> Result<&str, SnapError> {
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

    /// Read a column of `n` fixed-width `W`-byte values, decoding each
    /// value's bytes with `decode` (a `from_le_bytes`, say). Fails with
    /// [`SnapError::Truncated`], before anything is allocated, when `n × W`
    /// overflows or exceeds `remaining()`. The values are decoded in
    /// batches: every whole value the reader holds at once, then a refill.
    pub fn column<const W: usize, T>(
        &mut self,
        n: usize,
        mut decode: impl FnMut([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapError> {
        const { assert!(W > 0, "a column value has at least one byte") };
        let len = n.checked_mul(W).ok_or(SnapError::Truncated)?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            self.fill(W)?;
            let (values, _) = self.buffered().as_chunks::<W>();
            let batch = values.len().min(n - out.len());
            out.extend(values.iter().take(batch).map(|&v| decode(v)));
            self.pos += batch * W;
        }
        Ok(out)
    }

    /// Read `n` variable-length records of at most `max_len` bytes each.
    /// `decode` reads one record from the front of the slice it is given
    /// and moves the slice past it; it fails on a slice that ends inside
    /// the record. It is given at least `max_len` bytes, or every payload
    /// byte left, so a record never straddles a refill: the reader hands it
    /// each buffered batch and advances once per batch. Fails with
    /// [`SnapError::Truncated`], before anything is allocated, when `n`
    /// exceeds `remaining()` (every record takes at least one byte).
    pub fn records<T>(
        &mut self,
        n: usize,
        max_len: usize,
        mut decode: impl FnMut(&mut &[u8]) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            self.fill(max_len.min(self.remaining()))?;
            let window = self.buffered();
            // The batch holds every payload byte left: records may end at
            // its end, and `decode` reports one cut short.
            let last = self.end - self.pos == self.remaining();
            let mut rest = window;
            while out.len() < n && (last || rest.len() >= max_len) {
                out.push(decode(&mut rest)?);
            }
            self.pos += window.len().saturating_sub(rest.len());
        }
        Ok(out)
    }
}

/// Bytes ahead of the payload: magic, format version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// Bytes of the SHA-256 trailer after the payload.
const DIGEST_LEN: usize = 32;

/// The container header of a `payload_len`-byte payload.
fn header(payload_len: u64) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..].copy_from_slice(&payload_len.to_le_bytes());
    h
}

/// Check a container header's magic and format version, in that order,
/// and return the payload length it declares.
fn read_header(r: &mut SnapReader<'_>) -> Result<usize, SnapError> {
    if r.array()? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    usize::try_from(r.get_u64()?).map_err(|_| SnapError::Truncated)
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

/// Verify a sealed container already in memory and return its payload
/// slice: the in-memory reference for [`SnapReader::open`].
///
/// Checks, in order: magic bytes, format version, declared length vs
/// actual size (exact — trailing bytes are corruption), and the SHA-256
/// trailer over the payload. Any failure is a [`SnapError`] the caller
/// treats as a cache miss.
pub fn unseal(container: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(container);
    let len = read_header(&mut r)?;
    if len.checked_add(DIGEST_LEN) != Some(r.remaining()) {
        return Err(SnapError::Truncated);
    }
    let body = container.get(HEADER_LEN..).ok_or(SnapError::Truncated)?;
    let (payload, stored) = body.split_at_checked(len).ok_or(SnapError::Truncated)?;
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
        let col = r.column(3, u32::from_le_bytes).unwrap();
        assert_eq!(col, [1, 0xDEAD_BEEF, 7]);
        assert_eq!(r.get_u8(), Ok(0xAA));
        assert!(r.is_exhausted());
        // One value more than remaining() / W, and an n × W that overflows.
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.column(4, u32::from_le_bytes), Err(SnapError::Truncated));
        assert_eq!(
            r.column(usize::MAX / 4, u64::from_le_bytes),
            Err(SnapError::Truncated)
        );
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

    /// A `Read` that hands out 1 to 7 bytes per call, so every value of
    /// every width lands across refills somewhere.
    struct Trickle<'b> {
        data: &'b [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.data.len());
            let (head, rest) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = rest;
            Ok(n)
        }
    }

    /// A streamed reader of `sealed`, fed through a [`Trickle`].
    fn trickle(sealed: &[u8]) -> Result<SnapReader<'_>, SnapError> {
        let input = Trickle {
            data: sealed,
            calls: 0,
        };
        SnapReader::open(input, sealed.len() as u64)
    }

    /// Read back the `len` bytes [`encode_len`] wrote, each value widened
    /// to a `u64`.
    fn decode_len(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<u64>, SnapError> {
        let (mut left, mut i, mut values) = (len, 0u64, Vec::new());
        while left > 0 {
            let (value, width) = match (i % 5, left) {
                (0, 8..) => (r.get_u64()?, 8),
                (1, 4..) => (u64::from(r.get_u32()?), 4),
                (2, 2..) => (u64::from(r.get_u16()?), 2),
                (3, 20..) => (r.get_str()?.len() as u64, 20),
                _ => (u64::from(r.get_u8()?), 1),
            };
            values.push(value);
            left -= width;
            i += 1;
        }
        Ok(values)
    }

    #[test]
    fn streamed_values_equal_the_in_memory_ones() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut w = SnapWriter::new();
            encode_len(&mut w, len);
            let payload = w.into_bytes();
            let sealed = seal(&payload);
            let mut reference = SnapReader::new(&payload);
            let want = decode_len(&mut reference, len).unwrap();
            assert_eq!(reference.finish(), Ok(()));
            let from_file = {
                let mut r = SnapReader::open(&sealed[..], sealed.len() as u64).unwrap();
                let values = decode_len(&mut r, len).unwrap();
                r.finish().map(|()| values)
            };
            let trickled = {
                let mut r = trickle(&sealed).unwrap();
                assert_eq!(r.remaining(), len, "the header's length");
                let values = decode_len(&mut r, len).unwrap();
                assert!(r.is_exhausted());
                r.finish().map(|()| values)
            };
            assert_eq!(from_file.as_ref(), Ok(&want), "payload of {len} bytes");
            assert_eq!(trickled.as_ref(), Ok(&want), "payload of {len} bytes");
        }
    }

    #[test]
    fn streamed_columns_equal_the_in_memory_ones() {
        // One odd byte first, so no width lines up with a refill.
        for n in [0, 1, CHUNK / 20 + 1, CHUNK / 5 + 3] {
            let mut w = SnapWriter::new();
            w.put_u8(7);
            let n64 = n as u64;
            (0..n64).for_each(|i| w.put_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            (0..n64).for_each(|i| w.put_u32(i as u32 ^ 0xA5A5_5A5A));
            (0..n64).for_each(|i| w.put_u16(i as u16));
            (0..n64).for_each(|i| {
                w.put_u32(!(i as u32));
                w.put_u16(i as u16 ^ 0x0F0F);
            });
            let payload = w.into_bytes();
            let sealed = seal(&payload);
            type Columns = (Vec<u64>, Vec<u32>, Vec<u16>, Vec<(u32, u16)>);
            let read = |r: &mut SnapReader<'_>| -> Result<Columns, SnapError> {
                assert_eq!(r.get_u8()?, 7);
                Ok((
                    r.column(n, u64::from_le_bytes)?,
                    r.column(n, u32::from_le_bytes)?,
                    r.column(n, u16::from_le_bytes)?,
                    r.column(n, |[a, b, c, d, e, f]: [u8; 6]| {
                        (u32::from_le_bytes([a, b, c, d]), u16::from_le_bytes([e, f]))
                    })?,
                ))
            };
            let mut reference = SnapReader::new(&payload);
            let want = read(&mut reference).unwrap();
            assert!(reference.is_exhausted());
            assert_eq!(want.0.len(), n);
            let mut r = trickle(&sealed).unwrap();
            let got = read(&mut r).unwrap();
            assert_eq!(r.finish(), Ok(()));
            assert_eq!(got, want, "columns of {n} values");
        }
    }

    #[test]
    fn streamed_records_equal_the_in_memory_ones() {
        // Records of 1 to 9 bytes (a length byte, then that many minus one
        // bytes), so the batches end inside records as well as between them.
        let lens: Vec<usize> = (0..40_000).map(|i| i * 7 % 9 + 1).collect();
        let mut w = SnapWriter::new();
        for (i, &len) in lens.iter().enumerate() {
            w.put_u8(len as u8);
            (1..len).for_each(|_| w.put_u8(i as u8));
        }
        let payload = w.into_bytes();
        let sealed = seal(&payload);
        let record = |bytes: &mut &[u8]| -> Result<(usize, u8), SnapError> {
            let (&len, _) = bytes.split_first().ok_or(SnapError::Truncated)?;
            let (rec, rest) = bytes
                .split_at_checked(len as usize)
                .ok_or(SnapError::Truncated)?;
            *bytes = rest;
            Ok((rec.len(), rec.last().copied().unwrap_or(0)))
        };
        let want = SnapReader::new(&payload)
            .records(lens.len(), 9, record)
            .unwrap();
        assert_eq!(want.iter().map(|r| r.0).collect::<Vec<_>>(), lens);
        let mut r = trickle(&sealed).unwrap();
        assert_eq!(r.records(lens.len(), 9, record), Ok(want));
        assert_eq!(r.finish(), Ok(()));
        // A payload that ends inside its last record is truncated, in
        // memory and streamed.
        let cut = &payload[..payload.len() - 1];
        let mut r = SnapReader::new(cut);
        assert_eq!(r.records(lens.len(), 9, record), Err(SnapError::Truncated));
        let sealed_cut = seal(cut);
        let mut r = trickle(&sealed_cut).unwrap();
        assert_eq!(r.records(lens.len(), 9, record), Err(SnapError::Truncated));
    }

    #[test]
    fn a_file_shorter_or_longer_than_its_header_is_truncated() {
        let mut w = SnapWriter::new();
        encode_len(&mut w, CHUNK + 1);
        let sealed = seal(&w.into_bytes());
        let short = &sealed[..sealed.len() - 1];
        assert_eq!(trickle(short).err(), Some(SnapError::Truncated));
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(trickle(&long).err(), Some(SnapError::Truncated));
        // A header cut short, a bad magic and an unknown version fail as
        // `unseal` fails on them.
        for bad in [&sealed[..HEADER_LEN - 1], &sealed[..5]] {
            assert_eq!(trickle(bad).err(), unseal(bad).err());
        }
        let mut magic = sealed.clone();
        magic[0] ^= 1;
        assert_eq!(trickle(&magic).err(), Some(SnapError::BadMagic));
        let mut version = sealed.clone();
        version[8] = 0xFE;
        assert!(matches!(
            trickle(&version),
            Err(SnapError::VersionMismatch { found: 0xFE, .. })
        ));
        // An input that ends before the size it was opened with: inside
        // the payload, or inside the trailer.
        let inside = &sealed[..HEADER_LEN + CHUNK];
        let mut r = SnapReader::open(inside, sealed.len() as u64).unwrap();
        assert_eq!(decode_len(&mut r, CHUNK + 1), Err(SnapError::Truncated));
        let mut r = SnapReader::open(short, sealed.len() as u64).unwrap();
        decode_len(&mut r, CHUNK + 1).unwrap();
        assert_eq!(r.finish(), Err(SnapError::Truncated));
        // And one that runs on past it.
        let mut r = SnapReader::open(&long[..], sealed.len() as u64).unwrap();
        decode_len(&mut r, CHUNK + 1).unwrap();
        assert_eq!(r.finish(), Err(SnapError::Truncated));
    }

    #[test]
    fn a_changed_trailer_or_payload_byte_is_a_hash_mismatch() {
        let len = 3 * CHUNK + 7;
        let mut w = SnapWriter::new();
        encode_len(&mut w, len);
        let sealed = seal(&w.into_bytes());
        for at in [sealed.len() - 1, sealed.len() - 32, HEADER_LEN + 2 * CHUNK] {
            let mut damaged = sealed.clone();
            damaged[at] ^= 0x10;
            let mut r = trickle(&damaged).unwrap();
            // The payload bytes still decode: only the digest catches them.
            decode_len(&mut r, len).unwrap();
            assert_eq!(r.finish(), Err(SnapError::HashMismatch), "byte {at}");
        }
    }

    #[test]
    fn unconsumed_payload_bytes_are_an_error() {
        let mut w = SnapWriter::new();
        encode_len(&mut w, CHUNK + 9);
        let payload = w.into_bytes();
        let sealed = seal(&payload);
        let mut r = trickle(&sealed).unwrap();
        decode_len(&mut r, CHUNK).unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Malformed(_))));
        let mut r = SnapReader::new(&payload);
        decode_len(&mut r, CHUNK).unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn a_count_beyond_the_header_length_is_truncated() {
        // A count well past the first refill's bytes, yet within the
        // header's length, is fine; one past the header's length is not.
        let mut w = SnapWriter::new();
        w.put_u64(3 * CHUNK as u64);
        (0..3 * CHUNK).for_each(|_| w.put_u8(0));
        w.put_u64(u64::MAX);
        let sealed = seal(&w.into_bytes());
        let mut r = trickle(&sealed).unwrap();
        assert_eq!(r.get_count(), Ok(3 * CHUNK));
        assert_eq!(r.remaining(), 3 * CHUNK + 8);
        // One value or record more than the bytes left, refused unread.
        let values = 3 * CHUNK / 8 + 1;
        assert_eq!(
            r.column(values + 1, u64::from_le_bytes),
            Err(SnapError::Truncated)
        );
        assert_eq!(
            r.records(3 * CHUNK + 9, 1, |_| Ok(())),
            Err(SnapError::Truncated)
        );
        assert_eq!(r.remaining(), 3 * CHUNK + 8);
        r.column(values - 1, u64::from_le_bytes).unwrap();
        // The last u64 as a count, or as a string's length.
        let at_last = |sealed| {
            let mut r = trickle(sealed).unwrap();
            r.get_u64().unwrap();
            r.column(values - 1, u64::from_le_bytes).unwrap();
            r
        };
        assert_eq!(at_last(&sealed).get_count(), Err(SnapError::Truncated));
        assert_eq!(at_last(&sealed).get_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn a_string_longer_than_a_chunk_streams() {
        let long: Vec<u8> = (0..3 * CHUNK + 5).map(|i| i as u8).collect();
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_bytes(&long);
        w.put_str("after");
        let sealed = seal(&w.into_bytes());
        let mut r = trickle(&sealed).unwrap();
        assert_eq!(r.get_u8(), Ok(1));
        assert_eq!(r.get_bytes(), Ok(&long[..]));
        assert_eq!(r.get_str(), Ok("after"));
        assert_eq!(r.finish(), Ok(()));
    }
}
