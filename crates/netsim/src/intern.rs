//! Interned payload and credential storage shared across the capture →
//! analysis pipeline.
//!
//! Scanning traffic replays a small dictionary of byte blobs millions of
//! times (§3.2 classifies and §3.3 extracts top-3 values over *distinct*
//! payloads and credentials, not raw events). An [`Interner`] stores each
//! distinct value once in an append-only arena and hands out dense
//! [`PayloadId`]/[`CredId`] handles, so events carry 4-byte IDs instead of
//! owned `Vec<u8>`/`String`s and downstream work (rule matching, LZR
//! fingerprinting, group-by counting) runs once per distinct value.
//!
//! The same dictionary reaches the interner pre-hashed: a scanner builds
//! each constant payload once as a [`Blob`] (shared bytes plus their FNV-1a
//! digest) and every flow carrying it clones the handle, so
//! [`Interner::intern_blob`] looks it up without re-hashing the bytes.
//!
//! # Determinism
//!
//! IDs are assigned in insertion order: the first distinct value interned
//! gets id 0, the next id 1, and so on. Re-interning an already-known value
//! returns its existing id. Because the simulation delivers events in a
//! deterministic order, the arena contents — and therefore every id — are
//! a pure function of the event stream, independent of hash-map iteration
//! order (the lookup table is only an accelerator; ids come from the
//! arena's `Vec` length).
//!
//! # One id space per world
//!
//! Every listener of a world records into one shared interner, and
//! the dataset build takes that interner over whole after the run: the
//! ids a capture recorded are the ids the dataset and its snapshot carry.
//! No id is ever translated between two interners.

use crate::rng::fnv1a;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

/// Immutable shared bytes with their FNV-1a digest.
///
/// A payload built once and sent on many flows: cloning shares the bytes
/// (a reference-count bump), and the digest [`Interner::intern_blob`]
/// looks it up by was computed once, when the blob was made. The fields
/// are private, so the digest always matches the bytes (and the derived
/// equality is equality of the bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    bytes: Rc<[u8]>,
    digest: u64,
}

impl Blob {
    /// Share `bytes`, hashing them once.
    pub fn new(bytes: impl Into<Rc<[u8]>>) -> Self {
        let bytes = bytes.into();
        let digest = fnv1a(&bytes);
        Blob { bytes, digest }
    }
}

impl Deref for Blob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Self {
        Blob::new(bytes)
    }
}

/// Handle to one distinct payload blob in an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadId(pub u32);

impl PayloadId {
    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to one distinct credential string (a username *or* a password)
/// in an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CredId(pub u32);

impl CredId {
    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only arena of distinct values with O(1) amortized hash lookup.
///
/// Values are stored once; the side table maps an FNV-1a digest to the
/// (rarely >1) arena indices carrying that digest, so lookups compare the
/// actual bytes and hash collisions stay correct.
#[derive(Debug)]
struct Arena<T: ?Sized + ToOwned> {
    values: Vec<T::Owned>,
    by_hash: HashMap<u64, Vec<u32>>,
}

impl<T: ?Sized + ToOwned> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            values: Vec::new(),
            by_hash: HashMap::new(),
        }
    }
}

impl<T: ?Sized + ToOwned> Clone for Arena<T>
where
    T::Owned: Clone,
{
    fn clone(&self) -> Self {
        Arena {
            values: self.values.clone(),
            by_hash: self.by_hash.clone(),
        }
    }
}

impl<T> Arena<T>
where
    T: ?Sized + ToOwned + PartialEq,
    T::Owned: std::borrow::Borrow<T>,
{
    fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.by_hash.reserve(additional);
    }

    fn intern(&mut self, value: &T, hash: u64) -> u32 {
        use std::borrow::Borrow;
        let candidates = self.by_hash.entry(hash).or_default();
        for &idx in candidates.iter() {
            if self.values[idx as usize].borrow() == value {
                return idx;
            }
        }
        // Ids are `u32`: a world interns a few thousand values, and
        // `Interner::snap_read` refuses a snapshot listing more than fit.
        let idx = u32::try_from(self.values.len()).expect("interner arena overflow");
        candidates.push(idx);
        self.values.push(value.to_owned());
        idx
    }
}

/// The shared intern tables for payload blobs and credential strings.
///
/// See the [module docs](self) for the id-determinism rules.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    payloads: Arena<[u8]>,
    creds: Arena<str>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// A fresh interner behind the shared handle every capture-side user
    /// (honeypot listeners, captures) clones.
    pub fn shared() -> Rc<RefCell<Interner>> {
        Rc::new(RefCell::new(Interner::new()))
    }

    /// Pre-size the arenas for an expected number of distinct values.
    /// Purely a reallocation-avoidance hint: ids, contents and every
    /// observable behavior are unaffected.
    pub fn reserve(&mut self, payloads: usize, creds: usize) {
        self.payloads.reserve(payloads);
        self.creds.reserve(creds);
    }

    /// Intern a payload blob, returning its stable id.
    pub fn intern_payload(&mut self, bytes: &[u8]) -> PayloadId {
        PayloadId(self.payloads.intern(bytes, fnv1a(bytes)))
    }

    /// Intern a shared payload by the digest it carries: the same id as
    /// [`Interner::intern_payload`] of its bytes, without re-hashing them.
    pub fn intern_blob(&mut self, blob: &Blob) -> PayloadId {
        PayloadId(self.payloads.intern(blob, blob.digest))
    }

    /// Intern a credential string, returning its stable id.
    pub fn intern_cred(&mut self, s: &str) -> CredId {
        CredId(self.creds.intern(s, fnv1a(s.as_bytes())))
    }

    /// Resolve a payload id to its bytes.
    ///
    /// # Panics
    /// Panics if the id was minted by a different interner and is out of
    /// range here — resolve ids only against the interner (or its
    /// snapshot) that produced them.
    pub fn payload(&self, id: PayloadId) -> &[u8] {
        &self.payloads.values[id.index()]
    }

    /// Resolve a credential id to its string.
    ///
    /// # Panics
    /// Panics if the id is out of range (see [`Interner::payload`]).
    pub fn cred(&self, id: CredId) -> &str {
        &self.creds.values[id.index()]
    }

    /// Number of distinct payloads.
    pub fn payload_count(&self) -> usize {
        self.payloads.values.len()
    }

    /// Number of distinct credential strings.
    pub fn cred_count(&self) -> usize {
        self.creds.values.len()
    }

    /// Encode the arena contents into a snapshot payload: both value
    /// lists, in insertion order. The hash side tables are rebuilt on
    /// load, so only the id-defining data travels.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.payloads.values.len() as u64);
        for p in &self.payloads.values {
            w.put_bytes(p);
        }
        w.put_u64(self.creds.values.len() as u64);
        for c in &self.creds.values {
            w.put_str(c);
        }
    }

    /// Decode an interner from a snapshot payload.
    ///
    /// Values are re-interned in their recorded order, which reproduces
    /// the original dense ids exactly (ids are a pure function of
    /// insertion order — see the module docs). A snapshot listing the
    /// same value twice would silently renumber everything after it, so
    /// that case is rejected as [`SnapError::Malformed`].
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Interner, SnapError> {
        let mut out = Interner::new();
        let n_payloads = r.get_count()?;
        if u32::try_from(n_payloads).is_err() {
            return Err(SnapError::Malformed("more payloads than u32 ids"));
        }
        for _ in 0..n_payloads {
            let bytes = r.get_bytes()?;
            out.intern_payload(bytes);
        }
        if out.payload_count() != n_payloads {
            return Err(SnapError::Malformed(
                "duplicate payload in interner snapshot",
            ));
        }
        let n_creds = r.get_count()?;
        if u32::try_from(n_creds).is_err() {
            return Err(SnapError::Malformed("more credentials than u32 ids"));
        }
        for _ in 0..n_creds {
            let s = r.get_str()?;
            out.intern_cred(s);
        }
        if out.cred_count() != n_creds {
            return Err(SnapError::Malformed("duplicate cred in interner snapshot"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern_payload(b"alpha"), PayloadId(0));
        assert_eq!(i.intern_payload(b"beta"), PayloadId(1));
        assert_eq!(i.intern_payload(b"alpha"), PayloadId(0));
        assert_eq!(i.intern_payload(b"gamma"), PayloadId(2));
        assert_eq!(i.payload_count(), 3);
        assert_eq!(i.payload(PayloadId(1)), b"beta");
    }

    #[test]
    fn creds_and_payloads_are_independent_spaces() {
        let mut i = Interner::new();
        let p = i.intern_payload(b"root");
        let c = i.intern_cred("root");
        assert_eq!(p.0, 0);
        assert_eq!(c.0, 0);
        assert_eq!(i.cred(c), "root");
        assert_eq!(i.payload(p), b"root");
    }

    #[test]
    fn empty_values_intern_fine() {
        let mut i = Interner::new();
        let a = i.intern_payload(b"");
        let b = i.intern_payload(b"");
        assert_eq!(a, b);
        assert_eq!(i.payload(a), b"");
        let c = i.intern_cred("");
        assert_eq!(i.cred(c), "");
    }

    #[test]
    fn reserve_changes_no_ids() {
        let mut a = Interner::new();
        a.intern_payload(b"x");
        a.reserve(1000, 1000);
        assert_eq!(a.intern_payload(b"x"), PayloadId(0));
        assert_eq!(a.intern_payload(b"y"), PayloadId(1));
        assert_eq!(a.payload_count(), 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_ids() {
        let mut i = Interner::new();
        i.intern_payload(b"\x16\x03\x01");
        i.intern_payload(b"");
        i.intern_payload(b"GET / HTTP/1.1");
        i.intern_cred("root");
        i.intern_cred("123456");
        let mut w = SnapWriter::new();
        i.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Interner::snap_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.payload_count(), 3);
        assert_eq!(back.cred_count(), 2);
        // Ids are positional, so equality of the ordered value lists is
        // equality of every id assignment.
        assert_eq!(back.payload(PayloadId(0)), b"\x16\x03\x01");
        assert_eq!(back.payload(PayloadId(1)), b"");
        assert_eq!(back.payload(PayloadId(2)), b"GET / HTTP/1.1");
        assert_eq!(back.cred(CredId(0)), "root");
        assert_eq!(back.cred(CredId(1)), "123456");
        // And the rebuilt hash tables still dedupe correctly.
        let mut back = back;
        assert_eq!(back.intern_payload(b"GET / HTTP/1.1"), PayloadId(2));
        assert_eq!(back.intern_cred("root"), CredId(0));
    }

    #[test]
    fn blob_digest_is_fnv1a_of_its_bytes() {
        for bytes in [&b""[..], b"x", b"\x16\x03\x01", b"GET / HTTP/1.1\r\n\r\n"] {
            let blob = Blob::new(bytes);
            assert_eq!(blob.digest, fnv1a(bytes));
            assert_eq!(&*blob, bytes);
            assert_eq!(Blob::from(bytes.to_vec()), blob);
        }
    }

    #[test]
    fn intern_blob_matches_intern_payload() {
        // A stream with repeats, through both entry points: same ids, same
        // arena, same snapshot bytes.
        let stream: [&[u8]; 7] = [b"a", b"bb", b"a", b"", b"ccc", b"bb", b""];
        let blobs: Vec<Blob> = stream.iter().map(|&b| Blob::new(b)).collect();
        let mut by_bytes = Interner::new();
        let mut by_blob = Interner::new();
        for (bytes, blob) in stream.iter().zip(&blobs) {
            assert_eq!(by_blob.intern_blob(blob), by_bytes.intern_payload(bytes));
        }
        // A second pass over shared clones finds every value already there.
        for blob in &blobs {
            let id = by_blob.intern_blob(&blob.clone());
            assert_eq!(by_blob.payload(id), &**blob);
        }
        assert_eq!(by_blob.payload_count(), 4);
        let snap = |i: &Interner| {
            let mut w = SnapWriter::new();
            i.snap_write(&mut w);
            w.into_bytes()
        };
        assert_eq!(snap(&by_blob), snap(&by_bytes));
    }

    #[test]
    fn snapshot_with_duplicate_value_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_bytes(b"same");
        w.put_bytes(b"same");
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = Interner::snap_read(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)));
    }
}
