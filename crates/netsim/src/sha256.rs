//! A minimal SHA-256 (FIPS 180-4) shared by the snapshot cache and the
//! golden-exhibit manifest.
//!
//! The workspace builds offline with no crates.io access, so the hash is
//! implemented here on `std` only. Two consumers rely on it: the
//! content-addressed simulation snapshots in [`crate::snap`] (cache keys
//! and payload-integrity trailers) and the golden manifest in `cw-verify`
//! (which re-exports this module). Correctness is pinned by the FIPS test
//! vectors below; the golden-manifest gate additionally fails closed (any
//! implementation drift changes every digest and trips the gate
//! immediately).
//!
//! # Two block functions
//!
//! [`Sha256`] hashes a message given in pieces (the snapshot writer feeds
//! it one chunk at a time), and [`sha256`] is that hasher fed the whole
//! message at once, so the padding code exists once. Each piece's whole
//! 64-byte blocks are hashed in place and only the bytes of a block that
//! straddles two pieces are copied, so hashing a ~52 MB snapshot payload
//! copies almost nothing. The blocks go through one of two block functions
//! that compute the same compression function:
//!
//! - a portable scalar one, the only path on CPUs without the SHA
//!   extensions and the reference the tests compare against;
//! - on x86-64, one built on the SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), several times faster.
//!
//! The choice is made at run time, per hasher, from
//! `is_x86_feature_detected!` (`sha`, `ssse3` and `sse4.1`); there is no
//! setting to force either path. Both produce the same digest, so cache
//! keys, snapshot trailers and the golden manifest do not depend on the
//! CPU. The SHA-extension path needs `unsafe`: its intrinsics may only
//! execute on a CPU that has the features, and its 128-bit loads and
//! stores take raw pointers. That code is confined to one private module,
//! the only place this crate allows `unsafe`.

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block function: folds `blocks` (a whole number of 64-byte blocks,
/// possibly none) into the hash state.
type BlockFn = fn(&mut [u32; 8], &[u8]);

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// SHA-256 digest of `data` as 32 raw bytes.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// An incremental SHA-256: [`Sha256::update`] takes the message in pieces
/// of any size, and [`Sha256::finalize`] returns the digest of their
/// concatenation, the same as [`sha256`] of the whole message. Each
/// piece's whole blocks are hashed in place; only the bytes of a block
/// that straddles two pieces are copied, into a one-block buffer.
#[derive(Debug)]
pub struct Sha256 {
    h: [u32; 8],
    /// The start of the next block, until the next piece completes it.
    partial: [u8; 64],
    /// How many bytes of `partial` are filled (always below 64).
    filled: usize,
    /// Message bytes so far.
    len: u64,
    compress: BlockFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message, on the fastest block function this
    /// CPU supports.
    pub fn new() -> Sha256 {
        #[cfg(target_arch = "x86_64")]
        if shani::is_supported() {
            return Sha256::with_block_fn(shani::compress);
        }
        Sha256::with_block_fn(compress_scalar)
    }

    fn with_block_fn(compress: BlockFn) -> Sha256 {
        Sha256 {
            h: H0,
            partial: [0; 64],
            filled: 0,
            len: 0,
            compress,
        }
    }

    /// Append `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let n = data.len().min(64 - self.filled);
            self.partial[self.filled..self.filled + n].copy_from_slice(&data[..n]);
            self.filled += n;
            data = &data[n..];
            if self.filled < 64 {
                return;
            }
            (self.compress)(&mut self.h, &self.partial);
            self.filled = 0;
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        (self.compress)(&mut self.h, blocks);
        self.partial[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// The digest of the message: the last partial block is padded (0x80,
    /// zeros, the 64-bit big-endian bit length) to one or two blocks in a
    /// stack buffer and hashed.
    pub fn finalize(mut self) -> [u8; 32] {
        let mut pad = [0u8; 128];
        pad[..self.filled].copy_from_slice(&self.partial[..self.filled]);
        pad[self.filled] = 0x80;
        let pad_len = if self.filled < 56 { 64 } else { 128 };
        let bit_len = self.len.wrapping_mul(8);
        pad[pad_len - 8..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress)(&mut self.h, &pad[..pad_len]);

        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable block function: FIPS 180-4 §6.2.2, one block at a time.
fn compress_scalar(h: &mut [u32; 8], blocks: &[u8]) {
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(64) {
        for (t, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().unwrap());
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (state, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(v);
        }
    }
}

/// SHA-256 digest of `data` as a lowercase hex string.
pub fn sha256_hex(data: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for b in sha256(data) {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 example vectors, plus the long-message vector.
    fn fips_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::rng::SimRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Every block function this CPU can run: the scalar one, and the
    /// SHA-extension one where it is supported.
    fn block_fns() -> Vec<(&'static str, BlockFn)> {
        #[allow(unused_mut)]
        let mut fns: Vec<(&'static str, BlockFn)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if shani::is_supported() {
            fns.push(("sha-ni", shani::compress));
        }
        fns
    }

    /// The digest of `msg` fed to a `compress` hasher in one piece.
    fn one_shot(msg: &[u8], compress: BlockFn) -> [u8; 32] {
        let mut h = Sha256::with_block_fn(compress);
        h.update(msg);
        h.finalize()
    }

    /// The digest of `msg` fed to a `compress` hasher in pieces whose sizes
    /// `next_piece` picks.
    fn in_pieces(msg: &[u8], compress: BlockFn, mut next_piece: impl FnMut() -> usize) -> [u8; 32] {
        let mut h = Sha256::with_block_fn(compress);
        let mut rest = msg;
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(next_piece().min(rest.len()));
            h.update(piece);
            rest = tail;
        }
        h.finalize()
    }

    /// `msg` fed in pieces of 1, 63, 64 and 65 bytes and of random sizes
    /// (empty pieces included) gives its one-shot digest.
    fn assert_pieces_match_one_shot(msg: &[u8], compress: BlockFn, what: &str) {
        let want = one_shot(msg, compress);
        for size in [1, 63, 64, 65] {
            assert_eq!(
                in_pieces(msg, compress, || size),
                want,
                "{what}: pieces of {size}"
            );
        }
        let mut rng = crate::rng::SimRng::seed_from_u64(msg.len() as u64);
        let random = in_pieces(msg, compress, || rng.below(200) as usize);
        assert_eq!(random, want, "{what}: random pieces");
    }

    #[test]
    fn fips_vectors_through_the_scalar_block_function() {
        for (msg, want) in fips_vectors() {
            assert_eq!(
                hex(one_shot(&msg, compress_scalar)),
                want,
                "len {}",
                msg.len()
            );
        }
    }

    #[test]
    fn fips_vectors_through_the_dispatched_hash() {
        for (msg, want) in fips_vectors() {
            assert_eq!(sha256_hex(&msg), want, "len {}", msg.len());
        }
    }

    #[test]
    fn dispatched_hash_matches_scalar_on_every_short_length() {
        // 0..=300 covers empty input, every tail length, the 55/56-byte
        // padding edge, and one to four whole blocks ahead of the tail.
        let data = noise(300, 1);
        for len in 0..=300 {
            let msg = &data[..len];
            assert_eq!(sha256(msg), one_shot(msg, compress_scalar), "len {len}");
        }
    }

    #[test]
    fn pieces_give_the_one_shot_digest_through_every_block_function() {
        let short = noise(300, 3);
        for (name, compress) in block_fns() {
            for (msg, want) in fips_vectors() {
                let what = format!("{name}, FIPS vector of len {}", msg.len());
                assert_eq!(hex(one_shot(&msg, compress)), want, "{what}");
                assert_pieces_match_one_shot(&msg, compress, &what);
            }
            for len in 0..=300 {
                assert_pieces_match_one_shot(
                    &short[..len],
                    compress,
                    &format!("{name}, len {len}"),
                );
            }
        }
    }

    #[test]
    fn dispatched_hash_matches_scalar_on_long_inputs() {
        let data = noise(3 << 20, 2);
        for len in [4095, 4096, 4097, data.len()] {
            let msg = &data[..len];
            assert_eq!(sha256(msg), one_shot(msg, compress_scalar), "len {len}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte padding edge all hash distinctly.
        let mut seen = std::collections::BTreeSet::new();
        for len in 53..=66 {
            assert!(seen.insert(sha256_hex(&vec![0u8; len])));
        }
    }
}
