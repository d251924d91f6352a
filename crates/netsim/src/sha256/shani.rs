//! The SHA-256 block function on the x86-64 SHA extensions.
//!
//! The only module of this crate allowed to use `unsafe`: the intrinsics
//! below may only execute on a CPU that has the `sha`, `ssse3` and
//! `sse4.1` features, and the 128-bit loads and stores take raw pointers.
//! [`compress`] is the safe entry point; it checks the features itself,
//! so no caller can reach the intrinsics on a CPU without them.
//!
//! `sha256rnds2` keeps the eight state words in two registers, `ABEF`
//! and `CDGH` (most significant lane first), performs two rounds per
//! instruction, and `sha256msg1`/`sha256msg2` extend the message schedule
//! four words at a time.

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Whether this CPU has every feature [`compress_blocks`] is compiled for
/// (`sse2` is part of the x86-64 baseline). `std` caches the detection, so
/// this is a few loads per call.
pub(super) fn is_supported() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Fold `blocks` (a whole number of 64-byte blocks) into `state`.
///
/// # Panics
///
/// If the CPU lacks the SHA extensions; [`super::sha256`] checks first.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(is_supported(), "CPU lacks the SHA extensions");
    // SAFETY: the assertion above established that the CPU supports every
    // feature `compress_blocks` enables.
    unsafe { compress_blocks(state, blocks) }
}

/// [`compress`] without the feature check.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 8 words = 32 bytes, so both 16-byte unaligned
    // loads (offsets 0 and 16) are in bounds.
    let (abcd, efgh) = unsafe {
        let p = state.as_ptr() as *const __m128i;
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // Lanes a,b,c,d / e,f,g,h (lane 0 first) → ABEF / CDGH register layout.
    let badc = _mm_shuffle_epi32(abcd, 0b1011_0001);
    let hgfe = _mm_shuffle_epi32(efgh, 0b0001_1011);
    let mut abef = _mm_alignr_epi8(badc, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, badc, 0b1111_0000);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is exactly 64 bytes, so the four 16-byte
        // unaligned loads (offsets 0, 16, 32, 48) are in bounds.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr() as *const __m128i;
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ]
        };
        // Sixteen groups of four rounds. Message group g lives in
        // `w{g % 4}` (named registers, not an indexed array, so the
        // schedule stays out of memory); from g = 4 on it is computed from
        // the four groups before it. `rounds4` and `schedule` need only
        // the CPU features this function already requires.
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for g in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, g);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, g + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, g + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back from ABEF / CDGH to lanes a,b,c,d / e,f,g,h.
    let feba = _mm_shuffle_epi32(abef, 0b0001_1011);
    let dchg = _mm_shuffle_epi32(cdgh, 0b1011_0001);
    let abcd = _mm_blend_epi16(feba, dchg, 0b1111_0000);
    let efgh = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, both 16-byte unaligned stores fall
    // inside the 32-byte `state`.
    unsafe {
        let p = state.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(p, abcd);
        _mm_storeu_si128(p.add(1), efgh);
    }
}

/// Message words 4g..4g+4 from groups g-4, g-3, g-2 and g-1:
/// `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2` and `ssse3`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
unsafe fn schedule(g4: __m128i, g3: __m128i, g2: __m128i, g1: __m128i) -> __m128i {
    // msg1: W[t-16] + σ0(W[t-15]); alignr: W[t-7] for the four lanes.
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(g4, g3), _mm_alignr_epi8(g1, g2, 4));
    // msg2 adds σ1(W[t-2]), feeding its own first two lanes forward.
    _mm_sha256msg2_epu32(partial, g1)
}

/// Rounds 4g..4g+4 with message words `w`.
///
/// # Safety
///
/// The CPU must support `sha` and `sse2`.
#[inline]
#[target_feature(enable = "sha,sse2")]
unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
    let k = &K[4 * g..4 * g + 4];
    // SAFETY: `k` is 4 words = 16 bytes, exactly one unaligned load.
    let k = unsafe { _mm_loadu_si128(k.as_ptr() as *const __m128i) };
    let wk = _mm_add_epi32(w, k);
    // Each rnds2 consumes the low two lanes of `wk` and returns the new
    // ABEF; the old ABEF becomes the new CDGH.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0b0000_1110));
}
