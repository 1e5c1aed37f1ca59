//! AES-128 encryption on the x86-64 AES round instructions.
//!
//! The only `unsafe` in `c2pi-mpc` lives here, and it is exactly one
//! kind of operation: calling a `#[target_feature(enable = "aes")]`
//! function from code compiled without that feature. Each such call sits
//! directly under the `is_x86_feature_detected!("aes")` check that makes
//! it sound; the intrinsics themselves are safe inside the
//! feature-enabled functions, and blocks move between `u128` and
//! `__m128i` through value intrinsics, never through pointers.
#![allow(unsafe_code)]

use super::ROUND_KEYS;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
    _mm_unpackhi_epi64, _mm_xor_si128,
};
use core::array::from_fn;

#[inline]
#[target_feature(enable = "aes")]
fn load(x: u128) -> __m128i {
    _mm_set_epi64x((x >> 64) as i64, x as i64)
}

#[inline]
#[target_feature(enable = "aes")]
fn store(x: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(x) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
    (hi as u128) << 64 | lo as u128
}

/// Encrypts `N` blocks rounds-outer, lanes-inner: the `N` dependency
/// chains are independent, so consecutive `aesenc`s overlap in the
/// pipeline instead of each waiting out the previous one's latency.
#[inline]
#[target_feature(enable = "aes")]
fn permute<const N: usize>(rk: &[u128; 11], mut s: [__m128i; N]) -> [__m128i; N] {
    let k0 = load(rk[0]);
    for lane in &mut s {
        *lane = _mm_xor_si128(*lane, k0);
    }
    for k in &rk[1..10] {
        let k = load(*k);
        for lane in &mut s {
            *lane = _mm_aesenc_si128(*lane, k);
        }
    }
    let k10 = load(rk[10]);
    for lane in &mut s {
        *lane = _mm_aesenclast_si128(*lane, k10);
    }
    s
}

/// `H(x, t) = π(π(x) ⊕ t) ⊕ π(x)`, kept in vector registers from the
/// first load to the last store.
#[target_feature(enable = "aes")]
fn hash_many<const N: usize>(labels: &mut [u128; N], tweaks: &[u64; N]) {
    let px: [__m128i; N] = permute(&ROUND_KEYS, from_fn(|i| load(labels[i])));
    let tweaked = from_fn(|i| _mm_xor_si128(px[i], _mm_set_epi64x(0, tweaks[i] as i64)));
    let outer: [__m128i; N] = permute(&ROUND_KEYS, tweaked);
    for (i, l) in labels.iter_mut().enumerate() {
        *l = store(_mm_xor_si128(outer[i], px[i]));
    }
}

/// [`super::hash_many`] on this implementation. Returns `false`, with
/// `labels` untouched, when the CPU has no AES instructions.
#[inline]
pub(super) fn try_hash_many<const N: usize>(labels: &mut [u128; N], tweaks: &[u64; N]) -> bool {
    if !is_x86_feature_detected!("aes") {
        return false;
    }
    // SAFETY: `hash_many` requires the `aes` target feature, which was
    // detected on the running CPU on the line above.
    unsafe { hash_many(labels, tweaks) };
    true
}

#[cfg(test)]
#[target_feature(enable = "aes")]
fn encrypt<const N: usize>(rk: &[u128; 11], blocks: &mut [u128; N]) {
    *blocks = permute(rk, from_fn(|i| load(blocks[i]))).map(|b| store(b));
}

/// The raw permutation under an arbitrary expanded key, for the
/// known-answer test. Returns `false`, with `blocks` untouched, when the
/// CPU has no AES instructions.
#[cfg(test)]
pub(super) fn try_permute_many<const N: usize>(rk: &[u128; 11], blocks: &mut [u128; N]) -> bool {
    if !is_x86_feature_detected!("aes") {
        return false;
    }
    // SAFETY: `encrypt` requires the `aes` target feature, which was
    // detected on the running CPU on the line above.
    unsafe { encrypt(rk, blocks) };
    true
}
