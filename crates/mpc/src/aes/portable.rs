//! Plain-Rust AES-128 encryption: the implementation every target has.
//!
//! This is the **correctness fallback**, not a side-channel-hardened
//! cipher: rounds are table lookups indexed by state bytes. That is
//! acceptable here because the key is public (see
//! [`super::FIXED_KEY`]); hosts with AES instructions never run it
//! outside the tests that compare it with [`super::ni`].

use super::{ROUND_KEYS, SBOX};

/// `TE0[x]` is the MixColumns image of the column `[S(x), 0, 0, 0]`,
/// little-endian: bytes `[2·S(x), S(x), S(x), 3·S(x)]`. The other three
/// column positions are byte rotations of it.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = (s << 1) ^ if s & 0x80 != 0 { 0x1b } else { 0 };
        t[x] = u32::from_le_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    t
};

/// Encrypts one block under the expanded key `rk`.
pub(super) fn encrypt(rk: &[u128; 11], block: u128) -> u128 {
    let cols = |x: u128| [x as u32, (x >> 32) as u32, (x >> 64) as u32, (x >> 96) as u32];
    // ShiftRows: output column c takes row r from column c + r.
    let byte = |s: &[u32; 4], c: usize, r: usize| (s[(c + r) % 4] >> (8 * r)) as u8 as usize;
    let mut s = cols(block ^ rk[0]);
    for k in &rk[1..10] {
        let k = cols(*k);
        s = std::array::from_fn(|c| {
            TE0[byte(&s, c, 0)]
                ^ TE0[byte(&s, c, 1)].rotate_left(8)
                ^ TE0[byte(&s, c, 2)].rotate_left(16)
                ^ TE0[byte(&s, c, 3)].rotate_left(24)
                ^ k[c]
        });
    }
    let k = cols(rk[10]);
    let last: [u32; 4] = std::array::from_fn(|c| {
        u32::from_le_bytes(std::array::from_fn(|r| SBOX[byte(&s, c, r)])) ^ k[c]
    });
    last[0] as u128 | (last[1] as u128) << 32 | (last[2] as u128) << 64 | (last[3] as u128) << 96
}

/// [`super::hash_many`] on this implementation:
/// `H(x, t) = π(π(x) ⊕ t) ⊕ π(x)`.
pub(super) fn hash_many<const N: usize>(labels: &mut [u128; N], tweaks: &[u64; N]) {
    for (l, &t) in labels.iter_mut().zip(tweaks) {
        let px = encrypt(&ROUND_KEYS, *l);
        *l = encrypt(&ROUND_KEYS, px ^ t as u128) ^ px;
    }
}
