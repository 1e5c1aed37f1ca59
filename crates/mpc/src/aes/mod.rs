//! Fixed-key AES-128 — the public permutation `π` under the garbling
//! hash [`crate::prg::hash128`] — and the tweakable hash built on it.
//!
//! One permutation, two implementations that must agree bit for bit:
//! [`ni`] drives the CPU's AES round instructions where
//! `is_x86_feature_detected!("aes")` says they exist, [`portable`] is
//! plain Rust for every other host. Both read the same round keys,
//! expanded at compile time from [`FIXED_KEY`]. Agreement is not a
//! nicety: the evaluator re-garbles locally from the dealt seed, so a
//! garbler host and an evaluator host that hashed differently would
//! decode garbage without any error. The parity and known-answer tests
//! below are what hold the two together.
//!
//! A block is a `u128` whose little-endian bytes are the sixteen AES
//! state bytes in FIPS-197 order (byte 0 is the least significant), so
//! a wire label's permute bit is bit 0 of state byte 0.

#[cfg(target_arch = "x86_64")]
mod ni;
mod portable;

/// The AES-128 key fixed for the lifetime of the protocol (the first 128
/// fractional bits of π). It is public by design: security rests on AES
/// under a *known* key behaving like a random permutation, not on key
/// secrecy.
const FIXED_KEY: u128 = u128::from_le_bytes([
    0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70, 0x73, 0x44,
]);

/// Round keys of [`FIXED_KEY`], one block per `AddRoundKey`.
static ROUND_KEYS: [u128; 11] = expand_key(FIXED_KEY);

/// The AES S-box, computed rather than transcribed: walk the
/// multiplicative group of GF(2⁸) with generator 3 (`p`) and its inverse
/// (`q`), apply the affine map to each inverse. FIPS-197's appendix C.1
/// vector, asserted in the tests, pins the result.
const fn sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p = p ^ (p << 1) ^ if p & 0x80 != 0 { 0x1b } else { 0 };
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        if q & 0x80 != 0 {
            q ^= 0x09;
        }
        s[p as usize] =
            q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4) ^ 0x63;
        if p == 1 {
            break;
        }
    }
    s[0] = 0x63;
    s
}

const SBOX: [u8; 256] = sbox();

/// FIPS-197 §5.2 key expansion. Words are little-endian columns, so
/// `RotWord` is a right rotation by one byte.
const fn expand_key(key: u128) -> [u128; 11] {
    const fn sub_word(w: u32) -> u32 {
        let b = w.to_le_bytes();
        u32::from_le_bytes([
            SBOX[b[0] as usize],
            SBOX[b[1] as usize],
            SBOX[b[2] as usize],
            SBOX[b[3] as usize],
        ])
    }
    let mut w = [0u32; 44];
    let mut i = 0;
    while i < 4 {
        w[i] = (key >> (32 * i)) as u32;
        i += 1;
    }
    let mut rcon = 1u8;
    while i < 44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t = sub_word(t.rotate_right(8)) ^ rcon as u32;
            rcon = (rcon << 1) ^ if rcon & 0x80 != 0 { 0x1b } else { 0 };
        }
        w[i] = w[i - 4] ^ t;
        i += 1;
    }
    let mut keys = [0u128; 11];
    let mut r = 0;
    while r < 11 {
        keys[r] = w[4 * r] as u128
            | (w[4 * r + 1] as u128) << 32
            | (w[4 * r + 2] as u128) << 64
            | (w[4 * r + 3] as u128) << 96;
        r += 1;
    }
    keys
}

/// `labels[i] ← H(labels[i], tweaks[i])` on `N` independent lanes, with
/// `H(x, t) = π(π(x) ⊕ t) ⊕ π(x)` the two-call tweakable
/// Matyas–Meyer–Oseas hash under the fixed key — on the AES-NI path when
/// the CPU has it and the portable one otherwise. Each implementation
/// spells the three steps in its own block type (a closure shared
/// between them could not be inlined into the feature-gated side); the
/// tests below pin both to the formula and to each other.
#[inline]
pub(crate) fn hash_many<const N: usize>(labels: &mut [u128; N], tweaks: &[u64; N]) {
    #[cfg(target_arch = "x86_64")]
    if ni::try_hash_many(labels, tweaks) {
        return;
    }
    portable::hash_many(labels, tweaks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FIPS-197 appendix C.1.
    const C1_KEY: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    const C1_PLAIN: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    const C1_CIPHER: [u8; 16] = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];

    #[test]
    fn sbox_matches_fips_197_corners() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        let mut seen = [false; 256];
        for &s in &SBOX {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "S-box is not a permutation");
    }

    #[test]
    fn key_expansion_matches_fips_197_a1() {
        // Appendix A.1: key 2b7e1516…, last round key d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
        let key = u128::from_le_bytes([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let last = [
            0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
            0x0c, 0xa6,
        ];
        assert_eq!(expand_key(key)[10].to_le_bytes(), last);
    }

    #[test]
    fn portable_encrypts_the_fips_197_c1_vector() {
        let rk = expand_key(u128::from_le_bytes(C1_KEY));
        let cipher = portable::encrypt(&rk, u128::from_le_bytes(C1_PLAIN));
        assert_eq!(cipher.to_le_bytes(), C1_CIPHER);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ni_encrypts_the_fips_197_c1_vector_where_detected() {
        let rk = expand_key(u128::from_le_bytes(C1_KEY));
        let mut block = [u128::from_le_bytes(C1_PLAIN)];
        if ni::try_permute_many(&rk, &mut block) {
            assert_eq!(block[0].to_le_bytes(), C1_CIPHER);
        }
    }

    /// `portable == ni == dispatch` on `N` lanes drawn from `seed`.
    fn assert_paths_agree<const N: usize>(seed: u64) {
        let mut prg = crate::prg::Prg::from_u64(seed);
        let labels: [u128; N] = std::array::from_fn(|_| prg.next_u128());
        let tweaks: [u64; N] = std::array::from_fn(|_| prg.next_u64());
        let mut soft = labels;
        portable::hash_many(&mut soft, &tweaks);
        #[cfg(target_arch = "x86_64")]
        {
            let mut hard = labels;
            if ni::try_hash_many(&mut hard, &tweaks) {
                assert_eq!(soft, hard, "AES-NI and portable hashes diverge at {N} lanes");
            }
        }
        let mut auto = labels;
        hash_many(&mut auto, &tweaks);
        assert_eq!(soft, auto);
        // Lanes are independent: lane i of a batch is the N = 1 hash.
        for i in 0..N {
            let mut one = [labels[i]];
            portable::hash_many(&mut one, &[tweaks[i]]);
            assert_eq!(one[0], soft[i], "lane {i} of {N}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn portable_and_ni_hashes_agree_at_every_lane_count(seed in any::<u64>()) {
            assert_paths_agree::<1>(seed);
            assert_paths_agree::<4>(seed);
            assert_paths_agree::<8>(seed);
            assert_paths_agree::<16>(seed);
        }
    }

    #[test]
    fn hash_is_the_two_call_construction() {
        // H(x, t) = π(π(x) ⊕ t) ⊕ π(x), spelled out against the raw
        // permutation so a change of construction fails here by name.
        let (x, t) = (0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978_u128, 0xdead_beef_u64);
        let px = portable::encrypt(&ROUND_KEYS, x);
        let outer = portable::encrypt(&ROUND_KEYS, px ^ t as u128);
        let mut h = [x];
        hash_many(&mut h, &[t]);
        assert_eq!(h[0], outer ^ px);
    }
}
