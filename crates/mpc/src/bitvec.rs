//! Word-packed bit vectors: the one representation of a bit string
//! between the dealer and the socket. XOR shares, bit-triple pools and
//! opened GMW frames are all a [`BitVec`] — 64 bits per `u64`, so a
//! local XOR/AND over `n` bits is `⌈n/64⌉` word operations and the wire
//! form is the words' little-endian bytes truncated to `⌈n/8⌉`.
//!
//! Invariant: bits at positions `≥ len` in the last word are **zero**.
//! Every constructor and [`BitVec::not`] re-mask, so `PartialEq` is
//! equality of the bits and wire padding is always zero.

use crate::{MpcError, Result};

/// A bit string packed 64 to a word, least-significant bit first: bit
/// `i` is bit `i % 64` of word `i / 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec { words: vec![0; len.div_ceil(64)], len }
    }

    /// Takes the first `len` bits of `words`; whatever the last word
    /// holds above `len` is cleared.
    ///
    /// # Panics
    ///
    /// Panics when `words` is not exactly `⌈len/64⌉` long.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count does not match bit length");
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        BitVec { words, len }
    }

    /// Packs a `bool` slice (the test oracles still speak it).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        BitVec { words, len: bits.len() }
    }

    /// Unpacks to one `bool` per bit.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The wire form: exactly `⌈len/8⌉` bytes, bit `i` in byte `i / 8`
    /// at position `i % 8`, padding bits zero — on any endianness.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Strict inverse of [`BitVec::to_bytes`]: only the canonical
    /// encoding of a `len`-bit string decodes.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::Protocol`] when `bytes` is not exactly
    /// `⌈len/8⌉` long, or when a padding bit above `len` in the last
    /// byte is set — a peer cannot smuggle trailing bytes or dirty
    /// padding past the decoder.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Result<Self> {
        if bytes.len() != len.div_ceil(8) {
            return Err(MpcError::Protocol(format!(
                "bit frame of {} bytes for {len} bits, expected {}",
                bytes.len(),
                len.div_ceil(8)
            )));
        }
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(w)
            })
            .collect();
        if words.last().is_some_and(|&last| last & !tail_mask(len) != 0) {
            return Err(MpcError::Protocol(format!(
                "bit frame for {len} bits has non-zero padding"
            )));
        }
        Ok(BitVec { words, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i ≥ len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {} bits", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bitwise XOR — on XOR shares, the free local addition.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn and(&self, other: &BitVec) -> BitVec {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise complement of the `len` bits (the tail stays zero).
    pub fn not(&self) -> BitVec {
        BitVec::from_words(self.words.iter().map(|w| !w).collect(), self.len)
    }

    fn zip_words(&self, other: &BitVec, f: impl Fn(u64, u64) -> u64) -> BitVec {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        // Both tails are zero and f ∈ {xor, and} maps (0, 0) to 0.
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        BitVec { words, len: self.len }
    }

    /// Appends `other`'s bits after this vector's, at bit granularity:
    /// a word copy when `len` is a multiple of 64, a funnel shift
    /// otherwise.
    pub fn append(&mut self, other: &BitVec) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                // shift ≠ 0 means len > 0, so a last word exists.
                *self.words.last_mut().expect("partial last word") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        // The final push spills past the end when other's tail fit in
        // the partial word; other's zero tail keeps ours zero.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// The parts' bits one after another, joined at bit granularity.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a BitVec>) -> BitVec {
        let mut out = BitVec::zeros(0);
        for part in parts {
            out.append(part);
        }
        out
    }

    /// Copies out bits `start .. start + len`.
    ///
    /// # Panics
    ///
    /// Panics when the range runs past the end.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "bit range {start}+{len} out of range for {} bits",
            self.len
        );
        let (first, shift) = (start / 64, start % 64);
        let n_words = len.div_ceil(64);
        let words = if shift == 0 {
            self.words[first..first + n_words].to_vec()
        } else {
            (first..first + n_words)
                .map(|i| {
                    let high = self.words.get(i + 1).map_or(0, |w| w << (64 - shift));
                    self.words[i] >> shift | high
                })
                .collect()
        };
        BitVec::from_words(words, len)
    }
}

/// Mask of the bits a `len`-bit vector uses in its last word.
fn tail_mask(len: usize) -> u64 {
    match len % 64 {
        0 => u64::MAX,
        used => (1u64 << used) - 1,
    }
}

/// Transposes a 64×64 bit matrix in place (row `r` is `m[r]`, column
/// `c` is bit `c`): afterwards bit `r` of `m[c]` is what bit `c` of
/// `m[r]` was. Six rounds of block swaps, 32·6 word operations —
/// Hacker's Delight §7-3, least-significant bit first.
pub(crate) fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::Prg;
    use proptest::prelude::*;

    fn random_bools(n: usize, seed: u64) -> Vec<bool> {
        let mut prg = Prg::from_u64(seed);
        (0..n).map(|_| prg.next_bool()).collect()
    }

    #[test]
    fn bools_round_trip_and_get_agrees() {
        for n in [0, 1, 7, 8, 63, 64, 65, 200] {
            let bools = random_bools(n, n as u64);
            let v = BitVec::from_bools(&bools);
            assert_eq!(v.len(), n);
            assert_eq!(v.is_empty(), n == 0);
            assert_eq!(v.words.len(), n.div_ceil(64));
            assert_eq!(v.to_bools(), bools);
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(v.get(i), b);
            }
        }
    }

    #[test]
    fn wire_layout_is_bit_i_in_byte_i_over_8() {
        // Bits 0, 9 and 17 of an 18-bit vector: bytes 0x01, 0x02, 0x02.
        let mut bools = vec![false; 18];
        for i in [0, 9, 17] {
            bools[i] = true;
        }
        let v = BitVec::from_bools(&bools);
        assert_eq!(v.to_bytes(), vec![0x01, 0x02, 0x02]);
        assert_eq!(BitVec::from_bytes(&[0x01, 0x02, 0x02], 18).unwrap(), v);
        // A full word and a bit: nine bytes, not sixteen.
        assert_eq!(BitVec::zeros(65).to_bytes().len(), 9);
        assert_eq!(BitVec::zeros(0).to_bytes().len(), 0);
    }

    #[test]
    fn from_bytes_accepts_only_the_canonical_encoding() {
        let bools = random_bools(77, 5);
        let v = BitVec::from_bools(&bools);
        let wire = v.to_bytes();
        assert_eq!(wire.len(), 10);
        assert_eq!(BitVec::from_bytes(&wire, 77).unwrap(), v);
        let is_protocol = |r: Result<BitVec>| matches!(r, Err(MpcError::Protocol(_)));
        assert!(is_protocol(BitVec::from_bytes(&wire[..9], 77)), "short frame");
        let mut long = wire.clone();
        long.push(0);
        assert!(is_protocol(BitVec::from_bytes(&long, 77)), "over-long frame");
        // 77 bits use 5 bits of the last byte; bit 5 is padding.
        let mut dirty = wire.clone();
        dirty[9] |= 1 << 5;
        assert!(is_protocol(BitVec::from_bytes(&dirty, 77)), "dirty padding");
        assert!(is_protocol(BitVec::from_bytes(&[1], 0)), "bytes for an empty vector");
        assert_eq!(BitVec::from_bytes(&[], 0).unwrap(), BitVec::zeros(0));
    }

    #[test]
    fn not_and_from_words_keep_the_tail_zero() {
        let ones = BitVec::zeros(70).not();
        assert_eq!(ones.words, [u64::MAX, 0x3F]);
        assert_eq!(ones, BitVec::from_bools(&[true; 70]));
        assert_eq!(BitVec::from_words(vec![u64::MAX, u64::MAX], 70), ones);
        assert_eq!(ones.not(), BitVec::zeros(70));
        assert_eq!(BitVec::from_words(vec![u64::MAX], 64).words, [u64::MAX]);
    }

    #[test]
    fn xor_and_match_the_bitwise_definition() {
        let (a, b) = (random_bools(130, 1), random_bools(130, 2));
        let (va, vb) = (BitVec::from_bools(&a), BitVec::from_bools(&b));
        let xor: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let and: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
        assert_eq!(va.xor(&vb).to_bools(), xor);
        assert_eq!(va.and(&vb).to_bools(), and);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_panics_on_mismatched_lengths() {
        let _ = BitVec::zeros(3).xor(&BitVec::zeros(4));
    }

    #[test]
    fn append_and_slice_round_trip_at_every_offset_mod_64() {
        // Head lengths cover every offset mod 64 (and a multi-word
        // head); tails cover shorter-than-gap, exact-fit, and multi-word.
        for head in (0..=64).chain([127, 128, 129]) {
            for tail in [0, 1, 63, 64, 65, 130] {
                let (h, t) =
                    (random_bools(head, head as u64), random_bools(tail, 1000 + tail as u64));
                let mut joined = BitVec::from_bools(&h);
                joined.append(&BitVec::from_bools(&t));
                let want: Vec<bool> = h.iter().chain(&t).copied().collect();
                assert_eq!(joined, BitVec::from_bools(&want), "append {head}+{tail}");
                assert_eq!(joined.words.len(), (head + tail).div_ceil(64));
                assert_eq!(joined.slice(0, head).to_bools(), h, "head of {head}+{tail}");
                assert_eq!(joined.slice(head, tail).to_bools(), t, "tail of {head}+{tail}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_panics_past_the_end() {
        let _ = BitVec::zeros(10).slice(4, 7);
    }

    #[test]
    fn transpose_matches_the_naive_definition() {
        let mut prg = Prg::from_u64(9);
        let m: [u64; 64] = std::array::from_fn(|_| prg.next_u64());
        let mut t = m;
        transpose64(&mut t);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "entry ({r}, {c})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn transpose_is_an_involution(seed in any::<u64>()) {
            let mut prg = Prg::from_u64(seed);
            let m: [u64; 64] = std::array::from_fn(|_| prg.next_u64());
            let mut t = m;
            transpose64(&mut t);
            transpose64(&mut t);
            prop_assert_eq!(t, m);
        }

        #[test]
        fn bytes_round_trip_for_any_length(n in 0usize..300, seed in any::<u64>()) {
            let v = BitVec::from_bools(&random_bools(n, seed));
            let wire = v.to_bytes();
            prop_assert_eq!(wire.len(), n.div_ceil(8));
            prop_assert_eq!(BitVec::from_bytes(&wire, n).unwrap(), v);
        }
    }
}
