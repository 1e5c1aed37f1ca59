//! The crate's symmetric primitives: a ChaCha12 stream generator and
//! PRF, and the fixed-key AES gate hash of the garbled-circuit kernel.
//!
//! * [`Prg`], [`SeedSequence`] and [`indexed_seed`] run on ChaCha12,
//!   written from scratch (the RFC 8439 block function on a 12-round
//!   schedule — the conservative speed/security point `rand`'s own
//!   `StdRng` uses). Share expansion and dealer correlations need PRG
//!   strength and draw from here.
//! * [`hash128`] / [`hash128_many`] are the tweakable correlation-robust
//!   hash half-gates garbling spends on every AND gate. It needs far
//!   less than a PRF and is the hottest function in the system, so it
//!   runs on fixed-key AES-128 (hardware rounds where the CPU has them,
//!   a bit-identical portable implementation elsewhere).

use crate::aes;

/// Words in one ChaCha block, and in [`Prg`]'s buffer.
const BLOCK_WORDS: usize = 16;

/// The ChaCha12 block function (RFC 8439 layout, six double rounds).
fn chacha_block(key: &[u32; 8], counter: u64, nonce: u64) -> [u32; BLOCK_WORDS] {
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    let mut state = [0u32; BLOCK_WORDS];
    state[0..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = nonce as u32;
    state[15] = (nonce >> 32) as u32;
    let mut w = state;
    for _ in 0..6 {
        // Two rounds per iteration: one column round, one diagonal round.
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    for (o, s) in w.iter_mut().zip(state.iter()) {
        *o = o.wrapping_add(*s);
    }
    w
}

#[inline]
fn quarter(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// A seeded ChaCha12 stream generator.
///
/// The stream is a sequence of 32-bit words — the blocks of counters
/// 0, 1, 2, … laid end to end — and every accessor consumes whole words
/// from it in order, so any interleaving of calls reads the same words
/// the one-word-at-a-time [`Prg::next_u32`] would.
///
/// ```
/// use c2pi_mpc::prg::Prg;
/// let mut a = Prg::from_seed([7u8; 32]);
/// let mut b = Prg::from_seed([7u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Prg {
    key: [u32; 8],
    nonce: u64,
    counter: u64,
    buf: [u32; BLOCK_WORDS],
    pos: usize,
}

impl Prg {
    /// Creates a generator from a 256-bit seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(seed[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        Prg { key, nonce: 0, counter: 0, buf: [0; BLOCK_WORDS], pos: BLOCK_WORDS }
    }

    /// Creates a generator from a 256-bit seed and an explicit stream
    /// nonce. Distinct nonces under the same seed yield independent
    /// streams — how a dealt seed expands under its session nonce.
    pub fn from_seed_nonce(seed: [u8; 32], nonce: u64) -> Self {
        let mut prg = Prg::from_seed(seed);
        prg.nonce = nonce;
        prg
    }

    /// Creates a generator from a `u64` convenience seed.
    pub fn from_u64(seed: u64) -> Self {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&seed.to_le_bytes());
        s[8..16].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
        Prg::from_seed(s)
    }

    fn refill(&mut self) {
        self.buf = chacha_block(&self.key, self.counter, self.nonce);
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    /// Hands the next `n` stream words to `emit`, in order, as the
    /// longest runs the buffer holds — the bulk accessors' way of paying
    /// the refill check once per run instead of once per word.
    fn take_words(&mut self, mut n: usize, mut emit: impl FnMut(&[u32])) {
        while n > 0 {
            if self.pos == BLOCK_WORDS {
                self.refill();
            }
            let run = n.min(BLOCK_WORDS - self.pos);
            emit(&self.buf[self.pos..self.pos + run]);
            self.pos += run;
            n -= run;
        }
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.pos == BLOCK_WORDS {
            self.refill();
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        (self.next_u32() as u64) | ((self.next_u32() as u64) << 32)
    }

    /// Next 128 random bits (one GC wire label).
    pub fn next_u128(&mut self) -> u128 {
        (self.next_u64() as u128) | ((self.next_u64() as u128) << 64)
    }

    /// Fills a `u64` vector.
    pub fn next_u64s(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        // A run may start or end mid-element when single words were
        // drawn before; the odd word waits here for its other half.
        let mut low: Option<u32> = None;
        self.take_words(2 * n, |mut run| {
            if let Some(lo) = low.take() {
                out.push(lo as u64 | (run[0] as u64) << 32);
                run = &run[1..];
            }
            let pairs = run.chunks_exact(2);
            low = pairs.remainder().first().copied();
            out.extend(pairs.map(|p| p[0] as u64 | (p[1] as u64) << 32));
        });
        out
    }

    /// Next random bit.
    pub fn next_bool(&mut self) -> bool {
        self.next_u32() & 1 == 1
    }

    /// Fills a byte buffer. A length that is not a multiple of four
    /// still consumes a whole final word (its high bytes are dropped).
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let (body, tail) = out.split_at_mut(out.len() & !3);
        let words = body.len() / 4;
        let mut quads = body.chunks_exact_mut(4);
        self.take_words(words, |run| {
            for (w, quad) in run.iter().zip(quads.by_ref()) {
                quad.copy_from_slice(&w.to_le_bytes());
            }
        });
        if !tail.is_empty() {
            let w = self.next_u32().to_le_bytes();
            tail.copy_from_slice(&w[..tail.len()]);
        }
    }

    /// Forks an independent child generator keyed by the next 256 bits
    /// of this stream. Children are computationally independent of each
    /// other and of the parent's later output — the right way to derive
    /// per-inference seeds from a session master seed (unlike
    /// `seed + counter`, which produces related ChaCha keys).
    pub fn fork(&mut self) -> Prg {
        let mut seed = [0u8; 32];
        self.fill_bytes(&mut seed);
        Prg::from_seed(seed)
    }
}

/// Derives the stream of per-inference seeds a session consumes, domain
/// separated from every other use of the session's master seed.
///
/// ```
/// use c2pi_mpc::prg::SeedSequence;
/// let mut a = SeedSequence::new(7, b"dealer");
/// let mut b = SeedSequence::new(7, b"noise");
/// assert_ne!(a.next(), b.next()); // distinct domains diverge
/// ```
#[derive(Debug, Clone)]
pub struct SeedSequence {
    prg: Prg,
}

impl SeedSequence {
    /// Creates a sequence from a master seed and a domain label.
    pub fn new(master: u64, domain: &[u8]) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&master.to_le_bytes());
        for (i, &b) in domain.iter().take(24).enumerate() {
            key[8 + i] = b;
        }
        SeedSequence { prg: Prg::from_seed(key) }
    }

    /// The next per-inference seed: the first word of a freshly
    /// [`Prg::fork`]ed child, so consecutive seeds come from
    /// computationally independent 256-bit keys rather than adjacent
    /// positions of one stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.prg.fork().next_u64()
    }
}

/// Stateless random-access companion of [`SeedSequence`]: the seed for
/// position `index` of the `(master, domain)` stream, without walking
/// the sequence. Evaluation loops that visit items by index (per-image
/// defense draws, per-inference session noise) derive their seeds here
/// so that every consumer of the same `(master, domain, index)` triple
/// sees the same seed — the unification behind
/// `c2pi-core`'s defense plumbing.
///
/// ```
/// use c2pi_mpc::prg::indexed_seed;
/// // Deterministic and domain separated:
/// assert_eq!(indexed_seed(7, b"defense", 3), indexed_seed(7, b"defense", 3));
/// assert_ne!(indexed_seed(7, b"defense", 3), indexed_seed(7, b"defense", 4));
/// assert_ne!(indexed_seed(7, b"defense", 3), indexed_seed(7, b"dealer", 3));
/// // Domains longer than the 16 direct key bytes still separate —
/// // including permutations a naive positional fold would collide:
/// assert_ne!(
///     indexed_seed(7, b"c2pi/long-domain/alpha", 0),
///     indexed_seed(7, b"c2pi/long-domain/beta", 0),
/// );
/// assert_ne!(
///     indexed_seed(7, b"AxxxxxxxxxxxxxxxB", 0),
///     indexed_seed(7, b"BxxxxxxxxxxxxxxxA", 0),
/// );
/// ```
pub fn indexed_seed(master: u64, domain: &[u8], index: u64) -> u64 {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&master.to_le_bytes());
    if domain.len() <= 16 {
        key[8..8 + domain.len()].copy_from_slice(domain);
    } else {
        // Compress long domains to a 16-byte digest through the PRG: a
        // position-dependent polynomial fold seeds one ChaCha block.
        // (A plain positional xor would be commutative per slot and let
        // crafted domains collide.)
        let mut dkey = [0u8; 32];
        for (i, &b) in domain.iter().enumerate() {
            dkey[i % 32] = dkey[i % 32].wrapping_mul(31).wrapping_add(b);
        }
        dkey[31] ^= domain.len() as u8;
        let mut digest = [0u8; 16];
        Prg::from_seed(dkey).fill_bytes(&mut digest);
        key[8..24].copy_from_slice(&digest);
    }
    key[24..32].copy_from_slice(&index.to_le_bytes());
    Prg::from_seed(key).next_u64()
}

/// Tweakable correlation-robust hash for half-gates garbling:
/// `H(label, tweak) = π(π(label) ⊕ tweak) ⊕ π(label)`, with `π` AES-128
/// under a fixed public key.
///
/// This is the two-call tweakable Matyas–Meyer–Oseas construction, the
/// one with a proof of *tweakable circular* correlation robustness —
/// what free-XOR half-gates needs, because the evaluator sees hashes of
/// labels that differ by the secret Δ under tweaks the garbler chose.
/// The cheaper single-call `π(2x ⊕ t) ⊕ 2x ⊕ t` is not used: it lacks
/// that property. The tweak is the gate index (two per AND gate) or,
/// for an arithmetic output projection, `2⁶³` plus the output index, so
/// every hash in a garbling is domain separated.
///
/// Both parties of a session expand the same dealt seed and must reach
/// the same tables, so this is one function of `(label, tweak)` on every
/// host: AES instructions where the CPU has them, a portable
/// implementation of the same permutation elsewhere, never a different
/// hash. Half-gates spends four of these per AND garbled and two per AND
/// evaluated; it is the [`hash128_many`] batch of one.
pub fn hash128(label: u128, tweak: u64) -> u128 {
    let mut l = [label];
    hash128_many(&mut l, &[tweak]);
    l[0]
}

/// `N` independent [`hash128`]s at once: `labels[i] ← H(labels[i],
/// tweaks[i])`.
///
/// One AES round waits several cycles on the round before it, but the
/// unit can start a new one every cycle, so a lone hash leaves the
/// pipeline mostly idle. The batch runs rounds-outer, lanes-inner; its
/// `N` chains overlap and the cost per hash falls until `N` covers that
/// latency (about eight).
#[inline]
pub fn hash128_many<const N: usize>(labels: &mut [u128; N], tweaks: &[u64; N]) {
    aes::hash_many(labels, tweaks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Prg::from_u64(42);
        let mut b = Prg::from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_u64(1);
        let mut b = Prg::from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn output_looks_uniform() {
        // Bit-balance sanity check on 64k bits.
        let mut prg = Prg::from_u64(7);
        let mut ones = 0u32;
        for _ in 0..1024 {
            ones += prg.next_u64().count_ones();
        }
        let total = 1024 * 64;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit fraction {frac}");
    }

    /// A one-word-at-a-time generator, every accessor composed from
    /// `next_u32`: the oracle the run-based bulk accessors of [`Prg`]
    /// are checked against.
    struct ScalarPrg {
        key: [u32; 8],
        nonce: u64,
        counter: u64,
        buf: [u32; 16],
        pos: usize,
    }

    impl ScalarPrg {
        fn shadow(prg: &Prg) -> Self {
            assert_eq!((prg.counter, prg.pos), (0, BLOCK_WORDS), "shadow a fresh generator");
            ScalarPrg { key: prg.key, nonce: prg.nonce, counter: 0, buf: [0; 16], pos: 16 }
        }

        fn next_u32(&mut self) -> u32 {
            if self.pos >= 16 {
                self.buf = chacha_block(&self.key, self.counter, self.nonce);
                self.counter = self.counter.wrapping_add(1);
                self.pos = 0;
            }
            self.pos += 1;
            self.buf[self.pos - 1]
        }

        fn next_u64(&mut self) -> u64 {
            (self.next_u32() as u64) | ((self.next_u32() as u64) << 32)
        }

        fn next_u128(&mut self) -> u128 {
            (self.next_u64() as u128) | ((self.next_u64() as u128) << 64)
        }

        fn fill_bytes(&mut self, out: &mut [u8]) {
            for chunk in out.chunks_mut(4) {
                let v = self.next_u32().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }

        fn fork(&mut self) -> Prg {
            let mut seed = [0u8; 32];
            self.fill_bytes(&mut seed);
            Prg::from_seed(seed)
        }
    }

    #[test]
    fn fill_bytes_handles_ragged_lengths() {
        for len in [0usize, 1, 3, 4, 7, 63, 64, 65, 255, 256, 257, 1021] {
            let mut prg = Prg::from_u64(9);
            let mut oracle = ScalarPrg::shadow(&prg);
            let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
            prg.fill_bytes(&mut got);
            oracle.fill_bytes(&mut want);
            assert_eq!(got, want, "fill_bytes({len})");
            // A ragged tail consumed its whole last word.
            assert_eq!(prg.next_u32(), oracle.next_u32(), "after fill_bytes({len})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn any_interleaving_reads_the_scalar_stream(
            seed in any::<u64>(),
            nonce in any::<u64>(),
            // Each draw packs an accessor (mod 7) and a length (div 7).
            ops in proptest::collection::vec(0usize..2100, 1..40),
        ) {
            let mut key = [0u8; 32];
            Prg::from_u64(seed).fill_bytes(&mut key);
            let mut prg = Prg::from_seed_nonce(key, nonce);
            let mut oracle = ScalarPrg::shadow(&prg);
            for (op, n) in ops.into_iter().map(|v| (v % 7, v / 7)) {
                match op {
                    0 => prop_assert_eq!(prg.next_u32(), oracle.next_u32()),
                    1 => prop_assert_eq!(prg.next_u64(), oracle.next_u64()),
                    2 => prop_assert_eq!(prg.next_u128(), oracle.next_u128()),
                    3 => prop_assert_eq!(prg.next_bool(), oracle.next_u32() & 1 == 1),
                    4 => {
                        let want: Vec<u64> = (0..n).map(|_| oracle.next_u64()).collect();
                        prop_assert_eq!(prg.next_u64s(n), want);
                    }
                    5 => {
                        let (mut got, mut want) = (vec![0u8; n], vec![0u8; n]);
                        prg.fill_bytes(&mut got);
                        oracle.fill_bytes(&mut want);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let (mut a, mut b) = (prg.fork(), oracle.fork());
                        prop_assert_eq!(a.next_u128(), b.next_u128());
                    }
                }
            }
            prop_assert_eq!(prg.next_u32(), oracle.next_u32());
        }
    }

    #[test]
    fn hash128_is_deterministic_and_tweak_sensitive() {
        let l = 0xfeed_beef_dead_c0de_u128;
        assert_eq!(hash128(l, 3), hash128(l, 3));
        assert_ne!(hash128(l, 3), hash128(l, 4));
        assert_ne!(hash128(l, 3), hash128(l ^ 1, 3));
    }

    #[test]
    fn hash128_is_pinned() {
        // Garbler and evaluator may run on different hosts and must hash
        // identically; a change of construction, key or byte order has
        // to fail here, not in a cross-host run. `hash128_many` goes
        // through whichever AES path this CPU selects; the parity tests
        // in `aes` tie that to the portable one.
        const LABEL: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        const PINNED: [u128; 2] =
            [0xd716_c653_d5cf_13e5_7ad0_6874_dfee_a88e, 0xda9c_425b_a2a7_914c_eb66_2e0d_f8e4_e40e];
        assert_eq!(hash128(LABEL, 0), PINNED[0]);
        assert_eq!(hash128(LABEL, 0x8000_0000_0000_0001), PINNED[1]);
        let mut four = [LABEL; 4];
        hash128_many(&mut four, &[0, 0x8000_0000_0000_0001, 0, 0x8000_0000_0000_0001]);
        assert_eq!(four, [PINNED[0], PINNED[1], PINNED[0], PINNED[1]]);
    }

    #[test]
    fn forked_children_are_independent() {
        let mut parent = Prg::from_u64(11);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
        // Same parent seed reproduces the same children.
        let mut parent2 = Prg::from_u64(11);
        let mut c1b = parent2.fork();
        let a2: Vec<u64> = (0..8).map(|_| c1b.next_u64()).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn seed_sequences_are_domain_separated() {
        let mut dealer = SeedSequence::new(42, b"dealer");
        let mut noise = SeedSequence::new(42, b"noise");
        let d: Vec<u64> = (0..4).map(|_| dealer.next()).collect();
        let n: Vec<u64> = (0..4).map(|_| noise.next()).collect();
        assert_ne!(d, n);
        let mut dealer2 = SeedSequence::new(42, b"dealer");
        let d2: Vec<u64> = (0..4).map(|_| dealer2.next()).collect();
        assert_eq!(d, d2);
        // Consecutive seeds differ (fresh randomness per inference).
        assert_ne!(d[0], d[1]);
    }

    #[test]
    fn u128_stream_is_consistent_with_u64s() {
        let mut a = Prg::from_u64(3);
        let mut b = Prg::from_u64(3);
        let lo = b.next_u64() as u128;
        let hi = b.next_u64() as u128;
        assert_eq!(a.next_u128(), lo | (hi << 64));
    }
}
