//! Trusted-dealer correlated randomness.
//!
//! A real Delphi deployment produces these correlations with
//! linearly homomorphic encryption in an input-independent offline phase;
//! Cheetah produces them with lattice HE. No HE crate exists in the
//! sanctioned offline set, so the dealer stands in for those offline
//! phases (DESIGN.md §3) — the PI engines charge the *modelled* offline
//! ciphertext traffic separately, while all online interaction runs for
//! real over the byte-counted channel.
//!
//! Every correlation is generated deterministically from the dealer seed
//! and split into a client half and a server half **before** the two
//! protocol threads start, so no hidden channel exists between parties.

use crate::bitvec::BitVec;
use crate::gmw::BitTriples;
use crate::prg::Prg;
use crate::ring::RingMatrix;
use crate::share::{share_secret, ShareVec};
use crate::{MpcError, Result};

/// Which party's halves of a correlation a deal materialises.
///
/// Every correlation is one function of the dealer stream; a sided deal
/// computes the same function and keeps only the half its party will
/// read — it **skips, never reorders**: the draws a half does not need
/// are still taken from the stream (and dropped), so the dealer's PRG
/// ends exactly where the two-sided deal leaves it and the kept half is
/// bit-identical to the same half of [`Halves::Both`]. What a sided deal
/// saves is the work *derived* from the draws: the client half of a
/// masked-linear correlation is two raw draws (no `W·A` product, no read
/// of `W` beyond its shape), the server half of a pre-garbled layer is Δ
/// and the garbler's zero labels (no gate hash, no tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halves {
    /// Both parties' halves — one process playing both parties.
    Both,
    /// Only the client's (evaluator's) half.
    Client,
    /// Only the server's (garbler's) half.
    Server,
}

impl Halves {
    /// Whether the client half is materialised.
    pub fn client(self) -> bool {
        self != Halves::Server
    }

    /// Whether the server half is materialised.
    pub fn server(self) -> bool {
        self != Halves::Client
    }
}

/// The compact artifact a seed-compressed dealer actually ships per
/// inference: a PRG seed and a session nonce. Both parties expand their
/// correlated-randomness halves locally from the same `DealtSeed`
/// (deterministically, via [`Dealer::for_dealt`]), so the dealt bytes on
/// the wire are this struct's 20-byte encoding instead of the megabytes
/// of expanded triples, labels and tables.
///
/// The nonce is a fingerprint of the deployment (backend, plan shape,
/// master configuration) mixed into the expansion PRG: the same 64-bit
/// seed dealt under two different deployments expands to unrelated
/// correlations, so persisted seeds cannot be replayed across sessions.
/// It is also the whole agreement on the plan: the receiving party
/// compares it with its own fingerprint before expanding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DealtSeed {
    /// Per-inference PRG seed both parties expand locally.
    pub seed: u64,
    /// Session nonce (deployment fingerprint) domain-separating the
    /// expansion — see the type docs.
    pub nonce: u64,
}

const DEALT_MAGIC: u16 = 0xD517;
/// Names the function `seed → material` as much as the byte layout, so
/// a peer on another function is refused up front instead of expanding
/// material the other side cannot use: version 7 garbles and compares
/// each non-linear step at its plan width instead of all 64 bits (the
/// width also enters the session fingerprint, so the nonce moves too);
/// version 6 drops the per-step
/// `(kind, items)` list after the nonce, which hashes the same list
/// (same expansion as version 5); version 5 garbles a max pool and the
/// ReLU after it as one fused unit from one fork of the stream (version
/// 4 garbled them as two layers, from two forks, under the same step
/// metadata and session fingerprint); version 4 no longer opens a set
/// with 128 base-OT seed pairs nobody read (version 3 drew them first,
/// so every later draw of either backend sat elsewhere in the stream);
/// version 3 draws bit triples as 64-bit words (version 2 spent a
/// 32-bit word of keystream per bit); version 2 moved the gate hash to
/// fixed-key AES (version 1 garbled under a ChaCha8 hash). One version
/// covers both backends: one byte for the whole function is simpler
/// than one per backend.
const DEALT_VERSION: u8 = 7;

impl DealtSeed {
    /// Size of the encoded form — magic, version, reserved byte, seed,
    /// nonce: the bytes a seed-compressed dealer actually ships per
    /// inference.
    pub const WIRE_BYTES: u64 = 2 + 1 + 1 + 8 + 8;

    /// Serializes to the wire format (little-endian, versioned).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_BYTES as usize);
        out.extend_from_slice(&DEALT_MAGIC.to_le_bytes());
        out.push(DEALT_VERSION);
        out.push(0);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Parses the wire format produced by [`DealtSeed::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::Protocol`] for truncated, oversized or
    /// wrong-version input; the version is checked before the length,
    /// so a frame of another version is refused as such.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let fail = |why: &str| MpcError::Protocol(format!("dealt seed: {why}"));
        if bytes.len() < 4 {
            return Err(fail("truncated header"));
        }
        if u16::from_le_bytes([bytes[0], bytes[1]]) != DEALT_MAGIC {
            return Err(fail("bad magic"));
        }
        if bytes[2] != DEALT_VERSION {
            return Err(fail("unsupported version"));
        }
        if bytes.len() as u64 != Self::WIRE_BYTES {
            return Err(fail("wrong length"));
        }
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(w)
        };
        Ok(DealtSeed { seed: word(4), nonce: word(12) })
    }
}

/// A scalar/elementwise Beaver triple share: `(a, b, c)` with
/// `c = a·b` reconstructed across parties.
#[derive(Debug, Clone)]
pub struct TripleShare {
    /// Share of the `a` mask vector.
    pub a: ShareVec,
    /// Share of the `b` mask vector.
    pub b: ShareVec,
    /// Share of the product vector `c`.
    pub c: ShareVec,
}

/// One party's half of a masked-linear correlation for a *server-known*
/// matrix `W [m, k]` applied to a shared `[k, n]` input (the Delphi /
/// Cheetah linear-layer offline artifact).
///
/// Client half: the mask `A` and the share `c0`; server half: the share
/// `c1`, with `c0 + c1 = W·A`.
#[derive(Debug, Clone)]
pub struct LinearCorrClient {
    /// Random mask matrix `A [k, n]`, known only to the client.
    pub mask: RingMatrix,
    /// Client's share of `W·A`.
    pub wa_share: RingMatrix,
}

/// Server half of the masked-linear correlation.
#[derive(Debug, Clone)]
pub struct LinearCorrServer {
    /// Server's share of `W·A`.
    pub wa_share: RingMatrix,
}

/// Bytes `n` elementwise Beaver triples occupy expanded, both halves:
/// six share vectors of `n` words ([`Dealer::beaver_triples`]).
pub fn beaver_bytes(n: usize) -> u64 {
    48 * n as u64
}

/// Bytes the masked-linear correlation of a `w [m, k]` over `n` columns
/// occupies expanded, both halves: the mask `A [k, n]` and the two
/// `W·A` shares `[m, n]` ([`Dealer::linear_corr_for`]).
pub fn linear_corr_bytes(m: usize, k: usize, n: usize) -> u64 {
    8 * (k * n + 2 * m * n) as u64
}

/// Bytes `n` boolean AND triples occupy expanded, both halves: the six
/// vectors bit-packed, `⌈6n/8⌉`, not rounded up to words
/// ([`Dealer::bit_triples_for`]).
pub fn bit_triple_bytes(n: usize) -> u64 {
    (6 * n).div_ceil(8) as u64
}

/// The trusted dealer.
///
/// Under seed-compressed dealing none of its material crosses the wire;
/// what the pre-compression dealer *would* have shipped is arithmetic
/// on the correlations' shapes ([`beaver_bytes`], [`linear_corr_bytes`],
/// [`bit_triple_bytes`], [`crate::gcpre::MaskedOp::expanded_bytes`]),
/// reported next to the actual [`DealtSeed`] wire bytes.
#[derive(Debug)]
pub struct Dealer {
    prg: Prg,
}

impl Dealer {
    /// Creates a dealer from a seed. All correlations are deterministic
    /// in this seed.
    pub fn new(seed: u64) -> Self {
        Dealer { prg: Prg::from_u64(seed ^ 0xDEA1_DEA1_DEA1_DEA1) }
    }

    /// Creates the expansion dealer for a [`DealtSeed`]: the PRG key
    /// mixes the per-inference seed with a fixed domain label, and the
    /// session nonce enters as the stream nonce — so equal seeds under
    /// different deployments (different nonce) expand to unrelated
    /// correlations.
    pub fn for_dealt(dealt: &DealtSeed) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&dealt.seed.to_le_bytes());
        key[8..24].copy_from_slice(b"c2pi/dealt-seed!");
        Dealer { prg: Prg::from_seed_nonce(key, dealt.nonce) }
    }

    /// Generates `n` elementwise Beaver triples, returning the
    /// (client, server) halves.
    pub fn beaver_triples(&mut self, n: usize) -> (TripleShare, TripleShare) {
        let a: Vec<u64> = self.prg.next_u64s(n);
        let b: Vec<u64> = self.prg.next_u64s(n);
        let c: Vec<u64> = a.iter().zip(b.iter()).map(|(&x, &y)| x.wrapping_mul(y)).collect();
        let (a0, a1) = share_secret(&a, &mut self.prg);
        let (b0, b1) = share_secret(&b, &mut self.prg);
        let (c0, c1) = share_secret(&c, &mut self.prg);
        (TripleShare { a: a0, b: b0, c: c0 }, TripleShare { a: a1, b: b1, c: c1 })
    }

    /// Generates the masked-linear correlation for a server-known matrix
    /// `w [m, k]` and a shared input with `n` columns — both halves of
    /// [`Dealer::linear_corr_for`].
    ///
    /// # Errors
    ///
    /// Propagates ring-dimension errors (a bug in the caller's shapes).
    pub fn linear_corr(
        &mut self,
        w: &RingMatrix,
        n: usize,
    ) -> Result<(LinearCorrClient, LinearCorrServer)> {
        let (client, server) = self.linear_corr_for(w, n, Halves::Both)?;
        Ok((client.expect("both halves dealt"), server.expect("both halves dealt")))
    }

    /// The masked-linear correlation for `w [m, k]` over `n` columns,
    /// materialising only `halves`. The client half is the mask `A` and
    /// `c₀`, two raw draws: a client-sided deal reads nothing of `w` but
    /// its shape and multiplies nothing. The server half
    /// `c₁ = W·A − c₀` needs both draws and the product.
    ///
    /// # Errors
    ///
    /// Propagates ring-dimension errors (a bug in the caller's shapes).
    pub fn linear_corr_for(
        &mut self,
        w: &RingMatrix,
        n: usize,
        halves: Halves,
    ) -> Result<(Option<LinearCorrClient>, Option<LinearCorrServer>)> {
        let (m, k) = (w.rows(), w.cols());
        let mask = RingMatrix::from_vec(self.prg.next_u64s(k * n), k, n)?;
        let c0 = self.prg.next_u64s(m * n);
        let server = if halves.server() {
            let mut c1 = w.matmul(&mask)?.into_vec();
            for (v, &r) in c1.iter_mut().zip(&c0) {
                *v = v.wrapping_sub(r);
            }
            Some(LinearCorrServer { wa_share: RingMatrix::from_vec(c1, m, n)? })
        } else {
            None
        };
        let client = if halves.client() {
            Some(LinearCorrClient { mask, wa_share: RingMatrix::from_vec(c0, m, n)? })
        } else {
            None
        };
        Ok((client, server))
    }

    /// Forks an independent PRG off the dealer stream — the garbling
    /// randomness of an offline-garbled layer is drawn from such a
    /// fork, so dealing stays a pure function of the dealer seed while
    /// per-layer garbling can proceed without holding the dealer.
    pub fn fork_prg(&mut self) -> Prg {
        self.prg.fork()
    }

    /// Generates `n` boolean AND triples directly (the silent-OT /
    /// Ferret-style correlation used by the Cheetah-flavoured engine,
    /// whose online phase then only exchanges the GMW openings; the
    /// OT traffic that would produce them is a modelled price, see
    /// DESIGN.md §3) — both halves of [`Dealer::bit_triples_for`].
    pub fn bit_triples(&mut self, n: usize) -> (BitTriples, BitTriples) {
        let (client, server) = self.bit_triples_for(n, Halves::Both);
        (client.expect("both halves dealt"), server.expect("both halves dealt"))
    }

    /// `n` boolean AND triples, materialising only `halves`.
    ///
    /// Word-packed from the draw on: `a₀, a₁, b₀, b₁, c₀` are five runs
    /// of `⌈n/64⌉` stream words with the tails masked, and
    /// `c₁ = ((a₀⊕a₁) ∧ (b₀⊕b₁)) ⊕ c₀` is computed 64 triples at a time.
    /// The server half depends on all five runs, so siding saves it
    /// nothing; the client half is three of them as drawn.
    pub fn bit_triples_for(
        &mut self,
        n: usize,
        halves: Halves,
    ) -> (Option<BitTriples>, Option<BitTriples>) {
        let mut draw = || BitVec::from_words(self.prg.next_u64s(n.div_ceil(64)), n);
        let (a0, a1, b0, b1, c0) = (draw(), draw(), draw(), draw(), draw());
        let server = halves.server().then(|| {
            let c1 = a0.xor(&a1).and(&b0.xor(&b1)).xor(&c0);
            BitTriples::new(a1, b1, c1)
        });
        (halves.client().then(|| BitTriples::new(a0, b0, c0)), server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::reconstruct;

    #[test]
    fn beaver_triples_satisfy_c_equals_ab() {
        let mut dealer = Dealer::new(1);
        let (t0, t1) = dealer.beaver_triples(32);
        let a = reconstruct(&t0.a, &t1.a);
        let b = reconstruct(&t0.b, &t1.b);
        let c = reconstruct(&t0.c, &t1.c);
        for i in 0..32 {
            assert_eq!(c[i], a[i].wrapping_mul(b[i]));
        }
    }

    #[test]
    fn triples_are_fresh_each_call() {
        let mut dealer = Dealer::new(2);
        let (x0, _) = dealer.beaver_triples(4);
        let (y0, _) = dealer.beaver_triples(4);
        assert_ne!(x0.a.as_raw(), y0.a.as_raw());
    }

    #[test]
    fn linear_corr_reconstructs_to_w_times_mask() {
        let mut dealer = Dealer::new(3);
        let mut prg = Prg::from_u64(9);
        let w = RingMatrix::from_vec(prg.next_u64s(6), 2, 3).unwrap();
        let (cl, sv) = dealer.linear_corr(&w, 4).unwrap();
        let wa = w.matmul(&cl.mask).unwrap();
        let got = reconstruct(
            &ShareVec::from_raw(cl.wa_share.as_slice().to_vec()),
            &ShareVec::from_raw(sv.wa_share.as_slice().to_vec()),
        );
        assert_eq!(got, wa.as_slice());
    }

    #[test]
    fn sided_correlations_are_the_same_halves_and_leave_the_stream_in_place() {
        // Skip, don't reorder — and the client halves never read the
        // server's values: a zeroed `w` of the same shape deals the
        // identical client half.
        let mut prg = Prg::from_u64(10);
        let w = RingMatrix::from_vec(prg.next_u64s(15), 3, 5).unwrap();
        let zero_w = RingMatrix::from_vec(vec![0; 15], 3, 5).unwrap();
        let mut both = Dealer::new(12);
        let (lc, ls) = both.linear_corr(&w, 4).unwrap();
        let (bc, bs) = both.bit_triples(130);
        let next = both.prg.next_u64();

        let mut client = Dealer::new(12);
        let (c, s) = client.linear_corr_for(&zero_w, 4, Halves::Client).unwrap();
        let c = c.unwrap();
        assert!(s.is_none());
        assert_eq!((&c.mask, &c.wa_share), (&lc.mask, &lc.wa_share));
        let (c, s) = client.bit_triples_for(130, Halves::Client);
        assert_eq!((c, s), (Some(bc), None));
        assert_eq!(client.prg.next_u64(), next, "stream position after the client halves");

        let mut server = Dealer::new(12);
        let (c, s) = server.linear_corr_for(&w, 4, Halves::Server).unwrap();
        assert!(c.is_none());
        assert_eq!(s.unwrap().wa_share, ls.wa_share);
        let (c, s) = server.bit_triples_for(130, Halves::Server);
        assert_eq!((c, s), (None, Some(bs)));
        assert_eq!(server.prg.next_u64(), next, "stream position after the server halves");
    }

    #[test]
    fn dealer_is_deterministic_in_seed() {
        let (a0, _) = Dealer::new(7).beaver_triples(4);
        let (b0, _) = Dealer::new(7).beaver_triples(4);
        assert_eq!(a0.a.as_raw(), b0.a.as_raw());
    }

    fn sample_dealt() -> DealtSeed {
        DealtSeed { seed: 41, nonce: 0xFEED_F00D }
    }

    #[test]
    fn dealt_seed_roundtrips_in_twenty_bytes() {
        let ds = sample_dealt();
        let wire = ds.encode();
        assert_eq!(wire.len() as u64, DealtSeed::WIRE_BYTES);
        assert_eq!(wire.len(), 20);
        assert_eq!(wire[..4], [0x17, 0xD5, 7, 0], "magic, version, reserved");
        assert_eq!(DealtSeed::decode(&wire).unwrap(), ds);
    }

    #[test]
    fn dealt_seed_decode_rejects_malformed_input() {
        let wire = sample_dealt().encode();
        let why = |bytes: &[u8]| match DealtSeed::decode(bytes) {
            Err(MpcError::Protocol(why)) => why,
            other => panic!("{other:?}"),
        };
        assert_eq!(why(&wire[..3]), "dealt seed: truncated header");
        assert_eq!(why(&wire[..wire.len() - 1]), "dealt seed: wrong length");
        assert_eq!(why(&[&wire[..], &[0]].concat()), "dealt seed: wrong length");
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(why(&bad_magic), "dealt seed: bad magic");
        // A version-5 frame: the same header, then a step list after the
        // nonce. It is refused by its version, not its length.
        let mut v5 = wire.clone();
        v5[2] = 5;
        v5.extend_from_slice(&[1, 0, 3, 72, 0, 0, 0]);
        assert_eq!(why(&v5), "dealt seed: unsupported version");
    }

    #[test]
    fn for_dealt_is_deterministic_and_nonce_separated() {
        let ds = sample_dealt();
        let (a0, _) = Dealer::for_dealt(&ds).beaver_triples(8);
        let (b0, _) = Dealer::for_dealt(&ds).beaver_triples(8);
        assert_eq!(a0.a.as_raw(), b0.a.as_raw(), "same dealt seed must expand identically");
        let other = DealtSeed { nonce: ds.nonce ^ 1, ..ds };
        let (c0, _) = Dealer::for_dealt(&other).beaver_triples(8);
        assert_ne!(a0.a.as_raw(), c0.a.as_raw(), "nonce must domain-separate expansion");
    }

    #[test]
    fn bit_triples_are_word_packed_and_exact_for_ragged_lengths() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let mut dealer = Dealer::new(6);
            let (t0, t1) = dealer.bit_triples(n);
            assert_eq!((t0.len(), t1.len()), (n, n));
            let (a, b) = (t0.a.xor(&t1.a), t0.b.xor(&t1.b));
            assert_eq!(t0.c.xor(&t1.c), a.and(&b), "c = a ∧ b at n = {n}");
            // Six vectors of n packed bits, never whole words.
            assert_eq!(bit_triple_bytes(n), (3 * t0.len() + 3 * t1.len()).div_ceil(8) as u64);
            // Stream bits above n were masked off: a dirty tail word
            // would differ from the same bits repacked.
            for v in [&t0.a, &t0.b, &t0.c, &t1.a, &t1.b, &t1.c] {
                assert_eq!(v, &BitVec::from_bools(&v.to_bools()), "tail bits at n = {n}");
            }
            // Deterministic in the seed, fresh across seeds.
            assert_eq!(Dealer::new(6).bit_triples(n), (t0.clone(), t1));
            if n >= 64 {
                assert_ne!(Dealer::new(7).bit_triples(n).0, t0);
            }
        }
    }

    #[test]
    fn bit_triples_cost_five_word_runs_of_keystream() {
        // The v3 draw: 5·⌈n/64⌉ words, so whatever a set draws next
        // sits exactly that far down the stream.
        let n = 130;
        let mut dealer = Dealer::new(8);
        dealer.bit_triples(n);
        let mut reference = Dealer::new(8);
        reference.prg.next_u64s(5 * n.div_ceil(64));
        assert_eq!(dealer.prg.next_u64(), reference.prg.next_u64());
    }
}
