//! GMW-style boolean two-party computation: XOR-shared bits, batched
//! AND via bit triples, a log-depth millionaires' comparison, and the
//! DReLU (sign) protocol that powers the Cheetah/CrypTFlow2-flavoured
//! ReLU.
//!
//! Everything is word-packed ([`BitVec`]): an XOR-sharing is one
//! `BitVec` per party (the secret bits are `mine ⊕ peer`), an AND layer
//! over `n` positions is `⌈n/64⌉` word operations, and the comparison is
//! bit-sliced — the `n` inputs are transposed into one `n`-bit plane
//! per bit position, so the whole tree is plane-wise XOR/AND with no
//! per-bit gather. The counts are exact to the bit all the same: an AND
//! layer consumes `n` triples and exchanges one `⌈2n/8⌉`-byte frame per
//! direction (DESIGN.md §12).

use crate::bitvec::{transpose64, BitVec};
use crate::{MpcError, Result};
use c2pi_transport::Channel;

/// One party's share of a pool of boolean AND (bit Beaver) triples:
/// `a ⊕ a'`, `b ⊕ b'`, `c ⊕ c'` with `c = a·b` across parties. Three
/// word-packed vectors and a cursor: [`BitTriples::take`] copies the
/// next `n` out at whatever bit offset the cursor stands and advances
/// it, so consumption is exact to the bit and never moves the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTriples {
    pub(crate) a: BitVec,
    pub(crate) b: BitVec,
    pub(crate) c: BitVec,
    taken: usize,
}

impl BitTriples {
    /// Wraps three equally long share vectors as an untouched pool.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub(crate) fn new(a: BitVec, b: BitVec, c: BitVec) -> Self {
        assert!(a.len() == b.len() && b.len() == c.len(), "bit-triple share lengths differ");
        BitTriples { a, b, c, taken: 0 }
    }

    /// Number of triples not yet taken.
    pub fn len(&self) -> usize {
        self.a.len() - self.taken
    }

    /// Whether no triple is left.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the next `n` triples out of the pool.
    ///
    /// # Errors
    ///
    /// Returns a dealer error when fewer than `n` remain; the pool is
    /// left as it was.
    pub fn take(&mut self, n: usize) -> Result<BitTriples> {
        if self.len() < n {
            return Err(MpcError::Dealer(format!(
                "bit-triple pool exhausted: need {n}, have {}",
                self.len()
            )));
        }
        let at = self.taken;
        self.taken += n;
        Ok(BitTriples::new(self.a.slice(at, n), self.b.slice(at, n), self.c.slice(at, n)))
    }
}

/// Batched secure AND of two XOR-shared vectors, consuming one bit
/// triple per position. One round trip: each party sends its opened
/// `d = x⊕a`, `e = y⊕b` shares as one frame, `d ‖ e` concatenated at
/// bit granularity and little-endian bit-packed — `⌈2n/8⌉` bytes.
///
/// `is_initiator` breaks the send/receive symmetry; parties pass
/// opposite values.
///
/// # Errors
///
/// Returns transport errors, triple-pool exhaustion, a config error
/// when `x` and `y` differ in length, and a protocol error — before any
/// arithmetic on it — when the peer's frame is not exactly `⌈2n/8⌉`
/// bytes or sets a padding bit above `2n` in its last byte.
pub fn and_batch<C: Channel + ?Sized>(
    ep: &C,
    is_initiator: bool,
    x: &BitVec,
    y: &BitVec,
    triples: &mut BitTriples,
) -> Result<BitVec> {
    let n = x.len();
    if y.len() != n {
        return Err(MpcError::BadConfig("and_batch length mismatch".into()));
    }
    let t = triples.take(n)?;
    // Open d = x ⊕ a and e = y ⊕ b.
    let mine = BitVec::concat([&x.xor(&t.a), &y.xor(&t.b)]);
    let frame = mine.to_bytes();
    if is_initiator {
        ep.send_bytes(&frame)?;
    }
    let theirs = BitVec::from_bytes(&ep.recv_bytes()?, 2 * n)?;
    if !is_initiator {
        ep.send_bytes(&frame)?;
    }
    let opened = mine.xor(&theirs);
    let (d, e) = (opened.slice(0, n), opened.slice(n, n));
    // z = c ⊕ d·b ⊕ e·a ⊕ d·e (d·e added by the initiator only).
    let z = t.c.xor(&d.and(&t.b)).xor(&e.and(&t.a));
    Ok(if is_initiator { z.xor(&d.and(&e)) } else { z })
}

/// Bit-slices `values`: plane `j` of the result holds bit `j` of every
/// value, one 64×64 block transpose per 64 values (the last block
/// zero-padded).
fn bit_planes(values: &[u64], bits: usize) -> Vec<BitVec> {
    let n = values.len();
    let mut planes: Vec<Vec<u64>> = (0..bits).map(|_| Vec::with_capacity(n.div_ceil(64))).collect();
    for chunk in values.chunks(64) {
        let mut block = [0u64; 64];
        block[..chunk.len()].copy_from_slice(chunk);
        transpose64(&mut block);
        for (plane, &word) in planes.iter_mut().zip(&block) {
            plane.push(word);
        }
    }
    planes.into_iter().map(|words| BitVec::from_words(words, n)).collect()
}

/// Batched millionaires' protocol: party 0 holds private values `u`,
/// party 1 holds private values `v` (both `bits`-bit unsigned); the
/// output is an XOR-sharing of `[v > u]` per element.
///
/// Implemented as the classic `(lt, eq)` tree: leaf `lt_i = ¬u_i ∧ v_i`,
/// `eq_i = ¬(u_i ⊕ v_i)`, combined pairwise in `⌈log₂ bits⌉` levels —
/// each level is one batched [`and_batch`] round, so a comparison over
/// `n` elements consumes exactly `n ·`
/// [`drelu_bit_triples`](crate::relu::drelu_bit_triples)`(bits)` triples.
///
/// `my_values` are the party's own private inputs (bits at and above
/// `bits` are ignored); `is_party0` selects the `u` role (and
/// initiator).
///
/// # Errors
///
/// Returns [`MpcError::BadConfig`] unless `1 ≤ bits ≤ 64`, plus
/// transport and protocol errors or triple exhaustion.
pub fn millionaire_batch<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    my_values: &[u64],
    bits: u32,
    triples: &mut BitTriples,
) -> Result<BitVec> {
    if !(1..=64).contains(&bits) {
        return Err(MpcError::BadConfig(format!("millionaire width {bits} not in 1..=64")));
    }
    let mut planes = bit_planes(my_values, bits as usize);
    if is_party0 {
        for plane in &mut planes {
            *plane = plane.not();
        }
    }
    millionaire_planes(ep, is_party0, planes, triples)
}

/// The low (even) plane of every pair `(2p, 2p+1)`; an odd top plane
/// belongs to no pair.
fn lo_planes(planes: &[BitVec]) -> impl Iterator<Item = &BitVec> {
    planes.chunks_exact(2).map(|pair| &pair[0])
}

/// The high (odd) plane of every pair `(2p, 2p+1)`.
fn hi_planes(planes: &[BitVec]) -> impl Iterator<Item = &BitVec> {
    planes.chunks_exact(2).map(|pair| &pair[1])
}

/// The comparison tree over bit planes, least-significant first: party
/// 0 passes the planes of `¬u`, party 1 the planes of `v`. Each party's
/// planes are at once its private AND operand of the leaf
/// `lt = ¬u ∧ v` and its XOR share of `eq = ¬u ⊕ v`.
fn millionaire_planes<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    mine: Vec<BitVec>,
    triples: &mut BitTriples,
) -> Result<BitVec> {
    let n = mine.first().map_or(0, BitVec::len);
    let flat = BitVec::concat(&mine);
    // A private bit enters the AND as the degenerate sharing (bit, 0).
    let zeros = BitVec::zeros(flat.len());
    let (lhs, rhs) = if is_party0 { (&flat, &zeros) } else { (&zeros, &flat) };
    let leaf = and_batch(ep, is_party0, lhs, rhs, triples)?;
    let mut lt: Vec<BitVec> = (0..mine.len()).map(|p| leaf.slice(p * n, n)).collect();
    let mut eq = mine;
    // Each level pairs planes (lo, hi) = (2p, 2p+1):
    // LT = lt_hi ⊕ eq_hi·lt_lo, EQ = eq_hi·eq_lo — two ANDs per pair,
    // the whole level in one call laid out [eq_hi·lt_lo ‖ eq_hi·eq_lo],
    // each half pair after pair. An odd top plane is carried up
    // unchanged.
    while lt.len() > 1 {
        let half = lt.len() / 2;
        let x = BitVec::concat(hi_planes(&eq).chain(hi_planes(&eq)));
        let y = BitVec::concat(lo_planes(&lt).chain(lo_planes(&eq)));
        let prod = and_batch(ep, is_party0, &x, &y, triples)?;
        let mut next_lt: Vec<BitVec> =
            hi_planes(&lt).enumerate().map(|(p, hi)| hi.xor(&prod.slice(p * n, n))).collect();
        let mut next_eq: Vec<BitVec> = (half..2 * half).map(|p| prod.slice(p * n, n)).collect();
        if lt.len() % 2 == 1 {
            next_lt.extend(lt.pop());
            next_eq.extend(eq.pop());
        }
        lt = next_lt;
        eq = next_eq;
    }
    Ok(lt.pop().expect("at least one plane"))
}

/// [`drelu_batch_at`] over the whole 64-bit ring: `187·n` triples in 14
/// flights.
///
/// # Errors
///
/// As [`drelu_batch_at`].
pub fn drelu_batch<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    my_share: &[u64],
    triples: &mut BitTriples,
) -> Result<BitVec> {
    drelu_batch_at(ep, is_party0, my_share, 64, triples)
}

/// DReLU over additively shared ring values at width `bits`: returns an
/// XOR-sharing of `[x ≥ 0]` for each element, where `x = my_share +
/// peer_share` (mod 2^64) holds a two's-complement fixed-point value
/// with `|x| < 2^(bits−1)` (or any value at 64 bits). Reducing mod
/// `2^bits` is a ring map, so the low `bits` bits of the shares add up to
/// those of `x`, and their top bit is its sign.
///
/// Uses `msb(x) = msb(x0) ⊕ msb(x1) ⊕ carry`, bit `bits − 1` of each
/// share and the carry into it, computed by one millionaires' comparison
/// on the `bits − 1` bits below: over `n` elements, exactly
/// `n ·` [`drelu_bit_triples`](crate::relu::drelu_bit_triples)`(bits − 1)`
/// triples in `2·(1 + ⌈log₂(bits − 1)⌉)` flights — 67 triples in 12
/// flights at 24 bits, 91 in 12 at 32, 187 in 14 at 64.
///
/// # Errors
///
/// Returns [`MpcError::BadConfig`] unless `2 ≤ bits ≤ 64`, plus
/// transport and protocol errors or triple exhaustion.
pub fn drelu_batch_at<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    my_share: &[u64],
    bits: usize,
    triples: &mut BitTriples,
) -> Result<BitVec> {
    if !(2..=64).contains(&bits) {
        return Err(MpcError::BadConfig(format!("drelu width {bits} not in 2..=64")));
    }
    // carry = (x0_low + x1_low ≥ 2^(bits−1)) = (v > u) for u = ¬x0_low
    // mod 2^(bits−1) and v = x1_low. The tree wants ¬u from party 0 —
    // x0_low again — so either party's operand is the low bits − 1 planes
    // of its own share, and the same transpose hands over the msb plane
    // for free.
    let mut planes = bit_planes(my_share, bits);
    let msb = planes.pop().expect("at least two planes");
    let carry = millionaire_planes(ep, is_party0, planes, triples)?;
    // msb share = own msb ⊕ carry share; drelu = ¬msb (party 0 flips).
    let sign = msb.xor(&carry);
    Ok(if is_party0 { sign.not() } else { sign })
}

#[cfg(test)]
/// The `Vec<bool>` kernel this module replaced, kept as the reference
/// the word kernel is tested against: one `bool` per bit, a per-bit
/// gather at every tree level, element-major layout — and the same
/// tree, triple counts and frames.
mod oracle {
    use super::{BitTriples, BitVec, Channel, MpcError, Result};

    pub struct BoolTriples {
        a: Vec<bool>,
        b: Vec<bool>,
        c: Vec<bool>,
    }

    impl From<&BitTriples> for BoolTriples {
        fn from(t: &BitTriples) -> Self {
            BoolTriples { a: t.a.to_bools(), b: t.b.to_bools(), c: t.c.to_bools() }
        }
    }

    pub fn and_batch<C: Channel + ?Sized>(
        ep: &C,
        is_initiator: bool,
        x: &[bool],
        y: &[bool],
        triples: &mut BoolTriples,
    ) -> Result<Vec<bool>> {
        let n = x.len();
        if triples.a.len() < n {
            return Err(MpcError::Dealer("oracle pool exhausted".into()));
        }
        let a: Vec<bool> = triples.a.drain(..n).collect();
        let b: Vec<bool> = triples.b.drain(..n).collect();
        let c: Vec<bool> = triples.c.drain(..n).collect();
        let mut opened: Vec<bool> = Vec::with_capacity(2 * n);
        for i in 0..n {
            opened.push(x[i] ^ a[i]);
        }
        for i in 0..n {
            opened.push(y[i] ^ b[i]);
        }
        let frame = BitVec::from_bools(&opened).to_bytes();
        if is_initiator {
            ep.send_bytes(&frame)?;
        }
        let peer_frame = ep.recv_bytes()?;
        if !is_initiator {
            ep.send_bytes(&frame)?;
        }
        let peer_opened = BitVec::from_bytes(&peer_frame, 2 * n)?.to_bools();
        let mut z = Vec::with_capacity(n);
        for i in 0..n {
            let d = opened[i] ^ peer_opened[i];
            let e = opened[n + i] ^ peer_opened[n + i];
            let mut zi = c[i] ^ (d & b[i]) ^ (e & a[i]);
            if is_initiator {
                zi ^= d & e;
            }
            z.push(zi);
        }
        Ok(z)
    }

    pub fn millionaire_batch<C: Channel + ?Sized>(
        ep: &C,
        is_party0: bool,
        my_values: &[u64],
        bits: u32,
        triples: &mut BoolTriples,
    ) -> Result<Vec<bool>> {
        let n = my_values.len();
        let w = bits as usize;
        let mut my_bits: Vec<bool> = Vec::with_capacity(n * w);
        for &val in my_values {
            for bit in 0..w {
                my_bits.push((val >> bit) & 1 == 1);
            }
        }
        let zeros = vec![false; n * w];
        let negated: Vec<bool> = my_bits.iter().map(|&b| !b).collect();
        let (lhs, rhs) = if is_party0 { (&negated, &zeros) } else { (&zeros, &my_bits) };
        let mut lt = and_batch(ep, is_party0, lhs, rhs, triples)?;
        let mut eq = if is_party0 { negated.clone() } else { my_bits.clone() };
        // Bit-minor layout: [elem0 bit0..w, elem1 bit0..w, ...].
        let mut width = w;
        while width > 1 {
            let half = width / 2;
            let odd = width % 2 == 1;
            let pairs = n * half;
            let mut lt_lo = Vec::with_capacity(pairs);
            let mut lt_hi = Vec::with_capacity(pairs);
            let mut eq_lo = Vec::with_capacity(pairs);
            let mut eq_hi = Vec::with_capacity(pairs);
            for e in 0..n {
                let base = e * width;
                for p in 0..half {
                    lt_lo.push(lt[base + 2 * p]);
                    lt_hi.push(lt[base + 2 * p + 1]);
                    eq_lo.push(eq[base + 2 * p]);
                    eq_hi.push(eq[base + 2 * p + 1]);
                }
            }
            let mut left = eq_hi.clone();
            left.extend_from_slice(&eq_hi);
            let mut right = lt_lo.clone();
            right.extend_from_slice(&eq_lo);
            let prod = and_batch(ep, is_party0, &left, &right, triples)?;
            let new_width = half + usize::from(odd);
            let mut new_lt = vec![false; n * new_width];
            let mut new_eq = vec![false; n * new_width];
            for e in 0..n {
                for p in 0..half {
                    let idx = e * half + p;
                    new_lt[e * new_width + p] = lt_hi[idx] ^ prod[idx];
                    new_eq[e * new_width + p] = prod[pairs + idx];
                }
                if odd {
                    new_lt[e * new_width + half] = lt[e * width + width - 1];
                    new_eq[e * new_width + half] = eq[e * width + width - 1];
                }
            }
            lt = new_lt;
            eq = new_eq;
            width = new_width;
        }
        Ok(lt)
    }

    pub fn drelu_batch<C: Channel + ?Sized>(
        ep: &C,
        is_party0: bool,
        my_share: &[u64],
        bits: u32,
        triples: &mut BoolTriples,
    ) -> Result<Vec<bool>> {
        let low_mask: u64 = (1u64 << (bits - 1)) - 1;
        let inputs: Vec<u64> = my_share
            .iter()
            .map(|&s| if is_party0 { !s & low_mask } else { s & low_mask })
            .collect();
        let carry = millionaire_batch(ep, is_party0, &inputs, bits - 1, triples)?;
        Ok(my_share
            .iter()
            .zip(&carry)
            .map(|(&s, &c)| ((s >> (bits - 1)) & 1 == 1) ^ c ^ is_party0)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use crate::fixed::FixedPoint;
    use crate::prg::Prg;
    use crate::relu::drelu_bit_triples;
    use crate::share::share_secret;
    use c2pi_transport::{channel_pair, MemChannel, TrafficSnapshot};
    use proptest::prelude::*;

    /// Runs the two parties of a protocol on their own threads over a
    /// fresh in-memory channel; returns (party 0, party 1, traffic).
    fn run_pair<T: Send>(
        party0: impl FnOnce(&MemChannel) -> T + Send,
        party1: impl FnOnce(&MemChannel) -> T + Send,
    ) -> (T, T, TrafficSnapshot) {
        let (client, server, counter) = channel_pair();
        let (r0, r1) = std::thread::scope(|s| {
            let t = s.spawn(move || party1(&server));
            let r0 = party0(&client);
            (r0, t.join().expect("party 1 panicked"))
        });
        (r0, r1, counter.snapshot())
    }

    /// Pools drawn from a test PRG outside the dealer stream, so the
    /// kernel is exercised on triples the dealer did not draw.
    fn foreign_pools(n: usize, seed: u64) -> (BitTriples, BitTriples) {
        let mut prg = Prg::from_u64(seed);
        let mut bits = || BitVec::from_bools(&(0..n).map(|_| prg.next_bool()).collect::<Vec<_>>());
        let (a0, a1, b0, b1, c0) = (bits(), bits(), bits(), bits(), bits());
        let c1 = a0.xor(&a1).and(&b0.xor(&b1)).xor(&c0);
        (BitTriples::new(a0, b0, c0), BitTriples::new(a1, b1, c1))
    }

    /// DReLU through the word kernel and through the oracle, each on
    /// its own copy of the same dealt pool; returns the two
    /// reconstructed sign vectors and the word kernel's traffic.
    fn drelu_both_ways(
        x0: &[u64],
        x1: &[u64],
        bits: usize,
        seed: u64,
    ) -> (Vec<bool>, Vec<bool>, TrafficSnapshot) {
        let n = x0.len();
        let (mut t0, mut t1) = Dealer::new(seed).bit_triples(n * drelu_bit_triples(bits - 1));
        let (mut o0, mut o1) = (oracle::BoolTriples::from(&t0), oracle::BoolTriples::from(&t1));
        let (w0, w1, traffic) = run_pair(
            |ep| drelu_batch_at(ep, true, x0, bits, &mut t0).unwrap(),
            |ep| drelu_batch_at(ep, false, x1, bits, &mut t1).unwrap(),
        );
        assert!(t0.is_empty() && t1.is_empty(), "a pool of exactly n·drelu_bit_triples(w − 1)");
        let (b0, b1, oracle_traffic) = run_pair(
            |ep| oracle::drelu_batch(ep, true, x0, bits as u32, &mut o0).unwrap(),
            |ep| oracle::drelu_batch(ep, false, x1, bits as u32, &mut o1).unwrap(),
        );
        assert_eq!(traffic, oracle_traffic, "the word kernel moves the bool kernel's frames");
        let oracle: Vec<bool> = b0.iter().zip(&b1).map(|(&a, &b)| a ^ b).collect();
        (w0.xor(&w1).to_bools(), oracle, traffic)
    }

    fn plaintext_sign(x0: &[u64], x1: &[u64]) -> Vec<bool> {
        x0.iter().zip(x1).map(|(&a, &b)| a.wrapping_add(b) as i64 >= 0).collect()
    }

    /// Share pairs that sit on the comparison's edges: the secrets 0,
    /// −1, `i64::MIN`, `i64::MAX`, and low halves that sum to exactly
    /// 2^63 − 1 (no carry) and 2^63 (carry) under either msb.
    fn edge_share_pairs() -> Vec<(u64, u64)> {
        const LOW: u64 = (1 << 63) - 1;
        let mut pairs = Vec::new();
        for secret in [0u64, u64::MAX, i64::MIN as u64, i64::MAX as u64, 1, LOW - 1] {
            for x0 in [0, 1, LOW, LOW + 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
                pairs.push((x0, secret.wrapping_sub(x0)));
            }
        }
        for low0 in [0, 1, 12345, LOW / 2, LOW - 1, LOW] {
            for (sum, msbs) in [(LOW, [0, 0]), (LOW, [1, 0]), (LOW + 1, [0, 1]), (LOW + 1, [1, 1])]
            {
                if let Some(low1) = sum.checked_sub(low0).filter(|&l| l <= LOW) {
                    pairs.push((low0 | msbs[0] << 63, low1 | msbs[1] << 63));
                }
            }
        }
        pairs
    }

    #[test]
    fn bit_triple_pool_takes_by_cursor_at_any_bit_offset() {
        let mut prg = Prg::from_u64(3);
        let n = 300;
        let bits = |prg: &mut Prg| -> Vec<bool> { (0..n).map(|_| prg.next_bool()).collect() };
        let (a, b, c) = (bits(&mut prg), bits(&mut prg), bits(&mut prg));
        let pack = BitVec::from_bools;
        let mut pool = BitTriples::new(pack(&a), pack(&b), pack(&c));
        // Ragged takes: the second starts at bit 70, the third at 133.
        let mut at = 0;
        for take in [70, 63, 0, 130] {
            let t = pool.take(take).unwrap();
            assert_eq!(t.len(), take);
            assert_eq!(t.a.to_bools(), a[at..at + take]);
            assert_eq!(t.b.to_bools(), b[at..at + take]);
            assert_eq!(t.c.to_bools(), c[at..at + take]);
            at += take;
            assert_eq!(pool.len(), n - at);
        }
        // Exhaustion is the typed dealer error and takes nothing.
        let before = pool.clone();
        assert!(matches!(pool.take(38), Err(MpcError::Dealer(_))));
        assert_eq!(pool, before);
        assert_eq!(pool.take(37).unwrap().len(), 37);
        assert!(pool.is_empty());
    }

    #[test]
    fn and_batch_computes_conjunction() {
        for n in [1usize, 64, 100] {
            let (mut tc, mut ts) = foreign_pools(n, 31);
            let (mut oc, mut os) = (oracle::BoolTriples::from(&tc), oracle::BoolTriples::from(&ts));
            // Party 0 privately holds x, party 1 privately holds y.
            let x: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let y: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let (px, py, zeros) =
                (BitVec::from_bools(&x), BitVec::from_bools(&y), BitVec::zeros(n));
            let (mine, theirs, traffic) = run_pair(
                |ep| and_batch(ep, true, &px, &zeros, &mut tc).unwrap(),
                |ep| and_batch(ep, false, &zeros, &py, &mut ts).unwrap(),
            );
            assert_eq!(mine.xor(&theirs), px.and(&py), "n = {n}");
            assert_eq!(traffic.bytes_client_to_server, (2 * n).div_ceil(8) as u64);
            assert_eq!(traffic.bytes_server_to_client, (2 * n).div_ceil(8) as u64);
            assert_eq!(traffic.flights, 2);
            // One layer has one layout: on the same triples the oracle
            // produces the same shares bit for bit, not just the same
            // secret.
            let no = vec![false; n];
            let (o_mine, o_theirs, o_traffic) = run_pair(
                |ep| oracle::and_batch(ep, true, &x, &no, &mut oc).unwrap(),
                |ep| oracle::and_batch(ep, false, &no, &y, &mut os).unwrap(),
            );
            assert_eq!((mine.to_bools(), theirs.to_bools()), (o_mine, o_theirs), "n = {n}");
            assert_eq!(traffic, o_traffic);
        }
    }

    #[test]
    fn and_batch_rejects_mismatched_lengths() {
        let (mut tc, _) = Dealer::new(43).bit_triples(8);
        let (client, _server, _) = channel_pair();
        let r = and_batch(&client, true, &BitVec::zeros(2), &BitVec::zeros(3), &mut tc);
        assert!(matches!(r, Err(MpcError::BadConfig(_))));
        assert_eq!(tc.len(), 8, "nothing taken");
    }

    #[test]
    fn and_batch_accepts_only_the_exact_canonical_frame() {
        // 13 positions: a 26-bit opening, four bytes, six padding bits.
        let n = 13;
        let honest = || BitVec::zeros(2 * n).to_bytes();
        assert_eq!(honest().len(), 4);
        let malformed: [(&str, Vec<u8>); 4] = [
            ("short", honest()[..3].to_vec()),
            ("over-long", [honest(), vec![0]].concat()),
            ("dirty padding", vec![0, 0, 0, 0b0000_0100]),
            ("empty", Vec::new()),
        ];
        for (what, frame) in malformed {
            for is_initiator in [true, false] {
                let (mut tc, _) = Dealer::new(44).bit_triples(n);
                let (client, server, _) = channel_pair();
                server.send_bytes(&frame).unwrap();
                let x = BitVec::zeros(n);
                let r = and_batch(&client, is_initiator, &x, &x, &mut tc);
                assert!(
                    matches!(r, Err(MpcError::Protocol(_))),
                    "{what} frame, initiator {is_initiator}: {r:?}"
                );
            }
        }
        // The honest all-zero frame of the same length goes through.
        let (mut tc, _) = Dealer::new(44).bit_triples(n);
        let (client, server, _) = channel_pair();
        server.send_bytes(&honest()).unwrap();
        let x = BitVec::zeros(n);
        assert_eq!(and_batch(&client, true, &x, &x, &mut tc).unwrap().len(), n);
    }

    #[test]
    fn millionaire_compares_correctly_at_every_width() {
        let n = 70;
        for bits in [1u32, 2, 20, 63, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut prg = Prg::from_u64(7 + u64::from(bits));
            let u: Vec<u64> = (0..n).map(|_| prg.next_u64() & mask).collect();
            let mut v: Vec<u64> = (0..n).map(|_| prg.next_u64() & mask).collect();
            // Force the edges: equal, adjacent either way, extremes.
            v[0] = u[0];
            v[1] = u[1].saturating_add(1) & mask;
            v[2] = u[2].saturating_sub(1);
            (v[3], v[4]) = (0, mask);
            let need = n * drelu_bit_triples(bits as usize);
            let (mut t0, mut t1) = Dealer::new(37).bit_triples(need);
            let (mut o0, mut o1) = (oracle::BoolTriples::from(&t0), oracle::BoolTriples::from(&t1));
            let (mine, theirs, traffic) = run_pair(
                |ep| millionaire_batch(ep, true, &u, bits, &mut t0).unwrap(),
                |ep| millionaire_batch(ep, false, &v, bits, &mut t1).unwrap(),
            );
            assert!(t0.is_empty() && t1.is_empty(), "width {bits} consumes the formula's count");
            let want: Vec<bool> = u.iter().zip(&v).map(|(&u, &v)| v > u).collect();
            assert_eq!(mine.xor(&theirs).to_bools(), want, "width {bits}");
            let (b0, b1, oracle_traffic) = run_pair(
                |ep| oracle::millionaire_batch(ep, true, &u, bits, &mut o0).unwrap(),
                |ep| oracle::millionaire_batch(ep, false, &v, bits, &mut o1).unwrap(),
            );
            let oracle: Vec<bool> = b0.iter().zip(&b1).map(|(&a, &b)| a ^ b).collect();
            assert_eq!(oracle, want, "oracle at width {bits}");
            assert_eq!(traffic, oracle_traffic, "width {bits}");
        }
    }

    #[test]
    fn millionaire_ignores_bits_above_the_width_and_runs_on_foreign_triples() {
        let n = 40;
        let (mut tc, mut ts) = foreign_pools(n * drelu_bit_triples(20), 37);
        let mut prg = Prg::from_u64(7);
        let low = (1u64 << 20) - 1;
        let u: Vec<u64> = prg.next_u64s(n);
        let v: Vec<u64> = prg.next_u64s(n);
        let (mine, theirs, _) = run_pair(
            |ep| millionaire_batch(ep, true, &u, 20, &mut tc).unwrap(),
            |ep| millionaire_batch(ep, false, &v, 20, &mut ts).unwrap(),
        );
        let want: Vec<bool> = u.iter().zip(&v).map(|(&u, &v)| v & low > u & low).collect();
        assert_eq!(mine.xor(&theirs).to_bools(), want);
    }

    #[test]
    fn millionaire_rejects_widths_outside_1_to_64() {
        for bits in [0u32, 65, u32::MAX] {
            let (mut tc, _) = Dealer::new(45).bit_triples(64);
            let (client, _server, _) = channel_pair();
            let r = millionaire_batch(&client, true, &[1, 2, 3], bits, &mut tc);
            assert!(matches!(r, Err(MpcError::BadConfig(_))), "width {bits}: {r:?}");
            assert_eq!(tc.len(), 64, "nothing taken");
        }
    }

    #[test]
    fn drelu_recovers_sign_of_fixed_point_values() {
        let fp = FixedPoint::default();
        let values: Vec<f32> =
            vec![-5.0, -0.25, -0.0005, 0.0, 0.0005, 0.25, 5.0, 100.0, -100.0, 1.5];
        let secret: Vec<u64> = values.iter().map(|&x| fp.encode(x)).collect();
        let (s0, s1) = share_secret(&secret, &mut Prg::from_u64(77));
        let (word, oracle, _) = drelu_both_ways(s0.as_raw(), s1.as_raw(), 64, 41);
        let want: Vec<bool> = values.iter().map(|&x| x >= 0.0).collect();
        assert_eq!(word, want);
        assert_eq!(oracle, want);
    }

    #[test]
    fn word_kernel_matches_the_bool_oracle_and_the_plaintext_sign() {
        let edges = edge_share_pairs();
        assert!(edges.len() <= 63, "every n from 63 up sees every edge pair");
        for n in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            // Edge pairs first (as many as fit), random shares after.
            let mut prg = Prg::from_u64(n as u64);
            let (mut x0, mut x1) = (prg.next_u64s(n), prg.next_u64s(n));
            for (i, &(e0, e1)) in edges.iter().take(n).enumerate() {
                (x0[i], x1[i]) = (e0, e1);
            }
            let (word, oracle, traffic) = drelu_both_ways(&x0, &x1, 64, 100 + n as u64);
            let want = plaintext_sign(&x0, &x1);
            assert_eq!(word, want, "word kernel at n = {n}");
            assert_eq!(oracle, want, "bool oracle at n = {n}");
            // Seven AND layers of [63, 62, 32, 16, 8, 4, 2]·n positions:
            // one ⌈2·nᵢ/8⌉-byte frame per direction each, 14 flights.
            let per_direction: u64 =
                [63, 62, 32, 16, 8, 4, 2].iter().map(|k| (2 * k * n).div_ceil(8) as u64).sum();
            assert_eq!(traffic.bytes_client_to_server, per_direction, "n = {n}");
            assert_eq!(traffic.bytes_server_to_client, per_direction, "n = {n}");
            assert_eq!((traffic.flights, traffic.messages), (14, 14), "n = {n}");
        }
    }

    /// The AND layers of a DReLU at `bits`, in positions per element:
    /// the `bits − 1` leaves, then two ANDs per pair at every tree level.
    fn and_layers(bits: usize) -> Vec<usize> {
        let mut layers = vec![bits - 1];
        let mut width = bits - 1;
        while width > 1 {
            layers.push(2 * (width / 2));
            width = width / 2 + width % 2;
        }
        layers
    }

    #[test]
    fn drelu_at_every_width_reads_the_sign_of_values_in_its_domain() {
        // Secrets at the edges of `[−2^(w−1), 2^(w−1))` and uniform
        // inside it, on shares uniform in the 64-bit ring; then share
        // pairs whose low w − 1 bits sum to exactly 2^(w−1) − 1 (no
        // carry into the sign) and 2^(w−1) (a carry). The word kernel,
        // the bool oracle and the plaintext sign agree, on the formula's
        // triples and frames.
        for bits in [8usize, 24, 32, 64] {
            let half = 1i128 << (bits - 1);
            let mut prg = Prg::from_u64(bits as u64);
            let mut secrets: Vec<u64> =
                [-half, -half + 1, -1, 0, 1, half - 1].map(|v| v as i64 as u64).to_vec();
            secrets.extend((0..100).map(|_| {
                (-half + (u128::from(prg.next_u64()) % (2 * half as u128)) as i128) as i64 as u64
            }));
            let x0: Vec<u64> = prg.next_u64s(secrets.len());
            let mut x1: Vec<u64> =
                secrets.iter().zip(&x0).map(|(s, a)| s.wrapping_sub(*a)).collect();
            let mut x0 = x0;
            let low = (half - 1) as u64;
            for (l0, sum) in [(0, low), (low, low), (low / 3, low + 1), (low, low + 1)] {
                // Any high bits above the width: the kernel ignores them.
                let hi = prg.next_u64() & !low;
                x0.push(l0 | hi);
                x1.push(sum - l0);
            }
            let (word, oracle, traffic) = drelu_both_ways(&x0, &x1, bits, 500 + bits as u64);
            let want: Vec<bool> = x0
                .iter()
                .zip(&x1)
                .map(|(&a, &b)| (a.wrapping_add(b) << (64 - bits)) as i64 >= 0)
                .collect();
            assert_eq!(
                &want[..secrets.len()],
                secrets.iter().map(|&s| s as i64 >= 0).collect::<Vec<_>>()
            );
            assert_eq!(word, want, "word kernel at {bits} bits");
            assert_eq!(oracle, want, "bool oracle at {bits} bits");
            let n = x0.len();
            let per_direction: u64 =
                and_layers(bits).iter().map(|k| (2 * k * n).div_ceil(8) as u64).sum();
            assert_eq!(traffic.bytes_client_to_server, per_direction, "{bits} bits");
            assert_eq!(traffic.flights, 2 * and_layers(bits).len() as u64, "{bits} bits");
        }
        assert_eq!([24, 32, 64].map(|b| 2 * and_layers(b).len()), [12, 12, 14]);
        assert_eq!([24, 32, 64].map(|b| drelu_bit_triples(b - 1)), [67, 91, 187]);
        let (client, _server, _) = channel_pair();
        for bits in [0, 1, 65] {
            let r = drelu_batch_at(&client, true, &[1], bits, &mut foreign_pools(8, 1).0);
            assert!(matches!(r, Err(MpcError::BadConfig(_))), "{bits} bits: {r:?}");
        }
    }

    #[test]
    fn a_pool_one_triple_short_is_the_typed_dealer_error() {
        for n in [1usize, 64, 65] {
            let (x0, x1) = (vec![5u64; n], vec![9u64; n]);
            let short = n * drelu_bit_triples(63) - 1;
            let (mut t0, mut t1) = Dealer::new(48).bit_triples(short);
            // Both parties run dry at the same (last) layer, before
            // either sends, so neither is left waiting.
            let (r0, r1, traffic) = run_pair(
                |ep| drelu_batch(ep, true, &x0, &mut t0),
                |ep| drelu_batch(ep, false, &x1, &mut t1),
            );
            assert!(matches!(r0, Err(MpcError::Dealer(_))), "n = {n}: {r0:?}");
            assert!(matches!(r1, Err(MpcError::Dealer(_))), "n = {n}: {r1:?}");
            assert_eq!(traffic.flights, 12, "six layers ran, the seventh did not start");
            assert_eq!(t0.len(), 2 * n - 1, "the failed take left the pool as it was");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn drelu_matches_oracle_and_sign_for_random_and_edge_shares(
            n in 1usize..200,
            seed in any::<u64>(),
            edge_at in 0usize..1000,
        ) {
            let mut prg = Prg::from_u64(seed);
            let (mut x0, mut x1) = (prg.next_u64s(n), prg.next_u64s(n));
            // Plant a run of edge pairs at a random (word-straddling)
            // position among the random shares.
            let edges = edge_share_pairs();
            for (k, &(e0, e1)) in edges.iter().enumerate().skip(edge_at % edges.len()).take(8) {
                let i = (edge_at + k) % n;
                (x0[i], x1[i]) = (e0, e1);
            }
            let (word, oracle, _) = drelu_both_ways(&x0, &x1, 64, seed ^ 0x5EED);
            let want = plaintext_sign(&x0, &x1);
            prop_assert_eq!(&word, &want);
            prop_assert_eq!(&oracle, &want);
        }

        #[test]
        fn bit_planes_transpose_back_to_the_values(n in 0usize..200, seed in any::<u64>()) {
            let values = Prg::from_u64(seed).next_u64s(n);
            let planes = bit_planes(&values, 64);
            prop_assert_eq!(planes.len(), 64);
            for (i, &v) in values.iter().enumerate() {
                let back = (0..64).fold(0u64, |acc, j| acc | (planes[j].get(i) as u64) << j);
                prop_assert_eq!(back, v);
            }
        }
    }
}
