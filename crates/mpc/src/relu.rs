//! The comparison-based secure ReLU of the reproduction, plus secure
//! pairwise max (for max pooling):
//!
//! * [`relu_interactive`] — Cheetah/CrypTFlow2-style comparison-based
//!   ReLU: DReLU via the GMW millionaires' tree, boolean→arithmetic
//!   conversion, then one Beaver multiplication;
//! * [`max_interactive`] — `max(a,b) = b + drelu(a−b)·(a−b)`, the
//!   building block of secure max pooling.
//!
//! These are what Cheetah serves. Delphi's garbled-circuit ReLU and
//! 4-way max are the pre-garbled layers of [`crate::gcpre`].

use crate::beaver::{b2a, mul_elementwise};
use crate::dealer::TripleShare;
use crate::gmw::{drelu_batch_at, BitTriples};
use crate::share::ShareVec;
use crate::{MpcError, Result};
use c2pi_transport::Channel;

/// Exact number of bit triples the millionaires' tree over `bits`-wide
/// leaves consumes per element; a DReLU at width `w` compares `w − 1`
/// bits, so [`relu_interactive`] at `w` consumes `drelu_bit_triples(w −
/// 1)`: 67 at 24 bits, 91 at 32 and 187 at 64.
pub fn drelu_bit_triples(bits: usize) -> usize {
    let mut total = bits; // leaf ANDs
    let mut width = bits;
    while width > 1 {
        let half = width / 2;
        total += 2 * half;
        width = half + width % 2;
    }
    total
}

/// Comparison-based ReLU over additively shared values with
/// `|x| < 2^(bits−1)`: returns fresh additive shares of `relu(x)` per
/// element. Only the sign is computed at `bits` ([`drelu_batch_at`]);
/// the conversion and the multiplication run in the 64-bit ring.
///
/// Consumes [`drelu_bit_triples`]`(bits − 1)` bit triples and two
/// arithmetic triples per element (`t_b2a` and `t_mul` must each hold
/// `n` triples).
///
/// # Errors
///
/// Returns transport errors, triple exhaustion, or a config error for a
/// width outside `2..=64`.
pub fn relu_interactive<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    x_share: &ShareVec,
    bits: usize,
    bit_triples: &mut BitTriples,
    t_b2a: &TripleShare,
    t_mul: &TripleShare,
) -> Result<ShareVec> {
    let sign = drelu_batch_at(ep, is_party0, x_share.as_raw(), bits, bit_triples)?;
    let b_arith = b2a(ep, is_party0, &sign, t_b2a)?;
    mul_elementwise(ep, is_party0, x_share, &b_arith, t_mul)
}

/// Secure pairwise maximum: `max(a, b) = b + drelu(a−b)·(a−b)`, exact
/// when `|a − b| < 2^(bits−1)`: the comparison runs on the difference at
/// `bits`.
///
/// # Errors
///
/// Returns transport errors or triple exhaustion.
#[allow(clippy::too_many_arguments)]
pub fn max_interactive<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    a: &ShareVec,
    b: &ShareVec,
    bits: usize,
    bit_triples: &mut BitTriples,
    t_b2a: &TripleShare,
    t_mul: &TripleShare,
) -> Result<ShareVec> {
    if a.len() != b.len() {
        return Err(MpcError::BadConfig("max_interactive length mismatch".into()));
    }
    let diff = a.sub(b);
    let relu_diff = relu_interactive(ep, is_party0, &diff, bits, bit_triples, t_b2a, t_mul)?;
    Ok(b.add(&relu_diff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use crate::fixed::FixedPoint;
    use crate::gc::{garble_open, relu_unit_circuit};
    use crate::gcpre::{pre_gc_evaluator, pre_gc_garbler, pregarble, MaskedOp};
    use crate::prg::Prg;
    use crate::share::{reconstruct, share_secret};
    use c2pi_transport::channel_pair;

    fn shares_of(values: &[f32], fp: FixedPoint, seed: u64) -> (ShareVec, ShareVec, Vec<u64>) {
        let secret: Vec<u64> = values.iter().map(|&v| fp.encode(v)).collect();
        let mut prg = Prg::from_u64(seed);
        let (s0, s1) = share_secret(&secret, &mut prg);
        (s0, s1, secret)
    }

    #[test]
    fn interactive_relu_end_to_end() {
        let fp = FixedPoint::default();
        let values = vec![-2.0f32, -0.25, 0.0, 0.25, 2.0, -7.5, 7.5];
        let n = values.len();
        let (s0, s1, _) = shares_of(&values, fp, 81);
        let need = n * drelu_bit_triples(63);
        let (mut bt0, mut bt1) = Dealer::new(82).bit_triples(need);
        let mut dealer = Dealer::new(83);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            relu_interactive(&server, false, &s1, 64, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = relu_interactive(&client, true, &s0, 64, &mut bt0, &ta0, &tb0).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(y[i], fp.encode(v.max(0.0)), "relu({v})");
        }
    }

    #[test]
    fn interactive_relu_is_leaner_than_gc() {
        // The core Cheetah-vs-Delphi communication asymmetry the paper's
        // Table II rests on.
        let fp = FixedPoint::default();
        let values: Vec<f32> = (0..16).map(|i| (i as f32) - 8.0).collect();
        let n = values.len();
        // GC cost: what Delphi ships, one AND-table set per element
        // (offline) plus the pre-garbled layer's δ/label round (online).
        let (s0, s1, _) = shares_of(&values, fp, 91);
        let tables = n * garble_open(relu_unit_circuit(), &mut Prg::from_u64(92)).table_bytes();
        let (cmat, smat) = pregarble(MaskedOp::Relu, n, &mut Prg::from_u64(93), n);
        let (client, server, gc_counter) = channel_pair();
        let t = std::thread::spawn(move || pre_gc_garbler(&server, &smat, &s1).unwrap());
        pre_gc_evaluator(&client, &cmat, &s0, n).unwrap();
        t.join().unwrap();
        let gc_bytes = tables as u64 + gc_counter.snapshot().bytes_total();
        let mut dealer = Dealer::new(92);
        // Interactive cost (online only; triples pre-generated).
        let (s0, s1, _) = shares_of(&values, fp, 94);
        let need = n * drelu_bit_triples(63);
        let (mut bt0, mut bt1) = Dealer::new(95).bit_triples(need);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, int_counter) = channel_pair();
        let t = std::thread::spawn(move || {
            relu_interactive(&server, false, &s1, 64, &mut bt1, &ta1, &tb1).unwrap()
        });
        relu_interactive(&client, true, &s0, 64, &mut bt0, &ta0, &tb0).unwrap();
        t.join().unwrap();
        let int_bytes = int_counter.snapshot().bytes_total();
        assert!(
            int_bytes * 3 < gc_bytes,
            "interactive {int_bytes} should be well under gc {gc_bytes}"
        );
    }

    #[test]
    fn secure_max_selects_larger_value() {
        let fp = FixedPoint::default();
        let a_vals = vec![1.0f32, -2.0, 0.5, -0.5];
        let b_vals = vec![0.5f32, -1.0, 0.5, 3.0];
        let n = a_vals.len();
        let (a0, a1, _) = shares_of(&a_vals, fp, 101);
        let (b0, b1, _) = shares_of(&b_vals, fp, 102);
        let need = n * drelu_bit_triples(63);
        let (mut bt0, mut bt1) = Dealer::new(103).bit_triples(need);
        let mut dealer = Dealer::new(104);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            max_interactive(&server, false, &a1, &b1, 64, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = max_interactive(&client, true, &a0, &b0, 64, &mut bt0, &ta0, &tb0).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        for i in 0..n {
            assert_eq!(y[i], fp.encode(a_vals[i].max(b_vals[i])), "max element {i}");
        }
    }

    #[test]
    fn secure_max_at_every_width_is_exact_at_the_edge_of_its_domain() {
        // Operands in `[−2^(w−2), 2^(w−2))` on uniform 64-bit shares:
        // their difference reaches ±(2^(w−1) − 1), the largest the
        // comparison at `w` reads exactly. Fewer triples at fewer bits.
        for bits in [8usize, 24, 32, 64] {
            let q = 1i128 << (bits - 2);
            let mut prg = Prg::from_u64(bits as u64);
            let mut draw = || (-q + (u128::from(prg.next_u64()) % (2 * q as u128)) as i128) as i64;
            let mut a_vals = vec![-q as i64, (q - 1) as i64, 0, -1];
            let mut b_vals = vec![(q - 1) as i64, -q as i64, -1, 0];
            for _ in 0..12 {
                a_vals.push(draw());
                b_vals.push(draw());
            }
            let n = a_vals.len();
            let ring = |v: &[i64]| v.iter().map(|&x| x as u64).collect::<Vec<_>>();
            let mut prg = Prg::from_u64(7 + bits as u64);
            let (a0, a1) = share_secret(&ring(&a_vals), &mut prg);
            let (b0, b1) = share_secret(&ring(&b_vals), &mut prg);
            let (mut bt0, mut bt1) = Dealer::new(9).bit_triples(n * drelu_bit_triples(bits - 1));
            let mut dealer = Dealer::new(10);
            let (ta0, ta1) = dealer.beaver_triples(n);
            let (tb0, tb1) = dealer.beaver_triples(n);
            let (client, server, _) = channel_pair();
            let t = std::thread::spawn(move || {
                max_interactive(&server, false, &a1, &b1, bits, &mut bt1, &ta1, &tb1).unwrap()
            });
            let y0 = max_interactive(&client, true, &a0, &b0, bits, &mut bt0, &ta0, &tb0).unwrap();
            let y1 = t.join().unwrap();
            let want: Vec<u64> =
                a_vals.iter().zip(&b_vals).map(|(&a, &b)| a.max(b) as u64).collect();
            assert_eq!(reconstruct(&y0, &y1), want, "{bits} bits");
            assert!(
                bt0.is_empty(),
                "{bits} bits: the pool of n·drelu_bit_triples(w − 1) ends empty"
            );
        }
    }

    #[test]
    fn dealer_bit_triples_work_with_interactive_relu() {
        let fp = FixedPoint::default();
        let values = vec![-1.5f32, 0.75, -0.125, 4.0];
        let n = values.len();
        let (s0, s1, _) = shares_of(&values, fp, 121);
        let mut dealer = Dealer::new(122);
        let (mut bt0, mut bt1) = dealer.bit_triples(n * drelu_bit_triples(63));
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, counter) = channel_pair();
        let t = std::thread::spawn(move || {
            relu_interactive(&server, false, &s1, 64, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = relu_interactive(&client, true, &s0, 64, &mut bt0, &ta0, &tb0).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(y[i], fp.encode(v.max(0.0)), "relu({v})");
        }
        // With silent triples the online traffic is a few hundred bytes
        // per element, mirroring Cheetah's lean non-linear protocol.
        let per_elem = counter.snapshot().bytes_total() / n as u64;
        assert!(per_elem < 1500, "online bytes per relu: {per_elem}");
    }

    #[test]
    fn drelu_triple_budget_formula() {
        // 63-bit comparison: 63 leaves + tree merges; 23 and 31 bits, the
        // DReLUs at 24 and 32, one level fewer.
        assert_eq!(drelu_bit_triples(63), 63 + 62 + 32 + 16 + 8 + 4 + 2);
        assert_eq!(drelu_bit_triples(23), 23 + 22 + 12 + 6 + 2 + 2);
        assert_eq!(drelu_bit_triples(31), 31 + 30 + 16 + 8 + 4 + 2);
        assert_eq!(drelu_bit_triples(1), 1);
        assert_eq!(drelu_bit_triples(2), 2 + 2);
    }
}
