//! The two secure ReLU protocols of the reproduction, plus secure
//! pairwise max (for max pooling):
//!
//! * [`gc_relu_garbler`] / [`gc_relu_evaluator`] — Delphi-style garbled
//!   circuit ReLU: the garbler (server) garbles a batched
//!   reconstruct→ReLU→re-mask circuit; the evaluator (client) obtains its
//!   input labels by OT and ends with the additive share `y − r`;
//! * [`relu_interactive`] — Cheetah/CrypTFlow2-style comparison-based
//!   ReLU: DReLU via the GMW millionaires' tree, boolean→arithmetic
//!   conversion, then one Beaver multiplication;
//! * [`max_interactive`] — `max(a,b) = b + drelu(a−b)·(a−b)`, the
//!   building block of secure max pooling.

use crate::beaver::{b2a, mul_elementwise};
use crate::bitvec::BitVec;
use crate::dealer::{BaseOtReceiver, BaseOtSender, TripleShare};
use crate::gc::{
    evaluate, from_bits, garble, maxpool4_masked_circuit, relu_masked_circuit, to_bits, Circuit,
};
use crate::gmw::drelu_batch;
use crate::ot::{ot_receive, ot_send, BitTriples};
use crate::prg::Prg;
use crate::share::ShareVec;
use crate::{MpcError, Result};
use c2pi_transport::Channel;

/// Ring width used by the GC ReLU circuit.
pub const RING_BITS: usize = 64;

/// Exact number of bit triples [`relu_interactive`] consumes per element
/// (the millionaires' tree over `bits`-wide leaves).
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

/// Garbler side of a generic masked-output GC protocol: garbles the
/// circuit with the given garbler bits, sends tables / its own labels /
/// decode bits, then serves the evaluator's label OT.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn gc_exec_garbler<C: Channel + ?Sized>(
    ep: &C,
    circuit: &Circuit,
    garbler_bits: &[bool],
    base: &BaseOtSender,
    prg: &mut Prg,
) -> Result<()> {
    let garbled = garble(circuit, garbler_bits, prg)?;
    // Frame 1: AND tables (two half-gates rows per gate). Frame 2:
    // garbler labels. Frame 3: decode bits.
    let mut tables = Vec::with_capacity(garbled.tables.len() * 4);
    for rows in &garbled.tables {
        for row in rows {
            tables.push(*row as u64);
            tables.push((*row >> 64) as u64);
        }
    }
    ep.send_u64s(&tables)?;
    let mut labels = Vec::with_capacity(garbled.garbler_labels.len() * 2);
    for l in &garbled.garbler_labels {
        labels.push(*l as u64);
        labels.push((*l >> 64) as u64);
    }
    ep.send_u64s(&labels)?;
    ep.send_bytes(&BitVec::from_bools(&garbled.output_decode).to_bytes())?;
    // Transfer the evaluator's input labels by OT.
    ot_send(ep, base, &garbled.evaluator_label_pairs)?;
    Ok(())
}

/// Garbler (server) side of the GC ReLU over a batch of additively
/// shared ring elements. Returns the garbler's fresh output share `r`.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn gc_relu_garbler<C: Channel + ?Sized>(
    ep: &C,
    x1_share: &ShareVec,
    base: &BaseOtSender,
    prg: &mut Prg,
) -> Result<ShareVec> {
    let n = x1_share.len();
    let circuit = relu_masked_circuit(n, RING_BITS);
    let r: Vec<u64> = prg.next_u64s(n);
    let mut garbler_bits = Vec::with_capacity(2 * RING_BITS * n);
    for (&share, &mask) in x1_share.as_raw().iter().zip(r.iter()) {
        garbler_bits.extend(to_bits(share, RING_BITS));
        garbler_bits.extend(to_bits(mask.wrapping_neg(), RING_BITS));
    }
    gc_exec_garbler(ep, &circuit, &garbler_bits, base, prg)?;
    Ok(ShareVec::from_raw(r))
}

/// Evaluator side of a generic masked-output GC protocol: receives the
/// garbled artifacts, obtains its labels by OT using `choices`, and
/// returns the decoded output bits.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn gc_exec_evaluator<C: Channel + ?Sized>(
    ep: &C,
    circuit: &Circuit,
    choices: &[bool],
    base: &BaseOtReceiver,
) -> Result<Vec<bool>> {
    let table_words = ep.recv_u64s()?;
    if table_words.len() != circuit.and_count() * 4 {
        return Err(MpcError::Protocol(format!(
            "expected {} table words, got {}",
            circuit.and_count() * 4,
            table_words.len()
        )));
    }
    let tables: Vec<[u128; 2]> = table_words
        .chunks(4)
        .map(|c| {
            let mut rows = [0u128; 2];
            for (r, row) in rows.iter_mut().enumerate() {
                *row = (c[2 * r] as u128) | ((c[2 * r + 1] as u128) << 64);
            }
            rows
        })
        .collect();
    let label_words = ep.recv_u64s()?;
    if label_words.len() != circuit.garbler_input_count() * 2 {
        return Err(MpcError::Protocol("garbler label frame size mismatch".into()));
    }
    let garbler_labels: Vec<u128> =
        label_words.chunks(2).map(|c| (c[0] as u128) | ((c[1] as u128) << 64)).collect();
    let decode = BitVec::from_bytes(&ep.recv_bytes()?, circuit.output_count())?.to_bools();
    let my_labels = ot_receive(ep, base, choices)?;
    evaluate(circuit, &tables, &garbler_labels, &my_labels, &decode)
}

/// Evaluator (client) side of the GC ReLU. Returns the evaluator's
/// output share `relu(x) − r`.
///
/// # Errors
///
/// Returns transport or protocol errors.
pub fn gc_relu_evaluator<C: Channel + ?Sized>(
    ep: &C,
    x0_share: &ShareVec,
    base: &BaseOtReceiver,
) -> Result<ShareVec> {
    let n = x0_share.len();
    let circuit = relu_masked_circuit(n, RING_BITS);
    let mut choices = Vec::with_capacity(n * RING_BITS);
    for i in 0..n {
        choices.extend(to_bits(x0_share.as_raw()[i], RING_BITS));
    }
    let out_bits = gc_exec_evaluator(ep, &circuit, &choices, base)?;
    let out: Vec<u64> = out_bits.chunks(RING_BITS).map(from_bits).collect();
    Ok(ShareVec::from_raw(out))
}

/// Garbler (server) side of the GC 4-way max over batches of four
/// additively shared values (2×2 max-pool windows). `shares` holds the
/// garbler's shares laid out `[v0, v1, v2, v3]` per window,
/// consecutively. Returns the garbler's fresh output share `r` (one per
/// window).
///
/// # Errors
///
/// Returns transport or protocol errors, or a config error when the
/// input is not a multiple of four.
pub fn gc_maxpool4_garbler<C: Channel + ?Sized>(
    ep: &C,
    shares: &ShareVec,
    base: &BaseOtSender,
    prg: &mut Prg,
) -> Result<ShareVec> {
    if !shares.len().is_multiple_of(4) {
        return Err(MpcError::BadConfig("gc maxpool input not a multiple of 4".into()));
    }
    let n = shares.len() / 4;
    let circuit = maxpool4_masked_circuit(n, RING_BITS);
    let r: Vec<u64> = prg.next_u64s(n);
    let mut garbler_bits = Vec::with_capacity(5 * RING_BITS * n);
    for (quad, &mask) in shares.as_raw().chunks_exact(4).zip(r.iter()) {
        for &share in quad {
            garbler_bits.extend(to_bits(share, RING_BITS));
        }
        garbler_bits.extend(to_bits(mask.wrapping_neg(), RING_BITS));
    }
    gc_exec_garbler(ep, &circuit, &garbler_bits, base, prg)?;
    Ok(ShareVec::from_raw(r))
}

/// Evaluator (client) side of the GC 4-way max. Returns the evaluator's
/// output share `max(v0..v3) − r` per window.
///
/// # Errors
///
/// Returns transport or protocol errors, or a config error when the
/// input is not a multiple of four.
pub fn gc_maxpool4_evaluator<C: Channel + ?Sized>(
    ep: &C,
    shares: &ShareVec,
    base: &BaseOtReceiver,
) -> Result<ShareVec> {
    if !shares.len().is_multiple_of(4) {
        return Err(MpcError::BadConfig("gc maxpool input not a multiple of 4".into()));
    }
    let n = shares.len() / 4;
    let circuit = maxpool4_masked_circuit(n, RING_BITS);
    let mut choices = Vec::with_capacity(4 * RING_BITS * n);
    for w in 0..n {
        for j in 0..4 {
            choices.extend(to_bits(shares.as_raw()[4 * w + j], RING_BITS));
        }
    }
    let out_bits = gc_exec_evaluator(ep, &circuit, &choices, base)?;
    let out: Vec<u64> = out_bits.chunks(RING_BITS).map(from_bits).collect();
    Ok(ShareVec::from_raw(out))
}

/// Comparison-based ReLU over additively shared values: returns fresh
/// additive shares of `relu(x)` per element.
///
/// Consumes [`drelu_bit_triples`]`(63)` bit triples and two arithmetic
/// triples per element (`t_b2a` and `t_mul` must each hold `n` triples).
///
/// # Errors
///
/// Returns transport errors or triple exhaustion.
pub fn relu_interactive<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    x_share: &ShareVec,
    bit_triples: &mut BitTriples,
    t_b2a: &TripleShare,
    t_mul: &TripleShare,
) -> Result<ShareVec> {
    let sign = drelu_batch(ep, is_party0, x_share.as_raw(), bit_triples)?;
    let b_arith = b2a(ep, is_party0, &sign, t_b2a)?;
    mul_elementwise(ep, is_party0, x_share, &b_arith, t_mul)
}

/// Secure pairwise maximum: `max(a, b) = b + drelu(a−b)·(a−b)`.
///
/// # Errors
///
/// Returns transport errors or triple exhaustion.
pub fn max_interactive<C: Channel + ?Sized>(
    ep: &C,
    is_party0: bool,
    a: &ShareVec,
    b: &ShareVec,
    bit_triples: &mut BitTriples,
    t_b2a: &TripleShare,
    t_mul: &TripleShare,
) -> Result<ShareVec> {
    if a.len() != b.len() {
        return Err(MpcError::BadConfig("max_interactive length mismatch".into()));
    }
    let diff = a.sub(b);
    let relu_diff = relu_interactive(ep, is_party0, &diff, bit_triples, t_b2a, t_mul)?;
    Ok(b.add(&relu_diff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use crate::fixed::FixedPoint;
    use crate::ot::{gen_bit_triples, KAPPA};
    use crate::share::{reconstruct, share_secret};
    use c2pi_transport::channel_pair;

    fn shares_of(values: &[f32], fp: FixedPoint, seed: u64) -> (ShareVec, ShareVec, Vec<u64>) {
        let secret: Vec<u64> = values.iter().map(|&v| fp.encode(v)).collect();
        let mut prg = Prg::from_u64(seed);
        let (s0, s1) = share_secret(&secret, &mut prg);
        (s0, s1, secret)
    }

    #[test]
    fn gc_relu_end_to_end() {
        let fp = FixedPoint::default();
        let values = vec![-3.0f32, -0.5, -0.001, 0.0, 0.001, 0.5, 3.0, 10.0];
        let (s0, s1, _) = shares_of(&values, fp, 61);
        let mut dealer = Dealer::new(62);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, counter) = channel_pair();
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(63);
            gc_relu_garbler(&server, &s1, &snd_base, &mut prg).unwrap()
        });
        let y0 = gc_relu_evaluator(&client, &s0, &rcv_base).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(y[i], fp.encode(v.max(0.0)), "relu({v})");
        }
        // The protocol completes in two round trips (tables + OT).
        assert!(counter.snapshot().round_trips() <= 2);
    }

    #[test]
    fn gc_relu_communication_scales_with_batch() {
        let fp = FixedPoint::default();
        let mut sizes = Vec::new();
        for n in [4usize, 8] {
            let values: Vec<f32> = (0..n).map(|i| i as f32 - 2.0).collect();
            let (s0, s1, _) = shares_of(&values, fp, 70 + n as u64);
            let mut dealer = Dealer::new(71);
            let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
            let (client, server, counter) = channel_pair();
            let t = std::thread::spawn(move || {
                let mut prg = Prg::from_u64(72);
                gc_relu_garbler(&server, &s1, &snd_base, &mut prg).unwrap()
            });
            gc_relu_evaluator(&client, &s0, &rcv_base).unwrap();
            t.join().unwrap();
            sizes.push(counter.snapshot().bytes_total());
        }
        // Doubling the batch roughly doubles traffic.
        let ratio = sizes[1] as f64 / sizes[0] as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gc_evaluator_rejects_a_non_canonical_decode_frame() {
        // A 5-bit ReLU: five output wires, so the decode frame is one
        // byte with three padding bits. Tables and labels arrive at
        // their honest sizes; only the decode frame is malformed.
        let circuit = relu_masked_circuit(1, 5);
        assert_eq!(circuit.output_count(), 5);
        let (_, rcv_base) = Dealer::new(64).base_ots(KAPPA);
        let malformed: [(&str, &[u8]); 4] = [
            ("short", &[]),
            ("over-long", &[0, 0]),
            ("dirty padding", &[0b0010_0000]),
            ("a whole ring element", &[0; 8]),
        ];
        for (what, frame) in malformed {
            let (client, server, _) = channel_pair();
            server.send_u64s(&vec![0; circuit.and_count() * 4]).unwrap();
            server.send_u64s(&vec![0; circuit.garbler_input_count() * 2]).unwrap();
            server.send_bytes(frame).unwrap();
            let r = gc_exec_evaluator(&client, &circuit, &[false; 5], &rcv_base);
            assert!(matches!(r, Err(MpcError::Protocol(_))), "{what} decode frame: {r:?}");
        }
    }

    fn triple_pools(n: usize, seed: u64) -> (BitTriples, BitTriples) {
        let mut dealer = Dealer::new(seed);
        let (c_snd, s_rcv) = dealer.base_ots(KAPPA);
        let (s_snd, c_rcv) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(seed ^ 3);
            gen_bit_triples(&server, false, &s_snd, &s_rcv, n, &mut prg).unwrap()
        });
        let mut prg = Prg::from_u64(seed ^ 4);
        let mine = gen_bit_triples(&client, true, &c_snd, &c_rcv, n, &mut prg).unwrap();
        (mine, t.join().unwrap())
    }

    #[test]
    fn interactive_relu_end_to_end() {
        let fp = FixedPoint::default();
        let values = vec![-2.0f32, -0.25, 0.0, 0.25, 2.0, -7.5, 7.5];
        let n = values.len();
        let (s0, s1, _) = shares_of(&values, fp, 81);
        let need = n * drelu_bit_triples(63);
        let (mut bt0, mut bt1) = triple_pools(need, 82);
        let mut dealer = Dealer::new(83);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            relu_interactive(&server, false, &s1, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = relu_interactive(&client, true, &s0, &mut bt0, &ta0, &tb0).unwrap();
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
        // GC cost.
        let (s0, s1, _) = shares_of(&values, fp, 91);
        let mut dealer = Dealer::new(92);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, gc_counter) = channel_pair();
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(93);
            gc_relu_garbler(&server, &s1, &snd_base, &mut prg).unwrap()
        });
        gc_relu_evaluator(&client, &s0, &rcv_base).unwrap();
        t.join().unwrap();
        let gc_bytes = gc_counter.snapshot().bytes_total();
        // Interactive cost (online only; triples pre-generated).
        let (s0, s1, _) = shares_of(&values, fp, 94);
        let need = n * drelu_bit_triples(63);
        let (mut bt0, mut bt1) = triple_pools(need, 95);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, int_counter) = channel_pair();
        let t = std::thread::spawn(move || {
            relu_interactive(&server, false, &s1, &mut bt1, &ta1, &tb1).unwrap()
        });
        relu_interactive(&client, true, &s0, &mut bt0, &ta0, &tb0).unwrap();
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
        let (mut bt0, mut bt1) = triple_pools(need, 103);
        let mut dealer = Dealer::new(104);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            max_interactive(&server, false, &a1, &b1, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = max_interactive(&client, true, &a0, &b0, &mut bt0, &ta0, &tb0).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        for i in 0..n {
            assert_eq!(y[i], fp.encode(a_vals[i].max(b_vals[i])), "max element {i}");
        }
    }

    #[test]
    fn gc_maxpool4_end_to_end() {
        let fp = FixedPoint::default();
        // Two windows of four values each.
        let values = vec![1.0f32, -2.0, 0.5, 0.75, -1.0, -2.0, -3.0, -0.25];
        let (s0, s1, _) = shares_of(&values, fp, 111);
        let mut dealer = Dealer::new(112);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(113);
            gc_maxpool4_garbler(&server, &s1, &snd_base, &mut prg).unwrap()
        });
        let y0 = gc_maxpool4_evaluator(&client, &s0, &rcv_base).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(&y0, &y1);
        assert_eq!(y.len(), 2);
        assert_eq!(y[0], fp.encode(1.0));
        assert_eq!(y[1], fp.encode(-0.25));
    }

    #[test]
    fn gc_maxpool_rejects_ragged_input() {
        let mut dealer = Dealer::new(114);
        let (snd_base, rcv_base) = dealer.base_ots(KAPPA);
        let (client, server, _) = channel_pair();
        let s = ShareVec::from_raw(vec![1, 2, 3]);
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            let mut prg = Prg::from_u64(115);
            gc_maxpool4_garbler(&server, &s2, &snd_base, &mut prg).is_err()
        });
        assert!(gc_maxpool4_evaluator(&client, &s, &rcv_base).is_err());
        assert!(t.join().unwrap());
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
            relu_interactive(&server, false, &s1, &mut bt1, &ta1, &tb1).unwrap()
        });
        let y0 = relu_interactive(&client, true, &s0, &mut bt0, &ta0, &tb0).unwrap();
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
        // 63-bit comparison: 63 leaves + tree merges.
        assert_eq!(drelu_bit_triples(63), 63 + 62 + 32 + 16 + 8 + 4 + 2);
        assert_eq!(drelu_bit_triples(1), 1);
        assert_eq!(drelu_bit_triples(2), 2 + 2);
    }
}
