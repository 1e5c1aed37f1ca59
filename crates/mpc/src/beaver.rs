//! Arithmetic secure computation over `Z_2^64`: Beaver-triple
//! multiplication, the masked linear-layer protocol, boolean→arithmetic
//! conversion and share truncation.

use crate::bitvec::BitVec;
use crate::dealer::{LinearCorrClient, LinearCorrServer, TripleShare};
use crate::fixed::FixedPoint;
use crate::ring::RingMatrix;
use crate::share::ShareVec;
use crate::{MpcError, Result};
use c2pi_transport::Channel;

/// Batched secure elementwise multiplication of two additively shared
/// vectors using Beaver triples. One simultaneous exchange of the opened
/// `d = x−a`, `e = y−b` values.
///
/// `is_initiator` breaks the symmetry (the initiator adds the public
/// `d·e` term); parties pass opposite values.
///
/// # Errors
///
/// Returns transport errors or length mismatches.
pub fn mul_elementwise<C: Channel + ?Sized>(
    ep: &C,
    is_initiator: bool,
    x: &ShareVec,
    y: &ShareVec,
    triple: &TripleShare,
) -> Result<ShareVec> {
    let n = x.len();
    if y.len() != n || triple.a.len() != n || triple.b.len() != n || triple.c.len() != n {
        return Err(MpcError::BadConfig(format!(
            "mul_elementwise lengths: x={} y={} triple={}",
            n,
            y.len(),
            triple.a.len()
        )));
    }
    let d_share = x.sub(&triple.a);
    let e_share = y.sub(&triple.b);
    let mut opened = Vec::with_capacity(2 * n);
    opened.extend_from_slice(d_share.as_raw());
    opened.extend_from_slice(e_share.as_raw());
    let peer;
    if is_initiator {
        ep.send_u64s(&opened)?;
        peer = ep.recv_u64s()?;
    } else {
        peer = ep.recv_u64s()?;
        ep.send_u64s(&opened)?;
    }
    if peer.len() != 2 * n {
        return Err(MpcError::Protocol(format!(
            "expected {} opened values, got {}",
            2 * n,
            peer.len()
        )));
    }
    let mut z = Vec::with_capacity(n);
    for i in 0..n {
        let d = opened[i].wrapping_add(peer[i]);
        let e = opened[n + i].wrapping_add(peer[n + i]);
        // z = c + d·b + e·a (+ d·e once).
        let mut zi = triple.c.as_raw()[i]
            .wrapping_add(d.wrapping_mul(triple.b.as_raw()[i]))
            .wrapping_add(e.wrapping_mul(triple.a.as_raw()[i]));
        if is_initiator {
            zi = zi.wrapping_add(d.wrapping_mul(e));
        }
        z.push(zi);
    }
    Ok(ShareVec::from_raw(z))
}

/// Client side of the masked linear-layer protocol (Delphi/Cheetah
/// online phase): sends `X₀ − A` in one flight and keeps `share(W·A)` as
/// its output share.
///
/// # Errors
///
/// Returns transport errors or shape mismatches.
pub fn linear_client<C: Channel + ?Sized>(
    ep: &C,
    x0: &RingMatrix,
    corr: &LinearCorrClient,
) -> Result<RingMatrix> {
    let masked = x0.sub(&corr.mask)?;
    ep.send_u64s(masked.as_slice())?;
    Ok(corr.wa_share.clone())
}

/// Server side of the masked linear-layer protocol over `k ≥ 1`
/// members sharing one weight matrix: receives each member's `X₀ − A`
/// flight (one per member, in slice order), column-stacks the members
/// and runs **one** wide `W·[·|·|…]` product per operand, then splits
/// the columns back and adds each member's own `share(W·Aᵢ)`, giving
/// `W·(X₀ − A) + W·X₁ + share(W·A)` as that member's output share.
///
/// Ring matmul accumulates every output column independently (and
/// wrapping `u64` addition is exact), so a member's output share does
/// not depend on who else is in the run: `k` members in one call are
/// bit-for-bit `k` calls of one.
///
/// # Errors
///
/// Returns transport errors or shape mismatches; the per-member slices
/// must have equal nonzero length.
pub fn linear_server_members<C: Channel + ?Sized>(
    eps: &[&C],
    w: &RingMatrix,
    x1s: &[RingMatrix],
    corrs: &[&LinearCorrServer],
) -> Result<Vec<RingMatrix>> {
    let k = eps.len();
    if x1s.len() != k || corrs.len() != k || k == 0 {
        return Err(MpcError::BadConfig(format!(
            "linear_server_members over {k} channels, {} shares, {} correlations",
            x1s.len(),
            corrs.len()
        )));
    }
    let mut maskeds = Vec::with_capacity(k);
    for (ep, x1) in eps.iter().zip(x1s) {
        let raw = ep.recv_u64s()?;
        maskeds.push(RingMatrix::from_vec(raw, x1.rows(), x1.cols())?);
    }
    let widths: Vec<usize> = x1s.iter().map(RingMatrix::cols).collect();
    let masked_refs: Vec<&RingMatrix> = maskeds.iter().collect();
    let x1_refs: Vec<&RingMatrix> = x1s.iter().collect();
    let wd = w.matmul(&RingMatrix::hstack(&masked_refs)?)?;
    let wx1 = w.matmul(&RingMatrix::hstack(&x1_refs)?)?;
    let fused = wd.add(&wx1)?;
    fused
        .split_cols(&widths)?
        .into_iter()
        .zip(corrs)
        .map(|(y, corr)| y.add(&corr.wa_share))
        .collect()
}

/// [`linear_server_members`] for one member — the spelling the
/// repository benchmark times.
///
/// # Errors
///
/// As [`linear_server_members`].
pub fn linear_server<C: Channel + ?Sized>(
    ep: &C,
    w: &RingMatrix,
    x1: &RingMatrix,
    corr: &LinearCorrServer,
) -> Result<RingMatrix> {
    let mut ys = linear_server_members(&[ep], w, std::slice::from_ref(x1), &[corr])?;
    Ok(ys.pop().expect("one member in, one share out"))
}

/// Client side of the masked elementwise affine protocol (server-known
/// scale `s` applied to a shared vector): sends `x₀ − a` and keeps its
/// share of `s⊙a`.
///
/// # Errors
///
/// Returns transport errors or length mismatches.
pub fn affine_client<C: Channel + ?Sized>(
    ep: &C,
    x0: &ShareVec,
    corr: &crate::dealer::AffineCorrClient,
) -> Result<ShareVec> {
    if corr.mask.len() != x0.len() {
        return Err(MpcError::BadConfig("affine correlation length mismatch".into()));
    }
    let masked: Vec<u64> =
        x0.as_raw().iter().zip(corr.mask.iter()).map(|(&x, &a)| x.wrapping_sub(a)).collect();
    ep.send_u64s(&masked)?;
    Ok(corr.sa_share.clone())
}

/// Server side of the masked elementwise affine protocol: receives
/// `x₀ − a`, outputs `s⊙(x₀−a) + s⊙x₁ + share(s⊙a)`.
///
/// # Errors
///
/// Returns transport errors or length mismatches.
pub fn affine_server<C: Channel + ?Sized>(
    ep: &C,
    scale: &[u64],
    x1: &ShareVec,
    corr: &crate::dealer::AffineCorrServer,
) -> Result<ShareVec> {
    let masked = ep.recv_u64s()?;
    if masked.len() != x1.len() || scale.len() != x1.len() {
        return Err(MpcError::Protocol("affine frame length mismatch".into()));
    }
    let out: Vec<u64> = (0..x1.len())
        .map(|i| {
            scale[i]
                .wrapping_mul(masked[i].wrapping_add(x1.as_raw()[i]))
                .wrapping_add(corr.sa_share.as_raw()[i])
        })
        .collect();
    Ok(ShareVec::from_raw(out))
}

/// Probabilistic local truncation (SecureML style): each party shifts
/// its share by `frac_bits`; the reconstructed value equals the truly
/// truncated value up to ±1 LSB except with probability `|x| / 2^64`.
///
/// The client shifts its share as an unsigned value; the server negates,
/// shifts, and negates back. Both operations are local (no traffic).
pub fn truncate_share(share: &ShareVec, is_client: bool, fp: FixedPoint) -> ShareVec {
    let f = fp.frac_bits();
    let out: Vec<u64> = share
        .as_raw()
        .iter()
        .map(|&s| if is_client { s >> f } else { (s.wrapping_neg() >> f).wrapping_neg() })
        .collect();
    ShareVec::from_raw(out)
}

/// Boolean→arithmetic share conversion for a batch of XOR-shared bits:
/// returns additive shares of each bit's value in `Z_2^64` using
/// `b = b₀ + b₁ − 2·b₀·b₁`, with the cross term from one Beaver
/// multiplication (each party's private bit enters as a degenerate
/// additive sharing).
///
/// # Errors
///
/// Returns transport errors or length mismatches.
pub fn b2a<C: Channel + ?Sized>(
    ep: &C,
    is_initiator: bool,
    bits: &BitVec,
    triple: &TripleShare,
) -> Result<ShareVec> {
    let n = bits.len();
    let mine: Vec<u64> = (0..n).map(|i| bits.get(i) as u64).collect();
    // Degenerate sharings: initiator's bit is x = (mine, 0); peer's bit
    // is y = (0, theirs). Both parties call with the same convention.
    let x = if is_initiator {
        ShareVec::from_raw(mine.clone())
    } else {
        ShareVec::from_raw(vec![0u64; n])
    };
    let y = if is_initiator {
        ShareVec::from_raw(vec![0u64; n])
    } else {
        ShareVec::from_raw(mine.clone())
    };
    let cross = mul_elementwise(ep, is_initiator, &x, &y, triple)?;
    // b_arith share = own bit − 2·cross_share.
    let out: Vec<u64> = mine
        .iter()
        .zip(cross.as_raw().iter())
        .map(|(&b, &c)| b.wrapping_sub(c.wrapping_mul(2)))
        .collect();
    Ok(ShareVec::from_raw(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealer::Dealer;
    use crate::prg::Prg;
    use crate::share::{reconstruct, share_secret};
    use c2pi_transport::channel_pair;

    #[test]
    fn beaver_multiplication_is_correct() {
        let mut dealer = Dealer::new(51);
        let n = 64;
        let (t0, t1) = dealer.beaver_triples(n);
        let mut prg = Prg::from_u64(3);
        let x: Vec<u64> = prg.next_u64s(n);
        let y: Vec<u64> = prg.next_u64s(n);
        let (x0, x1) = share_secret(&x, &mut prg);
        let (y0, y1) = share_secret(&y, &mut prg);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || mul_elementwise(&server, false, &x1, &y1, &t1).unwrap());
        let z0 = mul_elementwise(&client, true, &x0, &y0, &t0).unwrap();
        let z1 = t.join().unwrap();
        let z = reconstruct(&z0, &z1);
        for i in 0..n {
            assert_eq!(z[i], x[i].wrapping_mul(y[i]), "element {i}");
        }
    }

    #[test]
    fn beaver_fixed_point_products_truncate_correctly() {
        let fp = FixedPoint::default();
        let mut dealer = Dealer::new(52);
        let vals_x = [1.5f32, -2.0, 0.25, -0.75, 3.0];
        let vals_y = [2.0f32, 1.5, -4.0, -2.0, 0.5];
        let n = vals_x.len();
        let (t0, t1) = dealer.beaver_triples(n);
        let x: Vec<u64> = vals_x.iter().map(|&v| fp.encode(v)).collect();
        let y: Vec<u64> = vals_y.iter().map(|&v| fp.encode(v)).collect();
        let mut prg = Prg::from_u64(4);
        let (x0, x1) = share_secret(&x, &mut prg);
        let (y0, y1) = share_secret(&y, &mut prg);
        let (client, server, _) = channel_pair();
        let t = std::thread::spawn(move || {
            let z1 = mul_elementwise(&server, false, &x1, &y1, &t1).unwrap();
            truncate_share(&z1, false, fp)
        });
        let z0 = mul_elementwise(&client, true, &x0, &y0, &t0).unwrap();
        let z0 = truncate_share(&z0, true, fp);
        let z1 = t.join().unwrap();
        let z = reconstruct(&z0, &z1);
        for i in 0..n {
            let got = fp.decode(z[i]);
            let want = vals_x[i] * vals_y[i];
            assert!((got - want).abs() < 0.01, "element {i}: {got} vs {want}");
        }
    }

    #[test]
    fn truncation_error_is_at_most_one_lsb() {
        let fp = FixedPoint::default();
        let mut prg = Prg::from_u64(5);
        let mut max_err = 0i64;
        for trial in 0..2000 {
            let v = ((trial as i64) - 1000) * 12345; // scaled values, both signs
            let secret = vec![(v as u64).wrapping_mul(1 << fp.frac_bits())];
            let (s0, s1) = share_secret(&secret, &mut prg);
            let t0 = truncate_share(&s0, true, fp);
            let t1 = truncate_share(&s1, false, fp);
            let got = reconstruct(&t0, &t1)[0] as i64;
            max_err = max_err.max((got - v).abs());
        }
        assert!(max_err <= 1, "max truncation error {max_err}");
    }

    #[test]
    fn masked_linear_computes_w_times_x() {
        let mut dealer = Dealer::new(53);
        let mut prg = Prg::from_u64(6);
        let (m, k, n) = (3, 4, 5);
        let w = RingMatrix::from_vec(prg.next_u64s(m * k), m, k).unwrap();
        let x: Vec<u64> = prg.next_u64s(k * n);
        let (x0, x1) = share_secret(&x, &mut prg);
        let x0m = RingMatrix::from_vec(x0.into_raw(), k, n).unwrap();
        let x1m = RingMatrix::from_vec(x1.into_raw(), k, n).unwrap();
        let (corr_c, corr_s) = dealer.linear_corr(&w, n).unwrap();
        let (client, server, counter) = channel_pair();
        let w_clone = w.clone();
        let t =
            std::thread::spawn(move || linear_server(&server, &w_clone, &x1m, &corr_s).unwrap());
        let y0 = linear_client(&client, &x0m, &corr_c).unwrap();
        let y1 = t.join().unwrap();
        let y = reconstruct(
            &ShareVec::from_raw(y0.as_slice().to_vec()),
            &ShareVec::from_raw(y1.as_slice().to_vec()),
        );
        let expect = w.matmul(&RingMatrix::from_vec(x, k, n).unwrap()).unwrap();
        assert_eq!(y, expect.as_slice());
        // Exactly one client→server flight of k·n ring elements.
        let snap = counter.snapshot();
        assert_eq!(snap.bytes_client_to_server, (k * n * 8) as u64);
        assert_eq!(snap.bytes_server_to_client, 0);
        assert_eq!(snap.flights, 1);
    }

    #[test]
    fn k_members_in_one_run_are_bit_identical_to_k_runs_of_one() {
        let (m, k, n, batch) = (3, 4, 2, 3);
        let mut dealer = Dealer::new(57);
        let mut prg = Prg::from_u64(8);
        let w = RingMatrix::from_vec(prg.next_u64s(m * k), m, k).unwrap();
        let mut corr_cs = Vec::new();
        let mut corr_ss = Vec::new();
        let mut x0s = Vec::new();
        let mut x1s = Vec::new();
        for _ in 0..batch {
            let (cc, cs) = dealer.linear_corr(&w, n).unwrap();
            corr_cs.push(cc);
            corr_ss.push(cs);
            let x: Vec<u64> = prg.next_u64s(k * n);
            let (x0, x1) = share_secret(&x, &mut prg);
            x0s.push(RingMatrix::from_vec(x0.into_raw(), k, n).unwrap());
            x1s.push(RingMatrix::from_vec(x1.into_raw(), k, n).unwrap());
        }
        // Reference: each member served by a run of one over its own
        // replayed flight.
        let mut want = Vec::new();
        for i in 0..batch {
            let (client, server, _) = channel_pair();
            linear_client(&client, &x0s[i], &corr_cs[i]).unwrap();
            want.push(linear_server(&server, &w, &x1s[i], &corr_ss[i]).unwrap());
        }
        // Fused: same flights, one wide matmul, per-member counters.
        let pairs: Vec<_> = (0..batch).map(|_| channel_pair()).collect();
        for (i, (client, _, _)) in pairs.iter().enumerate() {
            linear_client(client, &x0s[i], &corr_cs[i]).unwrap();
        }
        let eps: Vec<_> = pairs.iter().map(|(_, s, _)| s).collect();
        let corr_refs: Vec<&LinearCorrServer> = corr_ss.iter().collect();
        let got = linear_server_members(&eps, &w, &x1s, &corr_refs).unwrap();
        assert_eq!(got, want, "a member's output share must not depend on who shares its run");
        // Each member still pays exactly its own single flight.
        for (_, _, counter) in &pairs {
            let snap = counter.snapshot();
            assert_eq!(snap.bytes_client_to_server, (k * n * 8) as u64);
            assert_eq!(snap.flights, 1);
        }
        // Length mismatches are rejected up front.
        assert!(linear_server_members(&eps[..2], &w, &x1s, &corr_refs).is_err());
    }

    #[test]
    fn b2a_converts_xor_shares() {
        let mut dealer = Dealer::new(54);
        let n = 32;
        let (t0, t1) = dealer.beaver_triples(n);
        let mut prg = Prg::from_u64(7);
        let b0: Vec<bool> = (0..n).map(|_| prg.next_bool()).collect();
        let b1: Vec<bool> = (0..n).map(|_| prg.next_bool()).collect();
        let (client, server, _) = channel_pair();
        let packed1 = BitVec::from_bools(&b1);
        let t = std::thread::spawn(move || b2a(&server, false, &packed1, &t1).unwrap());
        let a0 = b2a(&client, true, &BitVec::from_bools(&b0), &t0).unwrap();
        let a1 = t.join().unwrap();
        let a = reconstruct(&a0, &a1);
        for i in 0..n {
            assert_eq!(a[i], (b0[i] ^ b1[i]) as u64, "bit {i}");
        }
    }

    #[test]
    fn mul_rejects_mismatched_inputs() {
        let mut dealer = Dealer::new(55);
        let (t0, _) = dealer.beaver_triples(4);
        let (client, _server, _) = channel_pair();
        let x = ShareVec::from_raw(vec![1, 2, 3]);
        let y = ShareVec::from_raw(vec![1, 2, 3, 4]);
        assert!(mul_elementwise(&client, true, &x, &y, &t0).is_err());
    }
}
