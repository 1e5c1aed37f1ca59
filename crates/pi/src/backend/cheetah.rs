//! The Cheetah-style backend (Huang et al., USENIX Security 2022):
//! comparison-based non-linearities consuming silent bit/Beaver triples,
//! with an online phase two orders of magnitude leaner than garbled
//! circuits; lean lattice offline modelled by
//! [`crate::cost::OfflineCostModel::cheetah`]. The bit triples are
//! word-packed from the dealer's draw to the wire (`c2pi_mpc::bitvec`),
//! 187 per compared element, and the comparison runs bit-sliced on them
//! (DESIGN.md §12).

use crate::pool::mismatch;
use crate::Result;
use c2pi_mpc::dealer::{Dealer, Halves, TripleShare};
use c2pi_mpc::gcpre::MaskedOp;
use c2pi_mpc::gmw::BitTriples;
use c2pi_mpc::relu::{drelu_bit_triples, max_interactive, relu_interactive};
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;

/// One comparison stage's correlations: the word-packed DReLU
/// bit-triple pool plus the two Beaver triple sets the multiplexer
/// consumes. A ReLU layer is one stage, a 4-way max tournament three, a
/// fused pool the tournament's three and then the ReLU's one, over the
/// windows — the draws the two layers made apart, in their order; both
/// parties hold the same shape.
pub(crate) type Stage = (BitTriples, TripleShare, TripleShare);

/// The comparison stages of an `op` layer over `n` elements: how many,
/// and the DReLU bit triples each consumes.
pub(super) fn stages(op: MaskedOp, n: usize) -> (usize, usize) {
    let count = match op {
        MaskedOp::Relu => 1,
        MaskedOp::Maxpool4 => 3,
        MaskedOp::MaxpoolRelu4 => 4,
    };
    (count, n * drelu_bit_triples(63))
}

/// Deals one `op` layer's comparison stages over `n` elements each,
/// keeping `halves`. Unlike a garbling, the server's half of every
/// correlation here depends on every draw, so a sided deal saves only
/// the client its `c₁` words and the unwanted Beaver halves are simply
/// dropped.
pub(super) fn layer_for(
    dealer: &mut Dealer,
    op: MaskedOp,
    n: usize,
    halves: Halves,
) -> (Option<Vec<Stage>>, Option<Vec<Stage>>) {
    let (count, bits) = stages(op, n);
    let mut client = halves.client().then(|| Vec::with_capacity(count));
    let mut server = halves.server().then(|| Vec::with_capacity(count));
    for _ in 0..count {
        let (b0, b1) = dealer.bit_triples_for(bits, halves);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        if let (Some(stages), Some(b0)) = (client.as_mut(), b0) {
            stages.push((b0, ta0, tb0));
        }
        if let (Some(stages), Some(b1)) = (server.as_mut(), b1) {
            stages.push((b1, ta1, tb1));
        }
    }
    (client, server)
}

/// One party of a comparison-based `op` layer: the ReLU, the 4-way max
/// tournament over the gathered `quads`, or (fused) the tournament and
/// then the ReLU of its result — the two protocols run back to back in
/// one step, with the stages, messages and flights of the two layers.
/// The protocol is symmetric: `is_client` only tells the
/// triple-consuming sub-protocols who sends first and who adds the
/// public terms.
pub(super) fn party(
    ep: &dyn Channel,
    is_client: bool,
    op: MaskedOp,
    share: &ShareVec,
    mut stages: Vec<Stage>,
) -> Result<ShareVec> {
    let who = if is_client { "client" } else { "server" };
    match (op, &mut stages[..]) {
        (MaskedOp::Relu, [(bits, ta, tb)]) => {
            Ok(relu_interactive(ep, is_client, share, bits, ta, tb)?)
        }
        (MaskedOp::Maxpool4, [max1, max2, max3]) => {
            tournament(ep, is_client, share, [max1, max2, max3])
        }
        (MaskedOp::MaxpoolRelu4, [max1, max2, max3, (bits, ta, tb)]) => {
            let max = tournament(ep, is_client, share, [max1, max2, max3])?;
            Ok(relu_interactive(ep, is_client, &max, bits, ta, tb)?)
        }
        _ => Err(mismatch(who)),
    }
}

/// The 4-way max of each window of the gathered `quads`: two maxes of
/// pairs, then the max of their results, one stage each.
fn tournament(
    ep: &dyn Channel,
    is_client: bool,
    quads: &ShareVec,
    [(bt1, ta1, tb1), (bt2, ta2, tb2), (bt3, ta3, tb3)]: [&mut Stage; 3],
) -> Result<ShareVec> {
    let [a, b, c, d] = split_quads(quads);
    let m1 = max_interactive(ep, is_client, &a, &b, bt1, ta1, tb1)?;
    let m2 = max_interactive(ep, is_client, &c, &d, bt2, ta2, tb2)?;
    Ok(max_interactive(ep, is_client, &m1, &m2, bt3, ta3, tb3)?)
}

/// Splits the per-window gathered quads (window-major `a b c d` groups)
/// into four parallel vectors — the layout the max tournament consumes.
fn split_quads(share: &ShareVec) -> [ShareVec; 4] {
    let n = share.len() / 4;
    let mut parts: [Vec<u64>; 4] = [
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    ];
    for (i, &v) in share.as_raw().iter().enumerate() {
        parts[i % 4].push(v);
    }
    let [a, b, c, d] = parts;
    [ShareVec::from_raw(a), ShareVec::from_raw(b), ShareVec::from_raw(c), ShareVec::from_raw(d)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_quads_deinterleaves() {
        let s = ShareVec::from_raw(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let [a, b, c, d] = split_quads(&s);
        assert_eq!(a.as_raw(), &[1, 5]);
        assert_eq!(b.as_raw(), &[2, 6]);
        assert_eq!(c.as_raw(), &[3, 7]);
        assert_eq!(d.as_raw(), &[4, 8]);
    }
}
