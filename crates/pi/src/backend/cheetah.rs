//! The Cheetah-style backend (Huang et al., USENIX Security 2022):
//! comparison-based non-linearities consuming silent bit/Beaver triples,
//! with an online phase two orders of magnitude leaner than garbled
//! circuits; lean lattice offline modelled by
//! [`OfflineCostModel::cheetah`]. The bit triples are word-packed from
//! the dealer's draw to the wire (`c2pi_mpc::bitvec`), 187 per compared
//! element, and the comparison runs bit-sliced on them (DESIGN.md §12).

use super::{check_batch_arity, downcast_material, split_quads, NlMaterial, PiBackendImpl};
use crate::cost::OfflineCostModel;
use crate::engine::PiConfig;
use crate::report::OpCounts;
use crate::Result;
use c2pi_mpc::dealer::{Dealer, Halves, TripleShare};
use c2pi_mpc::ot::BitTriples;
use c2pi_mpc::relu::{drelu_bit_triples, max_interactive, relu_interactive};
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;

/// One comparison stage's correlations: the word-packed DReLU
/// bit-triple pool plus the two Beaver triple sets the multiplexer
/// consumes.
type Stage = (BitTriples, TripleShare, TripleShare);

/// Offline material for one comparison-based non-linear layer (one
/// stage for ReLU, three for the 4-way max tournament). Both parties
/// hold the same shape.
struct CmpMaterial {
    stages: Vec<Stage>,
}

/// The Cheetah-style backend. Stateless: all per-inference state lives
/// in the prepared material.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cheetah;

/// Deals `stages` comparison stages over `n` elements each, keeping
/// `halves`. Unlike a garbling, the server's half of every correlation
/// here depends on every draw, so a sided deal saves only the client its
/// `c₁` words and the unwanted Beaver halves are simply dropped.
fn layer_for(
    dealer: &mut Dealer,
    stages: usize,
    n: usize,
    counts: &mut OpCounts,
    halves: Halves,
) -> (Option<NlMaterial>, Option<NlMaterial>) {
    let mut client = halves.client().then(|| Vec::with_capacity(stages));
    let mut server = halves.server().then(|| Vec::with_capacity(stages));
    for _ in 0..stages {
        let need = n * drelu_bit_triples(63);
        counts.bit_triples += need as u64;
        let (b0, b1) = dealer.bit_triples_for(need, halves);
        let (ta0, ta1) = dealer.beaver_triples(n);
        let (tb0, tb1) = dealer.beaver_triples(n);
        if let (Some(stages), Some(b0)) = (client.as_mut(), b0) {
            stages.push((b0, ta0, tb0));
        }
        if let (Some(stages), Some(b1)) = (server.as_mut(), b1) {
            stages.push((b1, ta1, tb1));
        }
    }
    let boxed = |stages: Vec<Stage>| Box::new(CmpMaterial { stages }) as NlMaterial;
    (client.map(boxed), server.map(boxed))
}

/// One party of the comparison-based ReLU. The protocol is symmetric:
/// `is_client` only tells the triple-consuming sub-protocols who sends
/// first and who adds the public terms.
fn relu_party(
    ep: &dyn Channel,
    is_client: bool,
    share: &ShareVec,
    material: NlMaterial,
) -> Result<ShareVec> {
    let mut mat = downcast_material::<CmpMaterial>(material, "cheetah")?;
    let (mut bits, ta, tb) = mat.stages.remove(0);
    Ok(relu_interactive(ep, is_client, share, &mut bits, &ta, &tb)?)
}

/// One party of the 4-way max tournament (three comparison stages).
fn maxpool_party(
    ep: &dyn Channel,
    is_client: bool,
    quads: &ShareVec,
    material: NlMaterial,
) -> Result<ShareVec> {
    let mut mat = downcast_material::<CmpMaterial>(material, "cheetah")?;
    let [a, b, c, d] = split_quads(quads);
    let (mut bt1, ta1, tb1) = mat.stages.remove(0);
    let m1 = max_interactive(ep, is_client, &a, &b, &mut bt1, &ta1, &tb1)?;
    let (mut bt2, ta2, tb2) = mat.stages.remove(0);
    let m2 = max_interactive(ep, is_client, &c, &d, &mut bt2, &ta2, &tb2)?;
    let (mut bt3, ta3, tb3) = mat.stages.remove(0);
    Ok(max_interactive(ep, is_client, &m1, &m2, &mut bt3, &ta3, &tb3)?)
}

/// The server party of a multi-round comparison protocol over `k`
/// members: one member after the other, each to completion.
fn each_member(
    what: &str,
    eps: &[&dyn Channel],
    shares: &[ShareVec],
    materials: Vec<NlMaterial>,
    party: fn(&dyn Channel, bool, &ShareVec, NlMaterial) -> Result<ShareVec>,
) -> Result<Vec<ShareVec>> {
    check_batch_arity(what, eps.len(), shares.len(), materials.len())?;
    eps.iter()
        .zip(shares)
        .zip(materials)
        .map(|((ep, share), material)| party(*ep, false, share, material))
        .collect()
}

impl PiBackendImpl for Cheetah {
    fn name(&self) -> &'static str {
        "cheetah"
    }

    fn cost_model(&self) -> OfflineCostModel {
        OfflineCostModel::cheetah()
    }

    fn prepare_session(&self, dealer: &mut Dealer, counts: &mut OpCounts) {
        // One KAPPA-sized base-OT set per inference: the setup of the
        // silent-OT expansion the dealt bit triples stand in for (the
        // extension itself ships only seeds, so it carries no per-triple
        // traffic — see `OfflineCostModel::cheetah`).
        let _ = dealer.base_ots(c2pi_mpc::ot::KAPPA);
        counts.base_ots += c2pi_mpc::ot::KAPPA as u64;
    }

    fn prepare_relu(
        &self,
        dealer: &mut Dealer,
        n: usize,
        _cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>) {
        layer_for(dealer, 1, n, counts, halves)
    }

    fn prepare_maxpool(
        &self,
        dealer: &mut Dealer,
        windows: usize,
        _cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>) {
        layer_for(dealer, 3, windows, counts, halves)
    }

    fn relu_online_client(
        &self,
        ep: &dyn Channel,
        share: &ShareVec,
        material: NlMaterial,
        _cfg: &PiConfig,
    ) -> Result<ShareVec> {
        relu_party(ep, true, share, material)
    }

    fn relu_online_server(
        &self,
        eps: &[&dyn Channel],
        shares: &[ShareVec],
        materials: Vec<NlMaterial>,
        _cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>> {
        each_member("cheetah relu", eps, shares, materials, relu_party)
    }

    fn maxpool_online_client(
        &self,
        ep: &dyn Channel,
        quads: &ShareVec,
        material: NlMaterial,
        _cfg: &PiConfig,
    ) -> Result<ShareVec> {
        maxpool_party(ep, true, quads, material)
    }

    fn maxpool_online_server(
        &self,
        eps: &[&dyn Channel],
        quads: &[ShareVec],
        materials: Vec<NlMaterial>,
        _cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>> {
        each_member("cheetah maxpool", eps, quads, materials, maxpool_party)
    }
}
