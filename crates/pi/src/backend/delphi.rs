//! The Delphi-style backend (Mishra et al., USENIX Security 2020):
//! garbled-circuit non-linearities with the garbling done **offline**
//! ([`c2pi_mpc::gcpre`]) — `prepare_*` garbles the masked circuits and
//! fixes every input-independent label during preprocessing, so the
//! online phase is one `δ`/label round trip per layer plus local
//! evaluation. A server-sided `prepare_*` keeps Δ, the zero labels and
//! `r` and garbles nothing. Heavyweight HE offline (plus the garbled
//! tables and the session OT extension's label transfers) modelled by
//! [`OfflineCostModel::delphi`].

use super::{check_batch_arity, downcast_material, NlMaterial, PiBackendImpl};
use crate::cost::OfflineCostModel;
use crate::engine::PiConfig;
use crate::report::OpCounts;
use crate::Result;
use c2pi_mpc::dealer::{Dealer, Halves};
use c2pi_mpc::gc::UNIT_BITS;
use c2pi_mpc::gcpre::{
    pre_gc_evaluator, pre_gc_garbler_members, pregarble_for, MaskedOp, PreGarbledClient,
    PreGarbledServer,
};
use c2pi_mpc::ot::KAPPA;
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;

/// The Delphi-style backend. Stateless: all per-inference state lives in
/// the prepared material.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delphi;

impl Delphi {
    /// Garbles one layer's masked circuits offline and accounts the
    /// AND gates plus the extension-transferred evaluator labels — the
    /// layer's, whichever halves this party keeps. A server-sided call
    /// garbles nothing ([`pregarble_for`]).
    fn prepare_layer(
        &self,
        dealer: &mut Dealer,
        op: MaskedOp,
        items: usize,
        cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>) {
        counts.and_gates += (items * op.ands_per_item()) as u64;
        counts.xor_gates += (items * op.xors_per_item()) as u64;
        // The evaluator's masked-input labels ride the session OT
        // extension (one transfer per input bit).
        counts.ext_ots += (items * op.in_elems() * UNIT_BITS) as u64;
        let mut prg = dealer.fork_prg();
        let (cmat, smat) = pregarble_for(op, items, &mut prg, cfg.gc_chunk.max(1), halves);
        // The pre-garbled halves are drawn from a forked PRG, so the
        // dealer can't see their size itself — report it for the
        // seed-vs-expanded accounting: what the seed stands for, both
        // halves, not what this party holds.
        dealer.note_expanded(op.expanded_bytes(items));
        (cmat.map(|m| Box::new(m) as NlMaterial), smat.map(|m| Box::new(m) as NlMaterial))
    }

    /// Evaluator party of both non-linear hooks: one `δ`/label round
    /// trip, then parallel evaluation.
    fn nl_client(
        &self,
        ep: &dyn Channel,
        share: &ShareVec,
        material: NlMaterial,
        cfg: &PiConfig,
    ) -> Result<ShareVec> {
        let mat = downcast_material::<PreGarbledClient>(material, "delphi")?;
        Ok(pre_gc_evaluator(ep, &mat, share, cfg.gc_chunk.max(1))?)
    }

    /// Garbler party of both non-linear hooks: all `k` members' label
    /// selections run in one parallel region
    /// ([`pre_gc_garbler_members`]).
    fn nl_server(
        &self,
        eps: &[&dyn Channel],
        shares: &[ShareVec],
        materials: Vec<NlMaterial>,
    ) -> Result<Vec<ShareVec>> {
        check_batch_arity("delphi garbler", eps.len(), shares.len(), materials.len())?;
        let mats: Vec<Box<PreGarbledServer>> =
            materials.into_iter().map(|m| downcast_material(m, "delphi")).collect::<Result<_>>()?;
        let mat_refs: Vec<&PreGarbledServer> = mats.iter().map(|m| &**m).collect();
        let share_refs: Vec<&ShareVec> = shares.iter().collect();
        Ok(pre_gc_garbler_members(eps, &mat_refs, &share_refs)?)
    }
}

impl PiBackendImpl for Delphi {
    fn name(&self) -> &'static str {
        "delphi"
    }

    fn cost_model(&self) -> OfflineCostModel {
        OfflineCostModel::delphi()
    }

    fn prepare_session(&self, dealer: &mut Dealer, counts: &mut OpCounts) {
        // One KAPPA-sized base-OT set per inference; the offline label
        // transfers of every layer extend from it.
        let _ = dealer.base_ots(KAPPA);
        counts.base_ots += KAPPA as u64;
    }

    fn prepare_relu(
        &self,
        dealer: &mut Dealer,
        n: usize,
        cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>) {
        self.prepare_layer(dealer, MaskedOp::Relu, n, cfg, counts, halves)
    }

    fn prepare_maxpool(
        &self,
        dealer: &mut Dealer,
        windows: usize,
        cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>) {
        self.prepare_layer(dealer, MaskedOp::Maxpool4, windows, cfg, counts, halves)
    }

    fn relu_online_client(
        &self,
        ep: &dyn Channel,
        share: &ShareVec,
        material: NlMaterial,
        cfg: &PiConfig,
    ) -> Result<ShareVec> {
        self.nl_client(ep, share, material, cfg)
    }

    fn relu_online_server(
        &self,
        eps: &[&dyn Channel],
        shares: &[ShareVec],
        materials: Vec<NlMaterial>,
        _cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>> {
        self.nl_server(eps, shares, materials)
    }

    fn maxpool_online_client(
        &self,
        ep: &dyn Channel,
        quads: &ShareVec,
        material: NlMaterial,
        cfg: &PiConfig,
    ) -> Result<ShareVec> {
        self.nl_client(ep, quads, material, cfg)
    }

    fn maxpool_online_server(
        &self,
        eps: &[&dyn Channel],
        quads: &[ShareVec],
        materials: Vec<NlMaterial>,
        _cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>> {
        self.nl_server(eps, quads, materials)
    }
}
