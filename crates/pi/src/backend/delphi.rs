//! The Delphi-style backend (Mishra et al., USENIX Security 2020):
//! garbled-circuit non-linearities with the garbling done **offline**
//! ([`c2pi_mpc::gcpre`]) — dealing a layer garbles its masked circuits
//! and fixes every input-independent label during preprocessing, so the
//! online phase is one `δ`/label round trip per layer plus local
//! evaluation. A max pool and the ReLU after it are one layer here: one
//! fused unit per window (`MaskedOp::MaxpoolRelu4`, 696 ANDs), so the
//! pooled ReLU costs no round trip and no labels of its own. A server-sided deal keeps Δ, the zero labels and `r` and
//! garbles nothing. Heavyweight HE offline (plus the garbled tables and
//! the OT-extension label transfers a real deployment would run — the
//! dealer deals the labels directly) modelled by
//! [`crate::cost::OfflineCostModel::delphi`].

use crate::engine::PiConfig;
use crate::report::OpCounts;
use crate::Result;
use c2pi_mpc::dealer::{Dealer, Halves};
use c2pi_mpc::gc::UNIT_BITS;
use c2pi_mpc::gcpre::{
    pre_gc_evaluator, pre_gc_garbler_members, pregarble_for, MaskedOp, PreGarbledClient,
    PreGarbledServer,
};
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;

/// Garbles one layer's masked circuits offline and accounts the AND
/// gates, the projection words and the extension-transferred evaluator
/// labels — the layer's, whichever halves this party keeps. A
/// server-sided call garbles nothing ([`pregarble_for`]).
pub(super) fn prepare_layer(
    dealer: &mut Dealer,
    op: MaskedOp,
    items: usize,
    cfg: &PiConfig,
    counts: &mut OpCounts,
    halves: Halves,
) -> (Option<PreGarbledClient>, Option<PreGarbledServer>) {
    counts.and_gates += (items * op.ands_per_item()) as u64;
    counts.xor_gates += (items * op.xors_per_item()) as u64;
    counts.proj_words += (items * op.proj_words_per_item()) as u64;
    // A real deployment transfers the evaluator's masked-input labels
    // by OT extension (one transfer per input bit): a modelled price,
    // the labels themselves are dealt.
    counts.ext_ots += (items * op.in_elems() * UNIT_BITS) as u64;
    let mut prg = dealer.fork_prg();
    let halves = pregarble_for(op, items, &mut prg, cfg.gc_chunk.max(1), halves);
    // The pre-garbled halves are drawn from a forked PRG, so the
    // dealer can't see their size itself — report it for the
    // seed-vs-expanded accounting: what the seed stands for, both
    // halves, not what this party holds.
    dealer.note_expanded(op.expanded_bytes(items));
    halves
}

/// Evaluator party of a non-linear layer: one `δ`/label round trip,
/// then parallel evaluation.
pub(super) fn nl_client(
    ep: &dyn Channel,
    share: &ShareVec,
    mat: &PreGarbledClient,
    cfg: &PiConfig,
) -> Result<ShareVec> {
    Ok(pre_gc_evaluator(ep, mat, share, cfg.gc_chunk.max(1))?)
}

/// Garbler party of a non-linear layer: all `k` members' label
/// selections run in one parallel region ([`pre_gc_garbler_members`]).
pub(super) fn nl_server(
    eps: &[&dyn Channel],
    shares: &[ShareVec],
    mats: &[PreGarbledServer],
) -> Result<Vec<ShareVec>> {
    let mat_refs: Vec<&PreGarbledServer> = mats.iter().collect();
    let share_refs: Vec<&ShareVec> = shares.iter().collect();
    Ok(pre_gc_garbler_members(eps, &mat_refs, &share_refs)?)
}
