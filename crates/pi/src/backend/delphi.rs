//! The Delphi-style backend (Mishra et al., USENIX Security 2020):
//! garbled-circuit non-linearities with the garbling done **offline**
//! ([`c2pi_mpc::gcpre`]) — dealing a layer ([`super::deal_nl`]) garbles
//! its masked circuits and fixes every input-independent label during
//! preprocessing, so the online phase is one `δ`/label round trip per
//! layer plus local evaluation. A max pool and the ReLU after it are one
//! layer here: one fused unit per window (`MaskedOp::MaxpoolRelu4`,
//! `11w − 8` ANDs at the step's width `w`), so the pooled ReLU costs no round trip and no labels of its
//! own. A server-sided deal keeps Δ, the zero labels and `r` and
//! garbles nothing. Heavyweight HE offline (plus the garbled tables and
//! the OT-extension label transfers a real deployment would run — the
//! dealer deals the labels directly) modelled by
//! [`crate::cost::OfflineCostModel::delphi`].

use crate::engine::PiConfig;
use crate::Result;
use c2pi_mpc::gcpre::{
    pre_gc_evaluator, pre_gc_garbler_members, PreGarbledClient, PreGarbledServer,
};
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;

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
