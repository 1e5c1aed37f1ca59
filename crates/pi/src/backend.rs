//! The two protocol backends the paper compares, as one closed set.
//!
//! [`PiBackend`] is the only representation of a backend: the session's
//! [`PiConfig`] carries it, and the engine dispatches on it by `match`.
//! A backend decides how the non-linear layers (ReLU, 2×2 max pool, and
//! a max pool fused with the ReLU after it) are dealt offline and run
//! online, and which analytic model prices its
//! offline phase. Both run the linear layers on the one masked-linear
//! protocol, which the dealer and the walks call directly.
//!
//! * **Delphi** (`delphi.rs`) garbles masked circuits offline and
//!   evaluates them online;
//! * **Cheetah** (`cheetah.rs`) runs comparison protocols on dealt bit
//!   and Beaver triples.
//!
//! The layer is one [`MaskedOp`] argument (ReLU, 4-way max, or the max
//! and its ReLU as one unit), and its
//! material is typed: a Delphi layer is a pre-garbled half
//! (`ClientMat::Gc` / `ServerMat::Gc`), a Cheetah layer its comparison
//! stages (`ClientMat::Cmp` / `ServerMat::Cmp`). Material of the other
//! backend, or of another step, is the walk's "plan/material mismatch"
//! `PiError::BadConfig`.
//!
//! **Sided dealing.** Each party expands only the half it will read:
//! [`deal_nl`] is told which [`Halves`] its caller keeps and returns
//! `(Option<client>, Option<server>)`, `Some` for every wanted half.
//! The contract is *skip, don't reorder*: whatever `halves` says, it
//! leaves the dealer at the same stream position, and a half it returns
//! equals the same half of [`Halves::Both`] — which is what lets a
//! client-sided and a server-sided expansion of one seed meet in one
//! protocol run.
//!
//! **One price.** What an inference costs is a constant of the
//! deployment: [`price`] builds its [`OpCounts`] once, from the plan's
//! shapes, when the `SessionCore` is built. Dealing returns material
//! only, so every deal of a seed, whichever halves it keeps, is priced
//! by the same counts.
//!
//! **One server party.** [`nl_server`] runs `k ≥ 1` members, one
//! channel, share and material per member in slice order. A member's
//! transcript and output share do not depend on who else is in its run
//! (`k` members in one call ≡ `k` calls of one); serving members in
//! index order at every flight is deadlock-free because clients progress
//! independently and flights buffer in the transport.

use crate::cost::OfflineCostModel;
use crate::engine::PiConfig;
use crate::plan::{Plan, Step};
use crate::pool::{mismatch, step_mats, ClientMat, ServerMat};
use crate::report::OpCounts;
use crate::Result;
use c2pi_mpc::dealer::{
    beaver_bytes, bit_triple_bytes, linear_corr_bytes, Dealer, DealtSeed, Halves,
};
use c2pi_mpc::gc::UNIT_BITS;
use c2pi_mpc::gcpre::{pregarble_for, MaskedOp};
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;
use serde::{Deserialize, Serialize};

mod cheetah;
mod delphi;

pub(crate) use cheetah::Stage;

/// Which published system the engine emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PiBackend {
    /// Delphi (Mishra et al., USENIX Security 2020): GC non-linearities,
    /// heavyweight HE offline.
    Delphi,
    /// Cheetah (Huang et al., USENIX Security 2022): comparison-based
    /// non-linearities with silent correlations, lean lattice linear
    /// layers.
    Cheetah,
}

impl PiBackend {
    /// Engine name for reports (`delphi` / `cheetah`).
    pub fn name(&self) -> &'static str {
        match self {
            PiBackend::Delphi => "delphi",
            PiBackend::Cheetah => "cheetah",
        }
    }

    /// The analytic model pricing this backend's offline phase.
    pub fn cost_model(&self) -> OfflineCostModel {
        match self {
            PiBackend::Delphi => OfflineCostModel::delphi(),
            PiBackend::Cheetah => OfflineCostModel::cheetah(),
        }
    }

    /// Resolves a backend tag from its report name (`delphi`,
    /// `cheetah`); `None` for anything else.
    ///
    /// ```
    /// use c2pi_pi::PiBackend;
    /// assert_eq!(PiBackend::by_name("cheetah"), Some(PiBackend::Cheetah));
    /// assert_eq!(PiBackend::by_name("gazelle"), None);
    /// ```
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "delphi" => Some(PiBackend::Delphi),
            "cheetah" => Some(PiBackend::Cheetah),
            _ => None,
        }
    }
}

/// Prices one inference of `plan` under `backend` — the one function
/// that builds a deployment's [`OpCounts`]: the plan's base counts, each
/// non-linear unit's backend terms (AND gates, projection words and
/// extended OTs, or bit triples), the dealt frame's [`DealtSeed`] bytes,
/// and the bytes every correlation a deal draws occupies expanded, both
/// halves — what the seed stands for, not what a party holds.
pub(crate) fn price(plan: &Plan, backend: PiBackend) -> OpCounts {
    let mut counts = OpCounts { seed_bytes: DealtSeed::WIRE_BYTES, ..plan.base_counts.clone() };
    for step in &plan.steps {
        counts.expanded_bytes += match (step, backend) {
            (Step::Conv { lin, .. } | Step::Fc { lin }, _) => {
                linear_corr_bytes(lin.w.rows(), lin.w.cols(), lin.cols)
            }
            (&Step::Unit { op, items, .. }, PiBackend::Delphi) => {
                counts.and_gates += (items * op.ands_per_item()) as u64;
                counts.xor_gates += (items * op.xors_per_item()) as u64;
                counts.proj_words += (items * op.proj_words_per_item()) as u64;
                // A real deployment transfers the evaluator's
                // masked-input labels by OT extension (one transfer per
                // input bit): a modelled price, the labels themselves
                // are dealt.
                counts.ext_ots += (items * op.in_elems() * UNIT_BITS) as u64;
                op.expanded_bytes(items)
            }
            (&Step::Unit { op, items, .. }, PiBackend::Cheetah) => {
                // Per stage: the bit triples and two Beaver triple sets.
                let (stages, bits) = cheetah::stages(op, items);
                counts.bit_triples += (stages * bits) as u64;
                stages as u64 * (bit_triple_bytes(bits) + 2 * beaver_bytes(items))
            }
            (Step::AvgPool { .. } | Step::Flatten, _) => 0,
        };
    }
    counts
}

/// Deals the offline material of one non-linear layer — `op` over
/// `items` elements (ReLU) or windows (max pool, fused or not) — under
/// `cfg.backend`, keeping `halves`.
pub(crate) fn deal_nl(
    dealer: &mut Dealer,
    op: MaskedOp,
    items: usize,
    cfg: &PiConfig,
    halves: Halves,
) -> (Option<ClientMat>, Option<ServerMat>) {
    match cfg.backend {
        PiBackend::Delphi => {
            // A server-sided garbling garbles nothing (`pregarble_for`).
            let mut prg = dealer.fork_prg();
            let (c, s) = pregarble_for(op, items, &mut prg, cfg.gc_chunk.max(1), halves);
            (c.map(ClientMat::Gc), s.map(ServerMat::Gc))
        }
        PiBackend::Cheetah => {
            let (c, s) = cheetah::layer_for(dealer, op, items, halves);
            (c.map(ClientMat::Cmp), s.map(ServerMat::Cmp))
        }
    }
}

/// Client party of one online non-linear layer on its share of the
/// layer's inputs (for a max pool, the gathered window-major quads);
/// returns the client's share of the output.
///
/// # Errors
///
/// Returns protocol/transport errors, or `PiError::BadConfig` when
/// `mat` is not `cfg.backend`'s client half of an `op` layer.
pub(crate) fn nl_client(
    ep: &dyn Channel,
    op: MaskedOp,
    share: &ShareVec,
    mat: ClientMat,
    cfg: &PiConfig,
) -> Result<ShareVec> {
    match (cfg.backend, mat) {
        (PiBackend::Delphi, ClientMat::Gc(m)) => delphi::nl_client(ep, share, &m, cfg),
        (PiBackend::Cheetah, ClientMat::Cmp(stages)) => cheetah::party(ep, true, op, share, stages),
        _ => Err(mismatch("client")),
    }
}

/// Server party of one online non-linear layer over `k ≥ 1` members,
/// one channel, input share and material per member.
///
/// # Errors
///
/// Returns the first member's protocol/transport error, or
/// `PiError::BadConfig` when a material is not `cfg.backend`'s server
/// half of an `op` layer.
pub(crate) fn nl_server(
    eps: &[&dyn Channel],
    op: MaskedOp,
    shares: &[ShareVec],
    mats: Vec<ServerMat>,
    cfg: &PiConfig,
) -> Result<Vec<ShareVec>> {
    match cfg.backend {
        PiBackend::Delphi => {
            let mats = step_mats(mats, |m| if let ServerMat::Gc(m) = m { Some(m) } else { None })?;
            delphi::nl_server(eps, shares, &mats)
        }
        PiBackend::Cheetah => {
            let mats = step_mats(mats, |m| if let ServerMat::Cmp(s) = m { Some(s) } else { None })?;
            eps.iter()
                .zip(shares)
                .zip(mats)
                .map(|((ep, share), stages)| cheetah::party(*ep, false, op, share, stages))
                .collect()
        }
    }
}
