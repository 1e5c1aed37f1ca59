//! The two protocol backends the paper compares, as one closed set.
//!
//! [`PiBackend`] is the only representation of a backend: the session's
//! [`PiConfig`] carries it, and the engine dispatches on it by `match`.
//! A backend decides how the non-linear layers (ReLU, 2×2 max pool) are
//! dealt offline and run online, and which analytic model prices its
//! offline phase. Both run the linear layers on the one masked-linear
//! protocol, which the dealer and the walks call directly.
//!
//! * **Delphi** (`delphi.rs`) garbles masked circuits offline and
//!   evaluates them online;
//! * **Cheetah** (`cheetah.rs`) runs comparison protocols on dealt bit
//!   and Beaver triples.
//!
//! The layer is one [`MaskedOp`] argument (ReLU or 4-way max), and its
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
//! leaves the dealer at the same stream position and adds the same
//! `counts`, and a half it returns equals the same half of
//! [`Halves::Both`] — which is what lets a client-sided and a
//! server-sided expansion of one seed meet in one protocol run.
//!
//! **One server party.** [`nl_server`] runs `k ≥ 1` members, one
//! channel, share and material per member in slice order. A member's
//! transcript and output share do not depend on who else is in its run
//! (`k` members in one call ≡ `k` calls of one); serving members in
//! index order at every flight is deadlock-free because clients progress
//! independently and flights buffer in the transport.

use crate::cost::OfflineCostModel;
use crate::engine::PiConfig;
use crate::pool::{mismatch, step_mats, ClientMat, ServerMat};
use crate::report::OpCounts;
use crate::Result;
use c2pi_mpc::dealer::{Dealer, Halves};
use c2pi_mpc::gcpre::MaskedOp;
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

/// Deals the offline material of one non-linear layer — `op` over
/// `items` elements (ReLU) or windows (max pool) — under `cfg.backend`,
/// keeping `halves` and accounting the backend's counts (AND gates and
/// extended OTs, or bit triples), the same whichever halves are kept.
pub(crate) fn deal_nl(
    dealer: &mut Dealer,
    op: MaskedOp,
    items: usize,
    cfg: &PiConfig,
    counts: &mut OpCounts,
    halves: Halves,
) -> (Option<ClientMat>, Option<ServerMat>) {
    match cfg.backend {
        PiBackend::Delphi => {
            let (c, s) = delphi::prepare_layer(dealer, op, items, cfg, counts, halves);
            (c.map(ClientMat::Gc), s.map(ServerMat::Gc))
        }
        PiBackend::Cheetah => {
            let (c, s) = cheetah::layer_for(dealer, op, items, counts, halves);
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
