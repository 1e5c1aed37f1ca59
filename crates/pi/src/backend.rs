//! Pluggable protocol backends for the PI engine.
//!
//! [`PiBackendImpl`] is the extension point the engine dispatches
//! through: a backend decides how non-linear layers (ReLU, max pool) are
//! prepared offline and executed online, which protocol runs the linear
//! layers, and which analytic model prices its offline phase. The two
//! published systems the paper compares against ship as the two built-in
//! implementations — [`delphi()`] (garbled circuits) and [`cheetah()`]
//! (comparison-based with silent correlations) — and a third backend is
//! a new module implementing this trait, not an engine rewrite.
//!
//! Offline material crosses the trait as type-erased [`NlMaterial`]
//! boxes: each backend defines its own correlation types and downcasts
//! them back in its online hooks, so backends with novel correlation
//! shapes need no engine changes.

use crate::cost::OfflineCostModel;
use crate::engine::PiConfig;
use crate::report::OpCounts;
use crate::{PiError, Result};
use c2pi_mpc::beaver::{linear_client, linear_server_members};
pub use c2pi_mpc::dealer::Halves;
use c2pi_mpc::dealer::{Dealer, LinearCorrClient, LinearCorrServer};
use c2pi_mpc::ring::RingMatrix;
use c2pi_mpc::share::ShareVec;
use c2pi_transport::Channel;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

mod cheetah;
mod delphi;

pub use cheetah::Cheetah;
pub use delphi::Delphi;

/// Type-erased per-inference offline material for one non-linear layer.
/// Backends define the concrete type and downcast in their online hooks.
pub type NlMaterial = Box<dyn Any + Send>;

/// A protocol suite the engine can execute the crypto prefix with.
///
/// The `prepare_*` hooks run in the offline phase (dealer side) and the
/// six `*_online_*` hooks in the online phase, one per (operation,
/// party): the **client** hooks run one inference over one channel; the
/// **server** hooks run `k ≥ 1` members in lock step, one
/// channel/share/material per member in slice order, because the
/// server party is one walk whether it serves one client or a coalesced
/// batch. A member's transcript and output share must not depend on who
/// else is in its run (`k` members in one call ≡ `k` calls of one);
/// serving members in index order at every flight is deadlock-free
/// because clients progress independently and flights buffer in the
/// transport.
///
/// A third backend implements `name`, `cost_model`, the two `prepare_*`
/// hooks for its non-linear material and the four non-linear online
/// hooks; the two linear hooks default to the masked-linear protocol
/// both built-ins share.
///
/// **Sided preparation.** Each party expands only the half it will
/// read, so every `prepare_*` hook is told which [`Halves`] its caller
/// keeps and returns `(Option<client>, Option<server>)`. The contract is
/// *skip, don't reorder*: whatever `halves` says, the hook must leave
/// `dealer` at the same stream position and add the same `counts`, and
/// a half it does return must equal the same half of [`Halves::Both`] —
/// that is what lets a client-sided and a server-sided expansion of one
/// seed meet in one protocol run. A wanted half must be `Some`; an
/// unwanted one may be, and is dropped. So a backend that ignores the
/// argument and always returns both halves stays correct, only slower —
/// it does for the other party the work that party does for itself.
pub trait PiBackendImpl: fmt::Debug + Send + Sync {
    /// Engine name for reports (`delphi` / `cheetah` / yours).
    fn name(&self) -> &'static str;

    /// The analytic model pricing this backend's offline phase.
    fn cost_model(&self) -> OfflineCostModel;

    /// Per-inference session setup, run once before the per-layer
    /// `prepare_*` hooks: account (and deal) the correlations every
    /// layer shares. The built-in backends charge one KAPPA-sized
    /// base-OT set here — the setup their session-long OT extension
    /// amortises across all label transfers / silent correlations —
    /// instead of one set per circuit chunk as before the
    /// offline-garbling refactor.
    fn prepare_session(&self, dealer: &mut Dealer, counts: &mut OpCounts) {
        let _ = (dealer, counts);
    }

    /// Generates offline material for a ReLU over `n` shared elements,
    /// returning the (client, server) halves `halves` asks for and
    /// accumulating backend-specific counts (AND gates, bit triples) —
    /// the same counts whichever halves are kept.
    fn prepare_relu(
        &self,
        dealer: &mut Dealer,
        n: usize,
        cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>);

    /// Generates offline material for a 2×2 max pool over `windows`
    /// four-element windows; sided as [`Self::prepare_relu`].
    fn prepare_maxpool(
        &self,
        dealer: &mut Dealer,
        windows: usize,
        cfg: &PiConfig,
        counts: &mut OpCounts,
        halves: Halves,
    ) -> (Option<NlMaterial>, Option<NlMaterial>);

    /// Client party of the online ReLU on a share of `n` elements.
    ///
    /// # Errors
    ///
    /// Returns protocol/transport errors, or [`PiError::BadConfig`] when
    /// `material` is not this backend's client half.
    fn relu_online_client(
        &self,
        ep: &dyn Channel,
        share: &ShareVec,
        material: NlMaterial,
        cfg: &PiConfig,
    ) -> Result<ShareVec>;

    /// Server party of the online ReLU over `k` members.
    ///
    /// # Errors
    ///
    /// Returns the first member's protocol/transport error, or
    /// [`PiError::BadConfig`] on an arity mismatch or when a material
    /// is not this backend's server half.
    fn relu_online_server(
        &self,
        eps: &[&dyn Channel],
        shares: &[ShareVec],
        materials: Vec<NlMaterial>,
        cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>>;

    /// Client party of the online 2×2 max pool. `quads` holds the
    /// gathered window elements (`4·windows` values, window-major — the
    /// public permutation is applied by the engine on both sides);
    /// returns one share per window.
    ///
    /// # Errors
    ///
    /// As [`Self::relu_online_client`].
    fn maxpool_online_client(
        &self,
        ep: &dyn Channel,
        quads: &ShareVec,
        material: NlMaterial,
        cfg: &PiConfig,
    ) -> Result<ShareVec>;

    /// Server party of the online 2×2 max pool over `k` members, each
    /// with its own gathered `quads`.
    ///
    /// # Errors
    ///
    /// As [`Self::relu_online_server`].
    fn maxpool_online_server(
        &self,
        eps: &[&dyn Channel],
        quads: &[ShareVec],
        materials: Vec<NlMaterial>,
        cfg: &PiConfig,
    ) -> Result<Vec<ShareVec>>;

    /// Offline correlation for a linear layer with server-known weights
    /// `w` applied to a shared input with `cols` columns. Defaults to
    /// the shared masked-linear correlation, whose client half reads
    /// nothing of `w` but its shape — a client-sided call must not
    /// depend on the weights' values (the client does not have them).
    ///
    /// # Errors
    ///
    /// Propagates dealer errors.
    fn prepare_linear(
        &self,
        dealer: &mut Dealer,
        w: &RingMatrix,
        cols: usize,
        halves: Halves,
    ) -> Result<(Option<LinearCorrClient>, Option<LinearCorrServer>)> {
        Ok(dealer.linear_corr_for(w, cols, halves)?)
    }

    /// Client party of the online linear layer. Defaults to the
    /// one-flight masked-linear protocol.
    ///
    /// # Errors
    ///
    /// Returns transport or shape errors.
    fn linear_online_client(
        &self,
        ep: &dyn Channel,
        x0: &RingMatrix,
        corr: &LinearCorrClient,
    ) -> Result<RingMatrix> {
        Ok(linear_client(ep, x0, corr)?)
    }

    /// Server party of the online linear layer over `k` members sharing
    /// the weight matrix `w`. Defaults to the masked-linear protocol
    /// with one column-stacked product over all members.
    ///
    /// # Errors
    ///
    /// Returns transport or shape errors.
    fn linear_online_server(
        &self,
        eps: &[&dyn Channel],
        w: &RingMatrix,
        x1s: &[RingMatrix],
        corrs: &[&LinearCorrServer],
    ) -> Result<Vec<RingMatrix>> {
        Ok(linear_server_members(eps, w, x1s, corrs)?)
    }
}

/// Uniform arity check for the server hooks: every per-member slice
/// must cover the same nonempty member set.
fn check_batch_arity(what: &str, eps: usize, shares: usize, materials: usize) -> Result<()> {
    if eps == 0 || shares != eps || materials != eps {
        return Err(PiError::BadConfig(format!(
            "{what} over {eps} channels, {shares} shares, {materials} materials"
        )));
    }
    Ok(())
}

/// The Delphi-style backend: GC non-linearities, heavyweight HE offline.
pub fn delphi() -> Arc<dyn PiBackendImpl> {
    Arc::new(Delphi)
}

/// The Cheetah-style backend: comparison-based non-linearities with
/// silent correlations, lean lattice linear layers.
pub fn cheetah() -> Arc<dyn PiBackendImpl> {
    Arc::new(Cheetah)
}

/// The backend registry: resolves a [`crate::PiBackend`] tag to its
/// implementation. Registering a third built-in backend means adding a
/// module, a constructor and an arm here — nothing in the engine
/// changes.
pub(crate) fn resolve(tag: crate::engine::PiBackend) -> Arc<dyn PiBackendImpl> {
    match tag {
        crate::engine::PiBackend::Delphi => delphi(),
        crate::engine::PiBackend::Cheetah => cheetah(),
    }
}

/// Anything that resolves to a backend implementation — lets builder
/// APIs accept both a [`crate::PiBackend`] tag and a custom
/// `Arc<dyn PiBackendImpl>`.
pub trait IntoBackend {
    /// Resolves to the implementation.
    fn into_backend(self) -> Arc<dyn PiBackendImpl>;
}

impl IntoBackend for Arc<dyn PiBackendImpl> {
    fn into_backend(self) -> Arc<dyn PiBackendImpl> {
        self
    }
}

impl IntoBackend for crate::engine::PiBackend {
    fn into_backend(self) -> Arc<dyn PiBackendImpl> {
        self.engine()
    }
}

/// Downcast helper with a uniform error for material-type mismatches.
pub(crate) fn downcast_material<T: 'static>(
    material: NlMaterial,
    backend: &'static str,
) -> Result<Box<T>> {
    material.downcast::<T>().map_err(|_| {
        PiError::BadConfig(format!("offline material was not prepared by the {backend} backend"))
    })
}

/// Splits the per-window gathered quads (window-major `a b c d` groups)
/// into four parallel vectors — the layout the tournament-style maxpool
/// protocols consume.
pub(crate) fn split_quads(share: &ShareVec) -> [ShareVec; 4] {
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
    use crate::engine::PiBackend;

    #[test]
    fn registry_resolves_both_builtins() {
        assert_eq!(delphi().name(), "delphi");
        assert_eq!(cheetah().name(), "cheetah");
        assert_eq!(PiBackend::Delphi.into_backend().name(), "delphi");
        assert_eq!(PiBackend::Cheetah.into_backend().name(), "cheetah");
    }

    #[test]
    fn split_quads_deinterleaves() {
        let s = ShareVec::from_raw(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let [a, b, c, d] = split_quads(&s);
        assert_eq!(a.as_raw(), &[1, 5]);
        assert_eq!(b.as_raw(), &[2, 6]);
        assert_eq!(c.as_raw(), &[3, 7]);
        assert_eq!(d.as_raw(), &[4, 8]);
    }

    #[test]
    fn downcast_mismatch_is_a_config_error() {
        let boxed: NlMaterial = Box::new(42u32);
        let err = downcast_material::<String>(boxed, "delphi").unwrap_err();
        assert!(matches!(err, PiError::BadConfig(_)));
    }
}
