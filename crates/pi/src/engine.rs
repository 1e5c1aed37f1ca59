//! Engine configuration and the one-shot execution entry point.
//!
//! The engine's planning, offline and online machinery lives in
//! the private `plan` module and [`crate::session`]; the protocol
//! backend is the closed [`PiBackend`] set, which the dealer and the
//! party walks dispatch on by `match`, so this module contains no
//! backend-specific code. [`run_prefix`] is the
//! single-inference convenience wrapper (compile + preprocess + infer in
//! one call); serving systems should hold a
//! [`crate::session::PiSession`] instead and preprocess ahead of
//! traffic.

pub use crate::backend::PiBackend;
use crate::report::PiReport;
use crate::session::PiSession;
use crate::Result;
use c2pi_mpc::share::ShareVec;
use c2pi_mpc::FixedPoint;
use c2pi_nn::{LayerSpec, Sequential};
use c2pi_tensor::Tensor;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiConfig {
    /// Backend protocol suite.
    pub backend: PiBackend,
    /// Fixed-point format.
    pub fixed: FixedPoint,
    /// Master seed for the session's per-inference seed stream (dealer
    /// and protocol randomness fork from it).
    pub dealer_seed: u64,
    /// The largest band of garbled-circuit work: a layer is cut into one
    /// band of circuit items per core for garbling (offline) and
    /// evaluation (online), and no band holds more than this many items.
    /// Purely a parallelism/memory knob — it never changes results or
    /// traffic.
    pub gc_chunk: usize,
}

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            backend: PiBackend::Cheetah,
            fixed: FixedPoint::default(),
            dealer_seed: 7,
            gc_chunk: 1024,
        }
    }
}

/// Result of running the crypto prefix: both parties' shares of the
/// boundary activation plus the cost report.
#[derive(Debug, Clone)]
pub struct PiOutcome {
    /// Client's additive share of the boundary activation.
    pub client_share: ShareVec,
    /// Server's additive share of the boundary activation.
    pub server_share: ShareVec,
    /// Public shape of the boundary activation.
    pub dims: Vec<usize>,
    /// Cost profile of the run.
    pub report: PiReport,
}

impl PiOutcome {
    /// Reconstructs the boundary activation (testing / the C2PI reveal
    /// step after the client noises its share).
    ///
    /// # Errors
    ///
    /// Returns a tensor error when shares and shape disagree.
    pub fn reconstruct(&self, fp: FixedPoint) -> Result<Tensor> {
        let raw = c2pi_mpc::share::reconstruct(&self.client_share, &self.server_share);
        Ok(fp.decode_tensor(&raw, &self.dims)?)
    }
}

/// Extracts the protocol-facing specs of a layer stack, as a session
/// compiles them: the layers' own, except that a batch norm directly
/// after a convolution is folded into it and a ReLU moves behind the
/// max pools that directly follow it (DESIGN.md §13–14). Walking these
/// specs gives the shapes the compiled plan runs on.
pub fn specs_of(seq: &Sequential) -> Vec<LayerSpec> {
    let mut specs: Vec<LayerSpec> = seq.layers().iter().map(|l| l.spec()).collect();
    crate::plan::fold_batch_norm(&mut specs);
    crate::plan::pool_before_relu(&mut specs);
    specs
}

/// Runs the crypto-layer prefix of a model under the configured backend,
/// as a one-shot session (compile + preprocess one material set + one
/// online inference).
///
/// `x` must be a single image `[1, c, h, w]`; the specs are the prefix
/// layers (see [`specs_of`]).
///
/// # Errors
///
/// Returns [`crate::PiError::UnsupportedLayer`] for layers without a
/// secure execution, [`crate::PiError::BadConfig`] for shape problems,
/// and protocol errors from the underlying MPC stack.
pub fn run_prefix(specs: &[LayerSpec], x: &Tensor, cfg: &PiConfig) -> Result<PiOutcome> {
    let (_, c, h, w) = x.shape().as_nchw()?;
    let session = PiSession::new(specs, [c, h, w], *cfg)?;
    session.infer(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use c2pi_nn::Layer;

    fn tiny_prefix() -> Sequential {
        let mut s = Sequential::new();
        s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
        s.push(Relu::new());
        s.push(MaxPool2d::new(2, 2));
        s.push(Conv2d::new(3, 4, 3, 1, 1, 1, 2));
        s.push(Relu::new());
        s
    }

    fn run_both(
        seq: &mut Sequential,
        x: &Tensor,
        backend: PiBackend,
    ) -> (Tensor, Tensor, PiReport) {
        let plain = seq.forward(x, false).unwrap();
        seq.clear_cache();
        let cfg = PiConfig { backend, ..Default::default() };
        let outcome = run_prefix(&specs_of(seq), x, &cfg).unwrap();
        let secure = outcome.reconstruct(cfg.fixed).unwrap();
        (plain, secure, outcome.report)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn cheetah_prefix_matches_plaintext() {
        let mut seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 3);
        let (plain, secure, report) = run_both(&mut seq, &x, PiBackend::Cheetah);
        assert_close(&plain, &secure, 0.02);
        assert_eq!(report.backend, "cheetah");
        assert!(report.online.bytes_total() > 0);
        // The first ReLU runs after the max pool, on one element per window.
        assert_eq!(report.counts.relu_elems, 3 * 4 * 4 + 4 * 4 * 4);
        assert_eq!(report.counts.pool_windows, 3 * 4 * 4);
    }

    #[test]
    fn delphi_prefix_matches_plaintext() {
        let mut seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 4);
        let (plain, secure, report) = run_both(&mut seq, &x, PiBackend::Delphi);
        assert_close(&plain, &secure, 0.02);
        assert!(report.counts.and_gates > 0);
    }

    #[test]
    fn fc_and_flatten_and_avgpool_work() {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 5));
        seq.push(Relu::new());
        seq.push(AvgPool2d::new(2, 2));
        seq.push(Flatten::new());
        seq.push(Linear::new(2 * 4 * 4, 5, 6));
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 7);
        let (plain, secure, _) = run_both(&mut seq, &x, PiBackend::Cheetah);
        assert_close(&plain, &secure, 0.03);
    }

    /// A two-channel batch norm with non-trivial running statistics.
    fn trained_bn() -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(2);
        let warm = Tensor::rand_uniform(&[4, 2, 8, 8], -1.0, 2.0, 9);
        for _ in 0..30 {
            bn.forward(&warm, true).unwrap();
            bn.clear_cache();
        }
        bn
    }

    #[test]
    fn batchnorm_affine_is_supported() {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 8));
        seq.push(trained_bn());
        seq.push(Relu::new());
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 10);
        for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
            let (plain, secure, _) = run_both(&mut seq, &x, backend);
            assert_close(&plain, &secure, 0.05);
        }
    }

    #[test]
    fn a_folded_batch_norm_costs_nothing_over_its_convolution() {
        // Against the convolution the batch norm folds into, folded here
        // by hand (`W'[o] = s[o]·W[o]`, `b'[o] = s[o]·b[o] + t[o]`): the
        // unit widths follow the weights' bounds, so it is that
        // convolution, not the unscaled one, whose cost must match.
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 8));
        seq.push(trained_bn());
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        // The layers' own specs: the session compiles the fold itself.
        let with: Vec<LayerSpec> = seq.layers().iter().map(|l| l.spec()).collect();
        let mut folded = with.clone();
        let [LayerSpec::Conv2d { weight, bias, .. }, LayerSpec::Affine { scale, shift }, ..] =
            &mut folded[..]
        else {
            panic!("conv, batch norm, …: {with:?}");
        };
        let per_out = weight.len() / scale.len();
        for (row, &s) in weight.as_mut_slice().chunks_exact_mut(per_out).zip(scale.iter()) {
            row.iter_mut().for_each(|v| *v *= s);
        }
        for ((b, &s), &t) in bias.as_mut_slice().iter_mut().zip(scale.iter()).zip(shift.iter()) {
            *b = s * *b + t;
        }
        folded.remove(1);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 16);
        for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
            let cfg = PiConfig { backend, ..Default::default() };
            let with = run_prefix(&with, &x, &cfg).unwrap().report;
            let without = run_prefix(&folded, &x, &cfg).unwrap().report;
            // Bytes, messages and flights, online and modelled offline.
            assert_eq!(with.online, without.online, "{backend:?}: online traffic");
            assert_eq!(with.offline, without.offline, "{backend:?}: offline traffic");
            // Every count, `seed_bytes`, `expanded_bytes` and the unit
            // widths included.
            assert_eq!(with.counts, without.counts, "{backend:?}: counts");
            let ledger =
                |r: &PiReport| (r.preprocessing.seed_bytes, r.preprocessing.expanded_bytes);
            assert_eq!(ledger(&with), ledger(&without), "{backend:?}: dealt bytes");
        }
    }

    #[test]
    fn a_batch_norm_without_a_convolution_before_it_is_rejected() {
        let x = Tensor::rand_uniform(&[1, 2, 8, 8], -1.0, 1.0, 17);
        let mut first = Sequential::new();
        first.push(trained_bn());
        let mut after_relu = Sequential::new();
        after_relu.push(Conv2d::new(2, 2, 3, 1, 1, 1, 18));
        after_relu.push(Relu::new());
        after_relu.push(trained_bn());
        for seq in [first, after_relu] {
            let err = run_prefix(&specs_of(&seq), &x, &PiConfig::default());
            assert!(matches!(err, Err(crate::PiError::UnsupportedLayer(_))), "{err:?}");
        }
    }

    #[test]
    fn delphi_traffic_exceeds_cheetah() {
        // The paper's Table-II asymmetry. Since the offline-garbling
        // refactor Delphi's tables ship in the offline phase, so the
        // gap lives in *total* traffic; online, Delphi still pays the
        // per-bit label transfer Cheetah avoids. Seed-compressed
        // dealing removed the garbled tables from the dealt wire bytes
        // on both sides, so the remaining gap is the HE ciphertext
        // asymmetry (~4× at this shape) — pin >3×.
        let mut seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 11);
        let (_, _, delphi) = run_both(&mut seq, &x, PiBackend::Delphi);
        let (_, _, cheetah) = run_both(&mut seq, &x, PiBackend::Cheetah);
        assert!(
            delphi.traffic_total().bytes_total() > 3 * cheetah.traffic_total().bytes_total(),
            "delphi {} vs cheetah {}",
            delphi.traffic_total().bytes_total(),
            cheetah.traffic_total().bytes_total()
        );
        assert!(
            delphi.online.bytes_total() > cheetah.online.bytes_total(),
            "delphi online {} vs cheetah online {}",
            delphi.online.bytes_total(),
            cheetah.online.bytes_total()
        );
    }

    #[test]
    fn longer_prefix_costs_more() {
        let mut seq = tiny_prefix();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 12);
        let cfg = PiConfig::default();
        let specs = specs_of(&seq);
        let short = run_prefix(&specs[..2], &x, &cfg).unwrap();
        let long = run_prefix(&specs, &x, &cfg).unwrap();
        assert!(long.report.online.bytes_total() > short.report.online.bytes_total());
        assert!(long.report.comm_mb() > short.report.comm_mb());
        let _ = seq.forward(&x, false).unwrap();
    }

    #[test]
    fn unsupported_layer_is_rejected() {
        let mut seq = Sequential::new();
        seq.push(c2pi_nn::layers::UpsampleNearest::new(2));
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, 13);
        let err = run_prefix(&specs_of(&seq), &x, &PiConfig::default());
        assert!(matches!(err, Err(crate::PiError::UnsupportedLayer(_))));
    }

    #[test]
    fn odd_pool_size_is_rejected() {
        let mut seq = Sequential::new();
        seq.push(MaxPool2d::new(3, 3));
        let x = Tensor::rand_uniform(&[1, 1, 9, 9], -1.0, 1.0, 14);
        let err = run_prefix(&specs_of(&seq), &x, &PiConfig::default());
        assert!(matches!(err, Err(crate::PiError::BadConfig(_))));
        // A 2×2 pool on an odd side is refused too, also after a ReLU
        // that would otherwise move behind it.
        let mut seq = Sequential::new();
        seq.push(Relu::new());
        seq.push(MaxPool2d::new(2, 2));
        let x = Tensor::rand_uniform(&[1, 1, 5, 5], -1.0, 1.0, 15);
        let err = run_prefix(&specs_of(&seq), &x, &PiConfig::default());
        assert!(matches!(err, Err(crate::PiError::BadConfig(_))));
    }
}
