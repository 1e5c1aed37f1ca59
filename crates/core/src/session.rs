//! The session-based C2PI serving API: a fluent builder plus a
//! long-lived [`C2piSession`] with an explicit offline/online split.
//!
//! ```no_run
//! use c2pi_core::session::C2pi;
//! use c2pi_core::Defense;
//! use c2pi_nn::model::{vgg16, ZooConfig};
//! use c2pi_nn::BoundaryId;
//! use c2pi_pi::PiBackend;
//! use c2pi_tensor::Tensor;
//!
//! # fn main() -> Result<(), c2pi_core::C2piError> {
//! let model = vgg16(&ZooConfig::default())?;
//! let mut session = C2pi::builder(model)
//!     .split_at(BoundaryId::relu(9))
//!     .defense(Defense::Uniform { magnitude: 0.1 })
//!     .backend(PiBackend::Cheetah)
//!     .build()?;
//! session.preprocess(16)?; // offline: correlated randomness for 16 images
//! let x = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, 1);
//! let result = session.infer(&x)?; // online only
//! println!("prediction {}, online {:.1} ms", result.prediction,
//!          result.report.online_seconds * 1e3);
//! # Ok(())
//! # }
//! ```

use crate::defense::{check_defense, defense_seed, Defense};
use crate::{C2piError, Result};
use c2pi_mpc::share::ShareVec;
use c2pi_nn::{BoundaryId, Model, Sequential};
use c2pi_pi::engine::{specs_of, PiConfig};
use c2pi_pi::report::{PiReport, PreprocessLedger};
use c2pi_pi::{PiBackend, PiSession};
use c2pi_tensor::Tensor;
use c2pi_transport::{TrafficSnapshot, Transport};
use std::sync::Arc;

/// Where the crypto/clear split sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Split at a boundary layer: layers up to and including it run
    /// under MPC, the rest in the clear (C2PI proper).
    At(BoundaryId),
    /// No clear segment: the entire network runs under MPC (the
    /// conventional full-PI baseline, "boundary at the last layer").
    Full,
}

/// Result of one C2PI inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Output logits.
    pub logits: Tensor,
    /// Argmax class.
    pub prediction: usize,
    /// The (noised) boundary activation the server reconstructed — what
    /// an IDPA would attack. `None` for full PI.
    pub revealed_activation: Option<Tensor>,
    /// Cost profile (crypto phase plus the reveal flight).
    pub report: PiReport,
}

/// Convenience: the plaintext prediction of a model (reference for
/// end-to-end tests and accuracy comparisons). Runs on the immutable
/// [`Model::predict`] path, so a shared reference suffices.
///
/// # Errors
///
/// Propagates layer errors.
pub fn plain_prediction(model: &Model, x: &Tensor) -> Result<usize> {
    let logits = model.predict(x)?;
    Ok(logits.argmax().unwrap_or(0))
}

/// Entry point of the builder API.
pub struct C2pi;

impl C2pi {
    /// Starts configuring a C2PI deployment of `model`. Defaults:
    /// full PI (no clear segment), Cheetah backend, noise λ = 0.1.
    pub fn builder(model: Model) -> C2piBuilder {
        C2piBuilder {
            model,
            split: Split::Full,
            defense: Defense::Uniform { magnitude: 0.1 },
            noise_seed: 53,
            pi: PiConfig::default(),
            transport: None,
        }
    }
}

/// Fluent configuration for a [`C2piSession`].
pub struct C2piBuilder {
    model: Model,
    split: Split,
    defense: Defense,
    noise_seed: u64,
    pi: PiConfig,
    transport: Option<Arc<dyn Transport>>,
}

impl C2piBuilder {
    /// Splits the model at `boundary`: layers up to and including it run
    /// under MPC, the rest in the clear on the server (C2PI proper).
    pub fn split_at(mut self, boundary: BoundaryId) -> Self {
        self.split = Split::At(boundary);
        self
    }

    /// Runs every layer under MPC (the conventional full-PI baseline).
    pub fn full_pi(mut self) -> Self {
        self.split = Split::Full;
        self
    }

    /// Sets the split directly.
    pub fn split(mut self, split: Split) -> Self {
        self.split = split;
        self
    }

    /// Shorthand for `defense(Defense::Uniform { magnitude: lambda })`,
    /// kept only because the frozen `benchmark/` package calls it; use
    /// [`C2piBuilder::defense`].
    pub fn noise(mut self, lambda: f32) -> Self {
        self.defense = Defense::Uniform { magnitude: lambda };
        self
    }

    /// The boundary defense the client applies to its share before the
    /// reveal (ignored for [`Split::Full`]). A defense is an additive
    /// perturbation: the client holds only a share, so it adds
    /// [`Defense::delta`] to it. [`C2piBuilder::build`] rejects a split
    /// deployment whose defense parameter is NaN, infinite or negative.
    pub fn defense(mut self, defense: Defense) -> Self {
        self.defense = defense;
        self
    }

    /// Master seed for the client's defense draws. Per-inference seeds
    /// come from the shared [`defense_seed`] stream, the same
    /// derivation the accuracy evaluators and the deployment planner
    /// use.
    pub fn noise_seed(mut self, seed: u64) -> Self {
        self.noise_seed = seed;
        self
    }

    /// Applies a deployment-planner choice: boundary, backend and
    /// defense in one call (see [`crate::planner::DeploymentPlanner`]).
    /// The backend lands where [`C2piBuilder::backend`] puts it, in the
    /// session's `PiConfig`.
    pub fn plan(mut self, choice: &crate::planner::PlanChoice) -> Self {
        self.split = Split::At(choice.boundary);
        self.defense = choice.defense;
        self.noise_seed = choice.defense_seed;
        self.pi.backend = choice.backend;
        self
    }

    /// Protocol backend: [`PiBackend::Delphi`] or
    /// [`PiBackend::Cheetah`] (the default).
    pub fn backend(mut self, backend: PiBackend) -> Self {
        self.pi.backend = backend;
        self
    }

    /// Transport the two party loops talk over: the in-memory default,
    /// [`c2pi_transport::SimTransport`] for in-line LAN/WAN latency, or
    /// [`c2pi_transport::TcpLoopbackTransport`] for real TCP framing —
    /// any [`Transport`] implementation, including an
    /// `Arc<dyn Transport>`.
    pub fn transport<T: Transport + 'static>(mut self, transport: T) -> Self {
        self.transport = Some(Arc::new(transport));
        self
    }

    /// Master seed for the dealer's per-inference seed stream.
    pub fn dealer_seed(mut self, seed: u64) -> Self {
        self.pi.dealer_seed = seed;
        self
    }

    /// Compiles the deployment into a ready-to-serve session.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown boundaries, crypto prefixes the
    /// engine cannot execute, or (for a split) an invalid defense
    /// parameter ([`Defense::is_valid`]).
    pub fn build(self) -> Result<C2piSession> {
        let (crypto, clear) = match self.split {
            Split::At(boundary) => {
                check_defense(self.defense)?;
                self.model.split_at(boundary).map_err(C2piError::Nn)?
            }
            Split::Full => (self.model.seq().clone(), Sequential::new()),
        };
        let input_shape = self.model.input_shape();
        let mut pi =
            PiSession::new(&specs_of(&crypto), input_shape, self.pi).map_err(C2piError::Pi)?;
        if let Some(transport) = self.transport {
            pi = pi.with_transport(transport);
        }
        Ok(C2piSession {
            pi,
            crypto_layers: crypto.len(),
            clear,
            split: self.split,
            defense: self.defense,
            defense_master: self.noise_seed,
            inferences: 0,
        })
    }
}

/// A long-lived C2PI deployment of one model: a [`PiSession`] for the
/// crypto prefix plus the server's clear suffix and the client's noise
/// stream. Create it with [`C2pi::builder`].
#[derive(Debug)]
pub struct C2piSession {
    pi: PiSession,
    crypto_layers: usize,
    clear: Sequential,
    split: Split,
    defense: Defense,
    defense_master: u64,
    inferences: u64,
}

impl C2piSession {
    /// Offline phase: generates correlated randomness for `n` future
    /// inferences (see [`PiSession::preprocess`]).
    ///
    /// # Errors
    ///
    /// Propagates dealer errors.
    pub fn preprocess(&mut self, n: usize) -> Result<()> {
        self.pi.preprocess(n).map_err(C2piError::Pi)
    }

    /// The split position.
    pub fn split(&self) -> Split {
        self.split
    }

    /// The boundary defense this session applies before the reveal.
    pub fn defense(&self) -> Defense {
        self.defense
    }

    /// Number of the model's layers executed under MPC. The plan may run
    /// them as fewer steps (a batch norm folds into its convolution, a
    /// max pool and its ReLU are one unit), so this is the prefix's
    /// length, not [`PiSession::step_count`].
    pub fn crypto_layer_count(&self) -> usize {
        self.crypto_layers
    }

    /// Number of layers the server executes in the clear.
    pub fn clear_layer_count(&self) -> usize {
        self.clear.len()
    }

    /// The engine name of the active backend.
    pub fn backend_name(&self) -> &'static str {
        self.pi.backend_name()
    }

    /// Label of the active transport (`mem`, `sim-wan`, `tcp-loopback`).
    pub fn transport_label(&self) -> String {
        self.pi.transport_label()
    }

    /// Current consumed-vs-generated preprocessing ledger.
    pub fn ledger(&self) -> PreprocessLedger {
        self.pi.ledger()
    }

    /// Online phase: one private inference on a `[1, c, h, w]` input.
    ///
    /// # Errors
    ///
    /// Returns [`c2pi_pi::PiError::InputOutOfRange`] (wrapped) for a NaN
    /// or infinite pixel, before any material is taken, plus engine or
    /// shape errors.
    pub fn infer(&mut self, x: &Tensor) -> Result<InferenceResult> {
        let noise_seed = defense_seed(self.defense_master, self.inferences as usize);
        let fp = self.pi.config().fixed;
        let outcome = self.pi.infer(x).map_err(C2piError::Pi)?;
        // A refused input draws no noise: the next inference gets this one's.
        self.inferences += 1;
        let mut report = outcome.report.clone();
        match self.split {
            Split::Full => {
                // The server sends its share to the client, who learns
                // only the inference output (one reveal flight).
                let raw =
                    c2pi_mpc::share::reconstruct(&outcome.client_share, &outcome.server_share);
                let logits = fp.decode_tensor(&raw, &outcome.dims)?;
                report.online = report.online.plus(&TrafficSnapshot {
                    bytes_client_to_server: 0,
                    bytes_server_to_client: (outcome.server_share.len() * 8) as u64,
                    messages: 1,
                    flights: 1,
                });
                let prediction = logits.argmax().unwrap_or(0);
                Ok(InferenceResult { logits, prediction, revealed_activation: None, report })
            }
            Split::At(_) => {
                // Client applies the additive defense to its share and
                // reveals it (Figure 2c). The delta is the same tensor
                // `Defense::apply` would add to the activation, drawn
                // from the same seed stream the accuracy evaluators use.
                let delta = self.defense.delta(&outcome.dims, noise_seed);
                let noise_ring: Vec<u64> = fp.encode_tensor(&delta);
                let noised_share = ShareVec::from_raw(
                    outcome
                        .client_share
                        .as_raw()
                        .iter()
                        .zip(noise_ring.iter())
                        .map(|(&s, &d)| s.wrapping_add(d))
                        .collect(),
                );
                report.online = report.online.plus(&TrafficSnapshot {
                    bytes_client_to_server: (noised_share.len() * 8) as u64,
                    bytes_server_to_client: 0,
                    messages: 1,
                    flights: 1,
                });
                // Server reconstructs M_l(x) + Δ and finishes alone, on
                // the immutable (cache-free) forward path.
                let raw = c2pi_mpc::share::reconstruct(&noised_share, &outcome.server_share);
                let act = fp.decode_tensor(&raw, &outcome.dims)?;
                let logits = self.clear.forward_eval(&act)?;
                let prediction = logits.argmax().unwrap_or(0);
                Ok(InferenceResult { logits, prediction, revealed_activation: Some(act), report })
            }
        }
    }

    /// Online phase over a batch: one result per input. Preprocess at
    /// least `xs.len()` material sets first to keep the whole batch off
    /// the dealer's critical path (check
    /// [`PreprocessLedger::generated_inline`] afterwards).
    ///
    /// # Errors
    ///
    /// Fails on the first erroring inference.
    pub fn infer_batch(&mut self, xs: &[Tensor]) -> Result<Vec<InferenceResult>> {
        xs.iter().map(|x| self.infer(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_nn::model::{alexnet, ZooConfig};

    fn tiny_model() -> Model {
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn builder_session_matches_plaintext_without_noise() {
        let model = tiny_model();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
        let plain = plain_prediction(&model, &x).unwrap();
        let mut session = C2pi::builder(model)
            .split_at(BoundaryId::relu(3))
            .defense(Defense::Uniform { magnitude: 0.0 })
            .backend(PiBackend::Cheetah)
            .build()
            .unwrap();
        session.preprocess(2).unwrap();
        let res = session.infer(&x).unwrap();
        assert_eq!(res.prediction, plain);
        assert!(res.revealed_activation.is_some());
        assert!(session.clear_layer_count() > 0);
        assert_eq!(res.report.preprocessing.generated_inline, 0);
        assert_eq!(session.ledger().available, 1);
    }

    #[test]
    fn a_non_finite_pixel_is_a_typed_error_and_takes_no_material() {
        let mut session = C2pi::builder(tiny_model())
            .split_at(BoundaryId::relu(3))
            .backend(PiBackend::Cheetah)
            .build()
            .unwrap();
        session.preprocess(1).unwrap();
        let ledger = session.ledger();
        let mut x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
        x.as_mut_slice()[0] = f32::INFINITY;
        let err = session.infer(&x).map(|r| r.prediction).unwrap_err();
        assert!(
            matches!(err, C2piError::Pi(c2pi_pi::PiError::InputOutOfRange { index: 0, .. })),
            "{err:?}"
        );
        assert_eq!(session.ledger(), ledger);
    }

    #[test]
    fn full_pi_builder_runs_and_batches() {
        let model = tiny_model();
        let xs: Vec<Tensor> =
            (0..2).map(|s| Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, s)).collect();
        let expected: Vec<Tensor> = xs.iter().map(|x| model.predict(x).unwrap()).collect();
        let mut session = C2pi::builder(model)
            .full_pi()
            .defense(Defense::Uniform { magnitude: 0.0 })
            .build()
            .unwrap();
        assert_eq!(session.clear_layer_count(), 0);
        session.preprocess(xs.len()).unwrap();
        let results = session.infer_batch(&xs).unwrap();
        assert_eq!(results.len(), 2);
        for (res, want) in results.iter().zip(&expected) {
            assert_eq!(Some(res.prediction), want.argmax());
            for (a, b) in want.as_slice().iter().zip(res.logits.as_slice()) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
            assert!(res.revealed_activation.is_none());
        }
        let ledger = session.ledger();
        assert_eq!(ledger.consumed, 2);
        assert_eq!(ledger.generated_inline, 0);
    }

    #[test]
    fn backend_and_plan_set_the_one_backend_every_report_names() {
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 8);
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let choice = crate::planner::PlanChoice {
                rank: 1,
                net: "mem".into(),
                backend,
                boundary: BoundaryId::relu(2),
                defense: Defense::Uniform { magnitude: 0.1 },
                defense_seed: 5,
                defended_accuracy: 0.0,
                worst_ssim: 0.0,
                gates_passed: true,
                online_seconds: 0.0,
                offline_seconds: 0.0,
                total_seconds: 0.0,
                comm_mb: 0.0,
            };
            let by_tag = C2pi::builder(tiny_model()).split_at(BoundaryId::relu(2)).backend(backend);
            let by_plan = C2pi::builder(tiny_model()).plan(&choice);
            for builder in [by_tag, by_plan] {
                let mut session = builder.build().unwrap();
                assert_eq!(session.backend_name(), backend.name());
                let reports =
                    [session.infer(&x).unwrap().report, session.infer(&x).unwrap().report];
                assert!(reports.iter().all(|r| r.backend == backend.name()), "{backend:?}");
            }
        }
    }

    #[test]
    fn per_inference_noise_is_forked_not_repeated() {
        let model = tiny_model();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 9);
        let mut session = C2pi::builder(model)
            .split_at(BoundaryId::relu(3))
            .defense(Defense::Uniform { magnitude: 0.5 })
            .build()
            .unwrap();
        let a = session.infer(&x).unwrap().revealed_activation.unwrap();
        let b = session.infer(&x).unwrap().revealed_activation.unwrap();
        // Same input, same session: the revealed activations differ
        // because each inference draws fresh noise.
        assert!(a.sub(&b).unwrap().map(f32::abs).max() > 1e-4);
    }

    #[test]
    fn noise_perturbs_revealed_activation_within_lambda() {
        let model = tiny_model();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 4);
        let boundary = BoundaryId::relu(3);
        let clean_act = model.clone().forward_to_cut(boundary, &x).unwrap();
        let mut session = C2pi::builder(model)
            .split_at(boundary)
            .defense(Defense::Uniform { magnitude: 0.5 })
            .build()
            .unwrap();
        let revealed = session.infer(&x).unwrap().revealed_activation.unwrap();
        // The revealed activation deviates by up to λ (plus fixed-point
        // error) but not more.
        let dev = revealed.sub(&clean_act).unwrap().map(f32::abs).max();
        assert!(dev > 0.05 && dev <= 0.5 + 0.05, "deviation {dev}");
    }

    #[test]
    fn reveal_flight_is_counted() {
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 6);
        let mut session =
            C2pi::builder(tiny_model()).split_at(BoundaryId::relu(1)).build().unwrap();
        let res = session.infer(&x).unwrap();
        // At least the input-share flight plus the reveal flight.
        assert!(res.report.online.flights >= 2);
    }

    #[test]
    fn earlier_boundary_is_cheaper() {
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 3);
        let mut early = C2pi::builder(tiny_model()).split_at(BoundaryId::relu(2)).build().unwrap();
        let mut full = C2pi::builder(tiny_model()).full_pi().build().unwrap();
        let re = early.infer(&x).unwrap().report;
        let rf = full.infer(&x).unwrap().report;
        assert!(
            rf.comm_mb() > re.comm_mb(),
            "full {} MB vs early {} MB",
            rf.comm_mb(),
            re.comm_mb()
        );
        assert!(rf.online.bytes_total() > re.online.bytes_total());
    }

    #[test]
    fn unknown_boundary_and_invalid_defense_are_rejected() {
        let err = C2pi::builder(tiny_model()).split_at(BoundaryId::conv(99)).build();
        assert!(err.is_err());
        // A NaN, infinite or negative parameter would serve no noise
        // under a label that claims a defense.
        let split =
            |defense| C2pi::builder(tiny_model()).split_at(BoundaryId::relu(3)).defense(defense);
        for p in [f32::NAN, f32::INFINITY, -0.1] {
            for defense in [Defense::Uniform { magnitude: p }, Defense::Gaussian { std: p }] {
                let err = split(defense).build().unwrap_err();
                assert!(
                    matches!(&err, C2piError::BadConfig(m) if m.contains(&defense.label())),
                    "{err:?}"
                );
            }
        }
        for defense in [Defense::Uniform { magnitude: 0.0 }, Defense::Gaussian { std: 0.0 }] {
            assert!(split(defense).build().is_ok(), "{}", defense.label());
        }
    }

    #[test]
    fn transports_are_interchangeable_at_the_builder() {
        use c2pi_transport::{NetModel, SimTransport, TcpLoopbackTransport};
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 4);
        let mut mem = C2pi::builder(tiny_model())
            .full_pi()
            .defense(Defense::Uniform { magnitude: 0.0 })
            .build()
            .unwrap();
        assert_eq!(mem.transport_label(), "mem");
        let want = mem.infer(&x).unwrap();
        let mut tcp = C2pi::builder(tiny_model())
            .full_pi()
            .defense(Defense::Uniform { magnitude: 0.0 })
            .transport(TcpLoopbackTransport)
            .build()
            .unwrap();
        assert_eq!(tcp.transport_label(), "tcp-loopback");
        let got = tcp.infer(&x).unwrap();
        assert_eq!(got.prediction, want.prediction);
        assert_eq!(got.logits.as_slice(), want.logits.as_slice());
        let mut sim = C2pi::builder(tiny_model())
            .full_pi()
            .defense(Defense::Uniform { magnitude: 0.0 })
            .transport(SimTransport::new(NetModel::custom("fast", 1e12, 1e-6)))
            .build()
            .unwrap();
        let got = sim.infer(&x).unwrap();
        assert_eq!(got.logits.as_slice(), want.logits.as_slice());
    }
}
