//! # c2pi-attacks
//!
//! Inference-data-privacy attacks (IDPAs): the adversarial toolbox that
//! C2PI uses to *measure* client-input privacy and to place the
//! crypto/clear boundary (paper §II, §III-B).
//!
//! * [`mla::Mla`] — maximum-likelihood attack: gradient descent on the
//!   input to match the observed layer activation (He et al. 2019);
//! * [`inversion::InversionAttack`] — the inverse-network attack (INA)
//!   and its residual-block enhancement EINA (Li et al. 2022): a trained
//!   decoder approximating the inverse of the first `l` layers;
//! * [`dina::Dina`] — the paper's contribution: a distillation-based
//!   inverse-network attack whose basic inverse blocks (ResNet block +
//!   dilated convolution) are each guided by a distillation point in the
//!   target model, with monotonically increasing loss coefficients
//!   (Eq. (1));
//! * [`defense`] — the boundary [`Defense`] a client applies to its
//!   share before the reveal: the attacks train against it and the
//!   evaluation harness applies it to what they observe;
//! * [`eval`] — the SSIM-based evaluation harness behind Figures 1 and
//!   4–6;
//! * [`probe`] — declarative probe specs ([`ProbeSpec`]) so auditors
//!   like the deployment planner can assemble attack panels by name and
//!   budget.
//!
//! All attacks implement the [`Idpa`] trait so the boundary auditors in
//! `c2pi-core` can swap them freely (the paper: *"we are glad to
//! replace DINA with a more aggressive IDPA"*).
//!
//! ## Example
//!
//! Attacks are usually assembled declaratively through [`probe`]:
//!
//! ```
//! use c2pi_attacks::probe::{quick_panel, ProbeSpec};
//!
//! // "family:budget" strings are how CLIs and configs name probes.
//! let dina = ProbeSpec::parse("dina:6")?;
//! let attack = dina.build(); // a ready-to-prepare Box<dyn Idpa>
//! assert_eq!(attack.name(), "dina");
//! // The planner's default panel mixes gradient and learned probes.
//! assert!(quick_panel().len() >= 2);
//! # Ok::<(), c2pi_attacks::AttackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
pub mod dina;
pub mod error;
pub mod eval;
pub mod inversion;
pub mod mla;
pub mod probe;

pub use defense::Defense;
pub use error::AttackError;
pub use probe::{ProbeKind, ProbeSpec};

use c2pi_data::Dataset;
use c2pi_nn::{BoundaryId, Model};
use c2pi_tensor::Tensor;

/// Convenience result alias for attack operations.
pub type Result<T> = std::result::Result<T, AttackError>;

/// An inference-data-privacy attack: given the target model's activation
/// at a boundary, reconstruct the client's input image.
pub trait Idpa {
    /// Attack name for reports (`mla`, `ina`, `eina`, `dina`).
    fn name(&self) -> &'static str;

    /// Input-independent preparation (training an inversion network on
    /// the server's own data). `defense` is the defender's perturbation
    /// the attacker anticipates: training pairs see the activation as
    /// `defense` leaves it. MLA ignores preparation.
    ///
    /// # Errors
    ///
    /// Returns an error when training fails or shapes are inconsistent.
    fn prepare(
        &mut self,
        model: &mut Model,
        id: BoundaryId,
        train: &Dataset,
        defense: Defense,
    ) -> Result<()>;

    /// Reconstructs the input from the activation observed at `id`.
    ///
    /// # Errors
    ///
    /// Returns an error when the attack was not prepared for this
    /// boundary or shapes are inconsistent.
    fn recover(&mut self, model: &mut Model, id: BoundaryId, activation: &Tensor)
        -> Result<Tensor>;
}
