//! # c2pi-nn
//!
//! A pure-Rust neural-network library with explicit forward **and**
//! backward passes, built for the C2PI reproduction. Three consumers
//! drive its design:
//!
//! 1. **Classifier training** — the synthetic CIFAR models (AlexNet,
//!    VGG-16, VGG-19) are trained with [`optim::Sgd`]/[`optim::Adam`] and
//!    [`loss::softmax_cross_entropy`];
//! 2. **Inference-data-privacy attacks** — MLA needs gradients *with
//!    respect to the input*, which every [`Layer`] provides through
//!    [`Layer::backward`]; the inverse-network attacks (INA/EINA/DINA)
//!    additionally train generator-style models containing residual
//!    blocks, dilated and transposed convolutions;
//! 3. **Private inference** — the PI engines in `c2pi-pi` walk a
//!    [`model::Model`]'s layers and execute each under MPC.
//!
//! The paper's layer-numbering convention (conv id `l`, ReLU `l.5`) is
//! captured by [`model::CutPoint`] and [`model::BoundaryId`].
//!
//! ## Example
//!
//! ```
//! use c2pi_nn::{layers::{Conv2d, Relu}, Sequential};
//! use c2pi_tensor::Tensor;
//!
//! let mut net = Sequential::new();
//! net.push(Conv2d::new(3, 8, 3, 1, 1, 1, 42));
//! net.push(Relu::new());
//! let x = Tensor::rand_uniform(&[1, 3, 8, 8], -1.0, 1.0, 0);
//! let y = net.forward(&x, false)?;
//! assert_eq!(y.dims(), &[1, 8, 8, 8]);
//! # Ok::<(), c2pi_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod functional;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod param;
pub mod sequential;
pub mod train;

pub use error::NnError;
pub use layer::{Layer, LayerKind, LayerSpec};
pub use model::{BoundaryId, CutPoint, Model};
pub use param::Param;
pub use sequential::Sequential;

/// Convenience result alias for network operations.
pub type Result<T> = std::result::Result<T, NnError>;
