//! Layer implementations.
//!
//! Each submodule provides one layer family; everything is re-exported
//! flat so call sites read `layers::Conv2d`, `layers::Relu`, …

mod activation;
mod batchnorm;
mod conv;
mod flatten;
mod linear;
mod pool;
mod residual;
mod upsample;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::ResidualBlock;
pub use upsample::UpsampleNearest;
