//! # c2pi-core
//!
//! The paper's primary contribution: **C2PI**, crypto-clear two-party
//! private inference.
//!
//! * [`planner`] — the deployment planner: generalises Algorithm 1 to
//!   a configurable IDPA probe panel, prices every allowed boundary ×
//!   backend under mem/LAN/WAN network models, and emits a ranked
//!   [`planner::DeploymentPlan`] that plugs back into the builder
//!   ([`session::C2piBuilder::plan`]) and into
//!   [`reactor::ReactorConfig`] sizing
//!   ([`planner::DeploymentPlan::reactor_config`]);
//! * [`defense`] — boundary defenses beyond uniform noise, with the one
//!   [`defense::defense_seed`] stream every evaluator and the serving
//!   session share;
//! * [`noise`] — the uniform-noise share defense and the
//!   noised-activation accuracy evaluation (Figures 6–7);
//! * [`session`] — the end-to-end flow of Figure 2 as a serving API: the
//!   [`session::C2pi`] builder compiles a deployment into a long-lived
//!   [`session::C2piSession`] with an explicit offline/online phase
//!   split (`preprocess` ahead of traffic, `infer`/`infer_batch`
//!   online);
//! * [`reactor`] — the one network serving stack: the
//!   [`reactor::ReactorServer`] multiplexes thousands of connections
//!   over a readiness loop and a fixed worker set drawing from per-core
//!   material shards, speaks the dealt two-party contract to every
//!   [`reactor::ReactorClient`], sheds overload with typed backpressure
//!   frames, and answers `STATS` requests with Prometheus-style
//!   metrics.
//!
//! ```
//! use c2pi_core::session::C2pi;
//! use c2pi_nn::model::{alexnet, ZooConfig};
//! use c2pi_nn::BoundaryId;
//! use c2pi_pi::cheetah;
//! use c2pi_tensor::Tensor;
//!
//! # fn main() -> Result<(), c2pi_core::C2piError> {
//! // A width-reduced model keeps this example fast; swap in
//! // `vgg16(&ZooConfig::default())` for the paper's scale.
//! let model = alexnet(&ZooConfig { width_div: 32, image_size: 16, ..Default::default() })?;
//! let mut session = C2pi::builder(model)
//!     .split_at(BoundaryId::relu(2))
//!     .noise(0.1)
//!     .backend(cheetah())
//!     .build()?;
//! session.preprocess(1)?; // offline, input-independent
//! let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
//! let result = session.infer(&x)?; // online
//! assert!(result.report.comm_mb() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Where should the boundary sit? Let the planner decide — see
//! [`planner`] for the full attack-calibrated pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
pub mod error;
pub mod noise;
pub mod planner;
pub mod reactor;
pub mod session;
pub mod split_learning;

pub use defense::{defense_seed, Defense};
pub use error::C2piError;
pub use planner::{DeploymentPlan, DeploymentPlanner, PlanChoice, PlannerConfig};
pub use reactor::{ClientInference, ReactorClient, ReactorConfig, ReactorReply, ReactorServer};
pub use session::{plain_prediction, C2pi, C2piBuilder, C2piSession, InferenceResult, Split};

/// Convenience result alias for C2PI operations.
pub type Result<T> = std::result::Result<T, C2piError>;
