//! # c2pi-pi
//!
//! Session-based two-party private inference over the `c2pi-mpc`
//! substrate, with pluggable protocol backends:
//!
//! * [`backend::delphi()`] — linear layers via the masked-linear
//!   protocol, non-linear layers (ReLU, max pool) via garbled circuits;
//! * [`backend::cheetah()`] — the same linear protocol (its HE offline
//!   modelled more cheaply) with comparison-based non-linear layers
//!   whose online traffic is two orders of magnitude leaner;
//! * your own — implement [`backend::PiBackendImpl`] in a new module and
//!   hand it to [`session::PiSession::with_backend`]; the engine has no
//!   backend-specific code paths.
//!
//! The serving API is the two-phase [`session::PiSession`] — one
//! cheaply cloneable handle whose entry points all take `&self` — and
//! the one two-party contract it speaks across processes, the dealt
//! [`session::PiSession::serve_one`] / [`session::PiSession::request_one`]
//! pair:
//!
//! ```
//! use c2pi_pi::engine::{specs_of, PiConfig};
//! use c2pi_pi::session::PiSession;
//! use c2pi_nn::layers::{Conv2d, Relu};
//! use c2pi_nn::Sequential;
//! use c2pi_tensor::Tensor;
//!
//! # fn main() -> c2pi_pi::Result<()> {
//! let mut prefix = Sequential::new();
//! prefix.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
//! prefix.push(Relu::new());
//!
//! // Compile once per deployment.
//! let cfg = PiConfig::default();
//! let session = PiSession::new(&specs_of(&prefix), [1, 8, 8], cfg)?;
//! // Offline phase: correlated randomness for 4 future inferences.
//! session.preprocess(4)?;
//! // Online phase: consumes one pooled material set per input.
//! let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 2);
//! let outcome = session.infer(&x)?;
//! assert_eq!(outcome.report.preprocessing.generated_inline, 0);
//! // For concurrent serving, hand each worker thread a clone: they
//! // all draw from the one pool.
//! let worker = session.clone();
//! assert_eq!(worker.ledger().consumed, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Both parties run as real threads exchanging bytes through a counted
//! channel; the result is a pair of additive shares of the boundary
//! activation plus a [`report::PiReport`] that a
//! [`c2pi_transport::NetModel`] converts into Table-II-style latency and
//! communication numbers. [`engine::run_prefix`] remains as the one-shot
//! wrapper (compile + preprocess(1) + infer).
//!
//! The offline phases that real Delphi/Cheetah run with homomorphic
//! encryption are charged analytically by [`cost::OfflineCostModel`]
//! (see DESIGN.md §3 for the substitution argument); the
//! [`report::PreprocessLedger`] separately records the wall-clock cost
//! of the dealer stand-in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calibrate;
pub mod cost;
pub mod engine;
pub mod error;
mod plan;
pub mod pool;
pub mod report;
pub mod session;
pub mod shard;
pub mod store;

pub use backend::{cheetah, delphi, IntoBackend, PiBackendImpl};
pub use calibrate::{Calibrator, OnlineCostModel};
pub use engine::{run_prefix, PiBackend, PiConfig, PiOutcome};
pub use error::PiError;
pub use pool::{
    InferenceMaterial, MaterialPool, PoolTake, Replenisher, SeedAllocator, SessionCore,
};
pub use report::{OpCounts, PiReport, PreprocessLedger};
pub use session::{PartyOutcome, PiSession, SharedPiSession};
pub use shard::ShardedMaterialPool;
pub use store::{MaterialStore, RestoreReport};

/// Convenience result alias for PI operations.
pub type Result<T> = std::result::Result<T, PiError>;
