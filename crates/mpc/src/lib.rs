//! # c2pi-mpc
//!
//! The two-party-computation substrate of the C2PI reproduction: every
//! cryptographic building block the crypto-layer phase needs, implemented
//! from scratch and executed for real over byte-counted
//! [`c2pi_transport`] channels.
//!
//! | Module | Provides |
//! |--------|----------|
//! | [`fixed`] | fixed-point encoding into the ring `Z_2^64` |
//! | [`prg`] | ChaCha12 pseudorandom generator / PRF, and the fixed-key AES gate hash of the garbling kernel |
//! | [`share`] | additive secret sharing over `Z_2^64` |
//! | [`dealer`] | trusted-dealer correlated randomness (Beaver triples, base-OT seeds) — stands in for the HE offline phases, see DESIGN.md §3 |
//! | [`bitvec`] | word-packed bit vectors: the one representation of shares, bit triples and opened frames in the boolean stack, and its wire codec |
//! | [`ot`] | IKNP OT extension: random OTs, chosen-message OTs, word-packed bit-triple pools |
//! | [`gmw`] | boolean sharing, batched AND, bit-sliced log-depth comparison, DReLU — 64 ANDs per word operation |
//! | [`beaver`] | arithmetic multiplication / matmul with triples + truncation |
//! | [`gc`] | Yao garbled circuits: free-XOR, point-and-permute, half-gates ANDs, lock-step evaluation |
//! | [`gcpre`] | offline-garbled masked non-linearities: input-independent garbling in the offline phase, a one-round-trip label exchange online |
//! | [`relu`] | the two secure ReLU protocols (GC-based à la Delphi, comparison-based à la Cheetah/CrypTFlow2) and secure max-pooling |
//!
//! The semi-honest threat model of the paper is assumed throughout.
//!
//! ## Example
//!
//! Additive secret sharing over `Z_2^64`, the substrate every protocol
//! builds on:
//!
//! ```
//! use c2pi_mpc::prg::Prg;
//! use c2pi_mpc::share::{reconstruct, share_secret};
//! use c2pi_mpc::FixedPoint;
//!
//! let fp = FixedPoint::default();
//! let secret = vec![fp.encode(1.5), fp.encode(-0.25)];
//! let mut prg = Prg::from_u64(7);
//! let (client, server) = share_secret(&secret, &mut prg);
//! // Each share alone is uniformly random; together they reconstruct.
//! let raw = reconstruct(&client, &server);
//! assert_eq!(fp.decode(raw[0]), 1.5);
//! assert_eq!(fp.decode(raw[1]), -0.25);
//! ```

#![deny(unsafe_code)] // relaxed from forbid: aes/ni.rs holds the one scoped allow
#![warn(missing_docs)]

mod aes;
pub mod beaver;
pub mod bitvec;
pub mod dealer;
pub mod error;
pub mod fixed;
pub mod gc;
pub mod gcpre;
pub mod gmw;
pub mod ot;
pub mod prg;
pub mod relu;
pub mod ring;
pub mod share;

pub use error::MpcError;
pub use fixed::FixedPoint;
pub use share::ShareVec;

/// Convenience result alias for MPC operations.
pub type Result<T> = std::result::Result<T, MpcError>;
