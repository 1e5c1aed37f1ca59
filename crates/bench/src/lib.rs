//! # c2pi-bench
//!
//! The harness that regenerates **every table and figure** of the C2PI
//! paper's evaluation (§IV). Each experiment lives in [`figures`] as a
//! function returning structured rows; the `src/bin/*` binaries print
//! them in the paper's format, and the criterion benches under
//! `benches/` micro-benchmark the underlying protocols. End-to-end
//! timing is not measured here but by `c2pi_benchmark` (the repository's
//! `benchmark/` package); `src/bin/bench_guard.rs` judges two commits'
//! runs of it against the bounds in `BENCHMARK.json`.
//!
//! Two scales are supported everywhere:
//!
//! * **quick** (default) — width-reduced models, subsampled synthetic
//!   datasets and truncated iteration counts, sized for a laptop CPU;
//! * **paper** (`--paper-scale`) — the paper's parameter regime
//!   (full-width models, 10 000 MLA iterations, 1000 evaluation images),
//!   for a machine with hours to spend.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not an A100 + testbed; see DESIGN.md §3); the *shapes* — who wins,
//! by what factor, where boundaries land — are the reproduction targets,
//! recorded in EXPERIMENTS.md.
//!
//! ## Example
//!
//! Every experiment takes a [`Scale`] deciding its budget:
//!
//! ```
//! use c2pi_bench::Scale;
//!
//! let quick = Scale::quick();
//! let paper = Scale::paper();
//! assert!(quick.width_div > paper.width_div); // quick = narrower models
//! assert!(paper.eval_images >= 1000); // the paper's evaluation size
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod scale;
pub mod setup;

pub use scale::Scale;
