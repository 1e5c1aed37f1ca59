//! Online-phase cost calibration: per-operation timing coefficients
//! that price an [`OpCounts`] profile into online compute seconds.
//!
//! The offline phases are charged analytically by
//! [`crate::cost::OfflineCostModel`]; this module is its online
//! counterpart. Two sources of coefficients exist:
//!
//! * **defaults** — [`OnlineCostModel::for_backend`] ships fixed,
//!   documented constants whose *relative* magnitudes match the
//!   published systems (Delphi's GC non-linearities dominate its online
//!   phase; Cheetah's comparison-based ReLU is two orders of magnitude
//!   leaner). Because they are constants, every estimate derived from
//!   them is bit-reproducible — the deployment planner's default, so
//!   its ranked tables are byte-identical across runs and machines;
//! * **measured** — [`Calibrator::measure`] runs per-layer micro-timings
//!   of the real protocol on this machine and fits the same
//!   coefficients. Estimates then track local hardware but are no
//!   longer deterministic; callers opt in (`plan_report --calibrate`).
//!
//! ```
//! use c2pi_pi::calibrate::OnlineCostModel;
//! use c2pi_pi::report::OpCounts;
//! use c2pi_pi::PiBackend;
//!
//! let counts = OpCounts { macs: 1_000_000, relu_elems: 4096, ..Default::default() };
//! let delphi = OnlineCostModel::for_backend(PiBackend::Delphi).online_seconds(&counts);
//! let cheetah = OnlineCostModel::for_backend(PiBackend::Cheetah).online_seconds(&counts);
//! assert!(delphi > cheetah); // GC ReLU dominates Delphi's online phase
//! ```

use crate::engine::{specs_of, PiBackend, PiConfig};
use crate::report::OpCounts;
use crate::session::PiSession;
use crate::Result;
use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
use c2pi_nn::Sequential;
use c2pi_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-operation online timing coefficients (seconds per unit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineCostModel {
    /// Seconds per multiply-accumulate of the masked-linear protocol
    /// (local ring arithmetic; identical for both backends).
    pub sec_per_mac: f64,
    /// Seconds per ReLU element (GC evaluation for Delphi,
    /// comparison-based DReLU for Cheetah).
    pub sec_per_relu_elem: f64,
    /// Seconds per 2×2 max-pool window (four-way secure maximum).
    pub sec_per_pool_window: f64,
    /// Fixed per-inference overhead: input sharing, channel setup and
    /// the final share handling.
    pub base_seconds: f64,
}

impl OnlineCostModel {
    /// Default Delphi-like coefficients. The online phase only
    /// *evaluates* pre-garbled circuits, so a non-linear item costs its
    /// AND count times the evaluation kernel's per-AND time. That time
    /// is read off `c2pi_benchmark`'s traced `solo_delphi_split` run as
    /// `mpc.gcpre.eval_ms ÷ mpc.gcpre.and_gates_per_inf`: 8.7–12.1 ms
    /// over 553 952 ANDs, 16–22 ns, on the fixed-key AES gate hash
    /// evaluated eight items in lock step (two cores at 2.1 GHz, both
    /// circuits mixed). At 18 ns per AND a ReLU (192 ANDs) is 3.5 µs and
    /// a 2×2 max window (701 ANDs) 12.6 µs — about two orders of
    /// magnitude above Cheetah's comparison-based path, as published.
    /// Against the same run's measured online time this default reads a
    /// `pi.calibrate.default_residual` of 0.8–1.0.
    pub fn delphi() -> Self {
        OnlineCostModel {
            sec_per_mac: 4.0e-9,
            sec_per_relu_elem: 3.5e-6,
            sec_per_pool_window: 1.26e-5,
            base_seconds: 1.0e-3,
        }
    }

    /// Default Cheetah-like coefficients: comparison-based
    /// non-linearities, roughly two orders of magnitude leaner online.
    pub fn cheetah() -> Self {
        OnlineCostModel {
            sec_per_mac: 4.0e-9,
            sec_per_relu_elem: 4.0e-8,
            sec_per_pool_window: 1.6e-7,
            base_seconds: 1.0e-3,
        }
    }

    /// The default (deterministic) coefficients for a backend tag.
    pub fn for_backend(backend: PiBackend) -> Self {
        match backend {
            PiBackend::Delphi => OnlineCostModel::delphi(),
            PiBackend::Cheetah => OnlineCostModel::cheetah(),
        }
    }

    /// Estimated online compute seconds for an operation-count profile.
    pub fn online_seconds(&self, counts: &OpCounts) -> f64 {
        self.base_seconds
            + counts.macs as f64 * self.sec_per_mac
            + counts.relu_elems as f64 * self.sec_per_relu_elem
            + counts.pool_windows as f64 * self.sec_per_pool_window
    }
}

/// Measures per-layer micro-timings of the real protocol and fits an
/// [`OnlineCostModel`] for this machine.
///
/// The fit runs three tiny prefixes through a [`PiSession`] on the
/// in-memory transport — linear only, linear+ReLU, linear+ReLU+pool —
/// and attributes the timing *differences* to the added operation, so
/// shared overhead cancels. Preprocessing runs ahead of the timed loop;
/// only online seconds are measured.
#[derive(Debug, Clone, Copy)]
pub struct Calibrator {
    /// Timed repetitions per prefix; the minimum over repetitions is
    /// used (robust against scheduler noise).
    pub reps: usize,
    /// Input seed for the probe tensors.
    pub seed: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator { reps: 3, seed: 11 }
    }
}

impl Calibrator {
    fn time_prefix(&self, seq: &Sequential, backend: PiBackend) -> Result<(f64, OpCounts)> {
        let cfg = PiConfig { backend, ..Default::default() };
        let session = PiSession::new(&specs_of(seq), [1, 16, 16], cfg)?;
        session.preprocess(self.reps + 1)?;
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], -1.0, 1.0, self.seed);
        // Warm-up inference (page-in, lazy allocations), untimed.
        let warm = session.infer(&x)?;
        let mut best = f64::INFINITY;
        for _ in 0..self.reps.max(1) {
            let start = Instant::now();
            session.infer(&x)?;
            best = best.min(start.elapsed().as_secs_f64());
        }
        Ok((best, warm.report.counts))
    }

    /// Fits the per-operation coefficients for a backend on this
    /// machine. Not deterministic — wall-clock measurements differ run
    /// to run; use [`OnlineCostModel::for_backend`] when reproducible
    /// estimates matter more than local accuracy.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the micro-timing sessions.
    pub fn measure(&self, backend: PiBackend) -> Result<OnlineCostModel> {
        // Every coefficient comes from a timing *difference*, so the
        // fixed per-inference overhead (input sharing, channel setup)
        // cancels instead of being folded into the first coefficient —
        // a small conv is dominated by that overhead, and `t/macs`
        // would overprice real prefixes by orders of magnitude.
        let mut lin_small = Sequential::new();
        lin_small.push(Conv2d::new(1, 4, 3, 1, 1, 1, 5));
        let (t_small, c_small) = self.time_prefix(&lin_small, backend)?;

        let mut lin_big = Sequential::new();
        lin_big.push(Conv2d::new(1, 12, 3, 1, 1, 1, 5)); // 3x the MACs, same shape
        let (t_big, c_big) = self.time_prefix(&lin_big, backend)?;

        let mut relu = Sequential::new();
        relu.push(Conv2d::new(1, 4, 3, 1, 1, 1, 5));
        relu.push(Relu::new());
        let (t_relu, c_relu) = self.time_prefix(&relu, backend)?;

        let mut pool = Sequential::new();
        pool.push(Conv2d::new(1, 4, 3, 1, 1, 1, 5));
        pool.push(Relu::new());
        pool.push(MaxPool2d::new(2, 2));
        let (t_pool, c_pool) = self.time_prefix(&pool, backend)?;

        // Clamp at tiny positive floors so scheduler jitter cannot
        // produce zero or negative coefficients.
        let extra_macs = (c_big.macs.saturating_sub(c_small.macs)).max(1) as f64;
        let sec_per_mac = ((t_big - t_small) / extra_macs).max(1e-12);
        let relu_elems = c_relu.relu_elems.max(1) as f64;
        let sec_per_relu_elem = ((t_relu - t_small) / relu_elems).max(1e-12);
        let windows = c_pool.pool_windows.max(1) as f64;
        let sec_per_pool_window = ((t_pool - t_relu) / windows).max(1e-12);
        // The residual of the small prefix is the fixed overhead.
        let base_seconds = (t_small - c_small.macs as f64 * sec_per_mac).max(1e-6);
        Ok(OnlineCostModel { sec_per_mac, sec_per_relu_elem, sec_per_pool_window, base_seconds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_the_published_asymmetry() {
        let counts = OpCounts { relu_elems: 100_000, ..Default::default() };
        let d = OnlineCostModel::delphi().online_seconds(&counts);
        let c = OnlineCostModel::cheetah().online_seconds(&counts);
        assert!(d > 10.0 * c, "delphi {d} vs cheetah {c}");
    }

    #[test]
    fn estimates_scale_with_counts() {
        let m = OnlineCostModel::cheetah();
        let small = OpCounts { macs: 1_000, ..Default::default() };
        let big = OpCounts { macs: 1_000_000_000, ..Default::default() };
        assert!(m.online_seconds(&big) > m.online_seconds(&small));
        assert!(m.online_seconds(&OpCounts::default()) >= m.base_seconds);
    }

    #[test]
    fn measured_coefficients_are_positive_and_usable() {
        let cal = Calibrator { reps: 1, seed: 3 };
        let m = cal.measure(PiBackend::Cheetah).unwrap();
        assert!(m.sec_per_mac > 0.0);
        assert!(m.sec_per_relu_elem > 0.0);
        assert!(m.sec_per_pool_window > 0.0);
        let est = m.online_seconds(&OpCounts { macs: 1000, relu_elems: 64, ..Default::default() });
        assert!(est.is_finite() && est > 0.0);
    }
}
