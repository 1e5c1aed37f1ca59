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
//! // 4096 ReLUs at 64 bits: 126 garbled ANDs each under Delphi, 187
//! // bit triples each under Cheetah.
//! let delphi = OpCounts { macs: 1_000_000, and_gates: 4096 * 126, ..Default::default() };
//! let cheetah = OpCounts { macs: 1_000_000, bit_triples: 4096 * 187, ..Default::default() };
//! let delphi = OnlineCostModel::for_backend(PiBackend::Delphi).online_seconds(&delphi);
//! let cheetah = OnlineCostModel::for_backend(PiBackend::Cheetah).online_seconds(&cheetah);
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
    /// Seconds per non-linear gate: a garbled AND gate evaluated
    /// (Delphi's `and_gates`) or a bit triple consumed (Cheetah's
    /// `bit_triples`). Both counts are taken at each unit's compiled
    /// width, so a unit's price falls with its width as its run time
    /// does; a report carries one or the other, never both.
    pub sec_per_gate: f64,
    /// Fixed per-inference overhead: input sharing, channel setup and
    /// the final share handling.
    pub base_seconds: f64,
}

impl OnlineCostModel {
    /// Default Delphi-like coefficients. The online phase only
    /// *evaluates* pre-garbled circuits, so a unit costs its AND count
    /// times the evaluation kernel's per-AND time, which also carries
    /// the unit's `δ` and label round (both grow with the width, as the
    /// ANDs do). That time is read off `c2pi_benchmark`'s traced
    /// `solo_delphi_split` runs as `mpc.gcpre.eval_ms ÷
    /// mpc.gcpre.and_gates_per_inf`: 16–22 ns on the fixed-key AES gate
    /// hash evaluated eight items in lock step (two cores at 2.1 GHz).
    /// At 18 ns a 64-bit ReLU (126 ANDs) is 2.3 µs and a fused 64-bit
    /// max-then-ReLU window (696 ANDs) 12.5 µs — about two orders of
    /// magnitude above Cheetah's comparison-based path, as published.
    /// The demo split at its compiled widths (98 944 ANDs, 51 840 MACs)
    /// prices at 3.0 ms against 2.9 ms measured in a traced run.
    pub fn delphi() -> Self {
        OnlineCostModel { sec_per_mac: 4.0e-9, sec_per_gate: 1.8e-8, base_seconds: 1.0e-3 }
    }

    /// Default Cheetah-like coefficients: comparison-based
    /// non-linearities, roughly two orders of magnitude leaner online
    /// per item. 40 ns per 64-bit ReLU over its 187 bit triples; the
    /// millionaires' tree's flights, which dominate its measured online
    /// time, are the network model's to price.
    pub fn cheetah() -> Self {
        OnlineCostModel { sec_per_mac: 4.0e-9, sec_per_gate: 2.14e-10, base_seconds: 1.0e-3 }
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
            + (counts.and_gates + counts.bit_triples) as f64 * self.sec_per_gate
    }
}

/// Measures per-layer micro-timings of the real protocol and fits an
/// [`OnlineCostModel`] for this machine.
///
/// The fit runs three tiny prefixes through a [`PiSession`] on the
/// in-memory transport — a convolution at two widths, then the narrow
/// one followed by a ReLU and a max pool — and attributes the timing
/// *differences* to the added operations, so shared overhead cancels.
/// Preprocessing runs ahead of the timed loop; only online seconds are
/// measured.
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
        let [lin_small, lin_big, nonlinear] = probes();
        let (t_small, c_small) = self.time_prefix(&lin_small, backend)?;
        let (t_big, c_big) = self.time_prefix(&lin_big, backend)?;
        let (t_nl, c_nl) = self.time_prefix(&nonlinear, backend)?;

        // Clamp at tiny positive floors so scheduler jitter cannot
        // produce zero or negative coefficients.
        let extra_macs = (c_big.macs.saturating_sub(c_small.macs)).max(1) as f64;
        let sec_per_mac = ((t_big - t_small) / extra_macs).max(1e-12);
        let gates = (c_nl.and_gates + c_nl.bit_triples).max(1) as f64;
        let sec_per_gate = ((t_nl - t_small) / gates).max(1e-12);
        // The residual of the small prefix is the fixed overhead.
        let base_seconds = (t_small - c_small.macs as f64 * sec_per_mac).max(1e-6);
        Ok(OnlineCostModel { sec_per_mac, sec_per_gate, base_seconds })
    }
}

/// The calibration prefixes on a `[1, 16, 16]` input: `[lin_small,
/// lin_big, nonlinear]`. Each of the last two is `lin_small` plus
/// exactly the work its coefficient prices — 3× the MACs, or a ReLU and
/// a max pool, which the plan runs as one fused unit per window, the
/// commonest unit of the demo prefixes.
fn probes() -> [Sequential; 3] {
    let conv = |oc| Conv2d::new(1, oc, 3, 1, 1, 1, 5);
    let mut lin_small = Sequential::new();
    lin_small.push(conv(4));
    let mut lin_big = Sequential::new();
    lin_big.push(conv(12));
    let mut nonlinear = lin_small.clone();
    nonlinear.push(Relu::new());
    nonlinear.push(MaxPool2d::new(2, 2));
    [lin_small, lin_big, nonlinear]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::price;
    use crate::plan::{compile, set_unit_widths, Plan};

    fn plan_of(seq: &Sequential) -> Plan {
        compile(&specs_of(seq), (1, 16, 16), Default::default()).unwrap()
    }

    #[test]
    fn each_probe_adds_only_the_work_its_coefficient_prices() {
        // The priced fields of `online_seconds`, (MACs, gates), as
        // `backend::price` counts them for the compiled plan the timed
        // session runs.
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let priced = |seq: &Sequential| {
                let c = price(&plan_of(seq), backend);
                (c.macs, c.and_gates + c.bit_triples)
            };
            let [lin_small, lin_big, nonlinear] = probes();
            let (macs, gates) = priced(&lin_small);
            assert_eq!((macs, gates), (4 * 9 * 256, 0), "{backend:?}");
            assert_eq!(priced(&lin_big), (3 * macs, 0), "{backend:?}: lin_big adds MACs only");
            let (nl_macs, nl_gates) = priced(&nonlinear);
            assert_eq!(nl_macs, macs, "{backend:?}: nonlinear adds gates only");
            assert!(nl_gates > 0, "{backend:?}");
        }
    }

    /// The non-linear part of `plan`'s default online price.
    fn nonlinear_seconds(plan: &Plan, backend: PiBackend) -> f64 {
        let c = price(plan, backend);
        let m = OnlineCostModel::for_backend(backend);
        m.online_seconds(&c) - m.online_seconds(&OpCounts { macs: c.macs, ..Default::default() })
    }

    #[test]
    fn defaults_keep_the_published_asymmetry() {
        let plan = plan_of(&probes()[2]);
        let d = nonlinear_seconds(&plan, PiBackend::Delphi);
        let c = nonlinear_seconds(&plan, PiBackend::Cheetah);
        assert!(d > 10.0 * c, "delphi {d} vs cheetah {c}");
    }

    #[test]
    fn a_unit_is_priced_at_its_compiled_width() {
        // The probe's fused unit compiles far below 64 bits; run at the
        // full ring it garbles and compares more, and costs more.
        let narrow = plan_of(&probes()[2]);
        let mut wide = plan_of(&probes()[2]);
        set_unit_widths(&mut wide, &[64]).unwrap();
        for backend in [PiBackend::Delphi, PiBackend::Cheetah] {
            let (n, w) = (nonlinear_seconds(&narrow, backend), nonlinear_seconds(&wide, backend));
            assert!(w > 1.5 * n, "{backend:?}: 64 bits {w} vs compiled {n}");
        }
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
        assert!(m.sec_per_gate > 0.0);
        let est = m.online_seconds(&OpCounts { macs: 1000, bit_triples: 64, ..Default::default() });
        assert!(est.is_finite() && est > 0.0);
    }
}
