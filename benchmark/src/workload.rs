//! The four workloads' shared deployment — the repo's demo model, how a
//! `--seed` becomes inputs — and the output checker every timed loop
//! runs its replies through.

use crate::trace::{Recorder, SpanGuard};
use c2pi_core::{defense_seed, Defense, InferenceResult};
use c2pi_mpc::prg::indexed_seed;
use c2pi_nn::model::{alexnet, Model, ZooConfig};
use c2pi_nn::{BoundaryId, Sequential};
use c2pi_pi::PiBackend;
use c2pi_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] =
    ["solo_delphi_split", "solo_cheetah_split", "reactor_cheetah_lean", "reactor_delphi_heavy"];

/// Input shape of the demo model.
pub const INPUT_CHW: [usize; 3] = [3, 16, 16];
/// Where the solo workloads split the model.
pub const SPLIT: BoundaryId = BoundaryId { conv_id: 3, after_relu: true };
/// Noise magnitude λ of the solo workloads' boundary defense.
pub const NOISE: f32 = 0.1;

/// Elementwise tolerance between fixed-point and clear values.
pub const TOL: f32 = 0.05;
/// Clear top-2 gap above which the argmax must agree exactly (the
/// `examples/multi_client.rs` rule).
pub const GAP: f32 = 3.0 * TOL;

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// One caller on a split `C2piSession` over the in-memory transport:
    /// rounds of `preprocess(round)` then `round` × `infer`.
    Solo { round: usize },
    /// Two closed-loop `ReactorClient`s against an in-process
    /// `ReactorServer` on loopback TCP, full-PI prefix. Each shard's
    /// replenisher refills from 4 pooled sets up to `pool_high`.
    Reactor { batching: bool, persist: bool, pool_high: usize },
}

/// One workload: a backend and a load shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub backend: PiBackend,
    pub shape: Shape,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let (backend, shape) = match name {
            "solo_delphi_split" => (PiBackend::Delphi, Shape::Solo { round: 10 }),
            "solo_cheetah_split" => (PiBackend::Cheetah, Shape::Solo { round: 50 }),
            "reactor_cheetah_lean" => (
                PiBackend::Cheetah,
                Shape::Reactor { batching: false, persist: false, pool_high: 16 },
            ),
            // A narrow refill band: at 30 MB and 0.17 s a set, a 4 → 16
            // band makes the replenishers run in bursts seconds long, and
            // a 20 s run holds too few of them for its median to settle.
            "reactor_delphi_heavy" => {
                (PiBackend::Delphi, Shape::Reactor { batching: true, persist: true, pool_high: 6 })
            }
            _ => return None,
        };
        let name = NAMES.iter().find(|n| **n == name)?;
        Some(Workload { name, backend, shape })
    }

    /// Whether the crypto prefix is the split one (solo) or the whole
    /// model (reactor).
    pub fn is_split(&self) -> bool {
        matches!(self.shape, Shape::Solo { .. })
    }
}

/// The repo's demo deployment: a narrow AlexNet on 16×16 inputs,
/// deterministic from its seed.
pub fn model() -> Model {
    alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
        .expect("the demo model builds")
}

/// Input image `index` of a run seeded with `seed`.
pub fn input(seed: u64, index: u64) -> Tensor {
    let [c, h, w] = INPUT_CHW;
    let image_seed = indexed_seed(seed, b"c2pi_benchmark/input", index);
    Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, image_seed)
}

/// Master seed of the client's defense-noise stream for a run.
pub fn noise_master(seed: u64) -> u64 {
    indexed_seed(seed, b"c2pi_benchmark/noise", 0)
}

/// Directory for what a run leaves behind (trace files, the heavy
/// workload's store segments): beside the running binary, i.e. inside
/// the build's target directory.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent().expect("the binary sits in a directory").join("c2pi_benchmark.out")
}

/// Opens a span when the run is traced.
pub fn span(rec: Option<&Arc<Recorder>>, name: &str) -> Option<SpanGuard> {
    rec.map(|r| r.enter(name))
}

/// Opens an inference's parent span when the run is traced.
pub fn request_span(rec: Option<&Arc<Recorder>>, name: &str) -> Option<SpanGuard> {
    rec.map(|r| r.enter_request(name))
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

fn top2_gap(logits: &[f32]) -> f32 {
    let mut best = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &v in logits {
        if v > best {
            second = best;
            best = v;
        } else if v > second {
            second = v;
        }
    }
    best - second
}

/// Checks replies against the clear model.
#[derive(Debug)]
pub struct Checker {
    model: Model,
    prefix: Sequential,
    suffix: Sequential,
}

impl Checker {
    pub fn new() -> Self {
        let model = model();
        let (prefix, suffix) = model.split_at(SPLIT).expect("the demo model has the split");
        Checker { model, prefix, suffix }
    }

    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Full-PI reply: logits within [`TOL`] of the clear model's, and
    /// the same argmax whenever the clear top-2 gap exceeds [`GAP`].
    pub fn check_full(&self, x: &Tensor, logits: &Tensor, prediction: usize) -> Result<(), String> {
        let clear = self.model.seq().forward_eval(x).map_err(|e| format!("clear model: {e}"))?;
        let diff = max_abs_diff(logits.as_slice(), clear.as_slice());
        if diff > TOL || diff.is_nan() {
            return Err(format!("logits differ from the clear model by {diff}"));
        }
        let want = clear.argmax().unwrap_or(0);
        if top2_gap(clear.as_slice()) > GAP && prediction != want {
            return Err(format!("prediction {prediction}, clear model says {want}"));
        }
        Ok(())
    }

    /// Split-session reply number `index` of a session whose noise
    /// stream has master seed `noise_master`: the revealed activation
    /// within [`TOL`] of clear prefix output plus that inference's noise,
    /// and the logits exactly what the clear suffix makes of it.
    pub fn check_split(
        &self,
        x: &Tensor,
        got: &InferenceResult,
        noise_master: u64,
        index: usize,
    ) -> Result<(), String> {
        let act =
            got.revealed_activation.as_ref().ok_or("a split session revealed no activation")?;
        let clear = self.prefix.forward_eval(x).map_err(|e| format!("clear prefix: {e}"))?;
        let delta = Defense::Uniform { magnitude: NOISE }
            .additive_delta(clear.dims(), defense_seed(noise_master, index))
            .expect("uniform noise is additive");
        let want = clear.add(&delta).map_err(|e| format!("noise shape: {e}"))?;
        let diff = max_abs_diff(act.as_slice(), want.as_slice());
        if diff > TOL || diff.is_nan() {
            return Err(format!("revealed activation is off by {diff}"));
        }
        let logits = self.suffix.forward_eval(act).map_err(|e| format!("clear suffix: {e}"))?;
        if logits.as_slice() != got.logits.as_slice() {
            return Err("logits are not the clear suffix of the revealed activation".into());
        }
        if got.prediction != logits.argmax().unwrap_or(0) {
            return Err(format!("prediction {} is not the logits' argmax", got.prediction));
        }
        Ok(())
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_inputs_follow_the_seed() {
        for name in NAMES {
            assert_eq!(Workload::by_name(name).unwrap().name, name);
        }
        assert!(Workload::by_name("nope").is_none());
        assert_eq!(input(5, 2).as_slice(), input(5, 2).as_slice());
        assert_ne!(input(5, 2).as_slice(), input(6, 2).as_slice());
        assert_ne!(input(5, 2).as_slice(), input(5, 3).as_slice());
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn full_check_fires_on_a_wrong_logit() {
        let checker = Checker::new();
        let x = input(1, 0);
        let clear = checker.model().seq().forward_eval(&x).unwrap();
        let pred = clear.argmax().unwrap();
        assert!(checker.check_full(&x, &clear, pred).is_ok());
        let mut bad = clear.clone();
        bad.as_mut_slice()[0] += 2.0 * TOL;
        assert!(checker.check_full(&x, &bad, pred).is_err());
    }
}
