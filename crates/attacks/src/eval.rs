//! SSIM-based attack evaluation — the measurement harness behind the
//! paper's Figures 1 and 4–6.
//!
//! An attack *fails* at a layer when the average SSIM between recovered
//! and original images drops below the failure threshold (0.3 by
//! default, following He et al. as adopted by the paper).

use crate::{AttackError, Defense, Idpa, Result};
use c2pi_data::metrics::ssim;
use c2pi_data::Dataset;
use c2pi_nn::{BoundaryId, Model};
use c2pi_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// The defender's perturbation of the revealed share: the attack
    /// trains against it and observes activations through it.
    pub defense: Defense,
    /// SSIM failure threshold (`σ`, 0.3 in the paper's main results).
    pub ssim_threshold: f32,
    /// Number of evaluation images (the paper uses 1000 at full scale).
    pub eval_images: usize,
    /// Seed for the evaluation-time noise draws.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            defense: Defense::Uniform { magnitude: 0.1 },
            ssim_threshold: 0.3,
            eval_images: 8,
            seed: 41,
        }
    }
}

/// Refuses a defense that draws no usable noise ([`Defense::is_valid`])
/// with [`AttackError::BadConfig`] naming its label, which would
/// otherwise head undefended results.
fn check_defense(defense: Defense) -> Result<()> {
    if defense.is_valid() {
        return Ok(());
    }
    Err(AttackError::BadConfig(format!(
        "defense {} needs a finite, non-negative parameter",
        defense.label()
    )))
}

/// Average SSIM an attack achieves at one boundary over an evaluation
/// set (the attack must already be prepared for that boundary).
///
/// # Errors
///
/// Returns [`AttackError::BadConfig`] for an invalid `cfg.defense`, and
/// attack or metric errors.
pub fn avg_ssim_at(
    attack: &mut dyn Idpa,
    model: &mut Model,
    id: BoundaryId,
    eval: &Dataset,
    cfg: &EvalConfig,
) -> Result<f32> {
    check_defense(cfg.defense)?;
    avg_ssim_with(attack, model, id, eval, cfg.eval_images, &|act, i| {
        cfg.defense.apply(act, cfg.seed ^ ((i as u64) << 16))
    })
}

/// [`avg_ssim_at`] generalised over the defender's perturbation: the
/// attack observes `perturb(activation, image_index)` instead of
/// `cfg.defense` under the harness's own seeds. Boundary auditors hand
/// in their defense with their own seed derivation while reusing this
/// one measurement loop.
///
/// # Errors
///
/// Returns attack or metric errors.
pub fn avg_ssim_with(
    attack: &mut dyn Idpa,
    model: &mut Model,
    id: BoundaryId,
    eval: &Dataset,
    eval_images: usize,
    perturb: &dyn Fn(&Tensor, usize) -> Tensor,
) -> Result<f32> {
    let n = eval_images.min(eval.len()).max(1);
    let mut total = 0.0f32;
    for (i, x) in eval.images().iter().take(n).enumerate() {
        let act = model.forward_to_cut(id, x)?;
        let observed = perturb(&act, i);
        let rec = attack.recover(model, id, &observed)?;
        total += ssim(x, &rec)?;
    }
    model.seq_mut().clear_cache();
    Ok(total / n as f32)
}

/// One row of a per-layer attack sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Conv id (the figures' x axis).
    pub conv_id: usize,
    /// Average SSIM at that layer.
    pub avg_ssim: f32,
    /// Whether the attack is deemed failed (below threshold).
    pub failed: bool,
}

/// Sweeps an attack across every conv id of a model (preparing it fresh
/// per layer) — the data series of Figures 4–6.
///
/// # Errors
///
/// Returns [`AttackError::BadConfig`] for an invalid `cfg.defense`
/// (before any attack trains), and attack errors.
pub fn sweep_conv_layers(
    attack: &mut dyn Idpa,
    model: &mut Model,
    train: &Dataset,
    eval: &Dataset,
    cfg: &EvalConfig,
) -> Result<Vec<SweepPoint>> {
    check_defense(cfg.defense)?;
    let mut out = Vec::new();
    for conv in 1..=model.num_convs() {
        let id = BoundaryId::relu(conv);
        attack.prepare(model, id, train, cfg.defense)?;
        let s = avg_ssim_at(attack, model, id, eval, cfg)?;
        out.push(SweepPoint { conv_id: conv, avg_ssim: s, failed: s < cfg.ssim_threshold });
    }
    Ok(out)
}

/// The first boundary (in paper numbering, scanning from the tail) after
/// which the attack fails — phase 1 of Algorithm 1 expressed over a
/// sweep.
pub fn first_failing_conv(points: &[SweepPoint]) -> Option<usize> {
    // Scan from the tail: find the deepest prefix where the attack still
    // succeeds; the next conv is the potential boundary.
    let mut boundary = None;
    for p in points.iter().rev() {
        if p.failed {
            boundary = Some(p.conv_id);
        } else {
            break;
        }
    }
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mla::{Mla, MlaConfig};
    use c2pi_data::synth::{SynthConfig, SynthDataset};
    use c2pi_nn::model::{alexnet, ZooConfig};

    fn setup() -> (Model, Dataset) {
        let model = alexnet(&ZooConfig { width_div: 32, seed: 3, ..Default::default() }).unwrap();
        let data = SynthDataset::generate(&SynthConfig {
            classes: 3,
            per_class: 2,
            pixel_noise: 0.02,
            ..Default::default()
        })
        .into_dataset();
        (model, data)
    }

    #[test]
    fn avg_ssim_is_bounded() {
        let (mut model, data) = setup();
        let mut mla = Mla::new(MlaConfig { iterations: 20, ..Default::default() });
        let cfg = EvalConfig { eval_images: 2, defense: Defense::None, ..Default::default() };
        let s = avg_ssim_at(&mut mla, &mut model, BoundaryId::relu(1), &data, &cfg).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    /// A negative and a NaN parameter, each refused naming its label.
    fn assert_refused<T: std::fmt::Debug>(run: impl Fn(&EvalConfig) -> Result<T>) {
        for defense in [Defense::Uniform { magnitude: -0.1 }, Defense::Gaussian { std: f32::NAN }] {
            let err = run(&EvalConfig { defense, eval_images: 1, ..Default::default() });
            assert!(
                matches!(&err, Err(AttackError::BadConfig(why)) if why.contains(&defense.label())),
                "{err:?}"
            );
        }
    }

    #[test]
    fn avg_ssim_at_rejects_an_invalid_defense() {
        let (model, data) = setup();
        assert_refused(|cfg| {
            let mut mla = Mla::new(MlaConfig { iterations: 1, ..Default::default() });
            avg_ssim_at(&mut mla, &mut model.clone(), BoundaryId::relu(1), &data, cfg)
        });
    }

    #[test]
    fn sweep_conv_layers_rejects_an_invalid_defense_before_training() {
        let (model, data) = setup();
        assert_refused(|cfg| {
            let mut mla = Mla::new(MlaConfig { iterations: 1, ..Default::default() });
            sweep_conv_layers(&mut mla, &mut model.clone(), &data, &data, cfg)
        });
    }

    #[test]
    fn first_failing_conv_scans_from_tail() {
        let mk = |v: &[(usize, bool)]| -> Vec<SweepPoint> {
            v.iter().map(|&(c, failed)| SweepPoint { conv_id: c, avg_ssim: 0.0, failed }).collect()
        };
        // Fails from conv 4 onward -> boundary candidate 4.
        let pts = mk(&[(1, false), (2, false), (3, false), (4, true), (5, true)]);
        assert_eq!(first_failing_conv(&pts), Some(4));
        // Never fails -> None.
        assert_eq!(first_failing_conv(&mk(&[(1, false), (2, false)])), None);
        // Always fails -> conv 1.
        assert_eq!(first_failing_conv(&mk(&[(1, true), (2, true)])), Some(1));
        // A late success after failures resets the scan.
        let pts = mk(&[(1, true), (2, false), (3, true), (4, true)]);
        assert_eq!(first_failing_conv(&pts), Some(3));
    }

    #[test]
    fn noise_reduces_mla_recovery() {
        let (mut model, data) = setup();
        let mut mla = Mla::new(MlaConfig { iterations: 120, lr: 0.08, seed: 9 });
        let id = BoundaryId::relu(1);
        let clean = avg_ssim_at(
            &mut mla,
            &mut model,
            id,
            &data,
            &EvalConfig { eval_images: 1, defense: Defense::None, ..Default::default() },
        )
        .unwrap();
        let noisy = avg_ssim_at(
            &mut mla,
            &mut model,
            id,
            &data,
            &EvalConfig {
                eval_images: 1,
                defense: Defense::Uniform { magnitude: 1.5 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(noisy < clean, "noisy {noisy} vs clean {clean}");
    }
}
