//! Boundary defenses in the C2PI pipeline: the [`Defense`] enum itself
//! lives in `c2pi-attacks` (the attacks train against it); this module
//! adds the seed stream the serving session, the accuracy gate and the
//! planner's audits share, and the accuracy side of the
//! privacy/accuracy trade-off — the quantity the paper plots in
//! Figure 7 and thresholds in Algorithm 1 (line 8).

use crate::Result;
use c2pi_data::Dataset;
use c2pi_nn::{BoundaryId, Model};

pub use c2pi_attacks::defense::Defense;

/// The seed derivation serving, the accuracy gate and the planner
/// share: the seed for item `index` (an evaluation image, or a served
/// inference) under a master seed. [`defended_accuracy`], the deployment planner's
/// privacy audits and the serving session's per-inference noise all
/// draw from this stream, so "same master seed" means "same noise"
/// across them. The attack evaluation harness (`c2pi_attacks::eval`)
/// and the attacks' training sets derive their own seeds (DESIGN.md §5).
pub fn defense_seed(master: u64, index: usize) -> u64 {
    c2pi_mpc::prg::indexed_seed(master, b"c2pi/defense", index as u64)
}

/// Refuses a defense that draws no usable noise ([`Defense::is_valid`])
/// with [`C2piError::BadConfig`](crate::C2piError::BadConfig) naming
/// its label, which would otherwise head undefended results.
pub(crate) fn check_defense(defense: Defense) -> Result<()> {
    if defense.is_valid() {
        return Ok(());
    }
    Err(crate::C2piError::BadConfig(format!(
        "defense {} needs a finite, non-negative parameter",
        defense.label()
    )))
}

/// Accuracy when the defense is applied to the activation entering the
/// layer after `id`. Per-image seeds come from the shared
/// [`defense_seed`] stream.
///
/// # Errors
///
/// Returns an error on an invalid defense ([`Defense::is_valid`]), empty
/// datasets or unknown boundaries.
pub fn defended_accuracy(
    model: &mut Model,
    id: BoundaryId,
    defense: Defense,
    data: &Dataset,
    seed: u64,
) -> Result<f32> {
    check_defense(defense)?;
    if data.is_empty() {
        return Err(crate::C2piError::BadConfig("empty evaluation set".into()));
    }
    let mut correct = 0usize;
    for (i, (img, &label)) in data.images().iter().zip(data.labels()).enumerate() {
        let act = model.forward_to_cut(id, img)?;
        let defended = defense.apply(&act, defense_seed(seed, i));
        let logits = model.forward_from_cut(id, &defended)?;
        if logits.argmax().unwrap_or(0) == label {
            correct += 1;
        }
    }
    model.seq_mut().clear_cache();
    Ok(correct as f32 / data.len() as f32)
}

/// Baseline (undefended) accuracy of the model on a dataset.
///
/// # Errors
///
/// Returns an error on empty datasets or layer failures.
pub fn baseline_accuracy(model: &mut Model, data: &Dataset) -> Result<f32> {
    if data.is_empty() {
        return Err(crate::C2piError::BadConfig("empty evaluation set".into()));
    }
    let mut correct = 0usize;
    for (img, &label) in data.images().iter().zip(data.labels()) {
        let logits = model.forward(img)?;
        if logits.argmax().unwrap_or(0) == label {
            correct += 1;
        }
    }
    model.seq_mut().clear_cache();
    Ok(correct as f32 / data.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2pi_data::synth::{SynthConfig, SynthDataset};
    use c2pi_nn::model::{alexnet, ZooConfig};
    use c2pi_nn::train::{train_classifier, TrainConfig};

    fn trained_model_and_data() -> (Model, Dataset) {
        let mut model =
            alexnet(&ZooConfig { width_div: 32, seed: 3, ..Default::default() }).unwrap();
        let data = SynthDataset::generate(&SynthConfig {
            classes: 4,
            per_class: 6,
            pixel_noise: 0.02,
            ..Default::default()
        })
        .into_dataset();
        train_classifier(
            model.seq_mut(),
            data.images(),
            data.labels(),
            &TrainConfig { epochs: 40, batch_size: 8, lr: 0.005, momentum: 0.9, seed: 1 },
        )
        .unwrap();
        (model, data)
    }

    #[test]
    fn zero_noise_matches_baseline() {
        let (mut model, data) = trained_model_and_data();
        let base = baseline_accuracy(&mut model, &data).unwrap();
        let none = Defense::Uniform { magnitude: 0.0 };
        let noiseless = defended_accuracy(&mut model, BoundaryId::relu(3), none, &data, 7).unwrap();
        assert!((base - noiseless).abs() < 1e-6);
        assert!(base > 0.5, "training should fit the tiny set, acc {base}");
    }

    #[test]
    fn extreme_noise_destroys_accuracy() {
        let (mut model, data) = trained_model_and_data();
        let base = baseline_accuracy(&mut model, &data).unwrap();
        let extreme = Defense::Uniform { magnitude: 50.0 };
        let wrecked =
            defended_accuracy(&mut model, BoundaryId::relu(2), extreme, &data, 8).unwrap();
        assert!(wrecked < base, "noise {wrecked} vs base {base}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut model =
            alexnet(&ZooConfig { width_div: 32, seed: 3, ..Default::default() }).unwrap();
        let empty = Dataset::default();
        assert!(baseline_accuracy(&mut model, &empty).is_err());
        let uniform = Defense::Uniform { magnitude: 0.1 };
        assert!(defended_accuracy(&mut model, BoundaryId::relu(1), uniform, &empty, 0).is_err());
    }

    #[test]
    fn invalid_defense_is_rejected_by_the_accuracy_gate() {
        let mut model =
            alexnet(&ZooConfig { width_div: 32, seed: 3, ..Default::default() }).unwrap();
        let data =
            SynthDataset::generate(&SynthConfig { classes: 2, per_class: 1, ..Default::default() })
                .into_dataset();
        for defense in [Defense::Uniform { magnitude: -0.1 }, Defense::Gaussian { std: f32::NAN }] {
            let err = defended_accuracy(&mut model, BoundaryId::relu(1), defense, &data, 0);
            assert!(
                matches!(&err, Err(crate::C2piError::BadConfig(why)) if why.contains(&defense.label())),
                "{err:?}"
            );
        }
    }
}
