//! Shared experiment setup: synthetic datasets and trained classifiers.

use crate::Scale;
use c2pi_data::synth::{SynthConfig, SynthDataset};
use c2pi_data::Dataset;
use c2pi_nn::model::{by_name, Model, ZooConfig};
use c2pi_nn::train::{train_classifier, TrainConfig};

/// Which CIFAR analogue an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// CIFAR-10 analogue (10 classes).
    Cifar10,
    /// CIFAR-100 analogue (100 classes at paper scale).
    Cifar100,
}

impl DatasetKind {
    /// Display name used in table/figure headers.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "CIFAR-10 (synthetic analogue)",
            DatasetKind::Cifar100 => "CIFAR-100 (synthetic analogue)",
        }
    }
}

/// Generates the synthetic dataset for a kind at the given scale.
pub fn dataset(kind: DatasetKind, scale: &Scale) -> Dataset {
    let classes = match kind {
        DatasetKind::Cifar10 => scale.classes10,
        DatasetKind::Cifar100 => scale.classes100,
    };
    SynthDataset::generate(&SynthConfig {
        classes,
        per_class: scale.per_class,
        image_size: 32,
        seed: match kind {
            DatasetKind::Cifar10 => 1010,
            DatasetKind::Cifar100 => 2020,
        },
        pixel_noise: 0.02,
    })
    .into_dataset()
}

/// Builds and trains a model on a dataset (the experiments' stand-in for
/// the paper's A100-trained checkpoints).
///
/// # Panics
///
/// Panics when the model name is unknown or training fails — these are
/// experiment-harness bugs, not runtime conditions.
pub fn trained_model(name: &str, _kind: DatasetKind, scale: &Scale, data: &Dataset) -> Model {
    let mut model = untrained_model(name, scale, data);
    train_classifier(
        model.seq_mut(),
        data.images(),
        data.labels(),
        &TrainConfig {
            epochs: scale.train_epochs,
            batch_size: 8,
            // Deep narrow VGGs need the gentler rate (see DESIGN.md);
            // 0.005 trains all three zoo models at quick scale.
            lr: 0.005,
            momentum: 0.9,
            seed: 7,
        },
    )
    .expect("training succeeds");
    model
}

/// The model [`trained_model`] starts from: the zoo architecture at the
/// scale's width for the dataset's classes, initialised and untrained.
/// Its protocol traffic is the trained model's, since no byte or flight
/// depends on a weight.
///
/// # Panics
///
/// Panics when the model name is unknown.
pub fn untrained_model(name: &str, scale: &Scale, data: &Dataset) -> Model {
    let cfg = ZooConfig {
        num_classes: data.num_classes(),
        image_size: 32,
        width_div: scale.width_div,
        seed: 42,
    };
    by_name(name, &cfg).expect("known model name")
}

/// Prints a figure/table banner with the run parameters.
pub fn banner(title: &str, scale: &Scale) {
    println!("=== {title} ===");
    println!(
        "scale: {} (width 1/{}, {} eval images, {} MLA iters)",
        scale.name, scale.width_div, scale.eval_images, scale.mla_iterations
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_expected_classes() {
        let s = Scale::quick();
        assert_eq!(dataset(DatasetKind::Cifar10, &s).num_classes(), 10);
        assert_eq!(dataset(DatasetKind::Cifar100, &s).num_classes(), 20);
    }

    #[test]
    fn trained_model_beats_chance() {
        // Reduced epochs: the debug-profile test only checks wiring, not
        // final accuracy.
        let s = Scale { train_epochs: 25, ..Scale::quick() };
        let data = dataset(DatasetKind::Cifar10, &s).take(24);
        let mut model = trained_model("alexnet", DatasetKind::Cifar10, &s, &data);
        let acc = c2pi_nn::train::evaluate_accuracy(model.seq_mut(), data.images(), data.labels())
            .unwrap();
        assert!(acc > 1.5 / 10.0, "accuracy {acc}");
    }
}
