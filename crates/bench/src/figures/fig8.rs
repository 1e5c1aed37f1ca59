//! Figure 8 — the full boundary search with DINA across AlexNet /
//! VGG-16 / VGG-19 on both datasets: per-layer average SSIM (step 1)
//! plus the noised-accuracy check that finalises the boundary (step 2).

use crate::setup::{dataset, trained_model, DatasetKind};
use crate::Scale;
use c2pi_attacks::dina::{Dina, DinaConfig};
use c2pi_attacks::eval::{first_failing_conv, sweep_conv_layers, EvalConfig, SweepPoint};
use c2pi_core::defense::{baseline_accuracy, defended_accuracy, Defense};
use c2pi_nn::BoundaryId;

/// The full search record for one (model, dataset) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Model name.
    pub model: &'static str,
    /// Dataset label.
    pub dataset: &'static str,
    /// DINA average SSIM per conv id.
    pub sweep: Vec<SweepPoint>,
    /// Noised accuracy at each conv id checked in phase 2.
    pub accuracy_checks: Vec<(usize, f32)>,
    /// Baseline accuracy.
    pub baseline: f32,
    /// Final boundary conv id.
    pub boundary: usize,
}

/// Runs the search for every model × dataset pair with σ = 0.3,
/// λ = 0.1, δ = 2.5% (the paper's Figure 8 parameters).
pub fn run(scale: &Scale) -> Vec<Cell> {
    run_with(scale, 0.3)
}

/// Runs the search with a custom SSIM threshold (Table I uses 0.2 too).
pub fn run_with(scale: &Scale, sigma: f32) -> Vec<Cell> {
    // Optional subset for long runs: C2PI_MODELS="alexnet,vgg16".
    let model_filter = std::env::var("C2PI_MODELS").unwrap_or_default();
    let wanted: Vec<&str> = if model_filter.is_empty() {
        vec!["alexnet", "vgg16", "vgg19"]
    } else {
        model_filter.split(',').map(|s| s.trim()).collect::<Vec<_>>()
    };
    let mut cells = Vec::new();
    for kind in [DatasetKind::Cifar10, DatasetKind::Cifar100] {
        let data = dataset(kind, scale);
        for model_name in ["alexnet", "vgg16", "vgg19"] {
            if !wanted.contains(&model_name) {
                continue;
            }
            let mut model = trained_model(model_name, kind, scale, &data);
            let (train, eval) = data.split(0.75, 99).expect("splittable dataset");
            let cfg = EvalConfig {
                defense: Defense::Uniform { magnitude: 0.1 },
                ssim_threshold: sigma,
                eval_images: scale.eval_images,
                seed: 85,
            };
            let mut dina =
                Dina::new(DinaConfig { epochs: scale.inversion_epochs, ..Default::default() });
            let sweep =
                sweep_conv_layers(&mut dina, &mut model, &train, &eval, &cfg).expect("sweep runs");
            // Phase 1: deepest prefix where DINA still succeeds.
            let candidate = first_failing_conv(&sweep).unwrap_or(model.num_convs());
            // Phase 2: push later until the accuracy drop is acceptable.
            let baseline = baseline_accuracy(&mut model, &eval).expect("accuracy");
            let target = baseline - 0.025;
            let mut boundary = candidate;
            let mut accuracy_checks = Vec::new();
            loop {
                let acc = defended_accuracy(
                    &mut model,
                    BoundaryId::relu(boundary),
                    Defense::Uniform { magnitude: 0.1 },
                    &eval,
                    86,
                )
                .expect("accuracy");
                accuracy_checks.push((boundary, acc));
                if acc >= target || boundary >= model.num_convs() {
                    break;
                }
                boundary += 1;
            }
            cells.push(Cell {
                model: match model_name {
                    "alexnet" => "AlexNet",
                    "vgg16" => "VGG16",
                    _ => "VGG19",
                },
                dataset: kind.label(),
                sweep,
                accuracy_checks,
                baseline,
                boundary,
            });
        }
    }
    cells
}

/// Prints every cell.
pub fn print(cells: &[Cell]) {
    for cell in cells {
        println!(
            "--- {} on {} (boundary conv id: {}) ---",
            cell.model, cell.dataset, cell.boundary
        );
        println!("conv id | DINA avg SSIM | below σ");
        for p in &cell.sweep {
            println!(
                "{:>7} | {:>13.3} | {}",
                p.conv_id,
                p.avg_ssim,
                if p.failed { "yes" } else { "no" }
            );
        }
        println!("baseline accuracy: {:.1}%", cell.baseline * 100.0);
        for (conv, acc) in &cell.accuracy_checks {
            println!("  noised accuracy at conv {conv}: {:.1}%", acc * 100.0);
        }
        println!();
    }
}
