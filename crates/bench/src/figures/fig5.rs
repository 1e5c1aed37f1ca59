//! Figure 5 — DINA loss-coefficient ablation: monotonically increasing
//! coefficients (DINA-c1) vs uniform coefficients (DINA-c2) on VGG-16.

use crate::setup::{dataset, trained_model, DatasetKind};
use crate::Scale;
use c2pi_attacks::dina::{CoefficientSchedule, Dina, DinaConfig};
use c2pi_attacks::eval::{sweep_conv_layers, EvalConfig};
use c2pi_attacks::Defense;

/// One comparison row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Conv id.
    pub conv_id: usize,
    /// Average SSIM with increasing coefficients.
    pub c1: f32,
    /// Average SSIM with uniform coefficients.
    pub c2: f32,
}

impl Row {
    /// The improvement DINA-c1 brings (the figure's secondary axis).
    pub fn improvement(&self) -> f32 {
        self.c1 - self.c2
    }
}

/// One panel per dataset.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset label.
    pub dataset: &'static str,
    /// Per-conv rows.
    pub rows: Vec<Row>,
}

/// Runs the ablation on both datasets.
pub fn run(scale: &Scale) -> Vec<Panel> {
    [DatasetKind::Cifar10, DatasetKind::Cifar100]
        .into_iter()
        .map(|kind| {
            let data = dataset(kind, scale);
            let mut model = trained_model("vgg16", kind, scale, &data);
            let (train, eval) = data.split(0.75, 99).expect("splittable dataset");
            let cfg = EvalConfig {
                defense: Defense::Uniform { magnitude: 0.1 },
                ssim_threshold: 0.3,
                eval_images: scale.eval_images,
                seed: 82,
            };
            let mut sweep = |schedule| {
                let mut dina = Dina::new(DinaConfig {
                    schedule,
                    epochs: scale.inversion_epochs,
                    ..Default::default()
                });
                sweep_conv_layers(&mut dina, &mut model, &train, &eval, &cfg).expect("sweep runs")
            };
            let s1 = sweep(CoefficientSchedule::IncreasingC1);
            let s2 = sweep(CoefficientSchedule::UniformC2);
            let rows = s1
                .iter()
                .zip(s2.iter())
                .map(|(a, b)| Row { conv_id: a.conv_id, c1: a.avg_ssim, c2: b.avg_ssim })
                .collect();
            Panel { dataset: kind.label(), rows }
        })
        .collect()
}

/// Prints both panels.
pub fn print(panels: &[Panel]) {
    for panel in panels {
        println!("--- VGG16, {} ---", panel.dataset);
        println!("conv id | DINA-c1 | DINA-c2 | improvement");
        println!("--------+---------+---------+------------");
        let mut mean_impr = 0.0f32;
        for r in &panel.rows {
            println!(
                "{:>7} | {:>7.3} | {:>7.3} | {:>+10.3}",
                r.conv_id,
                r.c1,
                r.c2,
                r.improvement()
            );
            mean_impr += r.improvement();
        }
        mean_impr /= panel.rows.len().max(1) as f32;
        println!("mean improvement of increasing coefficients: {mean_impr:+.3}");
        println!();
    }
}
