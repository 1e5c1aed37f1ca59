//! Figure 6 — noise as a defense: DINA average SSIM per conv layer
//! under defense noise λ ∈ {0, 0.1, …, 0.5}. Higher noise should push
//! the attack's SSIM down (and the usable boundary earlier).

use crate::setup::{dataset, trained_model, DatasetKind};
use crate::Scale;
use c2pi_attacks::dina::{Dina, DinaConfig};
use c2pi_attacks::eval::{avg_ssim_at, EvalConfig};
use c2pi_attacks::{Defense, Idpa};
use c2pi_nn::BoundaryId;

/// The λ grid of the paper.
pub const LAMBDAS: [f32; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// One sweep series at a fixed noise magnitude.
#[derive(Debug, Clone)]
pub struct Series {
    /// Defense noise λ.
    pub lambda: f32,
    /// (conv id, avg SSIM) pairs.
    pub points: Vec<(usize, f32)>,
}

/// One panel per dataset.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset label.
    pub dataset: &'static str,
    /// One series per λ.
    pub series: Vec<Series>,
}

/// Conv ids evaluated at this scale (all at paper scale, a stride-2
/// subset at quick scale — each point trains a fresh DINA).
pub fn conv_grid(scale: &Scale, num_convs: usize) -> Vec<usize> {
    let stride = if scale.width_div == 1 { 1 } else { 2 };
    (1..=num_convs).step_by(stride).collect()
}

/// Runs the noise-defense sweep.
pub fn run(scale: &Scale) -> Vec<Panel> {
    [DatasetKind::Cifar10, DatasetKind::Cifar100]
        .into_iter()
        .map(|kind| {
            let data = dataset(kind, scale);
            let mut model = trained_model("vgg16", kind, scale, &data);
            let (train, eval) = data.split(0.75, 99).expect("splittable dataset");
            let grid = conv_grid(scale, model.num_convs());
            let series = LAMBDAS
                .iter()
                .map(|&lambda| {
                    let mut points = Vec::new();
                    for &conv in &grid {
                        let id = BoundaryId::relu(conv);
                        let mut dina = Dina::new(DinaConfig {
                            epochs: scale.inversion_epochs,
                            ..Default::default()
                        });
                        let defense = Defense::Uniform { magnitude: lambda };
                        dina.prepare(&mut model, id, &train, defense).expect("prepare");
                        let cfg = EvalConfig {
                            defense,
                            ssim_threshold: 0.3,
                            eval_images: scale.eval_images,
                            seed: 83,
                        };
                        let s = avg_ssim_at(&mut dina, &mut model, id, &eval, &cfg).expect("eval");
                        points.push((conv, s));
                    }
                    Series { lambda, points }
                })
                .collect();
            Panel { dataset: kind.label(), series }
        })
        .collect()
}

/// Prints both panels.
pub fn print(panels: &[Panel]) {
    for panel in panels {
        println!("--- VGG16, {} (DINA avg SSIM under defense noise) ---", panel.dataset);
        print!("conv id |");
        for s in &panel.series {
            print!(" λ={:<4} |", s.lambda);
        }
        println!();
        let n = panel.series[0].points.len();
        for i in 0..n {
            print!("{:>7} |", panel.series[0].points[i].0);
            for s in &panel.series {
                print!(" {:>6.3} |", s.points[i].1);
            }
            println!();
        }
        // Shape check: mean SSIM should fall with λ.
        let means: Vec<f32> = panel
            .series
            .iter()
            .map(|s| s.points.iter().map(|p| p.1).sum::<f32>() / s.points.len() as f32)
            .collect();
        println!(
            "mean SSIM per λ: {:?}",
            means.iter().map(|m| (m * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        );
        println!();
    }
}
