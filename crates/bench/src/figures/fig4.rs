//! Figure 4 — IDPA comparison: MLA vs EINA vs DINA average SSIM per conv
//! layer of VGG-16 on both datasets. DINA should dominate, yielding the
//! most conservative boundary.

use crate::setup::{dataset, trained_model, DatasetKind};
use crate::Scale;
use c2pi_attacks::dina::{Dina, DinaConfig};
use c2pi_attacks::eval::{first_failing_conv, sweep_conv_layers, EvalConfig, SweepPoint};
use c2pi_attacks::inversion::{InaConfig, InversionAttack};
use c2pi_attacks::mla::{Mla, MlaConfig};
use c2pi_attacks::{Defense, Idpa};
use c2pi_data::Dataset;
use c2pi_nn::Model;

/// One attack's sweep over all conv ids.
#[derive(Debug, Clone)]
pub struct Series {
    /// Attack name.
    pub attack: &'static str,
    /// Per-conv-id average SSIM.
    pub points: Vec<SweepPoint>,
    /// Phase-1 boundary candidate implied by the sweep.
    pub potential_boundary: Option<usize>,
}

/// The figure for one dataset.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset label.
    pub dataset: &'static str,
    /// One series per attack.
    pub series: Vec<Series>,
}

fn make_attacks(scale: &Scale) -> Vec<Box<dyn Idpa>> {
    vec![
        Box::new(Mla::new(MlaConfig { iterations: scale.mla_iterations, lr: 0.05, seed: 80 })),
        Box::new(InversionAttack::new(InaConfig {
            epochs: scale.inversion_epochs,
            ..Default::default()
        })),
        Box::new(Dina::new(DinaConfig { epochs: scale.inversion_epochs, ..Default::default() })),
    ]
}

fn sweep_model(model: &mut Model, data: &Dataset, scale: &Scale) -> Vec<Series> {
    let (train, eval) = data.split(0.75, 99).expect("splittable dataset");
    let cfg = EvalConfig {
        defense: Defense::Uniform { magnitude: 0.1 },
        ssim_threshold: 0.3,
        eval_images: scale.eval_images,
        seed: 81,
    };
    make_attacks(scale)
        .into_iter()
        .map(|mut attack| {
            let points =
                sweep_conv_layers(attack.as_mut(), model, &train, &eval, &cfg).expect("sweep runs");
            let potential_boundary = first_failing_conv(&points);
            let name = attack.name();
            Series { attack: name, points, potential_boundary }
        })
        .collect()
}

/// Runs the comparison on both datasets.
pub fn run(scale: &Scale) -> Vec<Panel> {
    [DatasetKind::Cifar10, DatasetKind::Cifar100]
        .into_iter()
        .map(|kind| {
            let data = dataset(kind, scale);
            let mut model = trained_model("vgg16", kind, scale, &data);
            Panel { dataset: kind.label(), series: sweep_model(&mut model, &data, scale) }
        })
        .collect()
}

/// Prints both panels.
pub fn print(panels: &[Panel]) {
    for panel in panels {
        println!("--- VGG16, {} ---", panel.dataset);
        print!("conv id |");
        for s in &panel.series {
            print!(" {:>6} |", s.attack);
        }
        println!();
        let n = panel.series[0].points.len();
        for i in 0..n {
            print!("{:>7} |", panel.series[0].points[i].conv_id);
            for s in &panel.series {
                print!(" {:>6.3} |", s.points[i].avg_ssim);
            }
            println!();
        }
        for s in &panel.series {
            match s.potential_boundary {
                Some(b) => println!(
                    "{}: potential boundary at conv {} (first failure scanning from tail)",
                    s.attack, b
                ),
                None => println!("{}: never fails — boundary degenerates to the tail", s.attack),
            }
        }
        println!();
    }
}
