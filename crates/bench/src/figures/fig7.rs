//! Figure 7 — the accuracy cost of the noise defense: classification
//! accuracy when noise of magnitude λ is injected at each conv layer.

use crate::figures::fig6::LAMBDAS;
use crate::setup::{dataset, trained_model, DatasetKind};
use crate::Scale;
use c2pi_core::defense::{baseline_accuracy, defended_accuracy, Defense};
use c2pi_nn::BoundaryId;

/// One accuracy series at fixed λ.
#[derive(Debug, Clone)]
pub struct Series {
    /// Noise magnitude.
    pub lambda: f32,
    /// (conv id, accuracy) pairs.
    pub points: Vec<(usize, f32)>,
}

/// One panel per dataset.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset label.
    pub dataset: &'static str,
    /// Noise-free accuracy.
    pub baseline: f32,
    /// One series per λ.
    pub series: Vec<Series>,
}

/// Runs the accuracy sweep.
pub fn run(scale: &Scale) -> Vec<Panel> {
    [DatasetKind::Cifar10, DatasetKind::Cifar100]
        .into_iter()
        .map(|kind| {
            let data = dataset(kind, scale);
            let mut model = trained_model("vgg16", kind, scale, &data);
            let baseline = baseline_accuracy(&mut model, &data).expect("accuracy");
            let series = LAMBDAS
                .iter()
                .map(|&lambda| {
                    let points = (1..=model.num_convs())
                        .map(|conv| {
                            let acc = defended_accuracy(
                                &mut model,
                                BoundaryId::relu(conv),
                                Defense::Uniform { magnitude: lambda },
                                &data,
                                84,
                            )
                            .expect("accuracy");
                            (conv, acc)
                        })
                        .collect();
                    Series { lambda, points }
                })
                .collect();
            Panel { dataset: kind.label(), baseline, series }
        })
        .collect()
}

/// Prints both panels.
pub fn print(panels: &[Panel]) {
    for panel in panels {
        println!(
            "--- VGG16, {} (accuracy with noise at layer; baseline {:.1}%) ---",
            panel.dataset,
            panel.baseline * 100.0
        );
        print!("conv id |");
        for s in &panel.series {
            print!(" λ={:<4} |", s.lambda);
        }
        println!();
        let n = panel.series[0].points.len();
        for i in 0..n {
            print!("{:>7} |", panel.series[0].points[i].0);
            for s in &panel.series {
                print!(" {:>5.1}% |", s.points[i].1 * 100.0);
            }
            println!();
        }
        println!();
    }
}
