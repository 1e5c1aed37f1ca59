//! Compares all four IDPAs (MLA, INA, EINA, DINA) at a single boundary:
//! who reconstructs the client's input best? DINA should lead,
//! replicating the ordering of the paper's Figure 4.
//!
//! ```text
//! cargo run --release --example attack_comparison
//! ```

use c2pi_suite::attacks::dina::{Dina, DinaConfig};
use c2pi_suite::attacks::eval::{avg_ssim_at, EvalConfig};
use c2pi_suite::attacks::inversion::{InaArch, InaConfig, InversionAttack};
use c2pi_suite::attacks::mla::{Mla, MlaConfig};
use c2pi_suite::attacks::{Defense, Idpa};
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::nn::model::{vgg16, ZooConfig};
use c2pi_suite::nn::BoundaryId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data =
        SynthDataset::generate(&SynthConfig { classes: 4, per_class: 6, ..Default::default() })
            .into_dataset();
    let (train, eval) = data.split(0.7, 3)?;
    let mut model = vgg16(&ZooConfig { width_div: 32, num_classes: 4, ..Default::default() })?;

    let boundary = BoundaryId::relu(4);
    let cfg = EvalConfig {
        defense: Defense::Uniform { magnitude: 0.1 },
        eval_images: 3,
        ..Default::default()
    };
    let epochs = 20;

    let mut attacks: Vec<Box<dyn Idpa>> = vec![
        Box::new(Mla::new(MlaConfig { iterations: 150, ..Default::default() })),
        Box::new(InversionAttack::new(InaConfig {
            arch: InaArch::Plain,
            epochs,
            ..Default::default()
        })),
        Box::new(InversionAttack::new(InaConfig {
            arch: InaArch::Residual,
            epochs,
            ..Default::default()
        })),
        Box::new(Dina::new(DinaConfig { epochs, ..Default::default() })),
    ];

    println!("attacking VGG16 at layer {boundary} (noise 0.1):\n");
    println!("attack | avg SSIM over {} images", cfg.eval_images);
    println!("-------+-------------------------");
    for attack in attacks.iter_mut() {
        attack.prepare(&mut model, boundary, &train, cfg.defense)?;
        let s = avg_ssim_at(attack.as_mut(), &mut model, boundary, &eval, &cfg)?;
        println!("{:>6} | {s:.3}", attack.name());
    }
    println!("\n(the paper's ordering at full scale: DINA > EINA > MLA/INA)");
    Ok(())
}
