//! Scenario from the paper's introduction: a patient (client) holds a
//! sensitive image; a hospital system (server) holds a proprietary
//! diagnostic model. C2PI runs the first layers under MPC, then the
//! server finishes alone — and we *verify* the privacy claim by letting
//! the curious server attack the revealed activation with DINA.
//!
//! ```text
//! cargo run --release --example private_medical_inference
//! ```

use c2pi_suite::attacks::dina::{Dina, DinaConfig};
use c2pi_suite::attacks::{Defense, Idpa};
use c2pi_suite::core::session::C2pi;
use c2pi_suite::data::metrics::ssim;
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::nn::model::{vgg16, ZooConfig};
use c2pi_suite::nn::train::{train_classifier, TrainConfig};
use c2pi_suite::nn::BoundaryId;
use c2pi_suite::pi::PiBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The hospital's training corpus (synthetic stand-in) and model.
    let corpus =
        SynthDataset::generate(&SynthConfig { classes: 4, per_class: 8, ..Default::default() })
            .into_dataset();
    let mut model = vgg16(&ZooConfig { width_div: 32, num_classes: 4, ..Default::default() })?;
    println!("hospital trains its VGG16 diagnostic model...");
    train_classifier(
        model.seq_mut(),
        corpus.images(),
        corpus.labels(),
        &TrainConfig { epochs: 10, batch_size: 8, lr: 0.02, momentum: 0.9, seed: 1 },
    )?;

    // The patient's private scan (held only by the client).
    let patient_scan = corpus.images()[5].clone();

    // C2PI inference with the boundary at conv 6 and λ = 0.1 noise. The
    // hospital preprocesses before the patient arrives, so the scan only
    // pays the online phase.
    let boundary = BoundaryId::relu(6);
    let mut session = C2pi::builder(model.clone())
        .split_at(boundary)
        .defense(Defense::Uniform { magnitude: 0.1 })
        .noise_seed(9)
        .backend(PiBackend::Cheetah)
        .build()?;
    session.preprocess(1)?;
    let result = session.infer(&patient_scan)?;
    println!(
        "diagnosis class: {} ({:.2} MB of crypto traffic)",
        result.prediction,
        result.report.comm_mb()
    );

    // Now play the curious server: train DINA on the hospital's own data
    // and attack the activation that was actually revealed.
    println!("\ncurious server trains DINA against the boundary and attacks...");
    let mut dina = Dina::new(DinaConfig { epochs: 20, ..Default::default() });
    dina.prepare(&mut model, boundary, &corpus, Defense::Uniform { magnitude: 0.1 })?;
    let revealed = result.revealed_activation.expect("c2pi reveals the boundary");
    let reconstruction = dina.recover(&mut model, boundary, &revealed)?;
    let similarity = ssim(&patient_scan, &reconstruction)?;
    println!("DINA reconstruction SSIM vs the real scan: {similarity:.3}");
    if similarity < 0.3 {
        println!("below the 0.3 identification threshold — the scan stays private.");
    } else {
        println!("above threshold — this boundary is too early; push it deeper.");
    }
    Ok(())
}
