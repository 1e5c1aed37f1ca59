//! Integration tests of the privacy story: attacks degrade with depth
//! and noise, and the revealed C2PI activation resists reconstruction at
//! deep boundaries.

use c2pi_suite::attacks::dina::{Dina, DinaConfig};
use c2pi_suite::attacks::eval::{avg_ssim_at, EvalConfig};
use c2pi_suite::attacks::inversion::{InaConfig, InversionAttack};
use c2pi_suite::attacks::mla::{Mla, MlaConfig};
use c2pi_suite::attacks::{Defense, Idpa};
use c2pi_suite::core::session::C2pi;
use c2pi_suite::data::metrics::ssim;
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::data::Dataset;
use c2pi_suite::nn::model::{alexnet, ZooConfig};
use c2pi_suite::nn::{BoundaryId, Model};
use c2pi_suite::pi::PiBackend;

fn setup() -> (Model, Dataset) {
    let model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 32, num_classes: 4 }).unwrap();
    let data = SynthDataset::generate(&SynthConfig {
        classes: 4,
        per_class: 4,
        image_size: 32,
        seed: 21,
        pixel_noise: 0.02,
    })
    .into_dataset();
    (model, data)
}

#[test]
fn mla_ssim_decreases_with_depth() {
    let (mut model, data) = setup();
    let cfg = EvalConfig { defense: Defense::None, eval_images: 2, ..Default::default() };
    let mut mla = Mla::new(MlaConfig { iterations: 120, lr: 0.08, seed: 1 });
    let shallow = avg_ssim_at(&mut mla, &mut model, BoundaryId::relu(1), &data, &cfg).unwrap();
    let deep = avg_ssim_at(&mut mla, &mut model, BoundaryId::relu(6), &data, &cfg).unwrap();
    assert!(shallow > deep, "shallow {shallow} vs deep {deep}");
}

#[test]
fn trained_inversion_attack_beats_mla_at_mid_depth() {
    // The paper's motivation for moving beyond MLA: learned decoders
    // reconstruct better at layers where gradient descent stalls.
    let (mut model, data) = setup();
    let (train, eval) = data.split(0.75, 2).unwrap();
    let id = BoundaryId::relu(3);
    let cfg = EvalConfig { defense: Defense::None, eval_images: 2, ..Default::default() };
    let mut mla = Mla::new(MlaConfig { iterations: 100, lr: 0.08, seed: 3 });
    let mla_ssim = avg_ssim_at(&mut mla, &mut model, id, &eval, &cfg).unwrap();
    let mut eina = InversionAttack::new(InaConfig { epochs: 40, ..Default::default() });
    eina.prepare(&mut model, id, &train, Defense::None).unwrap();
    let eina_ssim = avg_ssim_at(&mut eina, &mut model, id, &eval, &cfg).unwrap();
    // At this miniature scale we only require EINA to be competitive.
    assert!(eina_ssim > mla_ssim - 0.1, "eina {eina_ssim} should not be far below mla {mla_ssim}");
}

#[test]
fn dina_against_real_c2pi_reveal_is_weak_at_deep_boundary() {
    let (mut model, data) = setup();
    let boundary = BoundaryId::relu(6);
    // Curious server trains DINA on its own data, anticipating λ=0.1.
    let mut dina = Dina::new(DinaConfig { epochs: 15, ..Default::default() });
    dina.prepare(&mut model, boundary, &data, Defense::Uniform { magnitude: 0.1 }).unwrap();
    // Honest client runs the real pipeline.
    let secret = data.images()[1].clone();
    let mut session = C2pi::builder(model.clone())
        .split_at(boundary)
        .defense(Defense::Uniform { magnitude: 0.1 })
        .noise_seed(77)
        .backend(PiBackend::Cheetah)
        .build()
        .unwrap();
    let result = session.infer(&secret).unwrap();
    let revealed = result.revealed_activation.unwrap();
    let rec = dina.recover(&mut model, boundary, &revealed).unwrap();
    let s = ssim(&secret, &rec).unwrap();
    assert!(s < 0.5, "deep-boundary reconstruction should be poor, got {s}");
}

#[test]
fn defense_noise_lowers_attack_ssim() {
    // Attacker trains its decoder on clean activations; the defender's
    // evaluation-time noise must degrade the reconstruction.
    let (mut model, data) = setup();
    let (train, eval) = data.split(0.75, 5).unwrap();
    let id = BoundaryId::relu(2);
    let mut dina = Dina::new(DinaConfig { epochs: 15, ..Default::default() });
    dina.prepare(&mut model, id, &train, Defense::None).unwrap();
    let score = |magnitude: f32, model: &mut Model, dina: &mut Dina| {
        let defense = Defense::Uniform { magnitude };
        let cfg = EvalConfig { defense, eval_images: 2, ..Default::default() };
        avg_ssim_at(dina, model, id, &eval, &cfg).unwrap()
    };
    let clean = score(0.0, &mut model, &mut dina);
    let heavy = score(3.0, &mut model, &mut dina);
    assert!(heavy < clean, "noise should hurt: {heavy} !< {clean}");
}
