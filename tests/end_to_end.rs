//! Integration tests spanning the whole workspace: data → training →
//! boundary → crypto-clear inference, checked against plaintext, through
//! the session-based serving API.

use c2pi_suite::core::session::{plain_prediction, C2pi};
use c2pi_suite::core::Split;
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::nn::model::{alexnet, by_name, ZooConfig};
use c2pi_suite::nn::train::{evaluate_accuracy, train_classifier, TrainConfig};
use c2pi_suite::nn::BoundaryId;
use c2pi_suite::pi::engine::PiBackend;
use c2pi_suite::transport::NetModel;
use c2pi_tensor::Tensor;

fn tiny_model() -> c2pi_suite::nn::Model {
    alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, num_classes: 10 }).unwrap()
}

#[test]
fn c2pi_agrees_with_plaintext_on_several_images_both_backends() {
    for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
        let model = tiny_model();
        let mut session = C2pi::builder(model.clone())
            .split_at(BoundaryId::relu(3))
            .noise(0.0)
            .backend(backend)
            .build()
            .unwrap();
        session.preprocess(3).unwrap();
        for seed in 0..3u64 {
            let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, seed);
            let expected = plain_prediction(&model, &x).unwrap();
            let got = session.infer(&x).unwrap();
            assert_eq!(got.prediction, expected, "backend {backend:?} seed {seed}");
            // All three ran online against the preprocessed pool.
            assert_eq!(got.report.preprocessing.generated_inline, 0);
        }
        assert_eq!(session.ledger().consumed, 3);
    }
}

#[test]
fn trained_model_keeps_accuracy_through_c2pi_batch() {
    // Train a small classifier, then check that the crypto-clear
    // execution preserves its predictions on the training set, served
    // as one preprocessed batch.
    let data = SynthDataset::generate(&SynthConfig {
        classes: 3,
        per_class: 4,
        image_size: 16,
        seed: 5,
        pixel_noise: 0.02,
    })
    .into_dataset();
    let mut model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, num_classes: 3 }).unwrap();
    train_classifier(
        model.seq_mut(),
        data.images(),
        data.labels(),
        &TrainConfig { epochs: 15, batch_size: 4, lr: 0.02, momentum: 0.9, seed: 1 },
    )
    .unwrap();
    let acc = evaluate_accuracy(model.seq_mut(), data.images(), data.labels()).unwrap();
    assert!(acc > 0.5, "training failed: {acc}");
    let mut session = C2pi::builder(model.clone())
        .split_at(BoundaryId::relu(4))
        .noise(0.0)
        .backend(PiBackend::Cheetah)
        .build()
        .unwrap();
    let batch: Vec<Tensor> = data.images().iter().take(6).cloned().collect();
    session.preprocess(batch.len()).unwrap();
    let results = session.infer_batch(&batch).unwrap();
    let mut agreement = 0usize;
    for (x, res) in batch.iter().zip(&results) {
        if plain_prediction(&model, x).unwrap() == res.prediction {
            agreement += 1;
        }
    }
    assert_eq!(agreement, 6, "crypto-clear execution changed predictions");
    let ledger = session.ledger();
    assert_eq!(ledger.consumed, 6);
    assert_eq!(ledger.generated_inline, 0, "batch should run on pooled material");
}

#[test]
fn full_pi_costs_more_than_every_c2pi_boundary() {
    let model = tiny_model();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 9);
    let mut full = C2pi::builder(model.clone()).full_pi().noise(0.1).build().unwrap();
    let full_cost = full.infer(&x).unwrap().report.comm_mb();
    let mut last = 0.0f64;
    for conv in [1usize, 3, 5] {
        let mut session = C2pi::builder(model.clone())
            .split_at(BoundaryId::relu(conv))
            .noise(0.1)
            .build()
            .unwrap();
        let cost = session.infer(&x).unwrap().report.comm_mb();
        assert!(cost < full_cost, "boundary {conv}: {cost} !< {full_cost}");
        assert!(cost > last, "cost should grow with boundary depth");
        last = cost;
    }
}

#[test]
fn delphi_is_heavier_than_cheetah_end_to_end() {
    // The Table II asymmetry must survive the full pipeline: Delphi
    // moves an order of magnitude more bytes (garbled tables, HE
    // ciphertexts), which dominates wherever bandwidth or compute is
    // the constraint (total comm, LAN latency). On WAN the picture
    // legitimately inverts since the offline-garbling refactor:
    // Delphi's online phase is one round trip per non-linear layer,
    // while Cheetah's comparison tree pays hundreds of RTTs — so we pin
    // the flight asymmetry rather than the WAN wall clock.
    let model = tiny_model();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 10);
    let boundary = BoundaryId::relu(3);
    let run = |backend| {
        let mut session = C2pi::builder(model.clone())
            .split_at(boundary)
            .noise(0.1)
            .backend(backend)
            .build()
            .unwrap();
        let r = session.infer(&x).unwrap().report;
        (r.comm_mb(), r.latency_seconds(&NetModel::lan()), r.online.flights)
    };
    let (delphi_mb, delphi_lan, delphi_flights) = run(PiBackend::Delphi);
    let (cheetah_mb, cheetah_lan, cheetah_flights) = run(PiBackend::Cheetah);
    assert!(delphi_mb > 2.0 * cheetah_mb, "comm: {delphi_mb} vs {cheetah_mb}");
    assert!(delphi_lan > cheetah_lan, "lan: {delphi_lan} vs {cheetah_lan}");
    assert!(delphi_flights * 5 < cheetah_flights, "flights: {delphi_flights} vs {cheetah_flights}");
}

#[test]
fn all_zoo_models_run_under_c2pi() {
    for name in ["alexnet", "vgg16", "vgg19"] {
        let model =
            by_name(name, &ZooConfig { width_div: 32, seed: 3, image_size: 32, num_classes: 10 })
                .unwrap();
        let x = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, 12);
        let expected = plain_prediction(&model, &x).unwrap();
        let mut session = C2pi::builder(model)
            .split_at(BoundaryId::relu(2))
            .noise(0.0)
            .backend(PiBackend::Cheetah)
            .build()
            .unwrap();
        let res = session.infer(&x).unwrap();
        assert_eq!(res.prediction, expected, "model {name}");
        assert!(matches!(session.split(), Split::At(_)));
    }
}

#[test]
fn noise_changes_logits_but_modestly_at_small_lambda() {
    let model = tiny_model();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 13);
    let boundary = BoundaryId::relu(5);
    let run = |noise: f32| {
        let mut session =
            C2pi::builder(model.clone()).split_at(boundary).noise(noise).build().unwrap();
        session.infer(&x).unwrap().logits
    };
    let clean = run(0.0);
    let small = run(0.1);
    let big = run(5.0);
    let dist = |a: &Tensor, b: &Tensor| a.sub(b).unwrap().sq_norm();
    assert!(dist(&clean, &small) < dist(&clean, &big));
}

#[test]
fn preprocessing_moves_dealer_cost_off_the_online_path() {
    // The ledger distinguishes true online latency from lazily generated
    // material: a preprocessed inference reports zero inline generation,
    // a cold one reports it.
    let model = tiny_model();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 14);
    let mut warm =
        C2pi::builder(model.clone()).split_at(BoundaryId::relu(3)).noise(0.1).build().unwrap();
    warm.preprocess(1).unwrap();
    let warm_res = warm.infer(&x).unwrap();
    assert_eq!(warm_res.report.preprocessing.generated_inline, 0);
    assert!(warm_res.report.preprocessing.generation_seconds > 0.0);
    let mut cold = C2pi::builder(model).split_at(BoundaryId::relu(3)).noise(0.1).build().unwrap();
    let cold_res = cold.infer(&x).unwrap();
    assert_eq!(cold_res.report.preprocessing.generated_inline, 1);
    assert_eq!(cold_res.report.preprocessing.generated_offline, 0);
}
