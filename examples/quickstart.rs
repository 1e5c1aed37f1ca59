//! Quickstart: train a small model on the synthetic CIFAR substitute,
//! compile a C2PI serving session with the builder API, preprocess
//! offline, and serve a batch online — comparing cost and correctness
//! against full PI.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use c2pi_suite::core::session::{plain_prediction, C2pi};
use c2pi_suite::core::Defense;
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::nn::model::{alexnet, ZooConfig};
use c2pi_suite::nn::train::{evaluate_accuracy, train_classifier, TrainConfig};
use c2pi_suite::nn::BoundaryId;
use c2pi_suite::pi::PiBackend;
use c2pi_suite::transport::NetModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: a synthetic, class-structured CIFAR-10 stand-in.
    let data =
        SynthDataset::generate(&SynthConfig { classes: 4, per_class: 8, ..Default::default() })
            .into_dataset();

    // 2. Model: a width-reduced AlexNet variant, trained briefly.
    let mut model = alexnet(&ZooConfig { width_div: 32, ..Default::default() })?;
    println!("training a {}-conv AlexNet variant...", model.num_convs());
    train_classifier(
        model.seq_mut(),
        data.images(),
        data.labels(),
        &TrainConfig { epochs: 15, batch_size: 8, lr: 0.02, momentum: 0.9, seed: 1 },
    )?;
    let acc = evaluate_accuracy(model.seq_mut(), data.images(), data.labels())?;
    println!("train accuracy: {:.0}%\n", acc * 100.0);

    // 3. Compile a C2PI serving session: crypto layers up to conv 3's
    //    ReLU run under the Cheetah-style engine, then the client
    //    reveals a noised share and the server finishes alone.
    let mut session = C2pi::builder(model.clone())
        .split_at(BoundaryId::relu(3))
        .defense(Defense::Uniform { magnitude: 0.1 })
        .noise_seed(2)
        .backend(PiBackend::Cheetah)
        .build()?;
    println!(
        "session: {} crypto layers / {} clear layers, backend {}",
        session.crypto_layer_count(),
        session.clear_layer_count(),
        session.backend_name()
    );

    // 4. Offline phase (input-independent): correlated randomness for a
    //    batch of four future inferences, generated before traffic
    //    arrives.
    let batch: Vec<_> = data.images().iter().take(4).cloned().collect();
    session.preprocess(batch.len())?;
    println!("preprocessed material for {} inferences", session.ledger().available);

    // 5. Online phase: serve the batch. Every report carries the
    //    consumed-vs-generated ledger, so we can verify no dealer work
    //    ran on the critical path.
    let results = session.infer_batch(&batch)?;
    for (x, res) in batch.iter().zip(&results) {
        let expected = plain_prediction(&model, x)?;
        println!(
            "C2PI  prediction: {} (plaintext: {expected}) — online {:.1} ms, {:.2} MB",
            res.prediction,
            res.report.online_seconds * 1e3,
            res.report.comm_mb()
        );
    }
    let ledger = session.ledger();
    println!(
        "ledger: {} offline / {} inline generated, {} consumed\n",
        ledger.generated_offline, ledger.generated_inline, ledger.consumed
    );

    // 6. The full-PI baseline for comparison.
    let mut full = C2pi::builder(model).full_pi().backend(PiBackend::Cheetah).build()?;
    full.preprocess(1)?;
    let full_res = full.infer(&batch[0])?;
    let res = &results[0];
    println!(
        "C2PI  cost: {:.2} MB, LAN {:.3} s, WAN {:.3} s",
        res.report.comm_mb(),
        res.report.latency_seconds(&NetModel::lan()),
        res.report.latency_seconds(&NetModel::wan())
    );
    println!(
        "full  cost: {:.2} MB, LAN {:.3} s, WAN {:.3} s",
        full_res.report.comm_mb(),
        full_res.report.latency_seconds(&NetModel::lan()),
        full_res.report.latency_seconds(&NetModel::wan())
    );
    println!(
        "\nC2PI saves {:.1}x communication on this model/boundary.",
        full_res.report.comm_mb() / res.report.comm_mb()
    );
    Ok(())
}
