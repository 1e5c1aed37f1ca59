//! The deployment planner end to end: train a model, audit every
//! candidate boundary with an IDPA probe panel, price each allowed
//! boundary under both backends and the mem/LAN/WAN network models, and
//! print the ranked boundary/cost/privacy table — then prove the
//! top-ranked plan serves correctly by round-tripping it through
//! `C2pi::builder(...).plan(...)` and checking every smoke prediction
//! against the clear model.
//!
//! The output is deterministic for a fixed `--seed`: traffic is
//! measured from the real protocol transcript (which is
//! seed-determined) and compute is priced by constant calibration
//! coefficients. `--calibrate` swaps in coefficients measured on this
//! machine (accurate, but no longer reproducible).
//!
//! ```text
//! cargo run --release --example plan_report -- --seed 47
//! cargo run --release --example plan_report -- --probes mla:60,dina:6 --calibrate
//! ```

use c2pi_suite::attacks::probe::ProbeSpec;
use c2pi_suite::core::planner::{DeploymentPlanner, PlannerConfig};
use c2pi_suite::core::session::{plain_prediction, C2pi};
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::nn::model::{alexnet, ZooConfig};
use c2pi_suite::nn::train::{train_classifier, TrainConfig};
use c2pi_suite::pi::calibrate::Calibrator;
use c2pi_suite::pi::PiBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut seed = 47u64;
    let mut probes = "mla:40,dina:4".to_string();
    let mut calibrate = false;
    let mut emit_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().ok_or("--seed needs a value")?.parse()?,
            "--probes" => probes = args.next().ok_or("--probes needs a value")?,
            "--calibrate" => calibrate = true,
            "--json" => emit_json = true,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let probes = probes
        .split(',')
        .filter(|s| !s.is_empty())
        .map(ProbeSpec::parse)
        .collect::<Result<Vec<_>, _>>()?;

    // Deterministic experiment substrate: synthetic data, short
    // training run (everything below is a pure function of `seed` and
    // the fixed constants).
    let data = SynthDataset::generate(&SynthConfig {
        classes: 4,
        per_class: 6,
        image_size: 16,
        pixel_noise: 0.02,
        ..Default::default()
    })
    .into_dataset();
    let (train, eval) = data.split(0.7, 3)?;
    let mut model =
        alexnet(&ZooConfig { width_div: 32, num_classes: 4, image_size: 16, seed: 42 })?;
    eprintln!("training the target model...");
    train_classifier(
        model.seq_mut(),
        train.images(),
        train.labels(),
        &TrainConfig { epochs: 20, batch_size: 8, lr: 0.005, momentum: 0.9, seed: 7 },
    )?;

    let costs = if calibrate {
        eprintln!("calibrating per-operation online timings on this machine...");
        let cal = Calibrator::default();
        vec![
            (PiBackend::Cheetah, cal.measure(PiBackend::Cheetah)?),
            (PiBackend::Delphi, cal.measure(PiBackend::Delphi)?),
        ]
    } else {
        Vec::new()
    };
    let cfg = PlannerConfig { probes, eval_images: 3, seed, costs, ..Default::default() };
    eprintln!("planning (probe panel + accuracy gate + cost sweep)...");
    let plan = DeploymentPlanner::new(&mut model, &train, &eval, cfg).plan()?;

    print!("{}", plan.render_table());
    if emit_json {
        println!("\n{}", plan.to_json());
    }

    // Round trip: the top-ranked plan must serve predictions
    // bit-identical to the clear model on the smoke inputs. The smoke
    // set is confidently-classified training images and the whole
    // pipeline is a pure function of `seed`, so this either always
    // passes or always fails for a given tree — a flipped prediction
    // means the planned deployment really changed behaviour, exactly
    // what the smoke should catch.
    let best = plan.best().ok_or("no allowed deployment")?;
    if !best.gates_passed {
        return Err(format!(
            "no boundary passed the privacy/accuracy gates; the least-bad fallback is {} @ {} \
             (worst probe SSIM {:.3}) — not deploying it",
            best.backend.name(),
            best.boundary,
            best.worst_ssim
        )
        .into());
    }
    let mut session = C2pi::builder(model.clone()).plan(best).build()?;
    let smoke: Vec<_> = train.images().iter().take(4).cloned().collect();
    session.preprocess(smoke.len())?;
    let mut ok = 0;
    for x in &smoke {
        let clear = plain_prediction(&model, x)?;
        let private = session.infer(x)?.prediction;
        if clear == private {
            ok += 1;
        } else {
            eprintln!("round-trip mismatch: clear {clear} vs planned deployment {private}");
        }
    }
    println!(
        "\nround-trip: {}/{} smoke predictions bit-identical to the clear model ({} @ {} over {})",
        ok,
        smoke.len(),
        best.backend.name(),
        best.boundary,
        best.net,
    );
    let server = plan.reactor_config(4);
    println!(
        "suggested reactor config: {} workers, per-shard pool watermarks {}..{}, \
         retry after {:.1} ms, unbatched",
        server.workers,
        server.pool_low,
        server.pool_high,
        server.retry_after.as_secs_f64() * 1e3,
    );
    if ok != smoke.len() {
        return Err("round-trip predictions diverged from the clear model".into());
    }
    Ok(())
}
