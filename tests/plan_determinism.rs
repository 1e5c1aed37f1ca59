//! Determinism contract of the deployment planner: the same seed must
//! produce byte-identical plans — across repeated runs, against the
//! committed golden file, and across transports (the cost sweep
//! measures the protocol transcript, which is transport-independent).
//!
//! `ci/smoke.sh` additionally runs the full `plan_report` example twice
//! at release speed and diffs the stdout, so the end-user command line
//! is covered too. This test pins the same code path at a budget that
//! fits `cargo test`'s debug profile.
//!
//! Two goldens are pinned: the default uniform defense
//! (`plan_table.txt`) and, on the same trained model, a Gaussian one
//! (`plan_table_gaussian.txt`), so a change to planning under either
//! noise shows. To regenerate them after an intentional planner change:
//! `GOLDEN_UPDATE=1 cargo test --test plan_determinism`.

use c2pi_suite::attacks::probe::ProbeSpec;
use c2pi_suite::core::planner::{DeploymentPlan, DeploymentPlanner, PlannerConfig};
use c2pi_suite::core::Defense;
use c2pi_suite::data::synth::{SynthConfig, SynthDataset};
use c2pi_suite::data::Dataset;
use c2pi_suite::nn::model::{alexnet, Model, ZooConfig};
use c2pi_suite::nn::train::{train_classifier, TrainConfig};
use c2pi_suite::nn::BoundaryId;
use c2pi_suite::transport::TcpLoopbackTransport;
use std::path::Path;

fn setup() -> (Model, Dataset, Dataset) {
    let data = SynthDataset::generate(&SynthConfig {
        classes: 3,
        per_class: 4,
        image_size: 16,
        pixel_noise: 0.02,
        ..Default::default()
    })
    .into_dataset();
    let (train, eval) = data.split(0.7, 3).unwrap();
    let mut model =
        alexnet(&ZooConfig { width_div: 32, num_classes: 3, image_size: 16, seed: 42 }).unwrap();
    train_classifier(
        model.seq_mut(),
        train.images(),
        train.labels(),
        &TrainConfig { epochs: 8, batch_size: 8, lr: 0.005, momentum: 0.9, seed: 7 },
    )
    .unwrap();
    (model, train, eval)
}

fn cfg(seed: u64) -> PlannerConfig {
    PlannerConfig {
        candidates: vec![BoundaryId::relu(2), BoundaryId::relu(5)],
        probes: vec![ProbeSpec::parse("mla:10").unwrap()],
        eval_images: 2,
        seed,
        ..Default::default()
    }
}

fn run_plan(setup: &(Model, Dataset, Dataset), cfg: PlannerConfig) -> DeploymentPlan {
    let (model, train, eval) = setup;
    DeploymentPlanner::new(&mut model.clone(), train, eval, cfg).plan().unwrap()
}

/// Compares `rendered` with `tests/golden/<name>`, rewriting it first
/// under `GOLDEN_UPDATE`.
fn assert_matches_golden(name: &str, rendered: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&golden_path, rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing: run with GOLDEN_UPDATE=1 to create it");
    assert_eq!(
        rendered, golden,
        "plan table drifted from tests/golden/{name}; if the change is \
         intentional, regenerate with GOLDEN_UPDATE=1"
    );
}

#[test]
fn plan_output_is_byte_identical_across_runs_and_matches_golden() {
    let trained = setup();
    let a = run_plan(&trained, cfg(47));
    let b = run_plan(&setup(), cfg(47));
    assert_eq!(a, b, "two fresh planner runs diverged");
    assert_eq!(a.render_table(), b.render_table());
    assert_eq!(a.to_json(), b.to_json());
    assert_matches_golden("plan_table.txt", &a.render_table());

    let gaussian = PlannerConfig { defense: Defense::Gaussian { std: 0.1 }, ..cfg(47) };
    assert_matches_golden("plan_table_gaussian.txt", &run_plan(&trained, gaussian).render_table());
}

#[test]
fn chosen_boundary_is_identical_for_mem_and_tcp_transports() {
    // Cost-only config (no probes): the privacy audit is
    // transport-independent by construction, so isolate the cost sweep.
    let mut cost_cfg = cfg(47);
    cost_cfg.probes = Vec::new();
    let (mut model, train, eval) = setup();
    let mem_plan =
        DeploymentPlanner::new(&mut model, &train, &eval, cost_cfg.clone()).plan().unwrap();
    let (mut model2, train2, eval2) = setup();
    let tcp_plan = DeploymentPlanner::new(&mut model2, &train2, &eval2, cost_cfg)
        .with_transport(TcpLoopbackTransport)
        .plan()
        .unwrap();
    let mem_best = mem_plan.best().unwrap();
    let tcp_best = tcp_plan.best().unwrap();
    assert_eq!(mem_best.boundary, tcp_best.boundary);
    assert_eq!(mem_best.backend, tcp_best.backend);
    // Traffic is transcript-determined, so the whole ranking agrees.
    assert_eq!(mem_plan.ranked, tcp_plan.ranked);
    assert_eq!(mem_plan.costs, tcp_plan.costs);
}
