//! Deployment-planner cost sweep: how long it takes to *plan* (not
//! serve) — compile, measure and rank candidate boundaries × network
//! models for one backend. Planning is an offline, per-deployment
//! operation; this row shows whether the planner stays cheap enough to
//! run on every model/defense revision.

use c2pi_core::planner::{DeploymentPlanner, PlannerConfig};
use c2pi_data::synth::{SynthConfig, SynthDataset};
use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_nn::BoundaryId;
use c2pi_pi::PiBackend;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    let model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
            .unwrap();
    let data = SynthDataset::generate(&SynthConfig {
        classes: 3,
        per_class: 3,
        image_size: 16,
        pixel_noise: 0.02,
        ..Default::default()
    })
    .into_dataset();
    for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
        let m = model.clone();
        let d = data.clone();
        group.bench_with_input(
            BenchmarkId::new("cost_only", backend.name()),
            &backend,
            move |bench, &backend| {
                // Probe-free configuration isolates the cost sweep (the
                // privacy audit's attack training is a separate,
                // model-dependent budget).
                let cfg = PlannerConfig {
                    candidates: vec![BoundaryId::relu(2), BoundaryId::relu(5)],
                    backends: vec![backend],
                    probes: Vec::new(),
                    max_accuracy_drop: 1.0,
                    eval_images: 2,
                    ..Default::default()
                };
                let mut model = m.clone();
                bench.iter(|| {
                    let plan =
                        DeploymentPlanner::new(&mut model, &d, &d, cfg.clone()).plan().unwrap();
                    assert!(plan.best().is_some());
                    plan.ranked.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
