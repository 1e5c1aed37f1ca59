//! Ablation: C2PI cost as a function of the boundary position — the
//! monotone curve whose endpoints are Table II's "full PI" and the
//! paper's speedups.

use c2pi_core::session::C2pi;
use c2pi_core::Defense;
use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_nn::BoundaryId;
use c2pi_pi::PiBackend;
use c2pi_tensor::Tensor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_boundary(c: &mut Criterion) {
    let mut group = c.benchmark_group("boundary_sweep");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    let model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
            .unwrap();
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
    for conv in [1usize, 3, 5, 7] {
        let m = model.clone();
        let xx = x.clone();
        group.bench_with_input(
            BenchmarkId::new("cheetah_c2pi", conv),
            &conv,
            move |bench, &conv| {
                // Compile and preprocess outside the measured loop: the
                // session split makes the online phase the benchmarked unit.
                let mut session = C2pi::builder(m.clone())
                    .split_at(BoundaryId::relu(conv))
                    .defense(Defense::Uniform { magnitude: 0.1 })
                    .noise_seed(2)
                    .backend(PiBackend::Cheetah)
                    .build()
                    .unwrap();
                session.preprocess(64).unwrap();
                bench.iter(|| session.infer(&xx).unwrap());
                // Guard the measurement: if a harness ever runs more
                // iterations than the pool covers, fail loudly instead
                // of silently folding dealer time into "online".
                assert_eq!(
                    session.ledger().generated_inline,
                    0,
                    "online measurement must not include inline dealer work"
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_boundary);
criterion_main!(benches);
