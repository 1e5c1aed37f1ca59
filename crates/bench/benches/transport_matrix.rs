//! Online latency under a simulated network: the same deployment
//! served over an in-line simulated LAN and an in-line simulated WAN,
//! for both protocol backends.
//!
//! These are the repository's only wall-clock LAN/WAN rows — the
//! paper's headline axis. Under `sim-wan` the chatty comparison-based
//! backend pays its many rounds on the wall clock, reproducing the
//! LAN/WAN asymmetry of the paper's Table II as measured time instead
//! of a post-hoc estimate. The same deployment's in-memory latency is
//! `online_ms_p50` of `c2pi_benchmark`'s two solo workloads; nothing in
//! that benchmark times a simulated network yet, so the `sim-*` rows
//! live here until it gains such a workload. Every session preprocesses
//! ahead of the measurement so no dealer work leaks in.

use c2pi_core::session::{C2pi, C2piSession};
use c2pi_nn::model::{alexnet, Model, ZooConfig};
use c2pi_nn::BoundaryId;
use c2pi_pi::engine::PiBackend;
use c2pi_tensor::Tensor;
use c2pi_transport::{NetModel, SimTransport, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn model() -> Model {
    alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() }).unwrap()
}

fn transports() -> Vec<Arc<dyn Transport>> {
    vec![Arc::new(SimTransport::new(NetModel::lan())), Arc::new(SimTransport::new(NetModel::wan()))]
}

fn session(backend: PiBackend, transport: Arc<dyn Transport>) -> C2piSession {
    C2pi::builder(model())
        .split_at(BoundaryId::relu(3))
        .noise(0.1)
        .backend(backend)
        .transport(transport)
        .build()
        .unwrap()
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_matrix");
    group.sample_size(10).measurement_time(Duration::from_secs(4));
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1);
    for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
        for transport in transports() {
            let label = format!("{}/{}", backend.name(), transport.label());
            let mut s = session(backend, transport);
            s.preprocess(12).unwrap();
            let xx = x.clone();
            group.bench_with_input(BenchmarkId::new("online", label), &(), |bench, ()| {
                bench.iter(|| s.infer(&xx).unwrap())
            });
            let ledger = s.ledger();
            assert_eq!(
                ledger.generated_inline, 0,
                "online measurement must not include dealer work"
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matrix);
criterion_main!(benches);
