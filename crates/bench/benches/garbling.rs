//! Microbenchmark: garbling and evaluating the ReLU circuit (Delphi's
//! per-ReLU cost driver), and the offline garbling kernel
//! `pregarble_for` at the serving split's layer sizes and unit widths.
//!
//! The `pregarble/*` rows time one layer-sized call — the calls the
//! split's offline set makes, cut into bands as serving cuts them — and
//! report it **per 1 000 of the layer's AND gates**, so the µs column
//! reads as ns per AND — the number to tune the garbling walk against.
//! The output projection's two hashes per output wire are inside the
//! call, so they count towards each AND's share (`server` draws labels
//! and never walks; its row is the floor the draws set).

use c2pi_mpc::dealer::Halves;
use c2pi_mpc::gc::{evaluate, garble_open, relu_circuit, select_labels, to_bits};
use c2pi_mpc::gcpre::{pregarble_for, MaskedOp};
use c2pi_mpc::prg::Prg;
use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_nn::BoundaryId;
use c2pi_pi::engine::specs_of;
use c2pi_pi::{PiConfig, PiSession};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn bench_garbling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_relu");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    for &n in &[8usize, 32] {
        let circuit = relu_circuit(n, 64);
        let gbits: Vec<bool> = (0..n).flat_map(|i| to_bits(i as u64, 64)).collect();
        group.bench_with_input(BenchmarkId::new("garble", n), &n, |bench, _| {
            bench.iter(|| garble_open(&circuit, &mut Prg::from_u64(1)))
        });
        let open = garble_open(&circuit, &mut Prg::from_u64(1));
        let garbler_labels = select_labels(&open.garbler_label_pairs, &gbits);
        let labels: Vec<u128> = open.evaluator_label_pairs.iter().map(|&(l0, _)| l0).collect();
        group.bench_with_input(BenchmarkId::new("evaluate", n), &n, |bench, _| {
            bench.iter(|| {
                evaluate(&circuit, &open.tables, &garbler_labels, &labels, &open.output_decode)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The unit widths serving compiles for the demo split: the benchmark's
/// narrow AlexNet on 16×16 inputs, cut after its third ReLU.
fn demo_split_widths() -> Vec<usize> {
    let demo = alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
        .expect("the demo model builds");
    let (prefix, _) = demo.split_at(BoundaryId::relu(3)).expect("the demo split");
    PiSession::new(&specs_of(&prefix), [3, 16, 16], PiConfig::default())
        .expect("the demo split compiles")
        .unit_widths()
}

fn bench_pregarble(c: &mut Criterion) {
    // The serving split's garbled layers in order, each at the width its
    // plan compiles it to (each max pool fused with the ReLU after it,
    // then the last ReLU), at the largest band
    // `PiConfig::default().gc_chunk`.
    const BAND: usize = 1024;
    let layers = [
        ("fused256", MaskedOp::MaxpoolRelu4, 256),
        ("fused96", MaskedOp::MaxpoolRelu4, 96),
        ("relu192", MaskedOp::Relu, 192),
    ];
    let widths = demo_split_widths();
    assert_eq!(widths.len(), layers.len(), "one width per garbled layer of the split");
    let mut group = c.benchmark_group("pregarble");
    group.sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    for ((name, op, items), bits) in layers.into_iter().zip(widths) {
        let kilo_ands = (items * op.ands_per_item(bits)) as f64 / 1e3;
        for (side, halves) in
            [("both", Halves::Both), ("client", Halves::Client), ("server", Halves::Server)]
        {
            group.bench_function(format!("{name}/{side}"), |bench| {
                bench.iter_custom(|_| {
                    let mut prg = Prg::from_u64(1);
                    let start = Instant::now();
                    black_box(pregarble_for(op, bits, items, &mut prg, BAND, halves));
                    start.elapsed().div_f64(kilo_ands)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_garbling, bench_pregarble);
criterion_main!(benches);
