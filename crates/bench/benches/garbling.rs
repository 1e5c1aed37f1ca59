//! Microbenchmark: garbling and evaluating the masked-ReLU circuit
//! (Delphi's per-ReLU cost driver), and the offline garbling kernel
//! `pregarble_for` at the demo model's layer sizes.
//!
//! The `pregarble/*` rows time one layer-sized call and report it **per
//! 1 000 of the layer's AND gates**, so the µs column reads as ns per
//! AND — the number to tune the garbling walk against (`server` draws
//! labels and never walks; its row is the floor the draws set).

use c2pi_mpc::dealer::Halves;
use c2pi_mpc::gc::{evaluate, garble, relu_masked_circuit, to_bits};
use c2pi_mpc::gcpre::{pregarble_for, MaskedOp};
use c2pi_mpc::prg::Prg;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn bench_garbling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_relu");
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(8));
    for &n in &[8usize, 32] {
        let circuit = relu_masked_circuit(n, 64);
        let mut gbits = Vec::new();
        for i in 0..n {
            gbits.extend(to_bits(i as u64, 64));
            gbits.extend(to_bits((i as u64).wrapping_neg(), 64));
        }
        group.bench_with_input(BenchmarkId::new("garble", n), &n, |bench, _| {
            bench.iter(|| {
                let mut prg = Prg::from_u64(1);
                garble(&circuit, &gbits, &mut prg).unwrap()
            })
        });
        let mut prg = Prg::from_u64(1);
        let garbled = garble(&circuit, &gbits, &mut prg).unwrap();
        let labels: Vec<u128> = garbled.evaluator_label_pairs.iter().map(|&(l0, _)| l0).collect();
        group.bench_with_input(BenchmarkId::new("evaluate", n), &n, |bench, _| {
            bench.iter(|| {
                evaluate(
                    &circuit,
                    &garbled.tables,
                    &garbled.garbler_labels,
                    &labels,
                    &garbled.output_decode,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_pregarble(c: &mut Criterion) {
    // The demo model's crypto layers: 1 936 ReLU elements, 392 pool
    // windows, banded as `PiConfig::default().gc_chunk`.
    const BAND: usize = 1024;
    let mut group = c.benchmark_group("pregarble");
    group.sample_size(20).measurement_time(std::time::Duration::from_secs(4));
    for (name, op, items) in [("relu", MaskedOp::Relu, 1936), ("maxpool4", MaskedOp::Maxpool4, 392)]
    {
        let kilo_ands = (items * op.ands_per_item()) as f64 / 1e3;
        for (side, halves) in
            [("both", Halves::Both), ("client", Halves::Client), ("server", Halves::Server)]
        {
            group.bench_function(format!("{name}/{side}"), |bench| {
                bench.iter_custom(|_| {
                    let mut prg = Prg::from_u64(1);
                    let start = Instant::now();
                    black_box(pregarble_for(op, items, &mut prg, BAND, halves));
                    start.elapsed().div_f64(kilo_ands)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_garbling, bench_pregarble);
criterion_main!(benches);
