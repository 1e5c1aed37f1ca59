//! Concurrent serving throughput: aggregate online inferences/second
//! for 1 vs 4 vs 8 concurrent clients drawing from one shared material
//! pool on the in-memory transport, for both backends, plus burst and
//! batched waves over TCP against the `ReactorServer`.
//!
//! Every `mem` row times the same total amount of work
//! (`TOTAL_INFERENCES` online inferences), split across the row's
//! client count — so the mean duration of `clients/4` vs `clients/1`
//! *is* the aggregate throughput ratio. The material for the whole
//! batch is preprocessed outside the timed section (`iter_custom`), and
//! the ledger is asserted clean afterwards, so these rows measure the
//! **online phase only** — the paper's claim about what a client waits
//! for.
//!
//! Expect the 4-client row to finish ≥2× faster than the 1-client row
//! on a multi-core serving box (each in-flight inference alternates two
//! party threads, so it occupies about one core); a single-core runner
//! shows ~1× because the online protocol is CPU-bound there. The
//! summary printed at the end states the measured ratio, and the 4v1
//! ratios are also recorded as `ratio_4v1/...` metric rows (×1000) in
//! `BENCH_results.json`.
//!
//! The `reactor/...` rows measure the readiness-driven serving surface
//! under burst: 64 and 256 *simultaneous* one-shot clients against a
//! `ReactorServer` whose pool is deliberately stocked with only
//! [`BURST_POOL`] sets — each wave serves exactly that many inferences
//! and sheds the rest with typed `BUSY` frames, so the row times how
//! fast the reactor disposes of an over-capacity connection wave
//! (accept → park → dispatch → serve/shed). The shed and work-steal
//! totals land as `shed_total`/`steal_total` metric rows.
//!
//! The `reactor_batch/...` rows time *full-service* waves (stock
//! covers the wave, clients retry until served) with the cross-client
//! batch coalescer on vs off, interleaved pairwise so machine drift
//! cancels; `reactor_batch_speedup_256_x1000` is the off/on ratio at
//! 256 clients, guarded by `ci/bench_guard_rules.json`.

use c2pi_core::reactor::{ReactorClient, ReactorConfig, ReactorReply, ReactorServer};
use c2pi_nn::model::{alexnet, ZooConfig};
use c2pi_pi::engine::{specs_of, PiBackend, PiConfig};
use c2pi_pi::PiSession;
use c2pi_tensor::Tensor;
use criterion::{criterion_group, criterion_main, report_metric, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOTAL_INFERENCES: usize = 8;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];

/// Client counts of the reactor burst rows — the high-concurrency
/// regime a thread-per-connection accept loop cannot reach.
const BURST_CLIENTS: [usize; 2] = [64, 256];
/// Material preloaded per burst run. Deliberately smaller than the
/// burst, so most of the wave exercises the typed-backpressure shed
/// path (`served == BURST_POOL`, the rest answered `BUSY`).
const BURST_POOL: usize = 16;

fn shared_session(backend: PiBackend) -> PiSession {
    let model =
        alexnet(&ZooConfig { width_div: 32, seed: 3, image_size: 16, ..Default::default() })
            .unwrap();
    let cfg = PiConfig { backend, ..Default::default() };
    PiSession::new(&specs_of(model.seq()), [3, 16, 16], cfg).unwrap()
}

fn input() -> Tensor {
    Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, 1)
}

/// Mean of the recorded runs, skipping the shim's warm-up run (the
/// routine records it but criterion's samples exclude it) so the
/// printed ratios agree with `BENCH_results.json`.
fn warm_mean(runs: &[f64]) -> Option<f64> {
    let measured = if runs.len() > 1 { &runs[1..] } else { runs };
    if measured.is_empty() {
        return None;
    }
    Some(measured.iter().sum::<f64>() / measured.len() as f64)
}

/// Runs `total` in-process online inferences split over `clients`
/// concurrent threads against one shared pool, returning the wall time
/// of the concurrent section only.
fn run_mem(session: &PiSession, clients: usize, total: usize, x: &Tensor) -> Duration {
    let per_client = total / clients;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let s = session.clone();
            let xx = x.clone();
            scope.spawn(move || {
                for _ in 0..per_client {
                    s.infer(&xx).unwrap();
                }
            });
        }
    });
    start.elapsed()
}

/// Fires `clients` one-shot requests at a reactor server
/// simultaneously (no retries). With the pool preloaded below the
/// client count the wave exercises the serve and shed paths together;
/// returns the wall time of the whole wave plus the served/busy split.
fn run_burst(
    addr: std::net::SocketAddr,
    client_session: &PiSession,
    clients: usize,
    x: &Tensor,
) -> (Duration, usize, usize) {
    let served = AtomicUsize::new(0);
    let busy = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let client = ReactorClient::new(client_session.clone());
            let xx = x.clone();
            let served = &served;
            let busy = &busy;
            scope.spawn(move || match client.request(addr, &xx) {
                Ok(ReactorReply::Served(_)) => {
                    served.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ReactorReply::Busy { .. }) => {
                    busy.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("burst request failed: {e}"),
            });
        }
    });
    (start.elapsed(), served.load(Ordering::Relaxed), busy.load(Ordering::Relaxed))
}

/// Runs a full-service wave: `clients` simultaneous clients, each
/// retrying through transient backpressure until served. Returns the
/// wall time for the whole wave to complete.
fn run_wave(
    addr: std::net::SocketAddr,
    client_session: &PiSession,
    clients: usize,
    x: &Tensor,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let client = ReactorClient::new(client_session.clone()).with_retries(64);
            let xx = x.clone();
            scope.spawn(move || {
                client.infer(addr, &xx).unwrap();
            });
        }
    });
    start.elapsed()
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let x = input();
    let mut ratio_report: Vec<(String, f64)> = Vec::new();
    for backend in [PiBackend::Cheetah, PiBackend::Delphi] {
        let name = backend.name();

        // --- mem transport: both parties in-process, N concurrent infers.
        let session = shared_session(backend);
        let mut means: Vec<(usize, f64)> = Vec::new();
        for clients in CLIENT_COUNTS {
            let mut local = Vec::new();
            group.bench_with_input(
                BenchmarkId::new(format!("mem/{name}"), clients),
                &clients,
                |b, &clients| {
                    b.iter_custom(|_| {
                        // Offline phase outside the timed section.
                        session.preprocess(TOTAL_INFERENCES).unwrap();
                        let d = run_mem(&session, clients, TOTAL_INFERENCES, &x);
                        local.push(d.as_secs_f64());
                        d
                    })
                },
            );
            if let Some(mean) = warm_mean(&local) {
                means.push((clients, mean));
            }
        }
        assert_eq!(
            session.ledger().generated_inline,
            0,
            "throughput rows must stay on the pooled online path"
        );
        if let (Some(&(_, t1)), Some(&(_, t4))) =
            (means.iter().find(|(c, _)| *c == 1), means.iter().find(|(c, _)| *c == 4))
        {
            ratio_report.push((format!("mem/{name}"), t1 / t4));
        }
    }
    // --- reactor burst: 64/256 simultaneous one-shot clients against a
    // readiness-driven server whose pool holds only BURST_POOL sets.
    // Replenishment off and queue_depth at the burst size, so the
    // serve/shed split is exact and the row is pure wave-disposal time.
    // Cheetah only: the reactor path is backend-agnostic above the
    // session, so one backend bounds the CI time.
    let serve_session = shared_session(PiBackend::Cheetah);
    let server = ReactorServer::bind(
        Arc::clone(serve_session.core()),
        "127.0.0.1:0",
        ReactorConfig {
            workers: 8,
            shards: 8,
            max_clients: 1024,
            queue_depth: *BURST_CLIENTS.iter().max().unwrap(),
            pool_low: 0,
            pool_high: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let client_session = shared_session(PiBackend::Cheetah);
    let wave_served = AtomicUsize::new(0);
    for clients in BURST_CLIENTS {
        group.bench_with_input(
            BenchmarkId::new("reactor/cheetah", clients),
            &clients,
            |b, &clients| {
                b.iter_custom(|_| {
                    server.preprocess(BURST_POOL).unwrap();
                    let (d, served, busy) = run_burst(addr, &client_session, clients, &x);
                    assert_eq!(served, BURST_POOL, "each pooled set serves exactly once per wave");
                    assert_eq!(busy, clients - BURST_POOL, "the rest must shed with BUSY frames");
                    wave_served.fetch_add(served, Ordering::Relaxed);
                    d
                })
            },
        );
    }
    // The worker's served increment lands just after the reply hits the
    // socket, so the last wave's bookkeeping can trail the clients by a
    // beat — settle before snapshotting.
    let expected = wave_served.load(Ordering::Relaxed) as u64;
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut snap = server.metrics_snapshot();
    while snap.served < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        snap = server.metrics_snapshot();
    }
    assert_eq!(snap.served, expected, "server served count must match the client-side total");
    assert_eq!(snap.errors, 0, "burst waves must not error");
    assert_eq!(snap.shards.len(), 8, "one metrics row per shard");
    let consumed: u64 = snap.shards.iter().map(|s| s.consumed).sum();
    assert_eq!(consumed, snap.served, "per-shard consumption must sum to the served total");
    report_metric("serving_throughput/reactor/cheetah/shed_total", snap.shed as f64);
    report_metric("serving_throughput/reactor/cheetah/steal_total", snap.steals as f64);
    server.drain().unwrap();

    // --- batched reactor: full-service waves with the cross-client
    // coalescer on vs off, run as *interleaved pairs* against two live
    // servers so machine drift hits both configurations alike. Stock
    // equals the wave size and every client retries through transient
    // backpressure until served, so both configurations complete
    // identical work — the off/on wave-time ratio is the batching
    // speedup. Rows land via report_metric (mean of the warm rounds).
    //
    // The 256-client speedup (×1000) is guarded by
    // ci/bench_guard_rules.json: a min_value floor pins it at the
    // single-core noise band around parity, and a baseline ratio
    // guards against drift. On a single-core runner the wave is
    // CPU-bound and dominated by the clients' own protocol work, so
    // — exactly like the ratio_4v1 rows below — the honest reading is
    // ~1×; the strict "batched is at least as fast" claim is asserted
    // on multi-core machines, where fused rounds genuinely help.
    const WAVE_ROUNDS: usize = 3;
    let off_session = shared_session(PiBackend::Cheetah);
    let on_session = shared_session(PiBackend::Cheetah);
    let wave_server = |session: &PiSession, coalesce: bool| {
        ReactorServer::bind(
            Arc::clone(session.core()),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 8,
                shards: 8,
                max_clients: 1024,
                queue_depth: *BURST_CLIENTS.iter().max().unwrap(),
                pool_low: 0,
                pool_high: 0,
                batch_window: if coalesce { Duration::from_millis(5) } else { Duration::ZERO },
                max_batch: if coalesce { 4 } else { 1 },
                ..Default::default()
            },
        )
        .unwrap()
    };
    let off = wave_server(&off_session, false);
    let on = wave_server(&on_session, true);
    let client_session = shared_session(PiBackend::Cheetah);
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for clients in BURST_CLIENTS {
        let (mut offs, mut ons) = (Vec::new(), Vec::new());
        for _ in 0..WAVE_ROUNDS {
            off.preprocess(clients).unwrap();
            offs.push(run_wave(off.local_addr(), &client_session, clients, &x).as_secs_f64());
            on.preprocess(clients).unwrap();
            ons.push(run_wave(on.local_addr(), &client_session, clients, &x).as_secs_f64());
        }
        let (off_mean, on_mean) = (warm_mean(&offs).unwrap(), warm_mean(&ons).unwrap());
        report_metric(&format!("serving_throughput/reactor_batch/off/{clients}"), off_mean * 1e9);
        report_metric(&format!("serving_throughput/reactor_batch/on/{clients}"), on_mean * 1e9);
        speedups.push((clients, off_mean / on_mean));
    }
    for server in [&off, &on] {
        let snap = server.metrics_snapshot();
        assert_eq!(snap.errors, 0, "full-service waves must not error");
    }
    let on_snap = on.metrics_snapshot();
    assert!(on_snap.coalesced > 0, "a 5ms window under a 64+-client wave must fuse some members");
    report_metric("serving_throughput/reactor_batch/coalesced_total", on_snap.coalesced as f64);
    assert_eq!(off.metrics_snapshot().batches, 0, "a disabled collector must never record a batch");
    off.drain().unwrap();
    on.drain().unwrap();
    println!();
    for &(clients, speedup) in &speedups {
        println!("  batched reactor wave at {clients} clients: {speedup:.2}x vs unbatched");
    }
    if let Some(&(_, speedup)) = speedups.iter().find(|(c, _)| *c == 256) {
        report_metric("serving_throughput/reactor_batch_speedup_256_x1000", speedup * 1000.0);
        if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 4 {
            assert!(
                speedup >= 1.0,
                "batched serving slower than unbatched at 256 clients on a multi-core box: \
                 {speedup:.2}x"
            );
        }
    }

    group.finish();
    println!("\n  aggregate online throughput, 4 concurrent clients vs 1 sequential:");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (label, ratio) in ratio_report {
        println!("    {label:<16} {ratio:.2}x");
        // Machine-readable twin of the printed ratio (×1000, rows are
        // integers) so bench_guard / BENCH_history.jsonl can track it.
        report_metric(&format!("serving_throughput/ratio_4v1/{label}_x1000"), ratio * 1000.0);
        if cores >= 4 {
            assert!(
                ratio > 0.5,
                "4-client aggregate throughput collapsed vs sequential: {label} at {ratio:.2}x"
            );
        }
    }
    println!("    (cores available: {cores})");
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
