//! The batching determinism net: cross-client online batching on the
//! reactor must change *when* inferences run, never *what* they
//! compute.
//!
//! Three properties are pinned down end to end, over real TCP against a
//! live [`ReactorServer`]:
//!
//! * **bit-for-bit identity** — N clients served through the batch
//!   coalescer reconstruct logits whose f32 bit patterns are identical
//!   to what the same inputs get from sequential, uncoalesced serving
//!   *over the same material sets*. Logits are an exact function of
//!   the (input, material) pair — the probabilistic truncations make
//!   the low bits depend on the masks — and a member's transcript does
//!   not depend on who else shares its run, so a run of k is k runs of
//!   one, member by member (DESIGN.md §10);
//! * **ledger exactness** — every batch member consumes exactly one
//!   pooled material set: the deployment-wide consumed total equals the
//!   client count, with nothing dealt inline;
//! * **drain serves, never sheds** — a partial batch still waiting for
//!   its window when the server drains is flushed and *served*: the
//!   queued clients get real logits, the drain flush shows in the
//!   metrics, and the active-connection gauge returns to zero.

use c2pi_core::reactor::{ReactorClient, ReactorConfig, ReactorServer};
use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
use c2pi_nn::Sequential;
use c2pi_pi::engine::{specs_of, PiConfig};
use c2pi_pi::{PiSession, SessionCore, SharedPiSession};
use c2pi_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_prefix() -> Sequential {
    let mut s = Sequential::new();
    s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
    s.push(Relu::new());
    s.push(MaxPool2d::new(2, 2));
    s
}

fn shared_session() -> SharedPiSession {
    PiSession::new(&specs_of(&tiny_prefix()), [1, 8, 8], PiConfig::default()).unwrap().into_shared()
}

fn server_core() -> Arc<SessionCore> {
    Arc::clone(shared_session().core())
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n).map(|t| Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 1000 + t as u64)).collect()
}

/// The f32 bit patterns of a logits tensor — the comparison that makes
/// "identical" mean identical, not approximately equal.
fn bits(logits: &Tensor) -> Vec<u32> {
    logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Satellite 1: N clients through the coalescer reconstruct logits
/// bit-for-bit identical to sequential unbatched serving of the same
/// inputs, and the ledger shows exactly N sets consumed either way.
///
/// Bit-identity is a claim about (input, material) pairs: the dealt
/// protocol's truncations make the reconstruction's low bits depend on
/// the masks, so member *i* must consume the *same* material set in
/// both runs. One worker and one shard make consumption follow the
/// serialized seed stream, and deposits are gated one at a time on the
/// `batch_pending` gauge so batch position equals request order.
#[test]
fn coalesced_logits_are_bit_identical_to_sequential_serving() {
    const N: usize = 4;
    let xs = inputs(N);
    let solo = ReactorConfig {
        workers: 1,
        shards: 1,
        queue_depth: 2 * N,
        pool_low: 0,
        pool_high: 0,
        ..Default::default()
    };

    // Reference: an unbatched reactor serves the inputs one at a time,
    // consuming material sets 0..N of the seed stream in order.
    let reference: Vec<Vec<u32>> = {
        let server = ReactorServer::bind(server_core(), "127.0.0.1:0", solo.clone()).unwrap();
        server.preprocess(N).unwrap();
        let client = ReactorClient::new(shared_session());
        let got: Vec<Vec<u32>> = xs
            .iter()
            .map(|x| {
                let r = client.infer(server.local_addr(), x).unwrap();
                assert_eq!(r.batch, 1, "unbatched serving must report solo runs");
                bits(&r.logits)
            })
            .collect();
        let ledger = server.pool().ledger();
        assert_eq!(ledger.consumed, N as u64);
        assert_eq!(ledger.generated_inline, 0);
        server.drain().unwrap();
        got
    };

    // Batched: the same inputs join one fused run of N. Client i is
    // released only after client i-1 is visibly queued in the
    // collector, so batch position i gets material set i — the exact
    // pairing the reference used. The Nth deposit fills the batch.
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig { batch_window: Duration::from_secs(30), max_batch: N, ..solo },
    )
    .unwrap();
    server.preprocess(N).unwrap();
    let addr = server.local_addr();
    let session = shared_session();
    let batched: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            let session = session.clone();
            handles.push(scope.spawn(move || {
                let client = ReactorClient::new(session);
                let r = client.infer(addr, x).unwrap();
                assert_eq!(r.batch, N, "every member must report the fused batch size");
                bits(&r.logits)
            }));
            if i < N - 1 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while server.metrics_snapshot().batch_pending < (i + 1) as u64 {
                    assert!(Instant::now() < deadline, "client {i} never reached the collector");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (batched, reference)) in batched.iter().zip(&reference).enumerate() {
        assert_eq!(batched, reference, "client {i}: fused logits must be bit-identical");
    }
    let ledger = server.pool().ledger();
    assert_eq!(ledger.consumed, N as u64, "one material set per member, exactly");
    assert_eq!(ledger.generated_inline, 0, "the reactor never deals inline");

    // Server-side bookkeeping trails the last client reply by a beat;
    // settle before asserting the counters.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics_snapshot().served < N as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.served, N as u64);
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.shed, 0, "nothing may be shed on the way into a fused run");
    assert_eq!(snap.batches, 1, "one fused run served the whole wave");
    assert_eq!(snap.coalesced, N as u64);
    assert_eq!(snap.flushes, (1, 0, 0), "the filling deposit flushed it, not the window");
    assert_eq!(snap.batch_size.sum_members, N as u64);
    assert_eq!(snap.batch_pending, 0);
    server.drain().unwrap();
}

/// Satellite 3: a partial batch still waiting for its window at drain
/// time is flushed and served — the admitted clients get real logits,
/// never a shed — and the active gauge returns to zero.
#[test]
fn drain_serves_the_partial_batch_instead_of_shedding_it() {
    const K: usize = 2;
    let xs = inputs(K);
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig {
            workers: 2,
            pool_low: 0,
            pool_high: 0,
            // A window far longer than the test: only drain can flush.
            batch_window: Duration::from_secs(30),
            max_batch: 8,
            ..Default::default()
        },
    )
    .unwrap();
    server.preprocess(K).unwrap();
    let addr = server.local_addr();
    let session = shared_session();

    std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .iter()
            .map(|x| {
                let session = session.clone();
                scope.spawn(move || {
                    let client = ReactorClient::new(session);
                    let r = client.infer(addr, x).unwrap();
                    let plain = tiny_prefix().forward_eval(x).unwrap();
                    for (a, b) in r.logits.as_slice().iter().zip(plain.as_slice()) {
                        assert!((a - b).abs() < 0.02, "{a} vs {b}");
                    }
                })
            })
            .collect();
        // Let both requests reach the collector and queue (the window
        // is 30s; nothing else can flush them). Metrics-visible state:
        // both connections admitted, none served or shed yet.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = server.metrics_snapshot();
            if snap.active >= K as u64 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(server.served(), 0, "the window must still be holding the batch");

        // Drain flushes the partial batch to a worker ahead of the
        // shutdown markers; both blocked clients complete.
        server.drain().unwrap();
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// A concurrent wave bigger than any batch: every client is served
/// (stock covers the wave), flushes partition the wave without loss or
/// duplication, and the wave's logits all verify against the plaintext
/// model.
#[test]
fn a_32_client_wave_partitions_into_batches_without_loss() {
    const CLIENTS: usize = 32;
    let server = ReactorServer::bind(
        server_core(),
        "127.0.0.1:0",
        ReactorConfig {
            workers: 4,
            shards: 4,
            max_clients: 2 * CLIENTS,
            queue_depth: CLIENTS,
            pool_low: 0,
            pool_high: 0,
            batch_window: Duration::from_millis(250),
            max_batch: 4,
            ..Default::default()
        },
    )
    .unwrap();
    server.preprocess(CLIENTS).unwrap();
    let addr = server.local_addr();
    let session = shared_session();
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 77);
    let plain = tiny_prefix().forward_eval(&x).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let session = session.clone();
            let (x, plain) = (&x, &plain);
            scope.spawn(move || {
                let client = ReactorClient::new(session)
                    .with_connect_timeout(Duration::from_secs(60))
                    .with_retries(20);
                let r = client.infer(addr, x).unwrap();
                assert!(r.batch >= 1 && r.batch <= 4);
                for (a, b) in r.logits.as_slice().iter().zip(plain.as_slice()) {
                    assert!((a - b).abs() < 0.02, "{a} vs {b}");
                }
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut snap = server.metrics_snapshot();
    while (snap.served < CLIENTS as u64 || snap.active > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        snap = server.metrics_snapshot();
    }
    assert_eq!(snap.served, CLIENTS as u64, "every client of the wave served");
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.active, 0, "no connection leaks after the wave");
    // The flushes partition the wave: batch-size histogram members plus
    // solo serves account for every inference exactly once.
    assert!(snap.batches >= (CLIENTS / 4) as u64, "32 members at max_batch 4 need ≥ 8 flushes");
    assert_eq!(snap.batch_size.count, snap.batches);
    let consumed: u64 = snap.shards.iter().map(|s| s.consumed).sum();
    assert_eq!(consumed, CLIENTS as u64);
    server.drain().unwrap();
}
