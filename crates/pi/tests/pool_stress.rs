//! Concurrency stress test for the shared material pool: N worker
//! threads × M inferences against one pool with a deliberately
//! undersized preprocessing budget.
//!
//! Two properties are pinned down exactly:
//!
//! * **ledger exactness under contention** — the pooled (offline) and
//!   inline totals must sum to exactly N×M consumed sets, with nothing
//!   lost or double-counted across the racing takers;
//! * **bit-for-bit equivalence with the sequential path** — the
//!   concurrent run consumes the same deterministic seed stream as a
//!   sequential session with the same master seed, so the *multiset* of
//!   reconstructed outputs must be identical down to the last bit (the
//!   probabilistic truncation error of each run depends on its seed, so
//!   this fails loudly if the pool ever skips, duplicates or invents a
//!   seed).

use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
use c2pi_nn::Sequential;
use c2pi_pi::engine::specs_of;
use c2pi_pi::{PiConfig, PiSession};
use c2pi_tensor::Tensor;

const THREADS: usize = 4;
const PER_THREAD: usize = 6;
const OFFLINE_BUDGET: usize = 5; // deliberately < THREADS * PER_THREAD

fn tiny_prefix() -> Sequential {
    let mut s = Sequential::new();
    s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
    s.push(Relu::new());
    s.push(MaxPool2d::new(2, 2));
    s
}

#[test]
fn concurrent_pool_accounting_is_exact_and_outputs_match_sequential() {
    let total = THREADS * PER_THREAD;
    let cfg = PiConfig::default();
    let specs = specs_of(&tiny_prefix());
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 77);

    // Sequential reference: same master seed, same undersized budget,
    // one thread draining the pool in order.
    let sequential = PiSession::new(&specs, [1, 8, 8], cfg).unwrap();
    sequential.preprocess(OFFLINE_BUDGET).unwrap();
    let mut want: Vec<Vec<u64>> = (0..total)
        .map(|_| {
            let out = sequential.infer(&x).unwrap();
            c2pi_mpc::share::reconstruct(&out.client_share, &out.server_share)
        })
        .collect();

    // Concurrent run: N threads × M inferences against one shared pool.
    let shared = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
    shared.preprocess(OFFLINE_BUDGET).unwrap();
    let mut got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let session = shared.clone();
                let input = x.clone();
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|_| {
                            let out = session.infer(&input).unwrap();
                            c2pi_mpc::share::reconstruct(&out.client_share, &out.server_share)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Ledger exactness: pooled + inline == N×M, nothing lost under
    // contention, and the pool invariant holds.
    let ledger = shared.ledger();
    assert_eq!(ledger.consumed, total as u64, "every inference consumed exactly one set");
    assert_eq!(ledger.generated_offline, OFFLINE_BUDGET as u64);
    assert_eq!(
        ledger.generated_offline + ledger.generated_inline,
        total as u64,
        "pooled + inline generation must sum exactly to N*M"
    );
    assert_eq!(ledger.generated_inline, (total - OFFLINE_BUDGET) as u64);
    assert_eq!(ledger.available, 0);
    assert_eq!(
        ledger.generated_offline + ledger.generated_inline,
        ledger.consumed + ledger.available
    );
    // The sequential reference consumed the identical ledger totals.
    let seq_ledger = sequential.ledger();
    assert_eq!(seq_ledger.consumed, ledger.consumed);
    assert_eq!(seq_ledger.generated_inline, ledger.generated_inline);

    // Bit-for-bit: the concurrent run consumed the same seeds, so the
    // multisets of reconstructed outputs are identical.
    want.sort();
    got.sort();
    assert_eq!(want, got, "concurrent outputs must be a permutation of the sequential outputs");
}

#[test]
fn replenisher_under_load_keeps_accounting_exact() {
    let cfg = PiConfig::default();
    let specs = specs_of(&tiny_prefix());
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 78);
    let shared = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
    let replenisher = shared.spawn_replenisher(2, 6);
    let total = 2 * 4;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let session = shared.clone();
            let input = x.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    session.infer(&input).unwrap();
                }
            });
        }
    });
    replenisher.stop().unwrap();
    let ledger = shared.ledger();
    assert_eq!(ledger.consumed, total as u64);
    // Background and inline generation race the takers, but the books
    // still balance exactly.
    assert_eq!(
        ledger.generated_offline + ledger.generated_inline,
        ledger.consumed + ledger.available
    );
}
