//! Integration tests for the silent-preprocessing subsystem: the
//! seed-compression acceptance ratio, and crash recovery through the
//! persistent `MaterialStore` — kill the pool without a drain, restart,
//! and the served outputs must be bit-for-bit what an uninterrupted run
//! produces, with exact ledger totals and no re-preprocessing.

use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
use c2pi_nn::Sequential;
use c2pi_pi::engine::specs_of;
use c2pi_pi::{PiBackend, PiConfig, PiOutcome, PiSession};
use c2pi_tensor::Tensor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tiny_prefix() -> Sequential {
    let mut s = Sequential::new();
    s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
    s.push(Relu::new());
    s.push(MaxPool2d::new(2, 2));
    s
}

fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "c2pi-recovery-{}-{}-{name}.bin",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn reconstruct(out: &PiOutcome) -> Vec<u64> {
    c2pi_mpc::share::reconstruct(&out.client_share, &out.server_share)
}

/// Acceptance criterion: seed-compressed dealing cuts the dealt bytes
/// per Delphi inference by at least 50× versus expanded dealing.
#[test]
fn delphi_dealt_bytes_drop_50x_under_seed_compression() {
    let cfg = PiConfig { backend: PiBackend::Delphi, ..Default::default() };
    let session = PiSession::new(&specs_of(&tiny_prefix()), [1, 8, 8], cfg).unwrap();
    session.preprocess(1).unwrap();
    let ledger = session.ledger();
    assert!(ledger.seed_bytes > 0, "dealt seeds must be accounted");
    assert!(
        ledger.expanded_bytes >= 50 * ledger.seed_bytes,
        "seed compression ratio too small: {} expanded vs {} dealt",
        ledger.expanded_bytes,
        ledger.seed_bytes
    );
    // And the compact artifact really is "hundreds of bytes" territory.
    assert!(ledger.seed_bytes < 1024, "dealt artifact unexpectedly large: {}", ledger.seed_bytes);
}

/// The crash-recovery contract, end to end:
///
/// 1. an uninterrupted reference run preprocesses 4 sets and serves 4
///    inferences;
/// 2. the crash run attaches a store, preprocesses the same 4 sets,
///    serves 2, and is then dropped *without* a graceful drain (the
///    store has no flush record — exactly the kill -9 shape, since
///    records are appended eagerly);
/// 3. a fresh session warm-boots from the store: it must restore the 2
///    unconsumed sets without re-preprocessing, resume the exact
///    ledger, and serve the remaining 2 inferences bit-for-bit
///    identically to the reference.
#[test]
fn killed_pool_restarts_from_store_with_identical_outputs() {
    let cfg = PiConfig::default();
    let specs = specs_of(&tiny_prefix());
    let inputs: Vec<Tensor> =
        (0..4).map(|i| Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 90 + i)).collect();

    // 1. Uninterrupted reference.
    let reference = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
    reference.preprocess(4).unwrap();
    let want: Vec<Vec<u64>> =
        inputs.iter().map(|x| reconstruct(&reference.infer(x).unwrap())).collect();

    // 2. Crash run: preprocess 4, serve 2, die without drain.
    let path = tmp("crash");
    {
        let crashed = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
        let boot = crashed.pool().attach_store(&path).unwrap();
        assert_eq!(boot.restored, 0, "fresh store restores nothing");
        crashed.preprocess(4).unwrap();
        assert_eq!(reconstruct(&crashed.infer(&inputs[0]).unwrap()), want[0]);
        assert_eq!(reconstruct(&crashed.infer(&inputs[1]).unwrap()), want[1]);
        // Dropped here: no shutdown, no flush_store — the "kill".
    }

    // 3. Warm boot.
    let restarted = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
    let boot = restarted.pool().attach_store(&path).unwrap();
    assert_eq!(boot.restored, 2, "the two unconsumed sets come back");
    assert_eq!(boot.drawn, 4, "seed stream fast-forwarded past all drawn seeds");
    assert!(!boot.truncated_tail, "eager appends leave no torn tail on a plain drop");
    let ledger = restarted.ledger();
    assert_eq!(ledger.generated_offline, 4, "resumed, not re-preprocessed");
    assert_eq!(ledger.generated_inline, 0);
    assert_eq!(ledger.consumed, 2);
    assert_eq!(ledger.available, 2);
    assert_eq!(ledger.restored, 2);

    assert_eq!(reconstruct(&restarted.infer(&inputs[2]).unwrap()), want[2], "bit-for-bit");
    assert_eq!(reconstruct(&restarted.infer(&inputs[3]).unwrap()), want[3], "bit-for-bit");

    // No new material was ever generated after the restart, and the
    // books still sum exactly.
    let ledger = restarted.ledger();
    assert_eq!(ledger.generated_offline, 4);
    assert_eq!(ledger.generated_inline, 0, "serving after warm boot needed no inline dealing");
    assert_eq!(ledger.consumed, 4);
    assert_eq!(ledger.available, 0);
    assert_eq!(
        ledger.generated_offline + ledger.generated_inline,
        ledger.consumed + ledger.available
    );
    // The reference and recovered runs agree on the full ledger shape.
    let ref_ledger = reference.ledger();
    assert_eq!(ref_ledger.consumed, ledger.consumed);
    assert_eq!(ref_ledger.generated_offline, ledger.generated_offline);
    assert_eq!(ref_ledger.seed_bytes, ledger.seed_bytes);
    assert_eq!(ref_ledger.expanded_bytes, ledger.expanded_bytes);

    std::fs::remove_file(&path).unwrap();
}

/// A graceful drain (flush + sync) and a kill land in the same restored
/// state — the flush only adds durability, never changes the replay.
#[test]
fn graceful_flush_and_plain_drop_restore_identically() {
    let cfg = PiConfig::default();
    let specs = specs_of(&tiny_prefix());
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 123);
    let run = |flush: bool| {
        let path = tmp(if flush { "flush" } else { "drop" });
        {
            let s = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
            s.pool().attach_store(&path).unwrap();
            s.preprocess(3).unwrap();
            s.infer(&x).unwrap();
            if flush {
                s.pool().flush_store().unwrap();
            }
        }
        let s = PiSession::new(&specs, [1, 8, 8], cfg).unwrap().into_shared();
        let boot = s.pool().attach_store(&path).unwrap();
        let out = reconstruct(&s.infer(&x).unwrap());
        std::fs::remove_file(&path).unwrap();
        (boot.restored, s.ledger(), out)
    };
    let (restored_a, mut ledger_a, out_a) = run(true);
    let (restored_b, mut ledger_b, out_b) = run(false);
    assert_eq!(restored_a, 2);
    assert_eq!(restored_b, 2);
    // Generation time is wall-clock and legitimately differs; every
    // counted field must agree exactly.
    assert!(ledger_a.generation_seconds > 0.0);
    ledger_a.generation_seconds = 0.0;
    ledger_b.generation_seconds = 0.0;
    assert_eq!(ledger_a, ledger_b);
    assert_eq!(out_a, out_b);
}

/// A store written by one deployment must refuse to warm-boot another
/// (the no-cross-session-reuse guarantee).
#[test]
fn store_rejects_a_different_deployment() {
    let specs = specs_of(&tiny_prefix());
    let path = tmp("xdeploy");
    {
        let s = PiSession::new(&specs, [1, 8, 8], PiConfig::default()).unwrap().into_shared();
        s.pool().attach_store(&path).unwrap();
        s.preprocess(1).unwrap();
    }
    let other_cfg = PiConfig { backend: PiBackend::Delphi, ..Default::default() };
    let s = PiSession::new(&specs, [1, 8, 8], other_cfg).unwrap().into_shared();
    let err = s.pool().attach_store(&path).unwrap_err();
    assert!(err.to_string().contains("different deployment"), "got: {err}");
    std::fs::remove_file(&path).unwrap();
}
