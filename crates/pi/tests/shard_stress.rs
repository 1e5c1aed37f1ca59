//! Stress tests for the sharded material pool: N worker threads homed
//! on different shards, with the stock deliberately concentrated so the
//! work-stealing path carries most of the load.
//!
//! Three properties are pinned down exactly:
//!
//! * **ledger exactness across shards under stealing** — every shard's
//!   `generated_offline + generated_inline == consumed + available`
//!   invariant holds under its own lock, and the deployment-wide sums
//!   are exact (a steal consumes through the *victim's* pool, so
//!   nothing is lost or double-counted when takes cross shards);
//! * **bit-for-bit equivalence with the sequential path** — all shards
//!   draw from one serialized seed allocator, so the multiset of
//!   outputs a sharded concurrent run serves is identical to what an
//!   unsharded sequential session produces from the same master seed
//!   (see DESIGN.md §8);
//! * **crash recovery over segmented stores** — kill a sharded pool
//!   without a drain and a fresh pool warm-boots from the
//!   `<base>.shard<i>` segments: unconsumed sets come back without
//!   re-preprocessing and the remaining inferences are bit-for-bit what
//!   the uninterrupted reference serves.
//!
//! Inferences run over the dealt contract ([`SessionCore::serve_prepared`]
//! on caller-taken material + [`SharedPiSession::request_one`] on the
//! other end of an in-memory channel) — the exact path the `c2pi-core`
//! reactor drives in production.

use c2pi_nn::layers::{Conv2d, MaxPool2d, Relu};
use c2pi_nn::Sequential;
use c2pi_pi::engine::specs_of;
use c2pi_pi::{
    InferenceMaterial, PiConfig, PiSession, PoolTake, SessionCore, ShardedMaterialPool,
    SharedPiSession,
};
use c2pi_tensor::Tensor;
use c2pi_transport::channel_pair;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 4;
const PER_THREAD: usize = 4;
const SHARDS: usize = 3;

fn tiny_prefix() -> Sequential {
    let mut s = Sequential::new();
    s.push(Conv2d::new(1, 3, 3, 1, 1, 1, 1));
    s.push(Relu::new());
    s.push(MaxPool2d::new(2, 2));
    s
}

fn shared_session(cfg: PiConfig) -> SharedPiSession {
    PiSession::new(&specs_of(&tiny_prefix()), [1, 8, 8], cfg).unwrap().into_shared()
}

fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "c2pi-shard-{}-{}-{name}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Serves one inference from caller-taken `material` over an in-memory
/// channel pair — the reactor's serving shape, both parties in-process —
/// and returns the reconstructed boundary activation.
fn serve_one(
    core: &SessionCore,
    client: &SharedPiSession,
    material: InferenceMaterial,
    x: &Tensor,
) -> Vec<u64> {
    let (cch, sch, _counter) = channel_pair();
    std::thread::scope(|scope| {
        let request = scope.spawn(move || client.request_one(&cch, x).unwrap().share);
        let server_share = core.serve_prepared(&[&sch], vec![material]).unwrap().remove(0);
        let client_share = request.join().expect("client party");
        c2pi_mpc::share::reconstruct(&client_share, &server_share)
    })
}

fn take_material(pool: &ShardedMaterialPool, home: usize) -> Box<InferenceMaterial> {
    match pool.try_take(home).unwrap() {
        PoolTake::Material(m) => m,
        other => panic!("expected material, got {other:?}"),
    }
}

#[test]
fn sharded_concurrent_outputs_are_a_permutation_of_sequential() {
    let total = THREADS * PER_THREAD;
    let cfg = PiConfig::default();
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 77);

    // Sequential reference: one unsharded session, same master seed,
    // draining its pool in order.
    let sequential = shared_session(cfg);
    sequential.preprocess(total).unwrap();
    let mut want: Vec<Vec<u64>> = (0..total)
        .map(|_| {
            let out = sequential.infer(&x).unwrap();
            c2pi_mpc::share::reconstruct(&out.client_share, &out.server_share)
        })
        .collect();

    // Sharded run: the whole stock lands in shard 0, so every take by a
    // worker homed on shard 1 or 2 must steal — the worst-case stealing
    // regime, not the steady state.
    let server = shared_session(cfg);
    let core = Arc::clone(server.core());
    let pool = ShardedMaterialPool::new(Arc::clone(&core), SHARDS);
    pool.shard(0).preprocess(total).unwrap();
    let client = shared_session(cfg);

    let mut got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|home| {
                let (pool, core, client, x) = (&pool, &core, &client, &x);
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|_| serve_one(core, client, *take_material(pool, home), x))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Steal accounting: homes 1 and 2 never had stock, so each of their
    // takes crossed shards; homes 0 and 3 (≡ 0 mod 3) never did.
    assert_eq!(pool.steals(), (2 * PER_THREAD) as u64);

    // Ledger exactness, per shard and in aggregate. Steals consume
    // through the victim, so shard 0 carries every count and the
    // others stay zero.
    for (i, l) in pool.shard_ledgers().iter().enumerate() {
        assert_eq!(
            l.generated_offline + l.generated_inline,
            l.consumed + l.available,
            "shard {i} invariant"
        );
    }
    let ledger = pool.ledger();
    assert_eq!(ledger.consumed, total as u64, "every take consumed exactly one set");
    assert_eq!(ledger.generated_offline, total as u64);
    assert_eq!(ledger.generated_inline, 0, "the sharded pool never deals inline");
    assert_eq!(ledger.available, 0);
    assert_eq!(pool.shard_ledgers()[0].consumed, total as u64);
    // The dealt contract regenerates the client half inline, once per
    // request — the client's books must balance too.
    assert_eq!(client.ledger().generated_inline, total as u64);

    // Bit-for-bit: same allocator prefix, so the output multisets match.
    want.sort();
    got.sort();
    assert_eq!(want, got, "sharded outputs must be a permutation of the sequential outputs");
}

#[test]
fn killed_sharded_pool_warm_boots_from_segments_bit_for_bit() {
    let total = 6usize;
    let cfg = PiConfig::default();
    let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, 123);

    // Uninterrupted reference: want[i] is the output of seed i.
    let reference = shared_session(cfg);
    reference.preprocess(total).unwrap();
    let want: Vec<Vec<u64>> = (0..total)
        .map(|_| {
            let out = reference.infer(&x).unwrap();
            c2pi_mpc::share::reconstruct(&out.client_share, &out.server_share)
        })
        .collect();

    let base = tmp("crash");
    let server = shared_session(cfg);
    let core = Arc::clone(server.core());
    let client = shared_session(cfg);

    // Crash run: attach segments, preprocess 6 (round-robin: shard 0
    // holds seeds 0/2/4, shard 1 holds 1/3/5), serve two from home 0
    // (seeds 0 and 2), die without a flush — the kill -9 shape, since
    // records are appended eagerly.
    {
        let pool = ShardedMaterialPool::new(Arc::clone(&core), 2);
        let boot = pool.attach_stores(&base).unwrap();
        assert_eq!(boot.restored, 0, "fresh segments restore nothing");
        assert!(pool.has_stores());
        pool.preprocess(total).unwrap();
        assert_eq!(pool.depths(), vec![3, 3]);
        for i in [0usize, 2] {
            assert_eq!(
                serve_one(&core, &client, *take_material(&pool, 0), &x),
                want[i],
                "crash-run output {i} bit-for-bit"
            );
        }
    }

    // Warm boot from the segments: the four unconsumed sets come back,
    // the shared seed stream fast-forwards once to the watermark, and
    // nothing is re-preprocessed.
    let pool = ShardedMaterialPool::new(Arc::clone(&core), 2);
    let boot = pool.attach_stores(&base).unwrap();
    assert_eq!(boot.restored, 4, "the four unconsumed sets come back");
    assert_eq!(boot.drawn, 6, "allocator fast-forwarded to the global watermark");
    assert!(!boot.truncated_tail, "eager appends leave no torn tail on a plain drop");
    let ledger = pool.ledger();
    assert_eq!(ledger.generated_offline, 6, "resumed, not re-preprocessed");
    assert_eq!(ledger.generated_inline, 0);
    assert_eq!(ledger.consumed, 2);
    assert_eq!(ledger.available, 4);
    assert_eq!(ledger.restored, 4);
    assert_eq!(pool.depths(), vec![1, 3], "per-segment replay restores each shard's own tail");

    // Serve the rest (stealing once shard 0 runs dry) and compare
    // multisets against the reference outputs not consumed pre-crash.
    let mut got: Vec<Vec<u64>> =
        (0..4).map(|home| serve_one(&core, &client, *take_material(&pool, home), &x)).collect();
    assert!(matches!(pool.try_take(0).unwrap(), PoolTake::Empty));
    let mut rest = vec![want[1].clone(), want[3].clone(), want[4].clone(), want[5].clone()];
    got.sort();
    rest.sort();
    assert_eq!(got, rest, "recovered outputs bit-for-bit");

    let ledger = pool.ledger();
    assert_eq!(ledger.consumed, 6);
    assert_eq!(ledger.available, 0);
    assert_eq!(
        ledger.generated_offline + ledger.generated_inline,
        ledger.consumed + ledger.available
    );

    for i in 0..2 {
        std::fs::remove_file(ShardedMaterialPool::segment_path(&base, i)).unwrap();
    }
}

#[test]
fn attach_stores_refuses_a_pool_that_already_drew_seeds() {
    let server = shared_session(PiConfig::default());
    let pool = ShardedMaterialPool::new(Arc::clone(server.core()), 2);
    pool.preprocess(1).unwrap();
    let err = pool.attach_stores(tmp("used")).unwrap_err();
    assert!(err.to_string().contains("fresh sharded pool"), "got: {err}");
}
