//! Per-core material-pool shards with work-stealing — the offline
//! phase's answer to serving-layer concurrency.
//!
//! A single [`MaterialPool`] serializes every take, refill and store
//! append through one `Mutex`+`Condvar`; fine for eight clients, a hot
//! lock at hundreds. A [`ShardedMaterialPool`] splits that state into
//! `n` full pools (each with its own queue, ledger, condvars and
//! [`MaterialStore`] segment) that share exactly one thing: the
//! seed allocator, a mutex over a PRG step and a counter increment.
//! Serving workers map to shards (worker *w* → shard *w mod n*), so in
//! steady state a take touches only its home shard's lock.
//!
//! **Work stealing.** When a worker's home shard runs dry it scans its
//! siblings and takes from the first non-empty one — the hot shard
//! serves from its neighbours' stock while its own replenisher catches
//! up. The steal consumes through the *victim's* pool, so the consumed
//! record lands in the victim's store segment and every shard ledger
//! stays exact; only when every shard is empty does the take report
//! [`PoolTake::Empty`], which the serving layer turns into a typed
//! backpressure frame instead of blocking.
//!
//! **Determinism.** Because all shards draw from the one serialized
//! allocator, the multiset of seeds a sharded deployment consumes is a
//! prefix of the same sequential stream an unsharded session walks —
//! which shard dealt a seed never enters the material, so concurrent
//! outputs are a bit-for-bit permutation of the sequential run's (the
//! `shard_stress` test pins this down). See DESIGN.md §8.
//!
//! **Ledger exactness.** Each shard maintains the pool invariant
//! `generated_offline + generated_inline == consumed + available` under
//! its own lock; the sums a [`ShardedMaterialPool::ledger`] reports
//! therefore satisfy it too, with no cross-shard coordination.

use crate::pool::{MaterialPool, PoolTake, Replenisher, SeedAllocator, SessionCore};
use crate::report::PreprocessLedger;
use crate::store::{MaterialStore, RestoreReport};
use crate::{PiError, Result};
use c2pi_mpc::dealer::Halves;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A fixed set of [`MaterialPool`] shards over one [`SessionCore`] and
/// one shared seed stream. See the [module docs](self) for the
/// concurrency and determinism story.
pub struct ShardedMaterialPool {
    shards: Vec<Arc<MaterialPool>>,
    alloc: Arc<SeedAllocator>,
    /// Cross-shard takes served from a sibling's stock.
    steals: AtomicU64,
    /// Round-robin cursor distributing preprocess batches.
    cursor: AtomicUsize,
}

impl std::fmt::Debug for ShardedMaterialPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMaterialPool")
            .field("shards", &self.shards.len())
            .field("depths", &self.depths())
            .field("steals", &self.steals())
            .finish()
    }
}

impl ShardedMaterialPool {
    /// Creates `shards` empty pools sharing one seed allocator over
    /// `core`. `shards` is clamped to at least 1.
    ///
    /// The shards are **server-sided**: a sharded pool exists to feed
    /// [`SessionCore::serve_prepared`] (its takes never deal inline and
    /// no client entry point accepts a set from outside), so every deal
    /// — preprocess, replenisher, store replay — expands only the
    /// server half. On the Delphi backend that is the difference between
    /// garbling every circuit and drawing a few labels per item, and
    /// between ~30 MB and ~4 MB held per pooled set of the demo prefix.
    /// The client half of each set is expanded by the client that is
    /// dealt its seed ([`SessionCore::expand_dealt`]).
    pub fn new(core: Arc<SessionCore>, shards: usize) -> Self {
        let alloc = Arc::new(SeedAllocator::new(core.config().dealer_seed));
        let shards = (0..shards.max(1))
            .map(|_| {
                let alloc = Arc::clone(&alloc);
                Arc::new(MaterialPool::sided(Arc::clone(&core), alloc, Halves::Server))
            })
            .collect();
        ShardedMaterialPool {
            shards,
            alloc,
            steals: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The shared immutable session core.
    pub fn core(&self) -> &Arc<SessionCore> {
        self.shards[0].core()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's pool (for replenishers or per-shard inspection).
    ///
    /// # Panics
    ///
    /// Panics when `i >= shard_count()`.
    pub fn shard(&self, i: usize) -> &Arc<MaterialPool> {
        &self.shards[i]
    }

    /// Offline phase: deals material for `n` future inferences,
    /// distributed round-robin across shards. Thread-safe.
    ///
    /// # Errors
    ///
    /// Propagates dealer errors and store append failures.
    pub fn preprocess(&self, n: usize) -> Result<()> {
        for _ in 0..n {
            let at = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
            self.shards[at].preprocess(1)?;
        }
        Ok(())
    }

    /// Pooled-only take for a worker whose home shard is `home` (taken
    /// modulo the shard count): pops the home shard first, then
    /// work-steals from siblings in ring order. Never deals inline and
    /// never blocks — an all-empty result is the serving layer's cue to
    /// shed load with a typed backpressure frame. Reports
    /// [`PoolTake::ShutDown`] only when every shard is shut down and
    /// drained.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn try_take(&self, home: usize) -> Result<PoolTake> {
        let n = self.shards.len();
        let home = home % n;
        let mut shut = 0usize;
        for offset in 0..n {
            let at = (home + offset) % n;
            match self.shards[at].try_take()? {
                PoolTake::Material(m) => {
                    if offset != 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(PoolTake::Material(m));
                }
                PoolTake::ShutDown => shut += 1,
                PoolTake::Empty => {}
            }
        }
        Ok(if shut == n { PoolTake::ShutDown } else { PoolTake::Empty })
    }

    /// Pooled-only take of up to `n` material sets for one fused batch,
    /// each drawn exactly as [`ShardedMaterialPool::try_take`] would
    /// (home shard first, then work stealing), so a batch of `k`
    /// consumes `k` pool items with every shard ledger exact. Stops at
    /// the first all-empty scan: the returned vector holds however much
    /// stock could cover (possibly empty), and the serving layer sheds
    /// the uncovered members. The flag reports whether the pool is shut
    /// down and drained.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn try_take_n(
        &self,
        home: usize,
        n: usize,
    ) -> Result<(Vec<crate::pool::InferenceMaterial>, bool)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.try_take(home)? {
                PoolTake::Material(m) => out.push(*m),
                PoolTake::Empty => return Ok((out, false)),
                PoolTake::ShutDown => return Ok((out, true)),
            }
        }
        Ok((out, false))
    }

    /// Cross-shard takes served from a sibling shard's stock so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Per-shard ready-queue depths, in shard order.
    pub fn depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.pooled()).collect()
    }

    /// Total material sets pooled across all shards.
    pub fn pooled(&self) -> usize {
        self.shards.iter().map(|s| s.pooled()).sum()
    }

    /// Per-shard ledger snapshots, in shard order.
    pub fn shard_ledgers(&self) -> Vec<PreprocessLedger> {
        self.shards.iter().map(|s| s.ledger()).collect()
    }

    /// Deployment-wide ledger: the fieldwise sum of every shard's.
    /// Each shard's ledger is exact under its own lock, so the sums
    /// satisfy the same invariant
    /// (`generated_offline + generated_inline == consumed + available`).
    pub fn ledger(&self) -> PreprocessLedger {
        let mut total = PreprocessLedger::default();
        for l in self.shard_ledgers() {
            total.generated_offline += l.generated_offline;
            total.generated_inline += l.generated_inline;
            total.consumed += l.consumed;
            total.available += l.available;
            total.generation_seconds += l.generation_seconds;
            total.base_ots += l.base_ots;
            total.extended_ots += l.extended_ots;
            total.seed_bytes += l.seed_bytes;
            total.expanded_bytes += l.expanded_bytes;
            total.restored += l.restored;
        }
        total
    }

    /// The store segment path for shard `i` under `base` —
    /// `<base>.shard<i>`.
    pub fn segment_path(base: &Path, i: usize) -> PathBuf {
        PathBuf::from(format!("{}.shard{i}", base.display()))
    }

    /// Attaches one [`MaterialStore`] segment per shard
    /// (`<base>.shard<i>`), warm-booting the whole deployment from a
    /// previous process: every segment is replayed first, the shared
    /// seed stream is fast-forwarded *once* to the highest position any
    /// segment recorded, then each shard resumes its own ledger and
    /// re-expands its pending seeds. Aggregates the per-segment reports
    /// (`drawn` is the global watermark, the counts are sums).
    ///
    /// Must be called on a fresh sharded pool, before preprocessing or
    /// serving.
    ///
    /// # Errors
    ///
    /// [`PiError::Store`] on I/O failure or fingerprint mismatch;
    /// [`PiError::BadConfig`] when the pool has already drawn seeds or
    /// has stores attached.
    pub fn attach_stores(&self, base: impl AsRef<Path>) -> Result<RestoreReport> {
        if self.alloc.drawn() != 0 {
            return Err(PiError::BadConfig(
                "attach_stores requires a fresh sharded pool (attach before preprocessing \
                 or serving)"
                    .into(),
            ));
        }
        let fingerprint = self.core().session_fingerprint();
        let mut opened = Vec::with_capacity(self.shards.len());
        let mut watermark = 0u64;
        for i in 0..self.shards.len() {
            let path = Self::segment_path(base.as_ref(), i);
            let (store, scan) = MaterialStore::open(&path, fingerprint)?;
            watermark = watermark.max(scan.drawn);
            opened.push((store, scan));
        }
        self.alloc.fast_forward_to(watermark);
        let mut total = RestoreReport { drawn: watermark, ..Default::default() };
        for (shard, (store, scan)) in self.shards.iter().zip(opened) {
            let report = shard.install_scan(store, scan)?;
            total.restored += report.restored;
            total.records += report.records;
            total.truncated_tail |= report.truncated_tail;
        }
        Ok(total)
    }

    /// Whether every shard has a persistent store segment attached.
    pub fn has_stores(&self) -> bool {
        self.shards.iter().all(|s| s.has_store())
    }

    /// Graceful-drain flush of every shard's store segment (flush
    /// marker + fsync each). No-op for shards without stores.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures (fails on the first erroring
    /// shard).
    pub fn flush_stores(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush_store()?;
        }
        Ok(())
    }

    /// Spawns one [`Replenisher`] per shard with the given watermarks
    /// (per shard, not global). Hold the handles for the serving loop's
    /// lifetime; dropping them stops the threads.
    pub fn spawn_replenishers(&self, low: usize, high: usize) -> Vec<Replenisher> {
        self.shards.iter().map(|s| Replenisher::spawn(Arc::clone(s), low, high)).collect()
    }

    /// Signals shutdown to every shard (replenishers and blocking
    /// takers wake up; pooled material can still drain via
    /// [`ShardedMaterialPool::try_take`]).
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.shutdown();
        }
    }

    /// Whether every shard is shut down.
    pub fn is_shut_down(&self) -> bool {
        self.shards.iter().all(|s| s.is_shut_down())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{specs_of, PiConfig};
    use crate::plan::compile;
    use c2pi_nn::layers::{Conv2d, Relu};
    use c2pi_nn::Sequential;

    fn tiny_core() -> Arc<SessionCore> {
        let mut seq = Sequential::new();
        seq.push(Conv2d::new(1, 2, 3, 1, 1, 1, 1));
        seq.push(Relu::new());
        let cfg = PiConfig::default();
        let plan = compile(&specs_of(&seq), (1, 6, 6), cfg.fixed).unwrap();
        Arc::new(SessionCore::new(plan, cfg))
    }

    #[test]
    fn preprocess_distributes_round_robin() {
        let pool = ShardedMaterialPool::new(tiny_core(), 3);
        pool.preprocess(7).unwrap();
        assert_eq!(pool.depths(), vec![3, 2, 2]);
        assert_eq!(pool.pooled(), 7);
        let l = pool.ledger();
        assert_eq!(l.generated_offline, 7);
        assert_eq!(l.available, 7);
    }

    #[test]
    fn take_prefers_home_then_steals_then_reports_empty() {
        let pool = ShardedMaterialPool::new(tiny_core(), 2);
        // Load only shard 0.
        pool.shard(0).preprocess(2).unwrap();
        // Home hit: no steal.
        assert!(matches!(pool.try_take(0).unwrap(), PoolTake::Material(_)));
        assert_eq!(pool.steals(), 0);
        // Shard 1 is empty → steal from shard 0.
        assert!(matches!(pool.try_take(1).unwrap(), PoolTake::Material(_)));
        assert_eq!(pool.steals(), 1);
        // Everything empty → backpressure signal, not a block.
        assert!(matches!(pool.try_take(0).unwrap(), PoolTake::Empty));
        let l = pool.ledger();
        assert_eq!(l.consumed, 2);
        assert_eq!(l.generated_offline + l.generated_inline, l.consumed + l.available);
    }

    #[test]
    fn shards_share_one_sequential_seed_stream() {
        // The multiset of seeds a sharded pool hands out must be a
        // prefix of the unsharded stream (order may differ per shard).
        let core = tiny_core();
        let reference = MaterialPool::new(Arc::clone(&core));
        reference.preprocess(6).unwrap();
        let mut want: Vec<u64> = (0..6).map(|_| reference.take().unwrap().seed()).collect();
        want.sort_unstable();

        let pool = ShardedMaterialPool::new(core, 3);
        pool.preprocess(6).unwrap();
        let mut got = Vec::new();
        for home in [2, 0, 1, 1, 0, 2] {
            match pool.try_take(home).unwrap() {
                PoolTake::Material(m) => got.push(m.seed()),
                other => panic!("expected material, got {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn take_n_covers_what_stock_allows_and_steals_across_shards() {
        let pool = ShardedMaterialPool::new(tiny_core(), 2);
        pool.shard(0).preprocess(1).unwrap();
        pool.shard(1).preprocess(2).unwrap();
        // Ask for 4 with only 3 pooled: partial coverage, not an error.
        let (mats, shut) = pool.try_take_n(0, 4).unwrap();
        assert_eq!(mats.len(), 3);
        assert!(!shut);
        // Two of the three takes crossed shards (home 0 held one item).
        assert_eq!(pool.steals(), 2);
        let l = pool.ledger();
        assert_eq!(l.consumed, 3);
        assert_eq!(l.available, 0);
        assert_eq!(l.generated_offline + l.generated_inline, l.consumed + l.available);
        // Dry pool: empty vector, still not shut down.
        let (mats, shut) = pool.try_take_n(1, 2).unwrap();
        assert!(mats.is_empty());
        assert!(!shut);
        // After shutdown the flag flips.
        pool.shutdown();
        let (mats, shut) = pool.try_take_n(0, 1).unwrap();
        assert!(mats.is_empty());
        assert!(shut);
    }

    #[test]
    fn shutdown_drains_then_reports_shut_down() {
        let pool = ShardedMaterialPool::new(tiny_core(), 2);
        pool.preprocess(1).unwrap();
        pool.shutdown();
        assert!(pool.is_shut_down());
        assert!(matches!(pool.try_take(1).unwrap(), PoolTake::Material(_)));
        assert!(matches!(pool.try_take(1).unwrap(), PoolTake::ShutDown));
    }
}
