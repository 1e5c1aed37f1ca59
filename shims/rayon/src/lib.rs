//! Minimal `rayon`-compatible shim for the offline build.
//!
//! Implements the one parallel iterator shape the workspace uses —
//! `par_chunks_mut(n).enumerate().for_each(f)` — with real threads via
//! `std::thread::scope`. A region's chunks sit in one shared queue: the
//! calling thread claims the first run of chunks and keeps claiming,
//! and each helper it spawned claims from the same queue, so a helper
//! that starts late simply takes less. Helpers are bounded process-wide:
//! a region enlists one only while fewer than [`current_num_threads`]
//! threads are working inside regions (callers and helpers alike), so
//! concurrent callers share the cores instead of each spawning a full
//! set — the bound real rayon gets from its global pool. One chunk, one
//! core or a machine already busy with regions runs on the caller alone.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Parallel-iterator entry points, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::ParallelSliceMut;
}

/// Number of threads a region may keep busy (available parallelism,
/// capped so short kernels don't drown in spawn overhead), as real
/// rayon's `current_num_threads`. Asked once, like rayon's global pool:
/// the query reads cgroup files (~20 µs), which a per-layer parallel
/// region would otherwise pay on every call.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16))
}

/// Threads working inside parallel regions right now, process-wide:
/// every caller while its region runs, plus every helper it enlisted.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// `n` units of [`BUSY`], given back on drop — so a band that panics,
/// on the caller or on a helper, cannot leak its count.
struct Enlisted(usize);

impl Enlisted {
    /// Counts the calling thread in.
    fn caller() -> Self {
        BUSY.fetch_add(1, Ordering::AcqRel);
        Enlisted(1)
    }

    /// Reserves up to `want` helper slots, as many as keep [`BUSY`] at
    /// or under [`current_num_threads`]; possibly none.
    fn helpers(want: usize) -> Self {
        let threads = current_num_threads();
        let mut busy = BUSY.load(Ordering::Acquire);
        loop {
            let n = want.min(threads.saturating_sub(busy));
            if n == 0 {
                return Enlisted(0);
            }
            match BUSY.compare_exchange_weak(busy, busy + n, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Enlisted(n),
                Err(now) => busy = now,
            }
        }
    }

    /// Splits one unit off, for a helper thread to own.
    fn take_one(&mut self) -> Self {
        self.0 -= 1;
        Enlisted(1)
    }
}

impl Drop for Enlisted {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Mutable-slice chunking, mirroring `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into mutable chunks of `chunk_size` (the last may
    /// be shorter) to be processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut { slice: self, chunk_size }
    }
}

/// Borrowed parallel chunk iterator.
pub struct ParChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its index, as `rayon`'s `enumerate` does.
    pub fn enumerate(self) -> EnumeratedParChunksMut<'a, T> {
        EnumeratedParChunksMut { inner: self }
    }

    /// Runs `op` on every chunk across the worker pool.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&mut [T]) + Send + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| op(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumeratedParChunksMut<'a, T: Send> {
    inner: ParChunksMut<'a, T>,
}

impl<'a, T: Send> EnumeratedParChunksMut<'a, T> {
    /// Runs `op` on every `(index, chunk)`: on the calling thread, and
    /// on as many helpers as the process-wide bound lets it enlist.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &mut [T])) + Send + Sync,
    {
        let chunk_size = self.inner.chunk_size.max(1);
        let chunks = self.inner.slice.chunks_mut(chunk_size).enumerate();
        let n = chunks.len();
        let _caller = Enlisted::caller();
        let mut helpers = Enlisted::helpers(n.saturating_sub(1));
        if helpers.0 == 0 {
            chunks.for_each(op);
            return;
        }
        // A run of consecutive chunks is the unit of claim: a few per
        // thread, so a region of many tiny chunks (matmul rows) takes
        // the queue lock a handful of times, not once per chunk.
        let per_run = n.div_ceil(4 * (helpers.0 + 1));
        // No chunk runs under the lock, so a panicking band cannot poison
        // it; recovering anyway keeps a poisoned queue a non-event.
        let queue = Mutex::new(chunks);
        let claim = || -> Vec<_> {
            queue.lock().unwrap_or_else(PoisonError::into_inner).by_ref().take(per_run).collect()
        };
        let claim = &claim;
        let work = |mut run: Vec<(usize, &'a mut [T])>| {
            while !run.is_empty() {
                run.into_iter().for_each(&op);
                run = claim();
            }
        };
        let work = &work;
        // Claimed before any helper exists, so the caller always works
        // at least one run however fast its helpers start.
        let first = claim();
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..helpers.0)
                .map(|_| {
                    let slot = helpers.take_one();
                    scope.spawn(move || {
                        let _slot = slot;
                        work(claim());
                    })
                })
                .collect();
            work(first);
            // A helper's panic resurfaces on the caller with its own
            // payload, as rayon's does.
            for handle in spawned {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, BUSY};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, Mutex, PoisonError};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// The helper bound is process-wide, so tests that count threads
    /// must not share the process's regions with each other.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a two-chunk region whose first chunk waits up to ten seconds
    /// for the second to start. Returns the thread of each chunk and
    /// whether the second started while the first waited — which only a
    /// helper can make happen.
    fn two_chunks() -> ([ThreadId; 2], bool) {
        let (started, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let ids = Mutex::new([thread::current().id(); 2]);
        let overlapped = AtomicBool::new(false);
        let mut v = [0u8; 2];
        v.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
            ids.lock().unwrap()[i] = thread::current().id();
            if i == 0 {
                let met = wait.lock().unwrap().recv_timeout(Duration::from_secs(10)).is_ok();
                overlapped.store(met, Ordering::SeqCst);
            } else {
                started.send(()).unwrap();
            }
        });
        (ids.into_inner().unwrap(), overlapped.into_inner())
    }

    #[test]
    fn enumerated_chunks_cover_all_elements() {
        let _one = exclusive();
        let mut v = vec![0u32; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i as u32 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[999], 1000usize.div_ceil(7) as u32);
    }

    #[test]
    fn plain_for_each_works() {
        let _one = exclusive();
        let mut v = vec![1i64; 64];
        v.par_chunks_mut(8).for_each(|chunk| {
            for x in chunk.iter_mut() {
                *x *= 2;
            }
        });
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn the_caller_works_a_chunk_and_one_chunk_spawns_nothing() {
        let _one = exclusive();
        let me = thread::current().id();
        let seen = Mutex::new(None);
        [0u8].par_chunks_mut(1).for_each(|_| {
            *seen.lock().unwrap() = Some((thread::current().id(), BUSY.load(Ordering::SeqCst)));
        });
        assert_eq!(seen.into_inner().unwrap(), Some((me, 1)), "one chunk: the caller, alone");
        if current_num_threads() > 1 {
            let ([first, second], overlapped) = two_chunks();
            assert_eq!(first, me, "the calling thread idled through its own region");
            assert!(overlapped && second != me, "two chunks on two cores ran one after the other");
        }
    }

    #[test]
    fn concurrent_callers_never_enlist_more_helpers_than_the_cores() {
        // Eight callers enter at once. Each always works its own region,
        // but helpers are enlisted only while fewer than
        // `current_num_threads()` threads are inside regions — so at most
        // `threads − 1` helpers are ever alive, where an unbounded shim
        // would run up to `threads − 1` per caller.
        const CALLERS: usize = 8;
        let _one = exclusive();
        let threads = current_num_threads();
        let (inside, inside_high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (helping, helping_high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(CALLERS);
        thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    let caller = thread::current().id();
                    let mut v = [0u8; 16];
                    start.wait();
                    v.par_chunks_mut(1).for_each(|_| {
                        let helper = thread::current().id() != caller;
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        inside_high.fetch_max(now, Ordering::SeqCst);
                        if helper {
                            let now = helping.fetch_add(1, Ordering::SeqCst) + 1;
                            helping_high.fetch_max(now, Ordering::SeqCst);
                        }
                        // Long enough for the eight regions to overlap.
                        thread::sleep(Duration::from_millis(1));
                        if helper {
                            helping.fetch_sub(1, Ordering::SeqCst);
                        }
                        inside.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }
        });
        let (inside_high, helping_high) = (inside_high.into_inner(), helping_high.into_inner());
        assert!(helping_high < threads, "{helping_high} helpers alive on {threads} cores");
        assert!(inside_high < CALLERS + threads, "{inside_high} threads inside regions");
        assert_eq!(BUSY.load(Ordering::SeqCst), 0, "every region gave its count back");
    }

    #[test]
    fn a_panicking_band_propagates_and_leaks_no_count() {
        // Chunk 0 is the caller's; on more than one core, chunk 5 may be
        // a helper's.
        let _one = exclusive();
        for bad in [0, 5] {
            let caught = std::panic::catch_unwind(|| {
                let mut v = [0u8; 8];
                v.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                    if i == bad {
                        panic!("band {i}");
                    }
                });
            });
            let payload = caught.expect_err("the band's panic reached the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(&*format!("band {bad}")));
            assert_eq!(BUSY.load(Ordering::SeqCst), 0, "band {bad} leaked its count");
        }
        if current_num_threads() > 1 {
            assert!(two_chunks().1, "the region after a panic got no helper");
        }
    }
}
