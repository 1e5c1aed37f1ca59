//! Minimal `rayon`-compatible shim for the offline build.
//!
//! Implements the one parallel iterator shape the workspace uses —
//! `par_chunks_mut(n).enumerate().for_each(f)` — with real threads via
//! `std::thread::scope`, splitting the chunk list evenly across the
//! available cores. Falls back to sequential execution for small inputs
//! or single-core machines.

/// Parallel-iterator entry points, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::ParallelSliceMut;
}

/// Number of worker threads to use (available parallelism, capped so
/// short kernels don't drown in spawn overhead). Asked once, like
/// rayon's global pool: the query reads cgroup files (~20 µs), which a
/// per-layer parallel region would otherwise pay on every call.
fn workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16))
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

impl<T: Send> EnumeratedParChunksMut<'_, T> {
    /// Runs `op` on every `(index, chunk)` across the worker pool.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &mut [T])) + Send + Sync,
    {
        let chunk_size = self.inner.chunk_size.max(1);
        let chunks: Vec<(usize, &mut [T])> =
            self.inner.slice.chunks_mut(chunk_size).enumerate().collect();
        let n_workers = workers();
        if n_workers <= 1 || chunks.len() <= 1 {
            for item in chunks {
                op(item);
            }
            return;
        }
        let per = chunks.len().div_ceil(n_workers);
        let mut bands: Vec<Vec<(usize, &mut [T])>> = Vec::new();
        let mut it = chunks.into_iter();
        loop {
            let band: Vec<_> = it.by_ref().take(per).collect();
            if band.is_empty() {
                break;
            }
            bands.push(band);
        }
        let op = &op;
        std::thread::scope(|scope| {
            for band in bands {
                scope.spawn(move || {
                    for item in band {
                        op(item);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn enumerated_chunks_cover_all_elements() {
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
        let mut v = vec![1i64; 64];
        v.par_chunks_mut(8).for_each(|chunk| {
            for x in chunk.iter_mut() {
                *x *= 2;
            }
        });
        assert!(v.iter().all(|&x| x == 2));
    }
}
