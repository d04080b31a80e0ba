//! Offline API-compatible subset of the `rayon` crate.
//!
//! Parallel maps are executed with `std::thread::scope` over contiguous chunks
//! of the input; results are stitched back together in input order, so
//! `collect` is deterministic regardless of the number of threads — the same
//! guarantee real rayon gives for indexed parallel iterators.
//!
//! The default worker count is `std::thread::available_parallelism()`;
//! [`ThreadPool::install`] scopes an override to a closure, which is how the
//! engines pin a run's thread count.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;

pub mod iter;

pub use iter::prelude;

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of threads parallel operations will use on this thread.
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        (a(), b())
    } else {
        std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            (ra, hb.join().expect("rayon::join worker panicked"))
        })
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (never actually produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads (0 means the default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle carrying a thread-count configuration.
///
/// Unlike real rayon there are no resident worker threads; `install` simply
/// scopes the configured parallelism to the closure.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = THREAD_OVERRIDE.with(Cell::get);
        THREAD_OVERRIDE.with(|c| c.set(self.num_threads));
        let guard = RestoreOverride(prev);
        let out = op();
        drop(guard);
        out
    }

    /// The configured thread count (0 means the default).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

struct RestoreOverride(usize);

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Splits `0..len` into one contiguous chunk per thread, runs `run_chunk` on
/// each (in parallel when more than one thread is configured), and
/// concatenates the results in input order.
pub(crate) fn run_chunked<R, F>(len: usize, run_chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let threads = current_num_threads().max(1);
    if threads == 1 || len <= 1 {
        return run_chunk(0..len);
    }
    let chunk = len.div_ceil(threads);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let rc = &run_chunk;
            handles.push(s.spawn(move || rc(start..end)));
            start = end;
        }
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("rayon worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn chunked_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = items.par_iter().map(|&x| 2 * x).collect();
        assert_eq!(doubled, (0..1000).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn mut_enumerate_map_sees_global_indices() {
        let mut data = vec![0u64; 500];
        let idx: Vec<usize> = data
            .par_iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                *slot = i as u64;
                i
            })
            .collect();
        assert_eq!(idx, (0..500).collect::<Vec<_>>());
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn range_into_par_iter_maps() {
        let squares: Vec<usize> = (0..64).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[63], 63 * 63);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }
}
