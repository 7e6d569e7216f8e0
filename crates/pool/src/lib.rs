//! A std-only scoped thread pool with chunked fan-out.
//!
//! The workspace is hermetic (DESIGN.md §5) — no rayon, no crossbeam — so
//! the parallel chase and parallel route-forest construction run on this
//! small, safe abstraction over [`std::thread::scope`]:
//!
//! * [`Pool`] fixes a worker count, taken from `ROUTES_THREADS` when set or
//!   [`std::thread::available_parallelism`] otherwise.
//! * [`Pool::scope`] opens a scoped-spawn region; borrows of stack data are
//!   allowed exactly as with `std::thread::scope`.
//! * [`Pool::par_map_chunks`] is the workhorse: it splits an index range
//!   `0..len` into at most `threads` contiguous chunks, runs a closure on
//!   each chunk (chunk 0 on the calling thread, the rest on scoped worker
//!   threads), and returns the per-chunk results **in chunk order** — the
//!   deterministic merge the chase and forest builders rely on.
//!
//! Threads are spawned per fan-out region rather than parked in a
//! persistent pool: a persistent pool that accepts borrowing closures
//! cannot be written in safe std Rust (it needs crossbeam-style lifetime
//! erasure), and the regions this crate serves — chase rounds, forest
//! waves, benchmark points — run for milliseconds to seconds, so the
//! microseconds of `thread::spawn` are noise. With one worker every helper
//! degenerates to an inline loop and spawns nothing.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// Environment variable overriding the worker count ([`Pool::from_env`]).
pub const THREADS_ENV: &str = "ROUTES_THREADS";

/// A fixed degree of parallelism for scoped, chunked fan-out.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: NonZeroUsize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"),
        }
    }

    /// A single-worker pool: every helper runs inline on the caller.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// Size the pool from the environment: `ROUTES_THREADS` when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`]
    /// (falling back to 1 when even that is unavailable).
    pub fn from_env() -> Self {
        let threads = routes_obs::env_number(THREADS_ENV)
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
        Pool::new(threads)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether fan-out helpers will actually spawn threads.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Open a scoped-spawn region. This is [`std::thread::scope`] with the
    /// pool as the carrier of the intended degree of parallelism; use
    /// [`Pool::par_map_chunks`] unless the fan-out shape is irregular.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope thread::Scope<'scope, 'env>) -> R,
    {
        thread::scope(f)
    }

    /// Split `0..len` into at most [`Pool::threads`] contiguous chunks of at
    /// least `min_chunk` items (the final chunk takes the remainder), apply
    /// `f` to each `(chunk_index, index_range)` pair, and return the results
    /// in chunk order.
    ///
    /// Chunk 0 runs on the calling thread; other chunks run on scoped
    /// threads. The chunk *boundaries* depend on the worker count, but a
    /// caller that treats each index independently and concatenates the
    /// per-chunk outputs obtains the same sequence at every worker count —
    /// the determinism contract the chase and forest builders are built on.
    pub fn par_map_chunks<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let chunks = chunk_ranges(len, self.threads(), min_chunk);
        match chunks.len() {
            0 => Vec::new(),
            1 => vec![f(0, chunks.into_iter().next().expect("one chunk"))],
            _ => self.scope(|s| {
                let f = &f;
                // Carry the caller's trace context onto the workers so
                // spans opened inside a parallel region land under the
                // request that spawned them; likewise the caller's open
                // profiler frames, so sampled worker stacks attribute to
                // the request path that spawned them.
                let trace = routes_obs::current();
                let frames = routes_obs::snapshot_frames();
                let mut rest = chunks.clone().into_iter().enumerate().skip(1);
                let handles: Vec<_> = rest
                    .by_ref()
                    .map(|(k, range)| {
                        let trace = trace.clone();
                        let frames = frames.clone();
                        s.spawn(move || {
                            let _scope = routes_obs::scoped(trace);
                            let _frames = routes_obs::adopt_frames(frames);
                            f(k, range)
                        })
                    })
                    .collect();
                let first = f(0, chunks[0].clone());
                let mut out = Vec::with_capacity(handles.len() + 1);
                out.push(first);
                for h in handles {
                    out.push(h.join().expect("pool worker panicked"));
                }
                out
            }),
        }
    }

    /// [`Pool::par_map_chunks`] over the items of a slice: apply `f` to every
    /// element and collect the outputs **in item order**. `min_chunk` bounds
    /// the smallest per-thread chunk, so short inputs stay on one thread.
    pub fn par_map_items<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let per_chunk = self.par_map_chunks(items.len(), min_chunk, |_, range| {
            items[range].iter().map(&f).collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for chunk in per_chunk {
            out.extend(chunk);
        }
        out
    }

    /// [`Pool::par_map_items`] for closures that yield zero or more outputs
    /// per item: apply `f` to every element and concatenate the outputs **in
    /// item order** (the flattening happens after the chunk-ordered merge,
    /// so the result is identical at every worker count).
    pub fn par_flat_map_items<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Vec<R> + Sync,
    {
        let per_item = self.par_map_items(items, min_chunk, f);
        let mut out = Vec::with_capacity(per_item.iter().map(Vec::len).sum());
        for group in per_item {
            out.extend(group);
        }
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Split `0..len` into at most `parts` contiguous ranges of at least
/// `min_chunk` items each (the last range absorbs the remainder). Returns no
/// ranges for an empty input.
fn chunk_ranges(len: usize, parts: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    // Capping at len / min_chunk (floor) guarantees every chunk holds at
    // least min_chunk items: parts * min_chunk <= len implies the even
    // split's base size is >= min_chunk.
    let parts = parts.max(1).min((len / min_chunk).max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 0..parts {
        let size = base + usize::from(k < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 16, 1000] {
            for parts in [1usize, 2, 3, 8] {
                for min_chunk in [1usize, 4, 64] {
                    let ranges = chunk_ranges(len, parts, min_chunk);
                    let mut covered = Vec::new();
                    for r in &ranges {
                        assert!(r.start <= r.end);
                        covered.extend(r.clone());
                    }
                    assert_eq!(
                        covered,
                        (0..len).collect::<Vec<_>>(),
                        "len={len} parts={parts}"
                    );
                    assert!(ranges.len() <= parts.max(1));
                    if len > 0 {
                        // Every chunk except possibly the only one meets the
                        // minimum (a single chunk may be the short input).
                        if ranges.len() > 1 {
                            assert!(ranges.iter().all(|r| r.len() >= min_chunk.min(len)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn par_map_chunks_is_order_deterministic_across_widths() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let chunks = pool.par_map_chunks(items.len(), 1, |_, range| {
                items[range].iter().map(|x| x * x).collect::<Vec<_>>()
            });
            let flat: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, expect, "threads={threads}");
            let mapped = pool.par_map_items(&items, 1, |x| x * x);
            assert_eq!(mapped, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_chunks_actually_fans_out() {
        let pool = Pool::new(4);
        let ids = Mutex::new(HashSet::new());
        let chunks = pool.par_map_chunks(4, 1, |k, range| {
            ids.lock().unwrap().insert(std::thread::current().id());
            (k, range)
        });
        assert_eq!(chunks.len(), 4);
        for (k, (got_k, range)) in chunks.iter().enumerate() {
            assert_eq!(k, *got_k);
            assert_eq!(range.len(), 1);
        }
        // Four single-item chunks on a 4-thread pool: more than one OS
        // thread participated (chunk 0 runs on the caller).
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn par_flat_map_items_concatenates_in_item_order() {
        let items: Vec<u64> = (0..57).collect();
        // Item k yields k % 3 outputs — uneven, so chunk boundaries matter.
        let expect: Vec<u64> = items
            .iter()
            .flat_map(|&x| (0..x % 3).map(move |j| x * 10 + j))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let flat =
                pool.par_flat_map_items(&items, 1, |&x| (0..x % 3).map(|j| x * 10 + j).collect());
            assert_eq!(flat, expect, "threads={threads}");
        }
    }

    #[test]
    fn min_chunk_keeps_short_inputs_inline() {
        let pool = Pool::new(8);
        let caller = std::thread::current().id();
        let chunks =
            pool.par_map_chunks(100, 1000, |_, range| (std::thread::current().id(), range));
        assert_eq!(
            chunks.len(),
            1,
            "100 items under a 1000 min_chunk is one chunk"
        );
        assert_eq!(chunks[0].0, caller, "single chunk runs on the caller");
        assert_eq!(chunks[0].1, 0..100);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let pool = Pool::new(4);
        let out: Vec<Vec<u8>> = pool.par_map_chunks(0, 1, |_, _| unreachable!());
        assert!(out.is_empty());
        let none: Vec<u8> = pool.par_map_items(&[] as &[u8], 1, |_| unreachable!());
        assert!(none.is_empty());
    }

    #[test]
    fn sequential_pool_runs_on_the_caller() {
        let pool = Pool::sequential();
        assert_eq!(pool.threads(), 1);
        assert!(!pool.is_parallel());
        let caller = std::thread::current().id();
        let chunks = pool.par_map_chunks(10, 1, |_, _| std::thread::current().id());
        assert!(chunks.iter().all(|&id| id == caller));
    }

    #[test]
    fn from_env_reads_the_override() {
        // Env mutation is process-global; this test is the only one in the
        // crate touching ROUTES_THREADS.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Pool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(Pool::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Pool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    fn scope_spawns_scoped_borrows() {
        let pool = Pool::new(2);
        let data = [1u64, 2, 3];
        let total: u64 = pool.scope(|s| {
            let h = s.spawn(|| data.iter().sum::<u64>());
            h.join().unwrap()
        });
        assert_eq!(total, 6);
    }
}
