//! Dependency-free parallel execution for the geosocial pipeline.
//!
//! The pipeline is embarrassingly parallel at the user level (visit
//! detection, matching, classification are all per-user) and at the run
//! level (Fig-8 pools independent AODV repetitions), but the build
//! environment has no crates.io access, so rayon is off the table. This
//! crate provides the three primitives the workspace needs, built on
//! `std::thread::scope`:
//!
//! * [`par_map`] / [`par_map_indexed`] — map over a slice, results in
//!   input order, work distributed dynamically via an atomic cursor so
//!   uneven per-item costs (users with long traces) don't serialize on
//!   the slowest chunk;
//! * [`par_reduce`] — chunked fold + ordered merge. Chunk boundaries
//!   depend only on the input length and partials are merged in chunk
//!   order, so even floating-point merges give **bit-identical results
//!   for any thread count**.
//!
//! Thread count resolution, first match wins:
//! 1. [`set_max_threads`] (programmatic override; the `repro` binary's
//!    `--threads` flag lands here),
//! 2. the `GEOSOCIAL_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! At one thread every primitive degenerates to a plain serial loop on
//! the calling thread — no spawns, no synchronization.

#![warn(missing_docs)]

use geosocial_obs::Stopwatch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Cached handles to the executor's exported metrics. Series are
/// process-global: every `par_map`/`par_reduce` call in the process feeds
/// the same counters.
mod metrics {
    geosocial_obs::cached_metrics! {
        /// Items executed by [`crate::par_map`]/[`crate::par_map_indexed`]
        /// (serial and parallel paths alike).
        pub(crate) fn tasks = counter("par.tasks");
        /// Per-item execution time (µs) on the parallel map path.
        pub(crate) fn task_us = histogram("par.task_us");
        /// Per-chunk fold time (µs) on the parallel reduce path.
        pub(crate) fn chunk_us = histogram("par.chunk_us");
        /// Cumulative busy time (µs) across all workers of all parallel calls.
        pub(crate) fn worker_busy_us = counter("par.worker_busy_us");
        /// Worker utilization of the most recent parallel call:
        /// `100 × Σ busy / (wall × threads)`. 100 means every worker was
        /// executing items for the whole call.
        pub(crate) fn utilization_pct = gauge("par.utilization_pct");
    }
}

/// Programmatic thread-count override; 0 = not set.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the pool width for all subsequent parallel calls.
/// `0` clears the override (fall back to `GEOSOCIAL_THREADS`, then
/// [`std::thread::available_parallelism`]).
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The pool width parallel calls will use right now.
pub fn max_threads() -> usize {
    let set = MAX_THREADS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    if let Ok(var) = std::env::var("GEOSOCIAL_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` in parallel; `out[i] == f(&items[i])`, exactly
/// as the serial loop would produce.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives the item's index — the hook
/// the pipeline uses to derive per-item RNG streams.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = max_threads().min(n);
    metrics::tasks().add(n as u64);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let wall = Stopwatch::start();
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut clock = Stopwatch::start();
                    let mut busy = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        clock.lap_us();
                        local.push((i, f(i, &items[i])));
                        let us = clock.lap_us();
                        metrics::task_us().observe(us);
                        busy += us;
                    }
                    metrics::worker_busy_us().add(busy);
                    (local, busy)
                })
            })
            .collect();
        let mut total_busy = 0u64;
        let locals = handles
            .into_iter()
            .map(|h| {
                let (local, busy) = h.join().expect("worker panicked");
                total_busy += busy;
                local
            })
            .collect();
        let wall_us = wall.elapsed_us().max(1);
        metrics::utilization_pct().set((total_busy * 100 / (wall_us * threads as u64)) as i64);
        locals
    });

    // Reassemble in input order.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.drain(..).flatten() {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("every index produced")).collect()
}

/// Parallel fold: `fold` accumulates items of one chunk into an
/// accumulator seeded by `identity`, and `merge` combines chunk partials
/// **in chunk order**.
///
/// Chunk boundaries are a function of `items.len()` alone, so the merge
/// tree — and therefore the result, even for non-associative merges like
/// floating-point sums — is identical for every thread count.
pub fn par_reduce<T, A, F, G, M>(items: &[T], identity: F, fold: G, merge: M) -> A
where
    T: Sync,
    A: Send,
    F: Fn() -> A + Sync,
    G: Fn(A, usize, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    if n == 0 {
        return identity();
    }
    // Enough chunks for dynamic balancing, few enough that per-chunk
    // overhead stays negligible; depends only on n (never on threads).
    let chunk = n.div_ceil(128).max(1);
    let n_chunks = n.div_ceil(chunk);
    let threads = max_threads().min(n_chunks);

    metrics::tasks().add(n as u64);
    let fold_chunk = |ci: usize| {
        let mut clock = Stopwatch::start();
        let lo = ci * chunk;
        let hi = (lo + chunk).min(n);
        let mut acc = identity();
        for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
            acc = fold(acc, i, item);
        }
        metrics::chunk_us().observe(clock.lap_us());
        acc
    };

    let partials: Vec<(usize, A)> = if threads <= 1 {
        (0..n_chunks).map(|ci| (ci, fold_chunk(ci))).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, A)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let ci = cursor.fetch_add(1, Ordering::Relaxed);
                            if ci >= n_chunks {
                                break;
                            }
                            local.push((ci, fold_chunk(ci)));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let mut all: Vec<(usize, A)> = per_worker.into_iter().flatten().collect();
        all.sort_by_key(|&(ci, _)| ci);
        all
    };

    let mut it = partials.into_iter();
    let (_, first) = it.next().expect("n > 0 gives at least one chunk");
    it.fold(first, |acc, (_, part)| merge(acc, part))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that touch the global thread override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_threads(n);
        let out = f();
        set_max_threads(0);
        out
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x * 2);
        assert!(out.is_empty());
        let sum = par_reduce(&[] as &[u32], || 0u64, |a, _, &x| a + x as u64, |a, b| a + b);
        assert_eq!(sum, 0);
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(&[21u32], |&x| x * 2), vec![42]);
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..10_000).collect();
        let out = with_threads(8, || {
            par_map_indexed(&items, |i, &x| {
                assert_eq!(i, x);
                // Uneven per-item cost to shuffle completion order.
                if x % 97 == 0 {
                    std::thread::yield_now();
                }
                x * 3
            })
        });
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_serial_for_any_thread_count() {
        // Floating-point sums are order-sensitive; par_reduce promises
        // bit-identical results regardless of thread count.
        let xs: Vec<f64> = (0..5_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let reduce = || par_reduce(&xs, || 0.0f64, |a, _, &x| a + x, |a, b| a + b);
        let serial = with_threads(1, reduce);
        let two = with_threads(2, reduce);
        let eight = with_threads(8, reduce);
        assert_eq!(serial.to_bits(), two.to_bits());
        assert_eq!(serial.to_bits(), eight.to_bits());
    }

    #[test]
    fn panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |&x| {
                    if x == 5 {
                        panic!("worker bug");
                    }
                    x
                })
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn thread_count_resolution() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Programmatic override wins.
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        // Env var is consulted when no programmatic override is set.
        set_max_threads(0);
        std::env::set_var("GEOSOCIAL_THREADS", "2");
        assert_eq!(max_threads(), 2);
        std::env::set_var("GEOSOCIAL_THREADS", "garbage");
        assert!(max_threads() >= 1); // falls through to available_parallelism
        std::env::remove_var("GEOSOCIAL_THREADS");
        assert!(max_threads() >= 1);
    }

    #[test]
    fn serial_path_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(1, || par_map(&[1, 2, 3], |_| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }
}
