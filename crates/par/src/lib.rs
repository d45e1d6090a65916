//! Dependency-free parallel-sweep substrate for the `space-udc` workspace.
//!
//! Every headline result of the paper is produced by an embarrassingly
//! parallel sweep — the 7 168-point accelerator design-space exploration
//! (Fig. 17), the Monte-Carlo availability cross-validation (Figs. 24–25),
//! and the lifetime/power/tradespace TCO sweeps (Figs. 4–6). This crate
//! provides the shared executor those sweeps run on, built entirely on
//! [`std::thread::scope`] so the workspace keeps building offline with no
//! crates.io dependencies.
//!
//! Four things live here:
//!
//! - [`par_map`], [`par_try_map`] and [`par_reduce_threads`] (with their
//!   `_min_chunk` forms): chunked data-parallel primitives over slices
//!   whose merge order is *deterministic* (chunks merge left-to-right in
//!   index order), so parallel output is bit-identical to serial
//!   regardless of thread count;
//! - [`rng`]: a small, seedable, splittable pseudo-random generator
//!   (SplitMix64 seeding a xoshiro256**-class core) used by the Monte-Carlo
//!   models so trials can be partitioned across threads reproducibly;
//! - [`json`]: a minimal JSON value builder used to emit machine-readable
//!   benchmark and report artifacts (the `BENCH_*.json` files);
//! - [`Fnv1a`]: the 64-bit FNV-1a digest behind every committed
//!   fingerprint in the workspace.
//!
//! # Thread-count resolution
//!
//! The worker count is resolved, in priority order, from:
//!
//! 1. an explicit process-wide override ([`set_threads`], set by the
//!    `figures --jobs N` flag),
//! 2. the `SUDC_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ```
//! let doubled = sudc_par::par_map(&[1, 2, 3], |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod rng;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "auto".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for every subsequent parallel call in
/// this process (the `figures --jobs N` flag lands here). Passing 0
/// restores automatic resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// An invalid thread-count configuration (e.g. `SUDC_THREADS=0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadConfigError(String);

impl std::fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ThreadConfigError {}

impl From<ThreadConfigError> for sudc_errors::SudcError {
    /// Lifts a thread-configuration mistake into the workspace error
    /// taxonomy, preserving the original message as the allowed-range text.
    fn from(e: ThreadConfigError) -> Self {
        Self::single("thread configuration", "SUDC_THREADS", &e.0, e.0.clone())
    }
}

/// Pure thread-count resolution: explicit override, then the value of the
/// `SUDC_THREADS` environment variable (if set), then `fallback` (the
/// machine's available parallelism). Always at least 1 on success.
///
/// # Errors
///
/// A set-but-invalid `SUDC_THREADS` (zero, negative, or non-numeric) is a
/// configuration mistake, not a request for "auto": silently falling back
/// would run a reproducibility experiment at the wrong thread count, so it
/// is reported as an error instead.
pub fn resolve_threads(
    forced: usize,
    env: Option<&str>,
    fallback: usize,
) -> Result<usize, ThreadConfigError> {
    if forced > 0 {
        return Ok(forced);
    }
    if let Some(v) = env {
        return match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(ThreadConfigError(format!(
                "SUDC_THREADS must be a positive integer (got {v:?}); \
                 unset it for automatic thread-count resolution"
            ))),
        };
    }
    Ok(fallback.max(1))
}

/// Fallible form of [`threads`]: resolves the worker-thread count from the
/// override, the `SUDC_THREADS` environment variable, and available
/// parallelism.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] if `SUDC_THREADS` is set to anything other
/// than a positive integer.
pub fn try_threads() -> Result<usize, ThreadConfigError> {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    let env = std::env::var("SUDC_THREADS").ok();
    let fallback = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    resolve_threads(forced, env.as_deref(), fallback)
}

/// Resolves the worker-thread count: explicit override, then the
/// `SUDC_THREADS` environment variable, then available parallelism.
/// Always at least 1.
///
/// # Panics
///
/// Panics with a clear message if `SUDC_THREADS` is set but not a positive
/// integer — use [`try_threads`] to validate configuration up front.
#[must_use]
pub fn threads() -> usize {
    match try_threads() {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// Splits `len` items into at most `workers` contiguous chunks of
/// near-equal size, returning `(start, end)` index pairs in order.
#[must_use]
pub fn chunk_bounds(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Maps `f` over `items` on `workers` threads, preserving input order.
///
/// `f` receives the *global* index of each item alongside the item, so
/// deterministic per-item work (e.g. index-derived RNG streams) does not
/// depend on the thread count. With `workers <= 1` (or one item) the map
/// runs inline on the caller's thread.
pub fn par_map_threads<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let bounds = chunk_bounds(items.len(), workers);
    if bounds.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| {
                let f = &f;
                scope.spawn(move || {
                    items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(start + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("sudc-par worker panicked"));
        }
    });
    out
}

/// [`par_map_threads`] with the ambient thread count ([`threads`]).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(threads(), items, f)
}

/// Caps `workers` so no chunk holds fewer than `min_chunk` items: spawning
/// a thread for a handful of cheap items costs more than the items
/// themselves. With fewer than `2 * min_chunk` items everything runs on
/// the caller's thread. A `min_chunk` of 0 or 1 changes nothing.
///
/// The cap only changes *where* work runs, never its order: chunked
/// primitives merge left-to-right in index order, so results stay
/// bit-identical to the uncapped (and the serial) form.
#[must_use]
pub fn workers_for_min_chunk(len: usize, workers: usize, min_chunk: usize) -> usize {
    if min_chunk <= 1 {
        return workers;
    }
    workers.min((len / min_chunk).max(1))
}

/// [`par_map`] with a serial-fallback threshold: the ambient thread count
/// is capped so every chunk gets at least `min_chunk` items, and batches
/// smaller than `2 * min_chunk` skip thread spawning entirely. Output is
/// bit-identical to [`par_map`] (and to a serial map) — the threshold is
/// purely a performance knob for small batches of cheap items.
pub fn par_map_min_chunk<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers_for_min_chunk(items.len(), threads(), min_chunk);
    par_map_threads(workers, items, f)
}

/// [`par_reduce_threads`] at the ambient thread count with a
/// serial-fallback threshold, mirroring [`par_map_min_chunk`]: chunks
/// never shrink below `min_chunk` items and small batches fold inline on
/// the caller's thread. The merge stays left-to-right in chunk order, so
/// any reduction that is thread-count invariant under
/// [`par_reduce_threads`] remains bit-identical here.
pub fn par_reduce_min_chunk<T, A, I, F, M>(
    items: &[T],
    min_chunk: usize,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let workers = workers_for_min_chunk(items.len(), threads(), min_chunk);
    par_reduce_threads(workers, items, init, fold, merge)
}

/// Maps a fallible `f` over `items` in parallel, returning the first error
/// (in input order) or every result in input order.
///
/// # Errors
///
/// Returns the error produced for the lowest-indexed failing item.
pub fn par_try_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map(items, f).into_iter().collect()
}

/// Folds each chunk serially (in index order) with `fold`, then merges the
/// per-chunk accumulators **left-to-right in chunk order** with `merge`.
///
/// Because chunks cover the input in contiguous index order and the merge
/// is sequential, any reduction whose serial form is a left fold with an
/// associative merge (sums, counts, first-wins argmax) produces output
/// bit-identical to its serial equivalent at every thread count.
pub fn par_reduce_threads<T, A, I, F, M>(
    workers: usize,
    items: &[T],
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let bounds = chunk_bounds(items.len(), workers);
    if bounds.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .fold(init(), |acc, (i, t)| fold(acc, i, t));
    }
    let mut accs = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| {
                let (init, fold) = (&init, &fold);
                scope.spawn(move || {
                    items[start..end]
                        .iter()
                        .enumerate()
                        .fold(init(), |acc, (i, t)| fold(acc, start + i, t))
                })
            })
            .collect();
        for handle in handles {
            accs.push(handle.join().expect("sudc-par worker panicked"));
        }
    });
    accs.into_iter().reduce(merge).unwrap_or_else(init)
}

/// 64-bit FNV-1a: the one digest behind the workspace's committed
/// fingerprints (sim traces, the router's decision stream). It detects
/// drift, not tampering: it is not a cryptographic hash.
///
/// ```
/// let mut h = sudc_par::Fnv1a::new();
/// h.write_bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest of nothing (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, one byte at a time.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` in as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        let mut a = Fnv1a::new();
        a.write_u64(0x0102);
        let mut b = Fnv1a::new();
        b.write_bytes(&[2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn chunk_bounds_cover_input_exactly_once() {
        for len in [0usize, 1, 2, 7, 64, 7168] {
            for workers in [1usize, 2, 3, 5, 8, 100] {
                let bounds = chunk_bounds(len, workers);
                let mut expected = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, expected, "len={len} workers={workers}");
                    assert!(end > start);
                    expected = end;
                }
                assert_eq!(expected, len, "len={len} workers={workers}");
                assert!(bounds.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 7, 16] {
            let got = par_map_threads(workers, &items, |_, &x| x * x);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_map_passes_global_indices() {
        let items = vec![(); 257];
        for workers in [1, 4, 13] {
            let got = par_map_threads(workers, &items, |i, ()| i);
            assert_eq!(got, (0..257).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_reduce_sum_matches_serial() {
        let items: Vec<f64> = (0..501).map(|i| f64::from(i) * 0.25).collect();
        let serial: f64 = items.iter().sum();
        for workers in [1, 2, 5, 11] {
            // Chunked left-to-right float summation is NOT bit-identical to a
            // flat left fold in general, but integer-valued quarters are exact.
            let parallel =
                par_reduce_threads(workers, &items, || 0.0, |acc, _, &x| acc + x, |a, b| a + b);
            assert!((parallel - serial).abs() < 1e-9, "workers={workers}");
        }
    }

    #[test]
    fn min_chunk_caps_workers_without_changing_results() {
        // Boundary behavior of the cap itself.
        assert_eq!(workers_for_min_chunk(100, 8, 0), 8);
        assert_eq!(workers_for_min_chunk(100, 8, 1), 8);
        assert_eq!(workers_for_min_chunk(63, 8, 32), 1, "below 2*min_chunk");
        assert_eq!(workers_for_min_chunk(64, 8, 32), 2, "exactly 2*min_chunk");
        assert_eq!(workers_for_min_chunk(65, 8, 32), 2);
        assert_eq!(workers_for_min_chunk(256, 8, 32), 8, "cap saturates");
        assert_eq!(workers_for_min_chunk(0, 8, 32), 1);

        // Serial/parallel equivalence AT the threshold boundary: one item
        // below it (inline path), exactly at it (2 workers), and far above
        // it (uncapped) must all match the serial map bit for bit.
        for len in [63usize, 64, 65, 512] {
            let items: Vec<u64> = (0..len as u64).collect();
            let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            for workers in [1, 2, 8] {
                set_threads(workers);
                assert_eq!(
                    par_map_min_chunk(&items, 32, |_, &x| x * 3 + 1),
                    serial,
                    "len={len} workers={workers}"
                );
                let sum = par_reduce_min_chunk(
                    &items,
                    32,
                    || 0u64,
                    |acc, _, &x| acc + x * 3 + 1,
                    |a, b| a + b,
                );
                assert_eq!(
                    sum,
                    serial.iter().sum::<u64>(),
                    "len={len} workers={workers}"
                );
            }
            set_threads(0);
        }
    }

    #[test]
    fn par_try_map_returns_lowest_index_error() {
        let items: Vec<i32> = (0..100).collect();
        let r = par_try_map(&items, |_, &x| if x >= 40 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(40));
        let ok = par_try_map(&items, |_, &x| Ok::<_, ()>(x * 2));
        assert_eq!(ok.unwrap()[99], 198);
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn resolve_threads_prefers_the_explicit_override() {
        assert_eq!(resolve_threads(4, Some("2"), 8), Ok(4));
        assert_eq!(resolve_threads(4, None, 8), Ok(4));
    }

    #[test]
    fn resolve_threads_reads_the_environment_value() {
        assert_eq!(resolve_threads(0, Some("3"), 8), Ok(3));
        assert_eq!(resolve_threads(0, Some(" 5 "), 8), Ok(5));
    }

    #[test]
    fn resolve_threads_falls_back_only_when_env_is_unset() {
        assert_eq!(resolve_threads(0, None, 6), Ok(6));
        assert_eq!(resolve_threads(0, None, 0), Ok(1));
    }

    #[test]
    fn resolve_threads_rejects_invalid_env_instead_of_falling_back() {
        for bad in ["0", "-1", "abc", "", "1.5"] {
            let err = resolve_threads(0, Some(bad), 8).unwrap_err();
            assert!(
                err.to_string()
                    .contains("SUDC_THREADS must be a positive integer"),
                "env {bad:?}: {err}"
            );
        }
    }
}
