//! # par — the workspace's parallel execution substrate
//!
//! Every parallel kernel in the suite (walk generation, SGNS training,
//! linkage scoring, fixpoint rule evaluation) runs on this one module, so
//! the determinism story is in one place:
//!
//! * **Chunk-ordered reduction.** Work is split into contiguous chunks of
//!   the input; workers pull chunks from an atomic cursor and tag their
//!   results with the chunk index; results are reassembled in chunk order.
//!   The output of [`par_map`] is therefore *identical* — order and values
//!   — to `iter().map()`, for every thread count and chunk size.
//! * **Worker count resolution.** [`threads`] resolves, in priority order:
//!   a programmatic override ([`set_threads`]), the `VADALINK_THREADS`
//!   environment variable, and finally [`std::thread::available_parallelism`]
//!   capped at 8. Kernels accept a per-call `threads` argument where `0`
//!   means "use [`threads`]".
//! * **Panic propagation.** A panic on a worker is re-raised on the caller
//!   with its original payload after all workers have been joined, exactly
//!   like the panic of a sequential `map`.
//!
//! Scoped threads (`std::thread::scope`, the standard-library descendant of
//! `crossbeam::thread::scope`) let workers borrow the caller's data without
//! `Arc` or `'static` bounds; no work-stealing runtime is involved.

#![forbid(unsafe_code)]

use std::any::Any;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`threads`].
pub const THREADS_ENV: &str = "VADALINK_THREADS";

/// Upper bound on the automatically detected worker count (explicit
/// configuration may exceed it).
const MAX_AUTO_THREADS: usize = 8;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide worker-count override (`0` clears it back to the
/// environment/auto resolution). Takes precedence over `VADALINK_THREADS`.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The effective worker count: programmatic override, then the
/// `VADALINK_THREADS` environment variable, then available parallelism
/// (capped at 8). Always at least 1.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_threads(&v))
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(MAX_AUTO_THREADS)
}

/// Resolves a per-call thread request: `0` means "use [`threads`]".
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

fn parse_threads(v: &str) -> Option<usize> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// The range of chunk `c` for `len` items in chunks of `chunk` (the last
/// chunk may be short).
fn chunk_range(c: usize, chunk: usize, len: usize) -> Range<usize> {
    let start = c * chunk;
    start..(start + chunk).min(len)
}

/// Applies `f` to contiguous index ranges covering `0..len` and returns the
/// per-chunk results **in chunk order**. `threads == 0` and
/// `chunk_size == 0` mean "auto" (auto chunking gives each worker one
/// chunk). This is the primitive the other entry points build on.
pub fn par_ranges<U, F>(len: usize, threads: usize, chunk_size: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = resolve(threads);
    let chunk = if chunk_size == 0 {
        len.div_ceil(threads)
    } else {
        chunk_size
    }
    .max(1);
    let nchunks = len.div_ceil(chunk);
    if threads <= 1 || nchunks <= 1 {
        return (0..nchunks)
            .map(|c| f(chunk_range(c, chunk, len)))
            .collect();
    }
    let workers = threads.min(nchunks);
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, U)> = Vec::with_capacity(nchunks);
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || {
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        local.push((c, f(chunk_range(c, chunk, len))));
                    }
                    local
                })
            })
            .collect();
        // Join *every* worker before re-raising a panic: leaving the scope
        // with unjoined panicked threads would turn into a double panic.
        for h in handles {
            match h.join() {
                Ok(local) => tagged.extend(local),
                Err(p) => {
                    panic_payload.get_or_insert(p);
                }
            }
        }
    });
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    tagged.sort_unstable_by_key(|&(c, _)| c);
    tagged.into_iter().map(|(_, u)| u).collect()
}

/// Parallel `items.iter().map(f).collect()`: same values, same order, for
/// every thread count. Worker count from [`threads`].
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, 0, 0, f)
}

/// [`par_map`] with explicit thread count and chunk size (`0` = auto).
pub fn par_map_with<T, U, F>(items: &[T], threads: usize, chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunks = par_ranges(items.len(), threads, chunk_size, |r| {
        items[r].iter().map(&f).collect::<Vec<U>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Parallel in-place update: `f(i, &mut items[i])` for every index, each
/// worker owning one contiguous sub-slice. The effect is identical to the
/// sequential loop because every index is visited exactly once.
pub fn par_for_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    if len == 0 {
        return;
    }
    let threads = resolve(threads);
    if threads <= 1 {
        for (i, it) in items.iter_mut().enumerate() {
            f(i, it);
        }
        return;
    }
    let chunk = len.div_ceil(threads);
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slot)| {
                let f = &f;
                s.spawn(move || {
                    let base = ci * chunk;
                    for (off, it) in slot.iter_mut().enumerate() {
                        f(base + off, it);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(p) = h.join() {
                panic_payload.get_or_insert(p);
            }
        }
    });
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — a tiny deterministic generator for the property loops
    /// (the test must run in dependency-free offline builds, so no
    /// external proptest here; the root crate carries a proptest twin).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn par_map_equals_sequential_map_over_random_cases() {
        let mut rng = Rng(42);
        for case in 0..300 {
            let len = rng.below(60) as usize;
            let threads = 1 + rng.below(9) as usize;
            let chunk = rng.below(10) as usize; // 0 = auto
            let items: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            let got = par_map_with(&items, threads, chunk, |x| x * 3 + 1);
            assert_eq!(
                got, expected,
                "case {case}: len={len} threads={threads} chunk={chunk}"
            );
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        assert!(par_map(&items, |x| x + 1).is_empty());
        assert!(par_map_with(&items, 8, 3, |x| x + 1).is_empty());
        let mut empty: Vec<u32> = Vec::new();
        par_for_mut(&mut empty, 8, |_, _| unreachable!());
    }

    #[test]
    fn order_is_preserved_across_thread_counts() {
        let items: Vec<usize> = (0..10_000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map_with(&items, threads, 0, |x| x * x), expected);
            // Small chunks exercise the cursor path (more chunks than workers).
            assert_eq!(par_map_with(&items, threads, 7, |x| x * x), expected);
        }
    }

    #[test]
    fn par_for_mut_matches_sequential_update() {
        for threads in [1, 2, 5, 8] {
            let mut a: Vec<usize> = (0..1000).collect();
            let mut b = a.clone();
            par_for_mut(&mut a, threads, |i, x| *x = *x * 2 + i);
            for (i, x) in b.iter_mut().enumerate() {
                *x = *x * 2 + i;
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let items: Vec<usize> = (0..100).collect();
        let err = std::panic::catch_unwind(|| {
            par_map_with(&items, 4, 8, |&x| {
                if x == 57 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .expect_err("worker panic must reach the caller");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 57"), "payload lost: {msg:?}");
    }

    #[test]
    fn panic_in_par_for_mut_propagates() {
        let mut items: Vec<usize> = (0..64).collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_mut(&mut items, 4, |i, _| {
                if i == 33 {
                    panic!("mut boom");
                }
            })
        }))
        .expect_err("worker panic must reach the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("mut boom"));
    }

    #[test]
    fn threads_resolution_respects_override() {
        // The override outranks the environment; clearing it restores
        // env/auto resolution. (The env var itself is left untouched so
        // the CI matrix legs keep their setting.)
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(resolve(0), 3);
        assert_eq!(resolve(5), 5);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn env_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn par_ranges_covers_every_index_once() {
        let got = par_ranges(103, 4, 10, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = got.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<usize>>());
    }
}
