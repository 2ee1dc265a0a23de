//! Deterministic scoped-thread parallelism for the stratification workspace.
//!
//! The embarrassingly-parallel layers (Monte-Carlo realizations,
//! independent experiment runs, parameter sweeps) fan out through
//! [`par_map`], built on [`std::thread::scope`] — no external runtime.
//!
//! # Determinism contract
//!
//! Every function here is **order-preserving and schedule-independent**:
//! `par_map(items, t, f)` returns exactly
//! `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for every
//! thread count `t`, byte for byte. Callers keep results bit-reproducible
//! by deriving any randomness from the *item index* (e.g. one ChaCha
//! stream per realization), never from the worker thread. This is the
//! workspace-wide rule; `strat_analytic::monte_carlo` documents the same
//! contract at its API boundary.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: `STRAT_THREADS` if set, else the machine's
/// available parallelism, else 1.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("STRAT_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` threads (the caller plus
/// scoped workers), preserving input order in the output.
///
/// `f(i, &items[i])` receives the item **index**, so callers can derive
/// per-item deterministic state (RNG streams, output slots) independent of
/// the scheduling. Workers pull the next unclaimed index from a shared
/// counter, so a few expensive items do not leave the other workers idle
/// behind a contiguous chunk; each result lands in its item's slot. With
/// `threads <= 1` the loop runs inline, producing the identical result.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // `Relaxed` suffices: the counter only hands out indices, and results
    // reach the caller through the scope's joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(i, item)));
        }
        done
    };
    let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut parts = vec![work()];
        parts.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("par_map worker panicked")),
        );
        parts
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map: every index is claimed once"))
        .collect()
}

/// Splits `0..total` into at most `parts` contiguous, non-empty ranges
/// covering the whole interval in order.
///
/// Used to hand each worker a contiguous block of realization indices while
/// keeping the index→realization mapping independent of the worker count.
#[must_use]
pub fn chunk_ranges(total: u64, parts: usize) -> Vec<Range<u64>> {
    if total == 0 {
        return Vec::new();
    }
    let parts = (parts.max(1) as u64).min(total);
    let base = total / parts;
    let extra = total % parts;
    let mut ranges = Vec::with_capacity(parts as usize);
    let mut start = 0u64;
    for part in 0..parts {
        let len = base + u64::from(part < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits `slice` into consecutive disjoint mutable chunks of the given
/// lengths (which must sum to at most `slice.len()`).
///
/// The companion of [`chunk_ranges`] for phase-structured parallel loops:
/// derive per-worker item ranges once, then hand each worker the matching
/// chunk of every output array (different arrays may use different
/// per-range lengths — e.g. one slot per item vs one slot per edge).
///
/// # Panics
///
/// Panics if the lengths overrun the slice.
pub fn split_lengths<'a, T>(mut slice: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(lens.len());
    for &len in lens {
        let (head, rest) = slice.split_at_mut(len);
        parts.push(head);
        slice = rest;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_lengths_partitions_disjointly() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts = split_lengths(&mut data, &[3, 0, 4, 3]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], &[0, 1, 2]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2], &[3, 4, 5, 6]);
        assert_eq!(parts[3], &[7, 8, 9]);
    }

    #[test]
    fn par_map_matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let got = par_map(&items, threads, |i, x| x * 3 + i as u64);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_with_skewed_item_costs_matches_sequential() {
        // A few items cost orders of magnitude more than the rest, so
        // workers finish out of index order; the output must not notice.
        let items: Vec<u64> = (0..40).collect();
        let cost = |x: u64| if x.is_multiple_of(13) { 200_000 } else { 10 };
        let f = |i: usize, x: &u64| {
            let mut acc = *x ^ i as u64;
            for k in 0..cost(*x) {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            }
            acc
        };
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map(&items, threads, f), expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, x| *x).is_empty());
        assert_eq!(par_map(&[42u32], 8, |i, x| *x + i as u32), vec![42]);
    }

    #[test]
    fn chunk_ranges_partition_the_interval() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(total, parts);
                let mut expect = 0u64;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(r.end > r.start);
                    expect = r.end;
                }
                assert_eq!(expect, total);
            }
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
