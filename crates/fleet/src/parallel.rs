//! Deterministic work distribution for fleet-scale runs.
//!
//! The campaign, the Farron evaluation, and the deep study all share one
//! shape: a list of fully independent work items (defective processors,
//! catalog cases) whose per-item randomness is forked from a root
//! [`sdc_model::DetRng`] and therefore does not depend on execution
//! order. [`run_indexed`] shards such a list across `std::thread::scope`
//! workers pulling chunks off a shared atomic cursor, then reassembles
//! results in item order — so the output is bitwise identical for any
//! thread count, including the serial path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `threads` knob: `0` means one worker per available CPU,
/// anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of items a worker claims per cursor fetch: small enough to
/// balance uneven items, large enough to keep cursor traffic negligible.
fn chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers * 8)).clamp(1, 64)
}

/// Applies `f` to every item of `items` and returns the results in item
/// order, using `threads` workers (`0` = available parallelism).
///
/// `f` receives `(index, &item)`. It must not rely on cross-item state:
/// items are claimed in chunks by whichever worker is free, so execution
/// order is nondeterministic — only the *result order* is guaranteed.
/// With `f` a pure function of its arguments, the returned vector is
/// identical for every thread count.
pub fn run_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(items.len(), workers);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items[start..end].iter().enumerate() {
                        local.push((start + i, f(start + i, item)));
                    }
                }
                collected.lock().expect("result sink").extend(local);
            });
        }
    });

    let mut pairs = collected.into_inner().expect("workers joined");
    debug_assert_eq!(pairs.len(), items.len());
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore as _;
    use sdc_model::DetRng;

    #[test]
    fn resolve_zero_is_machine_width() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = run_indexed(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..257).collect();
        let work = |_: usize, &x: &u64| {
            // Forked streams model the real call sites: randomness is a
            // pure function of the item, not of execution order.
            let mut rng = DetRng::new(99).fork(x);
            // Wrapping: sums of random u64 draws overflow by design.
            (0..(x % 7 + 1)).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
        };
        let serial = run_indexed(&items, 1, work);
        for threads in [2, 3, 8, 16] {
            assert_eq!(
                run_indexed(&items, threads, work),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn chunks_cover_uneven_splits() {
        for n in [1usize, 2, 63, 64, 65, 100, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let out = run_indexed(&items, 5, |i, _| i);
            assert_eq!(out, items, "n = {n}");
        }
    }
}
