//! The generic ordered-merge orchestrator behind every deterministic
//! parallel fan-out in the workspace.
//!
//! Four call sites share this module (that sharing is the point — the subtle
//! orchestration exists exactly once):
//!
//! * the engine's sharded dense enumeration (`cliquelist::local`), whose work
//!   items are contiguous root shards of the degeneracy ordering
//!   ([`crate::cliques::ShardedEnumerator`]);
//! * the cluster fan-out of the CONGEST pipeline (`cliquelist::arb_list`),
//!   whose work items are contiguous ranges of a decomposition's clusters;
//! * the query batch fan-out (`query::service`), whose work items are the
//!   requests of a batch or the root shards of one count;
//! * the delta listing (`query::delta`), whose work items are the changed
//!   edges of a churn batch.
//!
//! All follow the same plan/execute split: an indexed list of independent
//! work items, `produce(item)` running on worker threads against shared
//! read-only state, and `consume(result)` running **only on the calling
//! thread**, strictly in ascending item order. When the items are contiguous
//! ranges of one underlying sequence, the consumed stream is byte-identical
//! to a sequential pass at any thread count — the determinism backbone of
//! `DESIGN.md` §8/§9.
//!
//! [`balanced_ranges`] is the planning half: it cuts a weighted sequence
//! into contiguous, work-balanced ranges, shared by
//! [`crate::cliques::ShardPlan`] and the cluster work-list.

/// Cuts the sequence `0..weights.len()` into at most `target` contiguous,
/// non-empty half-open ranges whose weight sums are roughly equal, greedily
/// cutting whenever the accumulated weight reaches an equal share of the
/// total. Returns fewer ranges than requested when the sequence is short
/// (every range is non-empty); the empty sequence yields no ranges.
///
/// The weights only shape the boundaries — every index is covered exactly
/// once and in order, so correctness of an ordered merge never depends on
/// the estimate quality.
pub fn balanced_ranges(weights: &[u64], target: usize) -> Vec<(u32, u32)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, n);
    let total: u64 = weights.iter().sum();
    let chunk = total.div_ceil(target as u64).max(1);
    let mut ranges = Vec::with_capacity(target);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= chunk && ranges.len() + 1 < target {
            ranges.push((start as u32, (i + 1) as u32));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push((start as u32, n as u32));
    }
    ranges
}

/// Work items a worker may run ahead of the replay cursor, per worker
/// thread. This is the backpressure bound of [`ordered_merge`]: without it,
/// workers racing ahead of one slow item could buffer nearly the whole
/// result set; with it, at most `O(threads)` item results ever exist at
/// once.
const CLAIM_WINDOW_PER_THREAD: usize = 2;

/// The generic ordered merge: `produce(item)` runs on up to `threads` scoped
/// worker threads, and `consume` runs **only on the calling thread**, in
/// ascending item order, parking out-of-order results until their turn.
/// Returns `true` when every item was consumed; `consume` returning `false`
/// stops the merge immediately and tells workers to abandon unclaimed items.
///
/// Two properties make this the deterministic backbone of `DESIGN.md` §8:
///
/// * **Order.** Which worker runs which item is scheduling-dependent, but
///   consumption is strictly `0, 1, 2, …` — so when items are contiguous
///   ranges of one sequence, the merged result is byte-identical to a
///   sequential pass at any thread count.
/// * **Bounded buffering.** A worker may claim an item only while it is
///   within a fixed window of the replay cursor
///   (`CLAIM_WINDOW_PER_THREAD` per thread); workers past the window block
///   until the cursor advances. Peak outstanding results are therefore
///   `O(threads)` items, not `O(items)` — one slow early item cannot make
///   the merge buffer the whole result set.
///
/// # Panics
///
/// Panics if `threads == 0` (the caller decides the sequential fallback).
pub fn ordered_merge<T, P, C>(items: usize, threads: usize, produce: P, mut consume: C) -> bool
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(T) -> bool,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Condvar, Mutex};

    assert!(threads > 0, "need at least one worker thread");
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    // Replay cursor + its wait gate. `cursor` is the next item index to be
    // consumed; workers wanting to run further ahead than the window wait on
    // the condvar, and the consumer notifies under the mutex after every
    // advance (and on stop), so no wakeup can be lost.
    let cursor = AtomicUsize::new(0);
    let gate = (Mutex::new(()), Condvar::new());
    let window = threads.saturating_mul(CLAIM_WINDOW_PER_THREAD).max(1);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut completed = true;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items) {
            let tx = tx.clone();
            let (produce, stop, next, cursor, gate) = (&produce, &stop, &next, &cursor, &gate);
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let item = next.fetch_add(1, Ordering::Relaxed);
                if item >= items {
                    break;
                }
                // Backpressure: wait until the claimed item is within the
                // window of the replay cursor. The worker holding the cursor
                // item itself never waits (item == cursor < cursor+window),
                // so the consumer always makes progress — no deadlock.
                {
                    let mut guard = gate.0.lock().expect("gate mutex");
                    while item >= cursor.load(Ordering::Acquire) + window
                        && !stop.load(Ordering::Relaxed)
                    {
                        guard = gate.1.wait(guard).expect("gate mutex");
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if tx.send((item, produce(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut pending: Vec<Option<T>> = (0..items).map(|_| None).collect();
        let mut emit = 0usize;
        'replay: while emit < items {
            let Ok((item, result)) = rx.recv() else {
                break;
            };
            pending[item] = Some(result);
            while emit < items {
                let Some(result) = pending[emit].take() else {
                    break;
                };
                let keep_going = consume(result);
                emit += 1;
                // Advance the cursor under the gate lock so a worker checking
                // the window between our store and our notify cannot miss the
                // wakeup.
                {
                    let _guard = gate.0.lock().expect("gate mutex");
                    cursor.store(emit, Ordering::Release);
                    if !keep_going {
                        stop.store(true, Ordering::Relaxed);
                    }
                    gate.1.notify_all();
                }
                if !keep_going {
                    completed = false;
                    break 'replay;
                }
            }
        }
        // On early exit, release any workers still parked at the gate.
        {
            let _guard = gate.0.lock().expect("gate mutex");
            stop.store(true, Ordering::Relaxed);
            gate.1.notify_all();
        }
    });
    completed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_partition_and_cover() {
        assert!(balanced_ranges(&[], 4).is_empty());
        for n in [1usize, 2, 7, 40] {
            let weights: Vec<u64> = (0..n as u64).map(|i| 1 + (i * i) % 13).collect();
            for target in [1usize, 2, 3, 8, 100] {
                let ranges = balanced_ranges(&weights, target);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= target.min(n), "n={n} target={target}");
                let mut covered = 0u32;
                for &(s, e) in &ranges {
                    assert_eq!(s, covered, "n={n} target={target}: gap or overlap");
                    assert!(e > s, "n={n} target={target}: empty range");
                    covered = e;
                }
                assert_eq!(covered as usize, n, "n={n} target={target}");
            }
        }
    }

    #[test]
    fn balanced_ranges_split_heavy_prefixes() {
        // One heavy item followed by many light ones: the heavy item must get
        // its own range rather than dragging everything into one.
        let mut weights = vec![1_000u64];
        weights.extend(std::iter::repeat_n(1, 30));
        let ranges = balanced_ranges(&weights, 4);
        assert!(ranges.len() >= 2);
        assert_eq!(ranges[0], (0, 1), "the heavy item gets a range of its own");
    }

    #[test]
    fn consumes_in_order_despite_adversarial_completion() {
        // Early items sleep longest, so completion order is roughly the
        // reverse of item order — consumption must still be 0, 1, 2, …, and
        // the claim-window backpressure must not deadlock while item 0 holds
        // everyone back.
        let items = 24usize;
        let consumed = std::cell::RefCell::new(Vec::new());
        let completed = ordered_merge(
            items,
            4,
            |item| {
                std::thread::sleep(std::time::Duration::from_millis((items - item) as u64 % 7));
                item * 10
            },
            |value| {
                consumed.borrow_mut().push(value);
                true
            },
        );
        assert!(completed);
        let expected: Vec<usize> = (0..items).map(|i| i * 10).collect();
        assert_eq!(consumed.into_inner(), expected);
    }

    #[test]
    fn stops_early_and_releases_parked_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let produced = AtomicUsize::new(0);
        let mut consumed = 0usize;
        let completed = ordered_merge(
            64,
            4,
            |item| {
                produced.fetch_add(1, Ordering::Relaxed);
                item
            },
            |_| {
                consumed += 1;
                consumed < 3
            },
        );
        assert!(!completed);
        assert_eq!(consumed, 3);
        // The stop signal plus the claim window keep the abandoned work
        // bounded; without them all 64 items would have been produced.
        assert!(
            produced.load(Ordering::Relaxed) < 64,
            "early stop must abandon unclaimed items"
        );
    }

    #[test]
    fn claim_window_bounds_the_run_ahead() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Item 0 is slow, so nothing can be consumed until it finishes. The
        // claim window (CLAIM_WINDOW_PER_THREAD per thread) must cap how many
        // later items start producing in the meantime.
        let threads = 2usize;
        let window = threads * CLAIM_WINDOW_PER_THREAD;
        let started_before_first = AtomicUsize::new(0);
        let first_done = AtomicUsize::new(0);
        let completed = ordered_merge(
            64,
            threads,
            |item| {
                if item == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    first_done.store(1, Ordering::Release);
                } else if first_done.load(Ordering::Acquire) == 0 {
                    started_before_first.fetch_add(1, Ordering::Relaxed);
                }
                item
            },
            |_| true,
        );
        assert!(completed);
        assert!(
            started_before_first.load(Ordering::Relaxed) <= window,
            "{} items ran ahead of the cursor; the window allows {window}",
            started_before_first.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn single_item_and_more_threads_than_items() {
        let mut seen = Vec::new();
        assert!(ordered_merge(
            1,
            8,
            |item| item + 100,
            |v| {
                seen.push(v);
                true
            }
        ));
        assert_eq!(seen, vec![100]);
        // Zero items complete trivially.
        assert!(ordered_merge(0, 4, |item| item, |_: usize| false));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panic() {
        ordered_merge(3, 0, |item| item, |_| true);
    }
}
