//! The generic ordered-merge orchestrator behind every deterministic
//! parallel fan-out in the workspace.
//!
//! Four call sites share this module, and with it one scheduling policy
//! (that sharing is the point — the subtle orchestration exists exactly
//! once):
//!
//! * the engine's sharded dense enumeration (`cliquelist::local`), whose work
//!   items are contiguous root shards of the degeneracy ordering
//!   ([`crate::cliques::ShardedEnumerator`]);
//! * the cluster fan-out of the CONGEST pipeline (`cliquelist::arb_list`),
//!   whose work items are contiguous ranges of a decomposition's clusters;
//! * the query batch fan-out (`query::service`), whose work items are the
//!   cache misses of a batch or the root shards of one count;
//! * the delta listing (`query::delta`), whose work items are the changed
//!   edges of a churn batch.
//!
//! All follow the same plan/execute split: an indexed list of independent
//! work items, `produce(item)` running against shared read-only state, and
//! `consume(result)` running **only on the calling thread**, strictly in
//! ascending item order. The calling thread produces items too, between
//! replays, so a merge spawns one thread fewer than it runs on. When the
//! items are contiguous ranges of one underlying sequence, the consumed
//! stream is byte-identical to a sequential pass at any fan-out — the
//! determinism backbone of `DESIGN.md` §8/§9.
//!
//! **The fan-out rule.** A merge of `items` under a grant of `threads` runs
//! on [`fanout`]`(threads, items)` = `min(threads, items, host cores)`
//! threads, the calling thread included, so a grant never oversubscribes
//! the host ([`host_cores`] is read once per process). A fan-out of 1 is a plain loop on the calling thread: no scope,
//! channel or lock. Call sites report this number as the fan-out they used.
//!
//! [`balanced_ranges`] is the planning half: it cuts a weighted sequence
//! into contiguous, work-balanced ranges, shared by
//! [`crate::cliques::ShardPlan`] and the cluster work-list.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock, PoisonError};

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

/// The host's core count (`available_parallelism`, 1 if unknown), read
/// once per process: one query costs tens of microseconds, more than a
/// whole warm query batch.
pub fn host_cores() -> usize {
    static HOST_CORES: OnceLock<usize> = OnceLock::new();
    *HOST_CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The fan-out rule: the number of threads, the calling thread included,
/// that an ordered merge of `items` work items under a grant of `threads`
/// runs on — `min(threads, items, host cores)`, and never less than 1 (the
/// calling thread). Call sites use it both to choose between their inline
/// and merged paths and to report the fan-out they used.
pub fn fanout(threads: usize, items: usize) -> usize {
    fanout_on(host_cores(), threads, items)
}

/// [`fanout`] on a host with `host` cores: a pure function, so the cap is
/// testable without spawning anything.
fn fanout_on(host: usize, threads: usize, items: usize) -> usize {
    threads.min(items).min(host).max(1)
}

/// Work items a producer may run ahead of the replay cursor, per thread of
/// the fan-out. This is the backpressure bound of [`ordered_merge`]: without
/// it, producers racing ahead of one slow item could buffer nearly the whole
/// result set; with it, at most `O(fan-out)` item results ever exist at
/// once.
const CLAIM_WINDOW_PER_THREAD: usize = 4;

/// The generic ordered merge: `produce(item)` runs on
/// [`fanout`]`(threads, items)` threads — the calling thread and one scoped
/// worker fewer — and `consume` runs **only on the calling thread**, in
/// ascending item order, parking out-of-order results until their turn.
/// Returns `true` when every item was consumed; `consume` returning `false`
/// stops the merge immediately and tells workers to abandon unclaimed items.
///
/// Two properties make this the deterministic backbone of `DESIGN.md` §8:
///
/// * **Order.** Which thread runs which item is scheduling-dependent, but
///   consumption is strictly `0, 1, 2, …` — so when items are contiguous
///   ranges of one sequence, the merged result is byte-identical to a
///   sequential pass at any fan-out.
/// * **Bounded buffering.** A producer may claim an item only while it is
///   within a fixed window of the replay cursor (4 items per thread of the
///   fan-out); workers past the window block until the cursor advances, and
///   the calling thread then replays or waits instead. Peak outstanding
///   results are therefore `O(fan-out)` items, not `O(items)` — one slow
///   early item cannot make the merge buffer the whole result set.
///
/// Workers start through [`std::thread::Builder::spawn_scoped`]: a failed
/// spawn leaves the merge with fewer workers, never without the calling
/// thread, instead of panicking.
///
/// # Panics
///
/// Panics if `threads == 0` (the caller decides the sequential fallback),
/// and re-raises a panic of `produce` or `consume`.
pub fn ordered_merge<T, P, C>(items: usize, threads: usize, produce: P, consume: C) -> bool
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(T) -> bool,
{
    assert!(threads > 0, "need at least one worker thread");
    merge(items, fanout(threads, items), produce, consume)
}

/// The replay gate: workers wanting to run further ahead than the window
/// wait on the condvar, and the calling thread notifies under the mutex
/// after every cursor advance (and on stop), so no wakeup can be lost.
type Gate = (Mutex<()>, Condvar);

/// Raises the stop flag and wakes every worker parked at the gate when
/// dropped. The calling thread holds one for the whole replay (done,
/// stopped early or unwinding from a panic); a worker's fires only if its
/// `produce` panics. Either way no thread of the scope waits forever.
struct Release<'a> {
    stop: &'a AtomicBool,
    gate: &'a Gate,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        // The mutex guards no data, so a poisoned one is still a valid gate.
        let _guard = self.gate.0.lock().unwrap_or_else(PoisonError::into_inner);
        self.stop.store(true, Ordering::Relaxed);
        self.gate.1.notify_all();
    }
}

/// [`ordered_merge`] at an explicit fan-out, so tests can drive the
/// threaded path on any host. `fanout <= 1` is a plain loop on the calling
/// thread.
pub(crate) fn merge<T, P, C>(items: usize, fanout: usize, produce: P, mut consume: C) -> bool
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(T) -> bool,
{
    if fanout <= 1 {
        return (0..items).all(|item| consume(produce(item)));
    }
    let stop = AtomicBool::new(false);
    // The claim counter, shared by the workers and the calling thread.
    let next = AtomicUsize::new(0);
    // The next item index to be consumed. Written only by the calling
    // thread, under the gate lock, with `Release`; workers read it under the
    // same lock with `Acquire`.
    let cursor = AtomicUsize::new(0);
    let gate: Gate = (Mutex::new(()), Condvar::new());
    let window = fanout.saturating_mul(CLAIM_WINDOW_PER_THREAD);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 1..fanout {
            let tx = tx.clone();
            let (produce, stop, next, cursor, gate) = (&produce, &stop, &next, &cursor, &gate);
            // A failed spawn drops the closure and its sender; the others
            // and the calling thread claim its share.
            let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                let release = Release { stop, gate };
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let item = next.fetch_add(1, Ordering::Relaxed);
                    if item >= items {
                        break;
                    }
                    // Backpressure: wait until the claimed item is within the
                    // window of the replay cursor. The producer of the cursor
                    // item itself never waits (item == cursor < cursor +
                    // window), so the replay always makes progress.
                    {
                        let mut guard = gate.0.lock().expect("gate mutex poisoned");
                        while item >= cursor.load(Ordering::Acquire) + window
                            && !stop.load(Ordering::Relaxed)
                        {
                            guard = gate.1.wait(guard).expect("gate mutex poisoned");
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if tx.send((item, produce(item))).is_err() {
                        break;
                    }
                }
                // A normal exit must not stop the other producers.
                std::mem::forget(release);
            });
        }
        drop(tx);

        let _release = Release {
            stop: &stop,
            gate: &gate,
        };
        let mut pending: Vec<Option<T>> = (0..items).map(|_| None).collect();
        let mut emit = 0usize;
        loop {
            while let Ok((item, result)) = rx.try_recv() {
                pending[item] = Some(result);
            }
            while let Some(result) = pending.get_mut(emit).and_then(Option::take) {
                if !consume(result) {
                    return false;
                }
                emit += 1;
                let _guard = gate.0.lock().expect("gate mutex poisoned");
                cursor.store(emit, Ordering::Release);
                gate.1.notify_all();
            }
            if emit == items {
                return true;
            }
            // Produce the next unclaimed item if it is inside the window;
            // otherwise every claimable item is taken, so wait for a worker.
            let limit = items.min(emit + window);
            let claim = next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then_some(n + 1)
            });
            if let Ok(item) = claim {
                pending[item] = Some(produce(item));
                continue;
            }
            match rx.recv() {
                Ok((item, result)) => pending[item] = Some(result),
                // Every worker is gone and item `emit` never arrived: one
                // panicked, and the scope re-raises that panic.
                Err(_) => return false,
            }
        }
    })
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
    fn fanout_is_the_least_of_grant_items_and_host() {
        for host in [1usize, 2, 4, 64] {
            for threads in [1usize, 2, 8, usize::MAX] {
                for items in [0usize, 1, 3, 1000] {
                    let f = fanout_on(host, threads, items);
                    let cell = format!("host={host} threads={threads} items={items}: {f}");
                    // Capped by every bound, at least the calling thread...
                    assert!(f >= 1, "{cell}");
                    assert!(f <= host && f <= threads && f <= items.max(1), "{cell}");
                    // ...and no lower than the least of them.
                    assert!(f == host || f == threads || f == items.max(1), "{cell}");
                }
            }
        }
        assert_eq!(fanout_on(2, usize::MAX, 1000), 2);
        assert_eq!(fanout_on(64, 8, 3), 3);
        assert_eq!(fanout_on(4, 8, 0), 1);
        // On this host: an unbounded grant runs on exactly its cores.
        assert_eq!(fanout(usize::MAX, usize::MAX), host_cores());
        assert_eq!(fanout(8, 0), 1);
    }

    #[test]
    fn a_fanout_of_one_produces_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut consumed = 0usize;
        assert!(merge(
            5,
            1,
            |_| std::thread::current().id(),
            |id| {
                assert_eq!(id, caller, "a fan-out of 1 must not leave the caller");
                consumed += 1;
                true
            }
        ));
        assert_eq!(consumed, 5);
    }

    #[test]
    fn consumes_in_order_despite_adversarial_completion() {
        // Early items sleep longest, so completion order is roughly the
        // reverse of item order — consumption must still be 0, 1, 2, …, and
        // the claim-window backpressure must not deadlock while item 0 holds
        // everyone back.
        let items = 24usize;
        for fanout in 2..=4 {
            let consumed = std::cell::RefCell::new(Vec::new());
            let completed = merge(
                items,
                fanout,
                |item| {
                    std::thread::sleep(std::time::Duration::from_millis((items - item) as u64 % 7));
                    item * 10
                },
                |value| {
                    consumed.borrow_mut().push(value);
                    true
                },
            );
            assert!(completed, "fanout={fanout}");
            let expected: Vec<usize> = (0..items).map(|i| i * 10).collect();
            assert_eq!(consumed.into_inner(), expected, "fanout={fanout}");
        }
    }

    #[test]
    fn stops_early_and_releases_parked_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for fanout in 2..=4 {
            let window = fanout * CLAIM_WINDOW_PER_THREAD;
            let produced = AtomicUsize::new(0);
            let mut consumed = 0usize;
            let completed = merge(
                64,
                fanout,
                |item| {
                    produced.fetch_add(1, Ordering::Relaxed);
                    item
                },
                |_| {
                    consumed += 1;
                    consumed < 3
                },
            );
            assert!(!completed, "fanout={fanout}");
            assert_eq!(consumed, 3, "fanout={fanout}");
            // The stop signal plus the claim window keep the abandoned work
            // bounded: nothing past the window of the last cursor position
            // starts, where without them all 64 items would be produced.
            let produced = produced.load(Ordering::Relaxed);
            assert!(
                produced <= 3 + window,
                "fanout={fanout}: {produced} items produced, the window allows {}",
                3 + window
            );
        }
    }

    #[test]
    fn claim_window_bounds_the_run_ahead() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        // Item 0 holds the replay back until every other item of the window
        // has started, then gives items past the window time to start too.
        // Out of 256 items, exactly the rest of the window
        // (CLAIM_WINDOW_PER_THREAD per thread of the fan-out) may run ahead.
        for fanout in 2..=4 {
            let window = fanout * CLAIM_WINDOW_PER_THREAD;
            let ahead = AtomicUsize::new(0);
            let first_done = AtomicBool::new(false);
            let completed = merge(
                256,
                fanout,
                |item| {
                    if item == 0 {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while ahead.load(Ordering::SeqCst) < window - 1 && Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        first_done.store(true, Ordering::SeqCst);
                    } else if !first_done.load(Ordering::SeqCst) {
                        ahead.fetch_add(1, Ordering::SeqCst);
                    }
                    item
                },
                |_| true,
            );
            assert!(completed, "fanout={fanout}");
            assert_eq!(
                ahead.load(Ordering::SeqCst),
                window - 1,
                "fanout={fanout}: items ran ahead of the cursor; the window allows {}",
                window - 1
            );
        }
    }

    #[test]
    fn a_panicking_producer_ends_the_merge() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        // Whether one worker or the calling thread panics in `produce`, the
        // merge must unwind instead of leaving the other threads parked at
        // the gate. The merge runs under a watchdog, so a hang fails the test
        // instead of stalling the suite.
        for fanout in 2..=4 {
            for on_caller in [false, true] {
                let (done, finished) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let caller = std::thread::current().id();
                    let panicked = AtomicBool::new(false);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        merge(
                            64,
                            fanout,
                            |item| {
                                let here = std::thread::current().id() == caller;
                                if here == on_caller && !panicked.swap(true, Ordering::SeqCst) {
                                    panic!("producer failure");
                                }
                                std::thread::sleep(Duration::from_millis(1));
                                item
                            },
                            |_| true,
                        )
                    }));
                    let _ = done.send(outcome.is_err() == panicked.load(Ordering::SeqCst));
                });
                let unwound = finished
                    .recv_timeout(Duration::from_secs(20))
                    .expect("the merge hung after a producer panicked");
                assert!(unwound, "fanout={fanout} on_caller={on_caller}");
            }
        }
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
        // One item runs on the calling thread, whatever the grant.
        let caller = std::thread::current().id();
        assert!(ordered_merge(
            1,
            8,
            |_| std::thread::current().id(),
            |id| id == caller
        ));
        // Zero items complete trivially.
        assert!(ordered_merge(0, 4, |item| item, |_: usize| false));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panic() {
        ordered_merge(3, 0, |item| item, |_| true);
    }
}
