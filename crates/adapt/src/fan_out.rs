//! The one parallel sweep behind the campaign's chips, each chip's
//! cores, the tournament's chips, and the workload profiling both run
//! before them.
//!
//! Workers claim items off one atomic counter, so a slow item never idles
//! the others. Each item traces into its own [`BufferSink`], and a finished
//! item is handed to `commit` under one lock, strictly in index order, as
//! soon as every earlier item has committed. Claim order affects
//! scheduling only: the committed stream, and every sum a caller builds in
//! `commit`, is the same for any thread count.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use eval_trace::{BufferSink, Record, Tracer};
use eval_uarch::{profile_workload, Workload, WorkloadProfile};

/// Finished items waiting for the commit frontier.
struct Queue<T, C> {
    /// The next index to commit; every earlier item has committed.
    frontier: usize,
    /// Items that finished before an earlier one.
    waiting: BTreeMap<usize, (T, Vec<Record>)>,
    commit: C,
    /// `commit` returned `Break`: later results are dropped.
    stopped: bool,
}

/// Runs `work(i, item_tracer)` for every `i` in `items` on up to `threads`
/// workers (0 = all cores; capped at the item count, at least 1), and
/// calls `commit(i, result, records)` for each item in index order, where
/// `records` is what the item traced (empty when `tracer` is disabled;
/// timing records stream straight to `tracer`'s timing sink). A single
/// worker runs on the calling thread.
///
/// When `commit` returns `Break` for item `k`, no further items are
/// claimed and the results of items after `k` are dropped, so `commit`
/// has seen exactly the items up to `k`.
///
/// # Errors
///
/// Returns the panic payload if `work` or `commit` panicked; items after
/// the panicking one never commit.
pub(crate) fn ordered<T: Send>(
    items: Range<usize>,
    threads: usize,
    tracer: Tracer<'_>,
    work: impl Fn(usize, Tracer<'_>) -> T + Sync,
    commit: impl FnMut(usize, T, Vec<Record>) -> ControlFlow<()> + Send,
) -> std::thread::Result<()> {
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(items.len())
    .max(1);
    let end = items.end;
    let claim = AtomicUsize::new(items.start);
    let queue = Mutex::new(Queue {
        frontier: items.start,
        waiting: BTreeMap::new(),
        commit,
        stopped: false,
    });
    let run = || loop {
        let i = claim.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            break;
        }
        let buffer = BufferSink::new();
        let item_tracer = if tracer.enabled() {
            tracer.buffered(&buffer)
        } else {
            tracer.without_sink()
        };
        let out = work(i, item_tracer);
        let mut guard = queue.lock().unwrap_or_else(PoisonError::into_inner);
        let q = &mut *guard;
        if q.stopped {
            break;
        }
        q.waiting.insert(i, (out, buffer.into_records()));
        while let Some((out, records)) = q.waiting.remove(&q.frontier) {
            let at = q.frontier;
            q.frontier += 1;
            if (q.commit)(at, out, records).is_break() {
                q.stopped = true;
                q.waiting.clear();
                claim.fetch_max(end, Ordering::Relaxed);
            }
        }
    };
    if workers == 1 {
        return catch_unwind(AssertUnwindSafe(run));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run)).collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .fold(Ok(()), Result::and)
    })
}

/// Profiles each workload with `budget` instructions and `seed` on up
/// to `threads` workers (0 = all cores), and returns the profiles in
/// workload order: the list a serial `profile_workload` map returns.
pub(crate) fn profiles(
    workloads: &[Workload],
    budget: u64,
    seed: u64,
    threads: usize,
) -> Vec<WorkloadProfile> {
    let mut out = Vec::with_capacity(workloads.len());
    ordered(
        0..workloads.len(),
        threads,
        Tracer::noop(),
        |i, _| profile_workload(&workloads[i], budget, seed),
        |_, profile, _| {
            out.push(profile);
            ControlFlow::Continue(())
        },
    )
    .unwrap_or_else(|panic| resume_unwind(panic));
    out
}

#[cfg(test)]
mod tests {
    use eval_trace::{Collector, Event};

    use super::*;

    /// Uneven busy work: earlier items are slower, so with more than one
    /// worker later items tend to finish first.
    fn slow(i: usize, n: usize) -> u64 {
        (0..(n - i) * (n - i) * 4_000).fold(i as u64, |acc, k| {
            std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k as u64))
        })
    }

    /// Commits `items` on `threads` workers, each item tracing one marker
    /// event, and returns the committed indices; `break_at` stops there.
    fn run(items: Range<usize>, threads: usize, break_at: Option<usize>) -> Vec<usize> {
        let n = items.end;
        let sink = Collector::new();
        let tracer = Tracer::new(&sink);
        let mut committed = Vec::new();
        ordered(
            items,
            threads,
            tracer,
            |i, t| {
                t.event(|| Event::ChipStart { chip: i as u64 });
                (i, slow(i, n))
            },
            |i, (item, _), records| {
                assert_eq!(item, i, "result handed to the wrong index");
                assert_eq!(
                    records,
                    vec![Record::Event(Event::ChipStart { chip: i as u64 })]
                );
                tracer.replay(records);
                committed.push(i);
                if break_at == Some(i) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .expect("no worker panicked");
        let traced: Vec<usize> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::ChipStart { chip } => *chip as usize,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(traced, committed, "replayed stream out of commit order");
        committed
    }

    #[test]
    fn commits_every_item_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 0] {
            assert_eq!(
                run(0..12, threads, None),
                (0..12).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
        // A range that starts past 0 (a resumed prefix) commits from its start.
        assert_eq!(run(3..9, 2, None), (3..9).collect::<Vec<_>>());
    }

    #[test]
    fn break_at_k_commits_exactly_k_plus_one_items() {
        for threads in [1, 2, 0] {
            for k in [0, 4, 11] {
                assert_eq!(run(0..12, threads, Some(k)), (0..=k).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn more_threads_than_items_and_an_empty_range() {
        assert_eq!(run(0..3, 8, None), vec![0, 1, 2]);
        assert_eq!(run(5..5, 4, None), Vec::<usize>::new());
        assert_eq!(run(0..0, 0, None), Vec::<usize>::new());
    }

    #[test]
    fn an_untraced_sweep_hands_commit_no_records() {
        let mut seen = 0;
        ordered(
            0..4,
            2,
            Tracer::noop(),
            |i, _| i,
            |_, _, records| {
                assert!(records.is_empty());
                seen += 1;
                ControlFlow::Continue(())
            },
        )
        .expect("no worker panicked");
        assert_eq!(seen, 4);
    }

    #[test]
    fn profiles_match_the_serial_map_for_any_thread_count() {
        let workloads = Workload::all();
        let serial: Vec<WorkloadProfile> = workloads
            .iter()
            .map(|w| profile_workload(w, 2_000, 7))
            .collect();
        for threads in [1, 2, 0] {
            assert_eq!(
                profiles(&workloads, 2_000, 7, threads),
                serial,
                "{threads} threads"
            );
        }
        assert!(profiles(&[], 2_000, 7, 2).is_empty());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_as_an_error() {
        for threads in [1, 2, 3] {
            let mut committed = Vec::new();
            let result = ordered(
                0..8,
                threads,
                Tracer::noop(),
                |i, _| {
                    assert_ne!(i, 2, "item 2 fails");
                    slow(i, 8)
                },
                |i, _, _| {
                    committed.push(i);
                    ControlFlow::Continue(())
                },
            );
            assert!(result.is_err(), "{threads} threads: panic swallowed");
            // The items before the panic commit; none after it does.
            assert_eq!(committed, vec![0, 1], "{threads} threads");
        }
    }
}
