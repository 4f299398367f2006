//! The in-order parallel map the corpus builder, the obfuscator and the
//! knowledge scan share.
//!
//! [`map`] runs `task(0)`, …, `task(n - 1)` on one scoped thread per
//! available CPU, capped at the task count. The threads claim task
//! indices from one counter, so a slow task never holds a thread's
//! later ones back, and the results come back in task order whatever
//! the timing. With one thread (one CPU, or at most one task) the tasks
//! run on the calling thread and nothing is spawned. A task's panic
//! reaches the caller once every thread has stopped.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `(0..tasks).map(task).collect()`, on one thread per available CPU.
pub fn map<R: Send>(tasks: usize, task: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    map_on(threads, tasks, task)
}

/// [`map`] on at most `threads` threads.
pub(crate) fn map_on<R: Send>(
    threads: usize,
    tasks: usize,
    task: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(tasks);
    if threads <= 1 {
        return (0..tasks).map(task).collect();
    }
    // Relaxed: the counter only hands out indices; the results come
    // back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= tasks {
                return done;
            }
            done.push((index, task(index)));
        }
    };
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(tasks).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in done {
                results[index] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every task ran once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order_at_any_width() {
        // Uneven task costs, so claims interleave differently per width.
        let task = |i: usize| {
            let spin = (i * 7_919) % 5_000;
            (0..spin).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        };
        let serial: Vec<u64> = (0..97).map(task).collect();
        for threads in [1, 2, 7] {
            assert_eq!(map_on(threads, 97, task), serial, "{threads} threads");
        }
        assert_eq!(map(97, task), serial);
    }

    #[test]
    fn no_tasks_and_one_task_run_inline() {
        assert!(map_on(7, 0, |i| i).is_empty());
        let caller = std::thread::current().id();
        assert_eq!(map_on(7, 1, |_| std::thread::current().id()), [caller]);
        assert!(map_on(1, 5, |_| std::thread::current().id())
            .iter()
            .all(|&id| id == caller));
    }

    #[test]
    fn a_task_panic_reaches_the_caller() {
        for threads in [1, 2, 7] {
            let caught = std::panic::catch_unwind(|| {
                map_on(threads, 20, |i| {
                    assert_ne!(i, 13, "task 13 fails");
                    i
                })
            });
            let panic = caught.expect_err("the panic propagates");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("task 13 fails"), "{threads}: {message}");
        }
    }
}
