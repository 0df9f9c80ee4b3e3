//! The deterministic parallel runner.
//!
//! [`Ensemble::run_map`] is a work-stealing parallel `map` whose fold is
//! **thread-count invariant**: workers pull job indices from a shared
//! atomic counter and finish in whatever order the scheduler likes, but
//! completed items pass through a reorder buffer and the caller's sink is
//! invoked strictly in index order, on the caller's thread. Because every
//! floating-point operation downstream of the sink therefore happens in
//! the same sequence regardless of worker count, a 1-thread and a
//! 16-thread run of the same jobs produce byte-identical output.
//!
//! The reorder buffer holds at most ~`threads` pending items (a worker
//! can only race ahead of the merge frontier by the jobs currently in
//! flight), so memory stays O(threads), not O(jobs).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use frostlab_core::results::ExperimentResults;
use frostlab_core::Scenario;

/// Progress callback: `(completed_jobs, total_jobs)`, invoked on the
/// caller's thread each time a job is merged (i.e. in index order).
pub type ProgressFn<'a> = dyn Fn(u64, u64) + 'a;

/// A deterministic parallel ensemble over jobs `0..jobs`.
pub struct Ensemble<'a> {
    jobs: u64,
    threads: usize,
    progress: Option<Box<ProgressFn<'a>>>,
}

impl<'a> Ensemble<'a> {
    /// An ensemble of `jobs` independent jobs (indices `0..jobs`).
    pub fn new(jobs: u64) -> Ensemble<'a> {
        Ensemble {
            jobs,
            threads: 0,
            progress: None,
        }
    }

    /// Worker threads to use. `0` (the default) means
    /// `std::thread::available_parallelism()`. The thread count never
    /// affects results, only wall-clock.
    pub fn threads(mut self, threads: usize) -> Ensemble<'a> {
        self.threads = threads;
        self
    }

    /// Install a progress hook, called as `(done, total)` after each job
    /// is merged, in job order, on the calling thread.
    pub fn on_progress(mut self, f: impl Fn(u64, u64) + 'a) -> Ensemble<'a> {
        self.progress = Some(Box::new(f));
        self
    }

    /// Number of jobs.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Worker threads that will actually run (resolving `0` = auto and
    /// capping at the job count).
    pub fn effective_threads(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let t = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        t.clamp(1, self.jobs.max(1) as usize)
    }

    /// Run `job` for every index in `0..jobs` across the worker pool and
    /// feed each result to `sink` **in index order** on this thread.
    ///
    /// `job` must be a pure function of its index (seeded simulations
    /// qualify); under that contract the sink sees the exact same
    /// sequence of values for any thread count.
    pub fn run_map<R, J, S>(&self, job: J, mut sink: S)
    where
        J: Fn(u64) -> R + Sync,
        R: Send,
        S: FnMut(u64, R),
    {
        let total = self.jobs;
        if total == 0 {
            return;
        }
        let threads = self.effective_threads();
        if threads == 1 {
            // Serial reference path: same fold order by construction.
            for i in 0..total {
                sink(i, job(i));
                if let Some(p) = &self.progress {
                    p(i + 1, total);
                }
            }
            return;
        }

        let next = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<(u64, R)>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let job = &job;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    if tx.send((i, job(i))).is_err() {
                        break; // receiver gone: the merge loop bailed
                    }
                });
            }
            drop(tx);

            // Merge frontier: absorb completions in index order no matter
            // the order they arrive in.
            let mut pending: BTreeMap<u64, R> = BTreeMap::new();
            let mut frontier = 0u64;
            for (i, r) in rx {
                pending.insert(i, r);
                while let Some(r) = pending.remove(&frontier) {
                    sink(frontier, r);
                    frontier += 1;
                    if let Some(p) = &self.progress {
                        p(frontier, total);
                    }
                }
            }
            debug_assert_eq!(frontier, total, "all jobs merged");
        });
    }

    /// Run one [`Scenario`] per index, project each
    /// [`ExperimentResults`] down to `R` *on the worker* (so the full
    /// results are dropped before the next campaign starts), and feed the
    /// projections to `sink` in index order.
    ///
    /// `make_scenario` is called on the worker, so scenario construction
    /// (which builds the whole fleet) is parallelised along with the run.
    pub fn run_scenarios<B, P, R, S>(&self, make_scenario: B, project: P, sink: S)
    where
        B: Fn(u64) -> Scenario + Sync,
        P: Fn(&ExperimentResults) -> R + Sync,
        R: Send,
        S: FnMut(u64, R),
    {
        self.run_map(
            |i| {
                let results = make_scenario(i).run();
                project(&results)
            },
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn sink_sees_index_order_at_any_thread_count() {
        for threads in [1usize, 2, 4, 7] {
            let order = RefCell::new(Vec::new());
            Ensemble::new(23).threads(threads).run_map(
                |i| i * i,
                |i, r| {
                    assert_eq!(r, i * i);
                    order.borrow_mut().push(i);
                },
            );
            assert_eq!(
                *order.borrow(),
                (0..23).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn progress_is_monotonic_and_complete() {
        let seen = RefCell::new(Vec::new());
        Ensemble::new(9)
            .threads(3)
            .on_progress(|done, total| seen.borrow_mut().push((done, total)))
            .run_map(|i| i, |_, _| {});
        assert_eq!(*seen.borrow(), (1..=9).map(|d| (d, 9)).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        Ensemble::new(0).run_map(|_| unreachable!("no jobs"), |_, _: ()| {});
    }

    #[test]
    fn effective_threads_caps_at_jobs() {
        assert_eq!(Ensemble::new(3).threads(16).effective_threads(), 3);
        assert_eq!(Ensemble::new(100).threads(2).effective_threads(), 2);
        assert!(Ensemble::new(100).effective_threads() >= 1);
    }
}
