//! A std-only scoped-thread worker pool.
//!
//! Per-site, per-class model derivations are independent (the paper's
//! pipeline touches one local site at a time), and so are the requests of
//! one serving micro-batch, so both fan out here. [`scope`] spawns
//! `workers − 1` helper threads **once** and hands the body a [`Pool`];
//! every [`Pool::run`] deals its indexed jobs round-robin into per-worker
//! deques, wakes the helpers it needs, and runs jobs on the calling thread
//! too. Each worker pops its own deque from the front and steals from the
//! back of its neighbours' when it runs dry. Results come back **in job
//! order**, so callers observe output independent of the worker count or
//! interleaving. Between runs the helpers park on a [`Condvar`]; they exit
//! when the body returns (or unwinds), and [`scope`] joins them.
//!
//! A long-lived caller such as the serving loop therefore pays for thread
//! creation once per run instead of once per micro-batch. One-shot callers
//! use [`run_jobs`], which is [`scope`] around a single [`Pool::run`].
//!
//! Determinism only requires that each job's *inputs* (seeds, configs) not
//! depend on scheduling; the [`crate::derive::derive_all`] layer guarantees
//! that by splitting per-job RNG streams from the root seed with stable
//! keys, and the serving loop hands each batch an immutable snapshot of its
//! mutable state.
//!
//! Worker counts default to [`std::thread::available_parallelism`] and are
//! clamped to the job count; one worker spawns no thread at all and runs
//! every job inline on the caller, which is the reference serial order. A
//! panicking job does not strand the caller: the batch finishes, then the
//! first panic resumes out of [`Pool::run`] (and so out of [`scope`]).

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the pool did, for instrumentation.
///
/// `workers`, `steals` and the queue depths are **scheduling-dependent**:
/// when recorded as telemetry they must live under the `pool.sched.` metric
/// prefix (see [`mdbs_obs::telemetry::SCHEDULING_METRIC_PREFIXES`]) so that
/// determinism comparisons strip them. `jobs_completed` is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Workers that took part in the run (the caller included).
    pub workers: usize,
    /// Jobs executed (always the full job count — the pool never drops).
    pub jobs_completed: usize,
    /// Cross-worker steals observed.
    pub steals: u64,
    /// Largest initial per-worker queue depth.
    pub max_queue_depth: usize,
}

/// Resolves a requested worker count: `None` → the machine's available
/// parallelism (1 when unknown; looked up only then); any request is
/// clamped to `1..=jobs` (zero jobs still yields one notional worker).
pub fn effective_workers(requested: Option<usize>, jobs: usize) -> usize {
    requested
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, jobs.max(1))
}

/// Runs every job on a pool of `workers` threads (the caller included) and
/// returns the results in job order, plus a [`PoolReport`]: [`scope`]
/// around one [`Pool::run`], for callers with a single batch.
///
/// A panicking job propagates out of `run_jobs` once the batch finishes.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> (Vec<R>, PoolReport)
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    scope(workers.clamp(1, jobs.len().max(1)), f, |pool| {
        pool.run(jobs)
    })
}

/// Spawns `workers − 1` helper threads (none for `workers ≤ 1`), runs
/// `body` on the calling thread with a [`Pool`] that prices every job
/// through `job`, then stops and joins the helpers.
///
/// `job` receives the job's index within its batch and the job itself.
/// State the body mutates between runs cannot be borrowed by `job` for the
/// whole scope; pass a snapshot of it inside each job instead.
// lint:allow(no-raw-threads): this file IS the sanctioned thread pool; everything else fans out through it
#[allow(clippy::disallowed_methods)]
pub fn scope<J, R, F, B, T>(workers: usize, job: F, body: B) -> T
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
    B: FnOnce(&Pool<'_, J, R>) -> T,
{
    let workers = workers.max(1);
    let shared = Shared::new(workers);
    std::thread::scope(|threads| {
        // Drops (and so releases the helpers) before `thread::scope` joins
        // them, on return and on unwind alike — a failed spawn included.
        let _close = CloseOnDrop(&shared);
        for me in 1..workers {
            let (shared, job) = (&shared, &job);
            threads.spawn(move || shared.help(me, job));
        }
        body(&Pool {
            shared: &shared,
            job: &job,
            workers,
        })
    })
}

/// A handle on the helpers of one [`scope`]; see the module docs.
pub struct Pool<'p, J, R> {
    shared: &'p Shared<J, R>,
    job: &'p (dyn Fn(usize, J) -> R + Sync),
    /// Worker count of the scope, the caller included; a run uses at most
    /// this many, and no more than it has jobs.
    workers: usize,
}

impl<J: Send, R: Send> Pool<'_, J, R> {
    /// Runs one batch of jobs and returns the results in job order, plus a
    /// [`PoolReport`]. Returns only once every job has finished; if any
    /// job panicked, the first panic then resumes on the caller.
    pub fn run(&self, jobs: Vec<J>) -> (Vec<R>, PoolReport) {
        let total = jobs.len();
        let workers = self.workers.min(total).max(1);
        if workers == 1 {
            let results = jobs
                .into_iter()
                .enumerate()
                .map(|(index, job)| (self.job)(index, job))
                .collect();
            let report = PoolReport {
                workers,
                jobs_completed: total,
                steals: 0,
                max_queue_depth: total,
            };
            return (results, report);
        }

        let shared = self.shared;
        {
            // Size the result slots before any job is visible: a helper
            // still leaving the previous run may pop one right away.
            let mut batch = lock(&shared.batch);
            batch.results = (0..total).map(|_| None).collect();
            batch.pending = total;
            for (index, job) in jobs.into_iter().enumerate() {
                lock(&shared.queues[index % workers]).push_back((index, job));
            }
            batch.epoch += 1;
        }
        for _ in 1..workers {
            shared.wake.notify_one();
        }
        shared.work(0, self.job);

        let mut batch = lock(&shared.batch);
        while batch.pending > 0 {
            batch = shared
                .done
                .wait(batch)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(payload) = batch.panic.take() {
            drop(batch);
            panic::resume_unwind(payload);
        }
        let results = std::mem::take(&mut batch.results)
            .into_iter()
            .map(|slot| slot.expect("every job produces a result"))
            .collect();
        let report = PoolReport {
            workers,
            jobs_completed: total,
            steals: shared.steals.swap(0, Ordering::Relaxed),
            max_queue_depth: total.div_ceil(workers),
        };
        (results, report)
    }
}

/// State shared by the caller and the helpers of one [`scope`].
struct Shared<J, R> {
    /// One deque per worker; index 0 is the caller's. Empty between runs.
    queues: Vec<Mutex<VecDeque<(usize, J)>>>,
    batch: Mutex<Batch<R>>,
    /// Signalled when a run starts (`epoch` moves) or the scope closes.
    wake: Condvar,
    /// Signalled when the last job of a run finishes.
    done: Condvar,
    steals: AtomicU64,
}

/// The run in flight.
struct Batch<R> {
    /// Bumped by every multi-worker run; helpers wait for it to move.
    epoch: u64,
    closed: bool,
    /// Jobs of the current run not yet finished.
    pending: usize,
    results: Vec<Option<R>>,
    /// The first panic payload of the current run.
    panic: Option<Box<dyn Any + Send>>,
}

impl<J, R> Shared<J, R> {
    fn new(workers: usize) -> Self {
        Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            batch: Mutex::new(Batch {
                epoch: 0,
                closed: false,
                pending: 0,
                results: Vec::new(),
                panic: None,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            steals: AtomicU64::new(0),
        }
    }

    /// A helper's life: park until a run starts, work it, repeat until the
    /// scope closes.
    fn help(&self, me: usize, job: &(dyn Fn(usize, J) -> R + Sync)) {
        let mut seen = 0u64;
        loop {
            {
                let mut batch = lock(&self.batch);
                while batch.epoch == seen && !batch.closed {
                    batch = self
                        .wake
                        .wait(batch)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                if batch.closed {
                    return;
                }
                seen = batch.epoch;
            }
            self.work(me, job);
        }
    }

    /// Runs jobs until every deque is empty: own work first (front), then
    /// steal from a neighbour's back. Catches job panics so the run always
    /// completes; [`Pool::run`] resumes the first one.
    fn work(&self, me: usize, job: &(dyn Fn(usize, J) -> R + Sync)) {
        loop {
            let mut next = lock(&self.queues[me]).pop_front();
            if next.is_none() {
                for other in (0..self.queues.len()).filter(|&w| w != me) {
                    let stolen = lock(&self.queues[other]).pop_back();
                    if stolen.is_some() {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        next = stolen;
                        break;
                    }
                }
            }
            let Some((index, item)) = next else { return };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(index, item)));
            let mut batch = lock(&self.batch);
            match outcome {
                Ok(result) => batch.results[index] = Some(result),
                Err(payload) => {
                    batch.panic.get_or_insert(payload);
                }
            }
            batch.pending -= 1;
            if batch.pending == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Closes the scope's pool when dropped: helpers stop parking and return.
struct CloseOnDrop<'a, J, R>(&'a Shared<J, R>);

impl<J, R> Drop for CloseOnDrop<'_, J, R> {
    fn drop(&mut self) {
        lock(&self.0.batch).closed = true;
        self.0.wake.notify_all();
    }
}

/// Locks a pool mutex. No job runs under a pool lock, so a poisoned one
/// still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_job_order_regardless_of_workers() {
        let jobs: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8] {
            let (results, report) = run_jobs(jobs.clone(), workers, |_, j| j * j);
            assert_eq!(results, expected, "workers={workers}");
            assert_eq!(report.jobs_completed, 40);
            assert_eq!(report.workers, workers);
        }
    }

    #[test]
    fn index_argument_matches_job_position() {
        let jobs = vec!["a", "b", "c"];
        let (results, _) = run_jobs(jobs, 2, |i, j| format!("{i}:{j}"));
        assert_eq!(results, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let (results, report) = run_jobs(vec![1, 2], 8, |_, j| j + 1);
        assert_eq!(results, vec![2, 3]);
        assert_eq!(report.workers, 2, "workers clamp to the job count");
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let (results, report) = run_jobs(Vec::<u8>::new(), 4, |_, j| j);
        assert!(results.is_empty());
        assert_eq!(report.jobs_completed, 0);
    }

    #[test]
    fn queue_depth_reflects_round_robin_deal() {
        let (_, report) = run_jobs((0..10).collect::<Vec<u32>>(), 4, |_, j| j);
        // ceil(10 / 4) = 3 jobs on the fullest queue.
        assert_eq!(report.max_queue_depth, 3);
    }

    #[test]
    fn effective_workers_clamps_and_defaults() {
        assert_eq!(effective_workers(Some(4), 10), 4);
        assert_eq!(effective_workers(Some(0), 10), 1);
        assert_eq!(effective_workers(Some(99), 3), 3);
        assert_eq!(effective_workers(Some(2), 0), 1);
        assert!(effective_workers(None, 64) >= 1);
    }

    #[test]
    fn consecutive_runs_keep_job_order_at_every_size() {
        for workers in [1, 2, 8] {
            let runs = scope(
                workers,
                |i, (batch, j): (usize, usize)| (batch, i, j * 10),
                |pool| {
                    let mut runs = 0;
                    for round in 0..5 {
                        for size in 0..=9 {
                            let batch = round * 10 + size;
                            let jobs: Vec<(usize, usize)> = (0..size).map(|j| (batch, j)).collect();
                            let (results, report) = pool.run(jobs);
                            let expected: Vec<(usize, usize, usize)> =
                                (0..size).map(|j| (batch, j, j * 10)).collect();
                            assert_eq!(results, expected, "workers={workers} size={size}");
                            assert_eq!(report.jobs_completed, size);
                            assert_eq!(report.workers, workers.min(size).max(1));
                            runs += 1;
                        }
                    }
                    runs
                },
            );
            assert_eq!(runs, 50);
        }
    }

    #[test]
    fn one_worker_spawns_nothing_and_runs_inline() {
        let caller = std::thread::current().id();
        let seen = scope(
            1,
            |_, ()| std::thread::current().id(),
            |pool| {
                (0..4)
                    .flat_map(|size| pool.run(vec![(); size]).0)
                    .collect::<Vec<ThreadId>>()
            },
        );
        assert_eq!(seen.len(), 6);
        assert!(seen.iter().all(|&t| t == caller));
    }

    #[test]
    fn helpers_are_spawned_once_per_scope_not_per_run() {
        // A job that waits until two distinct threads have entered it
        // forces both workers into every run; across 30 runs, a pool that
        // respawned helpers per run would show ~31 thread ids.
        let caller = std::thread::current().id();
        let threads = scope(
            2,
            |_, gate: Arc<Barrier>| {
                gate.wait();
                std::thread::current().id()
            },
            |pool| {
                let mut threads = BTreeSet::new();
                for _ in 0..30 {
                    let gate = Arc::new(Barrier::new(2));
                    let (ids, _) = pool.run(vec![Arc::clone(&gate), gate]);
                    assert_ne!(ids[0], ids[1], "both workers took part");
                    threads.extend(ids.into_iter().map(|t| format!("{t:?}")));
                }
                threads
            },
        );
        assert_eq!(threads.len(), 2, "{threads:?}");
        assert!(threads.contains(&format!("{caller:?}")));
    }

    #[test]
    fn a_panicking_job_panics_out_of_the_scope() {
        for workers in [1, 2, 8] {
            let finished = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                scope(
                    workers,
                    |_, j: u32| {
                        if j == 3 {
                            panic!("job {j} failed");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                        j
                    },
                    |pool| {
                        let (ok, _) = pool.run(vec![0, 1, 2]);
                        assert_eq!(ok, vec![0, 1, 2]);
                        pool.run((0..8).collect())
                    },
                )
            }));
            let payload = outcome.expect_err("the job panic reaches the caller");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 3 failed");
            // With helpers, the failing batch runs to completion before the
            // panic resumes; inline, the panic leaves at job 3.
            let expected = if workers == 1 { 3 + 3 } else { 3 + 7 };
            assert_eq!(finished.into_inner(), expected, "workers={workers}");
        }
    }
}
