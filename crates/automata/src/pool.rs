//! A persistent, chunk-ordered worker pool, and [`Parallelism`], the
//! worker count it is built for.
//!
//! No library call path enters this pool: compile, walk tables, search
//! and scoring all run on the calling thread, because on the two-core
//! host measured, a pooled n-gram context cost more than a serial one
//! and no workload ran faster pooled (DESIGN.md "Threads"). The pool
//! stays for the `benches/e2e` harness, whose `pool.dispatch_us` probe
//! times [`WorkerPool::run`] on [`WorkerPool::for_parallelism`] at
//! [`Parallelism::auto`], and whose `audit_cold` passes
//! [`Parallelism::auto`] to the `*_with` compile forwarders.
//!
//! # Determinism
//!
//! [`WorkerPool::run`] takes an *ordered* list of jobs and returns
//! their results **in submission order**, whatever order the workers
//! finished in: each job's result is tagged with its index and merged
//! into a positional slot.
//!
//! # No deadlocks under nesting
//!
//! The submitting thread does not park while its batch runs: it *helps
//! drain the queue*. If a pooled job itself calls [`WorkerPool::run`],
//! the inner batch's jobs are executed by the nested caller and any
//! free workers; no thread ever waits on work that only itself could
//! run.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// How many worker threads a [`WorkerPool`] holds. No library call
/// path reads it: the `benches/e2e` harness passes
/// [`Parallelism::auto`] to [`WorkerPool::for_parallelism`] and to the
/// `*_with` compile forwarders, which ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// No workers: the pool runs every job on the calling thread.
    Serial,
    /// Up to this many worker threads.
    Sharded(NonZeroUsize),
}

impl Parallelism {
    /// One worker per available core (falls back to [`Self::Serial`]
    /// when the host reports a single core or no parallelism at all).
    /// Called by the `benches/e2e` harness (`probes.rs`,
    /// `audit_cold.rs`).
    ///
    /// The core count is read once per process and cached: on Linux
    /// `std::thread::available_parallelism` reads the cgroup CPU quota
    /// on every call, which costs tens of microseconds. Every later
    /// call returns the first value.
    pub fn auto() -> Self {
        static AUTO: OnceLock<Parallelism> = OnceLock::new();
        *AUTO.get_or_init(|| {
            // lint: allow(nondet, "the host's core count sizes the bench's worker pool and never a result; read once so every call in the process agrees")
            match std::thread::available_parallelism() {
                Ok(n) if n.get() > 1 => Parallelism::Sharded(n),
                _ => Parallelism::Serial,
            }
        })
    }

    /// The worker count this setting builds a pool with (`0` for
    /// serial: the inline pool).
    fn pool_width(self) -> usize {
        match self {
            Parallelism::Serial => 0,
            Parallelism::Sharded(n) => n.get(),
        }
    }
}

/// A queued unit of work. Jobs are `'static`: callers clone (or `Arc`)
/// the environment a chunk needs instead of borrowing it, which is what
/// lets the pool's threads outlive any one batch.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Lock the queue, healing poison: a panicking job is caught inside
    /// the job wrapper, so a poisoned queue mutex only means a thread
    /// died *between* jobs — the queue itself is always consistent.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn try_pop(&self) -> Option<Job> {
        self.lock_queue().pop_front()
    }
}

/// The persistent worker pool. See the module docs.
///
/// Dropping the pool drains every queued job (the shutdown flag is
/// checked only when the queue is empty), then joins the workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
    spawned: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("spawned", &self.spawn_count())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` long-lived threads. `workers == 0` builds
    /// an inline pool: [`WorkerPool::run`] executes every job on the
    /// calling thread (same results).
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let spawned = AtomicU64::new(0);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || worker_loop(&shared)));
            spawned.fetch_add(1, Ordering::Relaxed);
        }
        WorkerPool {
            shared,
            handles,
            workers,
            spawned,
        }
    }

    /// The process-wide pool for a [`Parallelism`] setting, created on
    /// first use and **reused for every later batch**, so steady-state
    /// batches spawn no threads. [`Parallelism::Serial`] maps to the
    /// shared inline (zero-worker) pool. Called by the `benches/e2e`
    /// harness's `pool.dispatch_us` probe (`probes.rs`).
    pub fn for_parallelism(par: Parallelism) -> Arc<WorkerPool> {
        let workers = par.pool_width();
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = registry.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            pools
                .entry(workers)
                .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
        )
    }

    /// Number of worker threads (0 for an inline pool). Called by the
    /// `benches/e2e` harness's `pool.dispatch_us` probe (`probes.rs`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total threads this pool has ever spawned. Flat after
    /// construction — the counter the tests use to prove steady-state
    /// batches spawn nothing.
    fn spawn_count(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Run an ordered batch of jobs, returning their results **in
    /// submission order**. Called by the `benches/e2e` harness's
    /// `pool.dispatch_us` probe (`probes.rs`).
    ///
    /// Single-job batches and inline pools run on the calling thread.
    /// Otherwise the jobs are queued for the workers and the caller
    /// helps drain the queue while it waits, so nested `run` calls
    /// cannot deadlock and a 1-worker pool still makes progress.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking job's payload on the calling
    /// thread (matching the scoped-spawn behavior it replaces).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if self.workers == 0 || n <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let (tx, rx) = mpsc::channel::<(usize, thread::Result<T>)>();
        {
            let mut queue = self.shared.lock_queue();
            for (idx, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                queue.push_back(Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(job));
                    let _ = tx.send((idx, out));
                }));
            }
        }
        self.shared.work_ready.notify_all();
        drop(tx);

        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while received < n {
            // Help drain: run queued jobs (ours or a sibling batch's)
            // instead of parking while workers are busy.
            if let Some(job) = self.shared.try_pop() {
                job();
                continue;
            }
            match rx.recv() {
                Ok((idx, out)) => {
                    results[idx] = Some(out.unwrap_or_else(|payload| resume_unwind(payload)));
                    received += 1;
                }
                Err(_) => break,
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("pool worker dropped a job result")) // lint: allow(panic, "the loop above received exactly one result per job index")
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: pop-then-run until shutdown. Queued jobs take
/// priority over the shutdown flag, so dropping the pool drains the
/// queue instead of abandoning it; a panicking job is contained by its
/// wrapper ([`WorkerPool::run`]), so one bad job never kills the pool.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(workers: usize) -> Parallelism {
        Parallelism::Sharded(NonZeroUsize::new(workers).unwrap())
    }

    #[test]
    fn parallelism_resolves_thread_counts() {
        assert_eq!(Parallelism::Serial.pool_width(), 0);
        assert_eq!(sharded(4).pool_width(), 4);
        assert!(Parallelism::auto().pool_width() != 1);
    }

    #[test]
    fn parallelism_auto_is_one_value_across_threads() {
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Parallelism> = thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        Parallelism::auto()
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&p| p == Parallelism::auto()), "{seen:?}");
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<_> = (0..64usize)
            .map(|i| {
                move || {
                    // Stagger completion so out-of-order finishes are likely.
                    if i % 3 == 0 {
                        thread::sleep(std::time::Duration::from_micros(50));
                    }
                    i * i
                }
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..64usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.spawn_count(), 0);
        let out = pool.run((0..8).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(pool.spawn_count(), 0, "inline pools never spawn");
    }

    #[test]
    fn spawn_count_stays_flat_across_batches() {
        let pool = WorkerPool::new(2);
        let after_build = pool.spawn_count();
        assert_eq!(after_build, 2);
        for _ in 0..10 {
            let out = pool.run((0..16).map(|i| move || i).collect::<Vec<_>>());
            assert_eq!(out.len(), 16);
        }
        assert_eq!(pool.spawn_count(), after_build, "batches must not spawn");
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = WorkerPool::for_parallelism(sharded(2));
        let outer: Vec<_> = (0..4usize)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner = pool.run((0..4usize).map(|j| move || i * 10 + j).collect());
                    inner.into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = pool.run(outer);
        assert_eq!(sums, vec![6, 46, 86, 126]);
    }

    #[test]
    fn panicking_job_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
                Box::new(|| panic!("job panic")),
            ]);
        }));
        assert!(boom.is_err(), "job panic must reach the caller");
        // The pool still works afterwards.
        let out = pool.run((0..4).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn serial_parallelism_maps_to_the_inline_pool() {
        let pool = WorkerPool::for_parallelism(Parallelism::Serial);
        assert_eq!(pool.workers(), 0);
        let again = WorkerPool::for_parallelism(Parallelism::Serial);
        assert!(Arc::ptr_eq(&pool, &again), "registry must reuse pools");
    }

    #[test]
    fn registry_reuses_pools_per_worker_count() {
        let a = WorkerPool::for_parallelism(sharded(3));
        let b = WorkerPool::for_parallelism(sharded(3));
        assert!(Arc::ptr_eq(&a, &b));
        let c = WorkerPool::for_parallelism(sharded(4));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.workers(), 4);
    }
}
