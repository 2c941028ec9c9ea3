//! Intra-rank task parallelism for the batched kernel layer.
//!
//! A [`WorkerPool`] executes the per-batch items of one engine call across
//! `--threads N` OS threads *inside* a rank. Determinism is preserved by
//! construction: every batch item writes only its own indexed result slot
//! (partitions are independent — each kernel touches only its own
//! `PartitionState`), all cross-partition floating-point accumulation
//! happens serially on the calling thread in fixed local-partition order
//! after the pool call returns, and trace events are buffered per partition
//! and emitted serially (the tracer is single-claimant per rank). The
//! thread schedule is therefore invisible in the results: lnL bits are
//! identical for `--threads 1` and `--threads N` under both `--reduce`
//! modes.
//!
//! The pool is deliberately std-only (no rayon/crossbeam in the dependency
//! allowlist): a `Mutex`/`Condvar` job epoch plus an atomic work-claiming
//! cursor. Threads persist for the engine's lifetime; with one thread no
//! threads are spawned and `run` degenerates to an inline loop with zero
//! synchronization, so `--threads 1` is exactly the historical serial path.

use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A concrete intra-rank thread count, `1..=`[`ThreadCount::MAX`].
///
/// Like [`super::KernelKind`], the value must be uniform across ranks (every
/// rank resolves the run's one `--threads`, and the count is folded into the
/// sentinel fingerprint) —
/// not because the arithmetic could differ (it cannot; see the module
/// docs), but because the hybrid-collective execution model it stands for
/// (§V: one MPI rank per node, threads inside) only makes sense world-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ThreadCount(u8);

impl ThreadCount {
    /// Upper bound on a thread count.
    pub const MAX: usize = 64;

    /// Clamp `n` into the valid range.
    pub fn new(n: usize) -> ThreadCount {
        ThreadCount(n.clamp(1, Self::MAX) as u8)
    }

    /// The count as a plain `usize` (always ≥ 1).
    pub fn get(self) -> usize {
        self.0.max(1) as usize
    }

    /// Parse a CLI/env value (a decimal count in `1..=MAX`).
    pub fn parse(s: &str) -> Option<ThreadCount> {
        let n: usize = s.parse().ok()?;
        (1..=Self::MAX).contains(&n).then_some(ThreadCount(n as u8))
    }

    /// Stable label (trace marks, health JSON, fingerprints).
    pub fn label(self) -> &'static str {
        const LABELS: [&str; ThreadCount::MAX + 1] = [
            "1", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
            "16", "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29",
            "30", "31", "32", "33", "34", "35", "36", "37", "38", "39", "40", "41", "42", "43",
            "44", "45", "46", "47", "48", "49", "50", "51", "52", "53", "54", "55", "56", "57",
            "58", "59", "60", "61", "62", "63", "64",
        ];
        LABELS[self.get().min(Self::MAX)]
    }
}

impl std::fmt::Display for ThreadCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A thread-count policy, as requested on the command line or in a run's
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadsChoice {
    /// Force a specific count.
    Count(ThreadCount),
    /// Resolves to 1: in-process multi-rank worlds already run
    /// one OS thread per rank, so threading is strictly opt-in — `auto`
    /// must never multiply a 32-rank world by the machine's core count.
    Auto,
}

impl ThreadsChoice {
    /// Parse a CLI value (`auto` or a count in `1..=64`).
    pub fn parse(s: &str) -> Option<ThreadsChoice> {
        if s == "auto" {
            return Some(ThreadsChoice::Auto);
        }
        ThreadCount::parse(s).map(ThreadsChoice::Count)
    }

    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            ThreadsChoice::Count(n) => n.label(),
            ThreadsChoice::Auto => "auto",
        }
    }

    /// Resolve this policy: a count is itself, `auto` is one thread.
    pub fn resolve_local(self) -> ThreadCount {
        match self {
            ThreadsChoice::Count(n) => n,
            ThreadsChoice::Auto => ThreadCount::new(1),
        }
    }
}

impl std::fmt::Display for ThreadsChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A borrowed task function with its lifetime erased. Sound because
/// [`WorkerPool::run`] does not return until every claimed task completed,
/// so the erased borrow strictly outlives all uses.
type Job = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    job: Option<Job>,
    n_tasks: usize,
    /// Tasks published but not yet completed. Kept under the mutex (not an
    /// atomic) so the caller's completion wait cannot miss a wakeup.
    pending: usize,
    /// Bumped per published job so sleeping workers distinguish "new job"
    /// from a spurious wakeup.
    epoch: u64,
    shutdown: bool,
    /// First panic payload observed in any task, re-raised on the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    job_done: Condvar,
    /// Work-claiming cursor, `epoch << 32 | next index`: each task index is
    /// claimed by exactly one thread (see [`claim`]), and only by a thread
    /// holding the closure of the job that index belongs to.
    cursor: AtomicU64,
}

/// Claim the next task index of the job published under `epoch`, or `None`
/// once that job's indices are exhausted — or the cursor has moved on to a
/// later job. The epoch tag is what stops a worker that picked job *k* up
/// but was descheduled until *k* completed from taking an index of job
/// *k + 1* and running it with *k*'s closure, whose borrow has ended by
/// then. A compare-exchange succeeds only on the cursor's latest value, so
/// a claim can never be made against a stale epoch.
fn claim(cursor: &AtomicU64, epoch: u64, n_tasks: usize) -> Option<usize> {
    let mut cur = cursor.load(Ordering::SeqCst);
    loop {
        let i = (cur & u64::from(u32::MAX)) as usize;
        if cur >> 32 != epoch & u64::from(u32::MAX) || i >= n_tasks {
            return None;
        }
        match cursor.compare_exchange_weak(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Some(i),
            Err(now) => cur = now,
        }
    }
}

/// Persistent intra-rank worker pool: `threads - 1` spawned workers plus
/// the calling thread all claim task indices from a shared cursor.
pub struct WorkerPool {
    threads: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Create a pool of `threads` total executors (1 = no spawned threads,
    /// fully inline execution).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.clamp(1, ThreadCount::MAX);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                n_tasks: 0,
                pending: 0,
                epoch: 0,
                shutdown: false,
                panic: None,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            cursor: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            threads,
            shared,
            handles,
        }
    }

    /// Total executor count (spawned workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(0..n_tasks)` with each index run exactly once, in
    /// parallel across the pool. Returns after every task completed; if any
    /// task panicked, the first payload is re-raised here (after all other
    /// tasks finished, so no task is abandoned mid-write).
    pub fn run(&self, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 || n_tasks <= 1 {
            // The historical serial path: no synchronization, no
            // catch_unwind, panics propagate with their original payload.
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        // Erase the borrow's lifetime to publish it to the workers; the
        // completion wait below upholds the `Job` soundness contract.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        assert!(n_tasks <= u32::MAX as usize, "task index must fit 32 bits");
        let epoch = {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(job);
            st.n_tasks = n_tasks;
            st.pending = n_tasks;
            st.epoch += 1;
            self.shared.cursor.store(st.epoch << 32, Ordering::SeqCst);
            st.epoch
        };
        self.shared.work_ready.notify_all();
        // The caller is an executor too.
        run_tasks(&self.shared, job, epoch, n_tasks);
        let mut st = self.shared.state.lock().unwrap();
        while st.pending > 0 {
            st = self.shared.job_done.wait(st).unwrap();
        }
        st.job = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claim and run tasks of the job published under `epoch` until its
/// indices are exhausted. Every claimed index decrements `pending` exactly
/// once, panic or not, so the caller's completion wait always terminates.
fn run_tasks(shared: &PoolShared, job: Job, epoch: u64, n_tasks: usize) {
    while let Some(i) = claim(&shared.cursor, epoch, n_tasks) {
        let result = catch_unwind(AssertUnwindSafe(|| job(i)));
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.job_done.notify_all();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, n_tasks) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = st.job {
                        break (job, st.n_tasks);
                    }
                }
                st = shared.work_ready.wait(st).unwrap();
            }
        };
        run_tasks(shared, job, seen_epoch, n_tasks);
    }
}

/// Indexed mutable task slots shared across pool threads.
///
/// Safety contract: [`TaskSlots::slot`] may only be called with indices
/// handed out by a claiming scheme that gives each index to exactly one
/// thread at a time ([`WorkerPool::run`]'s cursor does).
pub(crate) struct TaskSlots<T>(Vec<std::cell::UnsafeCell<T>>);

// SAFETY: disjoint-index access only, per the contract above.
unsafe impl<T: Send> Sync for TaskSlots<T> {}

impl<T> TaskSlots<T> {
    pub fn new(items: Vec<T>) -> TaskSlots<T> {
        TaskSlots(items.into_iter().map(std::cell::UnsafeCell::new).collect())
    }

    /// # Safety
    /// `i` must currently be claimed by the calling thread alone.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot(&self, i: usize) -> &mut T {
        &mut *self.0[i].get()
    }

    #[cfg(test)]
    pub fn into_inner(self) -> Vec<T> {
        self.0.into_iter().map(|c| c.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_count_parses_and_clamps() {
        assert_eq!(ThreadCount::parse("1"), Some(ThreadCount::new(1)));
        assert_eq!(ThreadCount::parse("64"), Some(ThreadCount::new(64)));
        assert_eq!(ThreadCount::parse("0"), None);
        assert_eq!(ThreadCount::parse("65"), None);
        assert_eq!(ThreadCount::parse("two"), None);
        assert_eq!(ThreadCount::new(1000).get(), ThreadCount::MAX);
        assert_eq!(ThreadCount::new(8).label(), "8");
    }

    #[test]
    fn threads_choice_parses_and_resolves() {
        assert_eq!(ThreadsChoice::parse("auto"), Some(ThreadsChoice::Auto));
        assert_eq!(
            ThreadsChoice::parse("4"),
            Some(ThreadsChoice::Count(ThreadCount::new(4)))
        );
        assert_eq!(ThreadsChoice::parse("zero"), None);
        // Auto is strictly opt-in: it must resolve to 1, never to the
        // machine's parallelism (in-process worlds run one thread per rank
        // already).
        assert_eq!(ThreadsChoice::Auto.resolve_local().get(), 1);
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            for n_tasks in [0usize, 1, 3, 17, 100] {
                let hits: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();
                pool.run(n_tasks, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "task {i} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn late_worker_never_runs_a_finished_jobs_closure() {
        // Back-to-back 2-task jobs on more executors than tasks: a worker
        // that wakes for job k only after job k completed must not claim an
        // index of job k+1 and run it with job k's closure. The closures
        // all outlive the loop, so such a stale call shows up here as a
        // miscount instead of a use-after-free.
        let pool = WorkerPool::new(8);
        let hits: Vec<AtomicU64> = (0..20_000).map(|_| AtomicU64::new(0)).collect();
        let jobs: Vec<Box<dyn Fn(usize) + Sync + '_>> = hits
            .iter()
            .map(|h| {
                Box::new(move |_: usize| {
                    h.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn Fn(usize) + Sync + '_>
            })
            .collect();
        for job in &jobs {
            pool.run(2, job.as_ref());
        }
        for (j, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 2, "job {j}");
        }
    }

    #[test]
    fn pool_writes_land_in_indexed_slots() {
        let pool = WorkerPool::new(4);
        let slots = TaskSlots::new(vec![0u64; 64]);
        pool.run(64, &|i| {
            // SAFETY: each index is claimed by exactly one thread.
            *unsafe { slots.slot(i) } = (i * i) as u64;
        });
        let out = slots.into_inner();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(10, &|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 45);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = WorkerPool::new(4);
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, &|i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Every non-panicking task still ran (no abandonment mid-job).
        assert_eq!(completed.load(Ordering::Relaxed), 31);
        // The pool survives and remains usable.
        pool.run(4, &|_| {
            completed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(completed.load(Ordering::Relaxed), 35);
    }

    #[test]
    fn panic_payload_is_preserved() {
        #[derive(Debug, PartialEq)]
        struct Marker(u32);
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    std::panic::panic_any(Marker(42));
                }
            });
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<Marker>(), Some(&Marker(42)));
    }
}
