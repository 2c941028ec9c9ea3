//! The daemon core: a journaled job table, the fair-share scheduler, and a
//! bounded worker pool executing `examl-core` runs with cooperative
//! checkpoint-preemption.
//!
//! All mutable state lives in one `Mutex<Core>`; workers park on a condvar
//! (as do [`Daemon::wait`] callers, woken by the same job transitions) and
//! race for dispatches through [`scheduler::FairShare`]. The invariant
//! that makes the queue crash-safe: **every state transition is fsynced to
//! the journal before it takes effect in memory**. A transition is one
//! `Core::commit` (append, then `Core::apply`), and replay is `apply` over
//! the same events, so replaying the journal always reconstructs a state
//! the daemon actually passed through (modulo a torn final append, which
//! is dropped).
//!
//! Preemption handshake (the checkpoint-preemptive part of fair share):
//!
//! 1. `submit` finds no idle worker and a running job with strictly lower
//!    priority → it raises that job's [`PreemptSignal`].
//! 2. The run observes the signal at its next iteration boundary (both
//!    schemes agree collectively in the de-centralized driver), commits a
//!    final checkpoint generation, and stops with
//!    [`RunError::Preempted`](examl_core::RunError::Preempted).
//! 3. The worker journals `Preempted`, re-queues the job at the front of
//!    its priority class with `resume_next`, and goes back to the pool —
//!    freeing the worker for the higher-priority job.
//! 4. When the job is dispatched again it resumes from the newest intact
//!    generation in its spool directory, exactly like `--resume`; the
//!    deterministic replicated search makes the resumed trajectory
//!    bit-identical to an uninterrupted run.
//!
//! Cancellation of a running job and daemon shutdown reuse the same
//! signal: both are "checkpoint at the next boundary and stop", differing
//! only in what the worker does with the carcass.

use crate::journal::{Journal, JournalEvent};
use crate::scheduler::{FairShare, TenantConfig};
use crate::{JobId, JobSpec, JobState, JobStatus};
use exa_bio::partition::PartitionScheme;
use exa_bio::patterns::CompressedAlignment;
use exa_obs::metrics::{Counter, Gauge, Histogram, Registry};
use exa_obs::{ServeHeartbeat, TenantGauge};
use exa_search::PreemptSignal;
use examl_core::{checkpoint, Faults, RunConfig, RunError};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-job spool file holding the Chrome trace of a job whose spec set
/// `collect_trace`.
pub const TRACE_FILE: &str = "trace.json";
/// Per-job spool file holding the run's heartbeat JSON lines.
pub const HEALTH_FILE: &str = "health.jsonl";

/// Daemon-wide policy: spool location, pool size, scheduling and checkpoint
/// knobs applied to every job.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Spool directory: journal plus one subdirectory per job.
    pub spool: PathBuf,
    /// Worker threads (concurrent runs).
    pub workers: usize,
    /// Policy for tenants not named in `tenants`.
    pub default_tenant: TenantConfig,
    /// Named per-tenant overrides (weight, concurrency quota).
    pub tenants: Vec<(String, TenantConfig)>,
    /// Iteration checkpoint cadence forced onto every job (0 = only the
    /// time cadence / preemption commits).
    pub checkpoint_every: usize,
    /// Optional time cadence forced onto every job.
    pub checkpoint_every_secs: Option<f64>,
    /// Checkpoint generations retained per job.
    pub checkpoint_keep: usize,
}

impl DaemonConfig {
    /// Defaults: 2 workers, unit weights, unbounded quotas,
    /// checkpoint every iteration, keep the standard window.
    pub fn new(spool: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            spool: spool.into(),
            workers: 2,
            default_tenant: TenantConfig::default(),
            tenants: Vec::new(),
            checkpoint_every: 1,
            checkpoint_every_secs: None,
            checkpoint_keep: checkpoint::KEEP_GENERATIONS,
        }
    }
}

/// In-memory job record. The journal is authoritative; this mirrors it:
/// `state`, `attempts`, `preemptions` and `resume_next` change only in
/// `Core::apply` (and `Core::requeue_as_restart`).
#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    attempts: u64,
    preemptions: u64,
    /// Next dispatch should resume from the job's checkpoint directory.
    resume_next: bool,
    cancel_requested: bool,
    /// Present exactly while the job is running.
    preempt: Option<PreemptSignal>,
    submitted_at: Instant,
    first_dispatch: Option<Instant>,
}

/// The daemon's instrument handles, all registered in one daemon-private
/// [`Registry`]. These are the *authoritative* tallies: `heartbeat()` reads
/// the same atomics `GET /metrics` renders, so `/stream-health` and
/// `/metrics` can never disagree. The registry is per-daemon (not the
/// process-global one) so several in-process daemons — common in tests —
/// don't bleed counters into each other; run-layer instrumentation still
/// lands in [`exa_obs::metrics::global`] and both are concatenated at
/// scrape time.
struct DaemonMetrics {
    registry: Arc<Registry>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    preemptions: Arc<Counter>,
    resumes: Arc<Counter>,
    /// Queue wait, submit → first dispatch. The heartbeat's mean is this
    /// histogram's `sum / count`.
    queue_wait_ms: Arc<Histogram>,
    max_wait_ms: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    running: Arc<Gauge>,
    workers_idle: Arc<Gauge>,
    uptime_secs: Arc<Gauge>,
    journal_fsync_ms: Arc<Histogram>,
    pool_resizes: Arc<Counter>,
    pool_workers: Arc<Gauge>,
}

impl DaemonMetrics {
    fn new() -> DaemonMetrics {
        let registry = Arc::new(Registry::new());
        registry.set_enabled(true);
        let r = &registry;
        DaemonMetrics {
            completed: r.counter(
                "exa_jobs_completed_total",
                "Jobs finished successfully since daemon start (journal replay included).",
                &[],
            ),
            failed: r.counter(
                "exa_jobs_failed_total",
                "Jobs that ended in an error since daemon start.",
                &[],
            ),
            cancelled: r.counter(
                "exa_jobs_cancelled_total",
                "Jobs cancelled since daemon start.",
                &[],
            ),
            preemptions: r.counter(
                "exa_preemptions_total",
                "Checkpoint-preemptions performed (a job may contribute several).",
                &[],
            ),
            resumes: r.counter(
                "exa_resumes_total",
                "Runs started from a checkpoint left by a previous attempt.",
                &[],
            ),
            queue_wait_ms: r.histogram(
                "exa_queue_wait_ms",
                "Queue wait per job, submit to first dispatch, in milliseconds.",
                &[],
            ),
            max_wait_ms: r.gauge(
                "exa_queue_wait_max_ms",
                "Worst queue wait so far, submit to first dispatch, in milliseconds.",
                &[],
            ),
            queue_depth: r.gauge(
                "exa_queue_depth",
                "Jobs waiting in the scheduler (not running, not terminal).",
                &[],
            ),
            running: r.gauge(
                "exa_jobs_running",
                "Jobs currently executing on a worker.",
                &[],
            ),
            workers_idle: r.gauge(
                "exa_workers_idle",
                "Workers parked waiting for dispatchable jobs.",
                &[],
            ),
            uptime_secs: r.gauge(
                "exa_daemon_uptime_seconds",
                "Seconds since this daemon process started.",
                &[],
            ),
            journal_fsync_ms: r.histogram(
                "exa_journal_fsync_ms",
                "Journal append latency (write + flush + fdatasync), in milliseconds.",
                &[],
            ),
            pool_resizes: r.counter(
                "exa_pool_resizes_total",
                "Worker-pool resizes performed via the resize verb.",
                &[],
            ),
            pool_workers: r.gauge(
                "exa_pool_workers",
                "Current worker-pool target size (threads executing runs).",
                &[],
            ),
            registry,
        }
    }

    fn submitted(&self, tenant: &str) -> Arc<Counter> {
        self.registry.counter(
            "exa_jobs_submitted_total",
            "Jobs admitted, by tenant.",
            &[("tenant", tenant)],
        )
    }

    fn run_duration_ms(&self, outcome: &str) -> Arc<Histogram> {
        self.registry.histogram(
            "exa_run_duration_ms",
            "Wall-clock milliseconds per dispatch, by outcome \
             (done/preempted/error).",
            &[("outcome", outcome)],
        )
    }

    fn http_request_ms(&self, verb: &str) -> Arc<Histogram> {
        self.registry.histogram(
            "exa_http_request_ms",
            "Request handling latency on the dual-protocol listener, by verb.",
            &[("verb", verb)],
        )
    }
}

struct Core {
    cfg: DaemonConfig,
    jobs: BTreeMap<JobId, JobEntry>,
    sched: FairShare,
    journal: Journal,
    next_id: JobId,
    shutdown: bool,
    workers_idle: u64,
    /// Elastic pool: live worker threads vs. the target set by `resize`.
    /// Excess workers exit when they next return to the pool; deficits are
    /// covered by spawning on the resize call itself.
    pool_size: usize,
    pool_target: usize,
    metrics: DaemonMetrics,
    started_at: Instant,
    /// What a run left on the CLI's defaults computes with on this host
    /// (`RunConfig::new`'s modes resolved locally), advertised in the
    /// heartbeat.
    modes: exa_search::Modes,
    health_seq: u64,
    /// Addresses of the listeners serving this daemon; shutdown connects to
    /// each once so an accept loop blocked in `accept()` wakes up.
    listeners: Vec<SocketAddr>,
}

struct Inner {
    state: Mutex<Core>,
    cv: Condvar,
}

/// Cloneable handle on a running daemon. [`Daemon::shutdown`] checkpoints
/// and re-queues running jobs, then joins the pool.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

fn lock(inner: &Inner) -> MutexGuard<'_, Core> {
    // A worker panicking mid-update is already a bug; keep serving.
    inner.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Daemon {
    /// Open the spool (replaying the journal) and start the worker pool.
    /// Jobs that were queued re-enter the scheduler; jobs that were running
    /// when the previous process died are re-queued and will resume from
    /// their newest intact checkpoint generation.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let mut core = Core::open(cfg)?;
        // Run-layer instrumentation (collectives, kernels, checkpoint
        // writes) lands in the process-global registry; turn it on so the
        // jobs this daemon executes show up in `GET /metrics`.
        exa_obs::metrics::global().set_enabled(true);
        let workers = core.cfg.workers.max(1);
        core.pool_size = workers;
        core.pool_target = workers;
        core.metrics.pool_workers.set(workers as f64);
        let inner = Arc::new(Inner {
            state: Mutex::new(core),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Daemon {
            inner,
            workers: Arc::new(Mutex::new(handles)),
        })
    }

    /// Admit a job: journal it, enqueue it, and — when every worker is busy
    /// and some running job has strictly lower priority — raise that job's
    /// preempt signal so this submission gets a worker at the victim's next
    /// iteration boundary. A configuration no run can have is refused here,
    /// before it reaches the journal.
    pub fn submit(&self, spec: JobSpec) -> std::io::Result<JobId> {
        spec.config.validate().map_err(std::io::Error::other)?;
        let mut core = lock(&self.inner);
        if core.shutdown {
            return Err(std::io::Error::other("daemon is shutting down"));
        }
        let id = core.next_id;
        // A failed append burns the id: its line may be on disk anyway.
        core.next_id = id
            .checked_add(1)
            .ok_or_else(|| std::io::Error::other("job ids exhausted"))?;
        let priority = spec.priority;
        core.commit(JournalEvent::Submitted {
            id,
            spec: Box::new(spec),
        })?;
        core.metrics.submitted(&core.jobs[&id].spec.tenant).inc();
        core.queue(id);
        if core.workers_idle == 0 {
            core.preempt_lowest_below(priority);
        }
        self.inner.cv.notify_all();
        Ok(id)
    }

    /// Snapshot one job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let core = lock(&self.inner);
        core.jobs.get(&id).map(|e| snapshot(id, e))
    }

    /// Park until job `id` is terminal, `timeout` has passed or the daemon
    /// shuts down, whichever is first, and snapshot the job as it is then.
    /// `None` for an unknown id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let pending = |core: &mut Core| {
            !core.shutdown && core.jobs.get(&id).is_some_and(|e| !e.state.is_terminal())
        };
        let (core, _) = self
            .inner
            .cv
            .wait_timeout_while(lock(&self.inner), timeout, pending)
            .unwrap_or_else(|e| e.into_inner());
        core.jobs.get(&id).map(|e| snapshot(id, e))
    }

    /// Snapshot every job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        let core = lock(&self.inner);
        core.jobs.iter().map(|(id, e)| snapshot(*id, e)).collect()
    }

    /// Cancel a job. A queued job is removed immediately; a running job is
    /// checkpoint-preempted and lands in `Cancelled` once it stops.
    /// Returns whether a cancellation was initiated.
    pub fn cancel(&self, id: JobId) -> std::io::Result<bool> {
        let mut core = lock(&self.inner);
        let Some(entry) = core.jobs.get_mut(&id) else {
            return Ok(false);
        };
        match entry.state {
            JobState::Queued => {
                core.commit(JournalEvent::Cancelled { id })?;
                core.sched.cancel(id);
                self.inner.cv.notify_all();
                Ok(true)
            }
            JobState::Running => {
                entry.cancel_requested = true;
                if let Some(sig) = &entry.preempt {
                    sig.request();
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Resize the worker pool to `workers` threads (clamped to ≥ 1).
    /// Growing spawns the missing workers immediately; shrinking lets the
    /// excess workers finish their current job and exit when they next
    /// return to the pool — running jobs are never interrupted. Returns
    /// `(previous_target, new_target)`.
    pub fn resize(&self, workers: usize) -> std::io::Result<(usize, usize)> {
        let workers = workers.max(1);
        let (previous, to_spawn) = {
            let mut core = lock(&self.inner);
            if core.shutdown {
                return Err(std::io::Error::other("daemon is shutting down"));
            }
            let previous = core.pool_target;
            core.pool_target = workers;
            core.metrics.pool_resizes.inc();
            core.metrics.pool_workers.set(workers as f64);
            let to_spawn = workers.saturating_sub(core.pool_size);
            core.pool_size += to_spawn;
            (previous, to_spawn)
        };
        let mut handles = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..to_spawn {
            let inner = Arc::clone(&self.inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        drop(handles);
        // Wake parked workers so a shrink is observed without waiting for
        // the next submit.
        self.inner.cv.notify_all();
        Ok((previous, workers))
    }

    /// Current daemon gauges as one [`ServeHeartbeat`].
    pub fn health(&self) -> ServeHeartbeat {
        let mut core = lock(&self.inner);
        core.health_seq += 1;
        core.heartbeat()
    }

    /// Prometheus text-format snapshot: the daemon's own registry (queue,
    /// pool and journal instruments, with live gauges refreshed under the
    /// lock) concatenated with the process-global registry (run-layer
    /// collective/kernel/checkpoint instruments).
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        {
            let core = lock(&self.inner);
            let running = core.running().count();
            core.metrics.queue_depth.set(core.sched.depth() as f64);
            core.metrics.running.set(running as f64);
            core.metrics.workers_idle.set(core.workers_idle as f64);
            core.metrics
                .uptime_secs
                .set(core.started_at.elapsed().as_secs_f64());
            core.metrics.registry.render_into(&mut out);
        }
        exa_obs::metrics::global().render_into(&mut out);
        out
    }

    /// Latency histogram for one listener verb (`submit`, `status`, …),
    /// registered in the daemon's registry on first use.
    pub fn http_request_histogram(&self, verb: &str) -> Arc<Histogram> {
        lock(&self.inner).metrics.http_request_ms(verb)
    }

    /// Path of a per-job spool artifact ([`TRACE_FILE`], [`HEALTH_FILE`]),
    /// or why the job has none. The file itself may not exist yet — callers
    /// map both to 404.
    pub fn job_artifact(&self, id: JobId, file: &str) -> Result<PathBuf, String> {
        let core = lock(&self.inner);
        let entry = core
            .jobs
            .get(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        if file == TRACE_FILE && !entry.spec.config.collect_trace {
            return Err(format!("job {id} was not traced"));
        }
        Ok(core.job_dir(id).join(file))
    }

    /// The accept loop on `addr` serves this daemon: [`Daemon::shutdown`]
    /// will wake it with one throw-away connection.
    pub(crate) fn register_listener(&self, addr: SocketAddr) {
        lock(&self.inner).listeners.push(addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        lock(&self.inner).shutdown
    }

    /// Park for `timeout` or until shutdown is requested; `true` when it
    /// was. What a periodic loop sleeps on, so that shutdown never waits
    /// out its period.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        let (core, _) = self
            .inner
            .cv
            .wait_timeout_while(lock(&self.inner), timeout, |core| !core.shutdown)
            .unwrap_or_else(|e| e.into_inner());
        core.shutdown
    }

    /// Stop accepting work, release every parked `wait` and accept loop,
    /// checkpoint-preempt running jobs (journaled as `Preempted`, so a later
    /// daemon resumes them), join the pool, and compact the journal.
    pub fn shutdown(&self) {
        let listeners = {
            let mut core = lock(&self.inner);
            core.shutdown = true;
            for entry in core.jobs.values() {
                if let Some(sig) = &entry.preempt {
                    sig.request();
                }
            }
            self.inner.cv.notify_all();
            std::mem::take(&mut core.listeners)
        };
        for mut addr in listeners {
            // A wildcard bind is reached through loopback. A failed connect
            // means the listener is already gone.
            if addr.ip().is_unspecified() {
                addr.set_ip(if addr.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                });
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        // The pool stays locked across the joins: of two concurrent calls
        // (the listener's `shutdown` op and `examl serve daemon`'s main
        // thread, which that op wakes at once) neither returns, and the
        // process does not exit, before the running jobs have checkpointed.
        let mut handles = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
        drop(handles);
        let mut core = lock(&self.inner);
        let snapshot_events = core.compaction_events();
        let _ = core.journal.compact(&snapshot_events);
    }
}

fn snapshot(id: JobId, e: &JobEntry) -> JobStatus {
    JobStatus {
        id,
        tenant: e.spec.tenant.clone(),
        priority: e.spec.priority,
        cost: e.spec.cost,
        state: e.state.clone(),
        attempts: e.attempts,
        preemptions: e.preemptions,
        wait_ms: e
            .first_dispatch
            .map(|t| t.duration_since(e.submitted_at).as_secs_f64() * 1e3),
    }
}

impl Core {
    /// Open the spool's journal and replay it into a fresh table.
    fn open(cfg: DaemonConfig) -> std::io::Result<Core> {
        let (mut journal, events) = Journal::open(&cfg.spool)?;
        let metrics = DaemonMetrics::new();
        journal.set_fsync_histogram(Arc::clone(&metrics.journal_fsync_ms));
        let mut sched = FairShare::new(cfg.default_tenant);
        for (name, tenant_cfg) in &cfg.tenants {
            sched.set_tenant(name, *tenant_cfg);
        }
        let mut core = Core {
            cfg,
            jobs: BTreeMap::new(),
            sched,
            journal,
            next_id: 1,
            shutdown: false,
            workers_idle: 0,
            pool_size: 0,
            pool_target: 0,
            metrics,
            started_at: Instant::now(),
            modes: RunConfig::new(1).modes(),
            health_seq: 0,
            listeners: Vec::new(),
        };
        core.replay(events);
        Ok(core)
    }

    /// Journal `ev`, then [`apply`](Core::apply) it: the only way a job's
    /// durable state changes. A failed append applies nothing and returns
    /// the error; the caller puts the job back as a restart would rebuild
    /// it from the journal — still queued when its `Started` failed, with
    /// [`requeue_as_restart`](Core::requeue_as_restart) when its outcome
    /// did.
    fn commit(&mut self, ev: JournalEvent) -> std::io::Result<()> {
        self.journal.append(&ev)?;
        self.apply(ev);
        Ok(())
    }

    /// Fold one journal event into the table, for a live transition and a
    /// replayed one alike. The one writer of a job's `state`, `attempts`,
    /// `preemptions` and `resume_next` and of the completed / failed /
    /// cancelled / preemption counters; an outcome also drops the job's
    /// preempt signal. An event naming no known job changes nothing.
    fn apply(&mut self, ev: JournalEvent) {
        let id = ev.id();
        if let JournalEvent::Submitted { spec, .. } = ev {
            self.next_id = self.next_id.max(id.saturating_add(1));
            self.jobs.insert(
                id,
                JobEntry {
                    spec: *spec,
                    state: JobState::Queued,
                    attempts: 0,
                    preemptions: 0,
                    resume_next: false,
                    cancel_requested: false,
                    preempt: None,
                    submitted_at: Instant::now(),
                    first_dispatch: None,
                },
            );
            return;
        }
        let Some(e) = self.jobs.get_mut(&id) else {
            return;
        };
        let m = &self.metrics;
        let counter = match ev {
            JournalEvent::Submitted { .. } => unreachable!("admitted above"),
            JournalEvent::Started { .. } => {
                e.state = JobState::Running;
                e.attempts += 1;
                return;
            }
            JournalEvent::Preempted { .. } => {
                e.state = JobState::Queued;
                e.resume_next = true;
                e.preemptions += 1;
                &m.preemptions
            }
            JournalEvent::Cancelled { .. } => {
                e.state = JobState::Cancelled;
                &m.cancelled
            }
            JournalEvent::Completed {
                lnl, iterations, ..
            } => {
                e.state = JobState::Completed { lnl, iterations };
                &m.completed
            }
            JournalEvent::Failed { error, .. } => {
                e.state = JobState::Failed { error };
                &m.failed
            }
        };
        e.preempt = None;
        counter.inc();
    }

    /// Rebuild the table from the journal: every event through
    /// [`apply`](Core::apply), then the crash pass — a job caught mid-run
    /// restarts from its last committed generation — and the scheduler
    /// rebuilt from the table. Appends nothing.
    fn replay(&mut self, events: Vec<JournalEvent>) {
        for ev in events {
            self.apply(ev);
        }
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        for id in ids {
            match self.jobs[&id].state {
                JobState::Running => self.requeue_as_restart(id),
                JobState::Queued => self.queue(id),
                _ => {}
            }
        }
    }

    /// Put job `id` back in the queue as a restart would rebuild it from a
    /// journal whose last word on it is `Started`: Queued, resuming from
    /// its newest generation, no preemption counted, no cancel pending.
    fn requeue_as_restart(&mut self, id: JobId) {
        let e = self
            .jobs
            .get_mut(&id)
            .expect("a requeued job is in the table");
        e.state = JobState::Queued;
        e.resume_next = true;
        e.cancel_requested = false;
        e.preempt = None;
        self.queue(id);
    }

    /// Index queued job `id` in the scheduler: at the front of its priority
    /// class when it resumes, at the back when it is new.
    fn queue(&mut self, id: JobId) {
        let e = &self.jobs[&id];
        let (tenant, priority, cost) = (&e.spec.tenant, e.spec.priority, e.spec.cost);
        if e.resume_next {
            self.sched.requeue_front(id, tenant, priority, cost);
        } else {
            self.sched.enqueue(id, tenant, priority, cost);
        }
    }

    /// Journal the outcome of a run, as [`run_job`] named it. A run stopped
    /// at its signal is `Cancelled` when a cancel asked for the stop;
    /// otherwise a higher-priority job displaced it or the daemon is
    /// shutting down, and both re-queue it for resume.
    fn finish(&mut self, mut ev: JournalEvent) {
        let id = ev.id();
        if matches!(ev, JournalEvent::Preempted { .. }) && self.jobs[&id].cancel_requested {
            ev = JournalEvent::Cancelled { id };
        }
        if self.commit(ev).is_err() {
            self.requeue_as_restart(id);
        } else if self.jobs[&id].state == JobState::Queued {
            self.queue(id);
        }
    }

    /// Raise the preempt signal of the lowest-priority running job whose
    /// priority is strictly below `incoming`, if any (skipping jobs already
    /// asked to stop).
    fn preempt_lowest_below(&mut self, incoming: u32) {
        let victim = self
            .jobs
            .iter()
            .filter(|(_, e)| e.state == JobState::Running)
            .filter(|(_, e)| e.spec.priority < incoming)
            .filter(|(_, e)| e.preempt.as_ref().is_some_and(|s| !s.is_requested()))
            .min_by_key(|(id, e)| (e.spec.priority, std::cmp::Reverse(**id)))
            .map(|(id, _)| *id);
        if let Some(id) = victim {
            if let Some(sig) = &self.jobs[&id].preempt {
                sig.request();
            }
        }
    }

    fn running(&self) -> impl Iterator<Item = &JobEntry> {
        self.jobs.values().filter(|e| e.state == JobState::Running)
    }

    fn heartbeat(&self) -> ServeHeartbeat {
        let running = self.running().count() as u64;
        let tenants = self
            .sched
            .gauges()
            .into_iter()
            .map(|(tenant, queued, dispatched)| {
                let running = self.running().filter(|e| e.spec.tenant == tenant).count() as u64;
                TenantGauge {
                    tenant,
                    queued,
                    running,
                    dispatched,
                }
            })
            .collect();
        // Terminal/wait tallies come straight from the registry's atomics —
        // the same ones `GET /metrics` renders — so the two surfaces cannot
        // drift apart.
        let m = &self.metrics;
        let wait_count = m.queue_wait_ms.count();
        ServeHeartbeat {
            seq: self.health_seq,
            queue_depth: self.sched.depth() as u64,
            running,
            workers_idle: self.workers_idle,
            completed: m.completed.get(),
            failed: m.failed.get(),
            cancelled: m.cancelled.get(),
            preemptions: m.preemptions.get(),
            resumes: m.resumes.get(),
            max_wait_ms: m.max_wait_ms.get(),
            mean_wait_ms: if wait_count == 0 {
                0.0
            } else {
                m.queue_wait_ms.sum() / wait_count as f64
            },
            tenants,
            version: Some(env!("CARGO_PKG_VERSION").to_string()),
            uptime_secs: Some(self.started_at.elapsed().as_secs_f64()),
            modes: Some(self.modes.label_map()),
        }
    }

    /// Minimal journal that replays to the current state: per non-terminal
    /// job its `Submitted`, one `Started` + `Preempted` per preemption, and
    /// one `Started` per other attempt, so replay counts the same attempts
    /// and preemptions, and a trailing `Started` is the resume the crash
    /// pass makes of it. Terminal jobs are dropped — their history is no
    /// longer needed for recovery.
    fn compaction_events(&self) -> Vec<JournalEvent> {
        let mut events = Vec::new();
        for (&id, e) in &self.jobs {
            if e.state.is_terminal() {
                continue;
            }
            events.push(JournalEvent::Submitted {
                id,
                spec: Box::new(e.spec.clone()),
            });
            for _ in 0..e.preemptions {
                events.push(JournalEvent::Started { id });
                events.push(JournalEvent::Preempted { id });
            }
            for _ in 0..e.attempts.saturating_sub(e.preemptions) {
                events.push(JournalEvent::Started { id });
            }
        }
        events
    }

    fn job_dir(&self, id: JobId) -> PathBuf {
        self.cfg.spool.join("jobs").join(format!("{id:08}"))
    }
}

/// What one dispatch needs outside the lock.
struct Dispatch {
    id: JobId,
    spec: JobSpec,
    resume: bool,
    signal: PreemptSignal,
    job_dir: PathBuf,
}

/// How long a worker waits before it retries a dispatch whose `Started`
/// failed to append: a journal that cannot be written now may be writable
/// again (space freed, a transient I/O error), and nothing else would wake
/// the worker for the job it put back.
const JOURNAL_RETRY: Duration = Duration::from_millis(200);

/// Take the next job the scheduler picks and journal its `Started`:
/// `None` when nothing is runnable, `Some(Err)` when the append failed and
/// the job went back to the queue.
fn try_dispatch(core: &mut Core) -> Option<std::io::Result<Dispatch>> {
    let counts: std::collections::HashMap<String, usize> =
        core.running()
            .fold(std::collections::HashMap::new(), |mut m, e| {
                *m.entry(e.spec.tenant.clone()).or_insert(0) += 1;
                m
            });
    let picked = core
        .sched
        .next(&|tenant| counts.get(tenant).copied().unwrap_or(0))?;
    let id = picked.id;
    let job_dir = core.job_dir(id);
    // Resume only when a previous attempt actually committed a generation.
    let resume =
        core.jobs[&id].resume_next && checkpoint::load_latest(&job_dir.join("ckpt")).is_ok();
    if let Err(e) = core.commit(JournalEvent::Started { id }) {
        // Never run a job un-journaled. It is still `Queued`, as the
        // journal has it, and keeps its place: the head of its class.
        let s = &core.jobs[&id].spec;
        core.sched.requeue_front(id, &s.tenant, s.priority, s.cost);
        return Some(Err(e));
    }
    let now = Instant::now();
    let signal = PreemptSignal::new();
    let e = core
        .jobs
        .get_mut(&id)
        .expect("a dispatched job is in the table");
    e.preempt = Some(signal.clone());
    if e.first_dispatch.is_none() {
        e.first_dispatch = Some(now);
        let wait_ms = now.duration_since(e.submitted_at).as_secs_f64() * 1e3;
        core.metrics.queue_wait_ms.observe(wait_ms);
        core.metrics.max_wait_ms.set_max(wait_ms);
    }
    if resume {
        core.metrics.resumes.inc();
    }
    Some(Ok(Dispatch {
        id,
        spec: core.jobs[&id].spec.clone(),
        resume,
        signal,
        job_dir,
    }))
}

fn worker_loop(inner: &Inner) {
    // Immutable after start; clone outside the dispatch loop so the run
    // itself never holds the daemon lock.
    let cfg = lock(inner).cfg.clone();
    loop {
        let dispatch = {
            let mut core = lock(inner);
            core.workers_idle += 1;
            let d = loop {
                if core.shutdown || core.pool_size > core.pool_target {
                    core.workers_idle -= 1;
                    core.pool_size -= 1;
                    return;
                }
                core = match try_dispatch(&mut core) {
                    Some(Ok(d)) => break d,
                    Some(Err(_)) => {
                        inner
                            .cv
                            .wait_timeout(core, JOURNAL_RETRY)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => inner.cv.wait(core).unwrap_or_else(|e| e.into_inner()),
                };
            };
            core.workers_idle -= 1;
            d
        };
        let run_t0 = Instant::now();
        let ev = run_job(&dispatch, &cfg);
        let run_ms = run_t0.elapsed().as_secs_f64() * 1e3;
        let mut core = lock(inner);
        let outcome_label = match ev {
            JournalEvent::Completed { .. } => "done",
            JournalEvent::Preempted { .. } => "preempted",
            _ => "error",
        };
        core.metrics.run_duration_ms(outcome_label).observe(run_ms);
        core.finish(ev);
        // A finished/requeued job may unblock a tenant quota or leave work
        // for other parked workers.
        inner.cv.notify_all();
    }
}

/// Load the job's alignment: `exa-bio` binary first, then PHYLIP, then
/// FASTA text.
fn load_alignment(path: &Path, partitions: Option<&Path>) -> Result<CompressedAlignment, String> {
    if let Ok(compressed) = exa_bio::binary::read_file(path) {
        return Ok(compressed);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read alignment {}: {e}", path.display()))?;
    // When neither parser takes the text, report the error of the format
    // it looks like: FASTA opens with `>`.
    let alignment = exa_bio::phylip::parse_phylip_auto(&text)
        .or_else(|phylip| {
            exa_bio::fasta::parse_fasta(&text).map_err(|fasta| {
                if text.trim_start().starts_with('>') {
                    fasta
                } else {
                    phylip
                }
            })
        })
        .map_err(|e| format!("cannot parse alignment {}: {e}", path.display()))?;
    let scheme = match partitions {
        Some(p) => {
            let ptext = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read partitions {}: {e}", p.display()))?;
            exa_bio::partition::parse_partition_file(&ptext, alignment.n_sites())
                .map_err(|e| e.to_string())?
        }
        None => PartitionScheme::unpartitioned(alignment.n_sites()),
    };
    Ok(CompressedAlignment::build(&alignment, &scheme))
}

/// Execute one dispatch outside the lock and name its outcome as the event
/// to journal: `Completed`, `Failed`, or `Preempted` when the run stopped
/// at its preempt signal. The spec's `RunConfig` is taken verbatim except
/// for the spool-owned fields; in particular the spec's own `collect_trace`
/// decides whether the job pays for a trace and leaves a [`TRACE_FILE`].
fn run_job(d: &Dispatch, cfg: &DaemonConfig) -> JournalEvent {
    let failed = |error| JournalEvent::Failed { id: d.id, error };
    if let Err(e) = std::fs::create_dir_all(&d.job_dir) {
        return failed(format!("cannot create job dir: {e}"));
    }
    let compressed = match load_alignment(&d.spec.alignment, d.spec.partitions.as_deref()) {
        Ok(c) => c,
        Err(e) => return failed(e),
    };
    let ckpt_dir = d.job_dir.join("ckpt");
    let mut run = d.spec.config.clone();
    run.checkpoint_out = Some(ckpt_dir.clone());
    run.checkpoint_every = cfg.checkpoint_every;
    run.checkpoint_every_secs = cfg.checkpoint_every_secs;
    run.checkpoint_keep = cfg.checkpoint_keep;
    run.preempt = Some(d.signal.clone());
    run.health_out = Some(d.job_dir.join(HEALTH_FILE));
    run.resume_from = d.resume.then(|| ckpt_dir.clone());
    run.faults = Faults::none();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.run(&compressed)));
    match outcome {
        Ok(Ok(out)) => {
            if let Some(trace) = &out.trace {
                let _ = exa_obs::write_chrome_trace(&d.job_dir.join(TRACE_FILE), trace);
            }
            JournalEvent::Completed {
                id: d.id,
                lnl: out.result.lnl,
                iterations: out.result.iterations as u64,
            }
        }
        Ok(Err(RunError::Preempted { .. })) => JournalEvent::Preempted { id: d.id },
        Ok(Err(e)) => failed(e.to_string()),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "run panicked".into());
            failed(format!("panic: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A daemon on `dir` with no worker: nothing is dispatched or finished
    /// unless the test does it.
    fn idle_daemon(dir: &Path) -> Daemon {
        let core = Core::open(DaemonConfig::new(dir)).unwrap();
        Daemon {
            inner: Arc::new(Inner {
                state: Mutex::new(core),
                cv: Condvar::new(),
            }),
            workers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A fresh spool directory for one test case.
    fn spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exa-serve-core-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(tenant: u64, priority: u32) -> JobSpec {
        JobSpec {
            tenant: format!("t{tenant}"),
            priority,
            cost: 1,
            alignment: PathBuf::from("aln.phy"),
            partitions: None,
            config: RunConfig::new(1),
        }
    }

    /// Each job's durable fields as a restart sees them: a running job
    /// comes back queued, to resume.
    fn restarted(core: &Core) -> Vec<(JobId, JobState, u64, u64, bool)> {
        core.jobs
            .iter()
            .map(|(id, e)| {
                let running = e.state == JobState::Running;
                let state = if running {
                    JobState::Queued
                } else {
                    e.state.clone()
                };
                (
                    *id,
                    state,
                    e.attempts,
                    e.preemptions,
                    e.resume_next || running,
                )
            })
            .collect()
    }

    fn counters(core: &Core) -> [u64; 4] {
        let m = &core.metrics;
        [
            m.completed.get(),
            m.failed.get(),
            m.cancelled.get(),
            m.preemptions.get(),
        ]
    }

    fn queued(core: &Core) -> usize {
        core.jobs
            .values()
            .filter(|e| e.state == JobState::Queued)
            .count()
    }

    /// One step of a commit history: an op code, a pick among the jobs and
    /// a priority.
    type Op = (u8, usize, u32);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..7, 0usize..8, 0u32..3), 1..40)
    }

    /// Submits, dispatches, cancels and the outcomes a run can end in
    /// (synthetic here: no run starts), committed on `daemon`.
    fn drive(daemon: &Daemon, ops: Vec<Op>) {
        for (op, pick, priority) in ops {
            let mut live = lock(&daemon.inner);
            let running: Vec<JobId> = live
                .jobs
                .iter()
                .filter(|(_, e)| e.state == JobState::Running)
                .map(|(id, _)| *id)
                .collect();
            let ran = running.get(pick % running.len().max(1)).copied();
            match (op, ran) {
                (0, _) => {
                    drop(live);
                    daemon.submit(spec(pick as u64 % 2, priority)).unwrap();
                }
                (1, _) => {
                    try_dispatch(&mut live);
                }
                // Queued, running, terminal or unknown: every branch.
                (2, _) => {
                    drop(live);
                    daemon.cancel(pick as JobId).unwrap();
                }
                (3, Some(id)) => live.finish(JournalEvent::Completed {
                    id,
                    lnl: -(pick as f64),
                    iterations: pick as u64,
                }),
                (4, Some(id)) => live.finish(JournalEvent::Failed {
                    id,
                    error: format!("error {pick}"),
                }),
                (_, Some(id)) => live.finish(JournalEvent::Preempted { id }),
                (_, None) => {}
            }
        }
    }

    /// A worker whose `Started` append fails retries on its own: with the
    /// journal writable again and no submit, cancel or outcome to wake it,
    /// the job still runs (and fails, having no alignment). Until then the
    /// live table holds the job as the journal does: queued, fresh.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_started_append_is_retried() {
        let dir = spool("retry");
        let daemon = idle_daemon(&dir);
        let id = daemon.submit(spec(0, 0)).unwrap();
        {
            let mut core = lock(&daemon.inner);
            core.journal.redirect(Path::new("/dev/full")).unwrap();
            core.pool_size = 1;
            core.pool_target = 1;
        }
        let inner = Arc::clone(&daemon.inner);
        daemon
            .workers
            .lock()
            .unwrap()
            .push(std::thread::spawn(move || worker_loop(&inner)));
        // The worker counts itself idle and tries the dispatch under one
        // hold of the lock, so once it shows as idle its append has failed.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut core = lock(&daemon.inner);
            if core.workers_idle == 1 {
                assert_eq!(core.jobs[&id].attempts, 0);
                assert_eq!(core.sched.depth(), 1);
                let replayed = Core::open(DaemonConfig::new(&dir)).unwrap();
                assert_eq!(restarted(&core), restarted(&replayed));
                core.journal.redirect(&Journal::path_in(&dir)).unwrap();
                break;
            }
            drop(core);
            assert!(Instant::now() < deadline, "the worker never tried");
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = daemon.wait(id, Duration::from_secs(10)).unwrap();
        assert!(
            matches!(status.state, JobState::Failed { .. }),
            "{:?}",
            status.state
        );
        assert_eq!(status.attempts, 1);
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any commit history leaves a journal that replays to the live
        /// table and counters.
        #[test]
        fn commits_replay_to_the_live_table(ops in ops()) {
            let dir = spool("commits");
            let daemon = idle_daemon(&dir);
            drive(&daemon, ops);
            let live = lock(&daemon.inner);
            let replayed = Core::open(DaemonConfig::new(&dir)).unwrap();
            prop_assert_eq!(restarted(&replayed), restarted(&live));
            prop_assert_eq!(counters(&replayed), counters(&live));
            prop_assert_eq!(replayed.next_id, live.next_id);
            // The scheduler indexes exactly the queued jobs.
            prop_assert_eq!(live.sched.depth(), queued(&live));
            prop_assert_eq!(replayed.sched.depth(), queued(&replayed));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// The compacted journal of any commit history replays to the live
        /// table's unfinished jobs: the same attempts, preemptions and
        /// resume marks.
        #[test]
        fn compaction_replays_to_the_live_table(ops in ops()) {
            let dir = spool("compact");
            let daemon = idle_daemon(&dir);
            drive(&daemon, ops);
            let live = lock(&daemon.inner);
            let fresh_dir = spool("compact-fresh");
            let mut fresh = Core::open(DaemonConfig::new(&fresh_dir)).unwrap();
            fresh.replay(live.compaction_events());
            let mut want = restarted(&live);
            want.retain(|(_, state, ..)| !state.is_terminal());
            prop_assert_eq!(restarted(&fresh), want);
            prop_assert_eq!(fresh.sched.depth(), queued(&fresh));
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&fresh_dir).unwrap();
        }

        /// Replay takes any event list — unknown ids, duplicate admissions,
        /// transitions out of order, ids at the top of the range — without
        /// a panic, indexes exactly the jobs it leaves queued, and appends
        /// nothing.
        #[test]
        fn any_event_list_replays(
            events in prop::collection::vec((0u8..6, 0u64..6, any::<u64>()), 0..40),
        ) {
            let dir = spool("hostile");
            let mut core = Core::open(DaemonConfig::new(&dir)).unwrap();
            let events = events
                .into_iter()
                .map(|(kind, id, x)| {
                    let id = if x % 5 == 0 { u64::MAX - id } else { id };
                    match kind {
                        0 => JournalEvent::Submitted {
                            id,
                            spec: Box::new(spec(x % 3, (x % 4) as u32)),
                        },
                        1 => JournalEvent::Started { id },
                        2 => JournalEvent::Preempted { id },
                        3 => JournalEvent::Cancelled { id },
                        4 => JournalEvent::Completed {
                            id,
                            lnl: -((x % 1000) as f64),
                            iterations: x,
                        },
                        _ => JournalEvent::Failed {
                            id,
                            error: x.to_string(),
                        },
                    }
                })
                .collect();
            core.replay(events);
            prop_assert_eq!(core.sched.depth(), queued(&core));
            prop_assert!(core
                .jobs
                .keys()
                .all(|&id| id < core.next_id || core.next_id == u64::MAX));
            let journal = std::fs::metadata(Journal::path_in(&dir)).unwrap();
            prop_assert_eq!(journal.len(), 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
