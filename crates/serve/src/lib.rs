//! `exa-serve` — a multi-tenant inference daemon over `examl-core` runs.
//!
//! A single large tree search owns its process for hours; a lab running
//! many analyses wants one long-lived service that queues submissions,
//! shares the machine fairly between tenants, and never loses work across
//! restarts. This crate provides that service:
//!
//! * **Jobs are [`RunConfig`] JSON.** A [`JobSpec`] names a tenant, a
//!   priority, a cost estimate, the alignment file, and the run
//!   configuration verbatim — the daemon only overrides the spool-owned
//!   fields (checkpoint directory, cadence, preemption handle, health
//!   file).
//! * **Crash-safe queue.** Every state transition is appended to an fsynced
//!   JSON-lines journal ([`journal`]); on restart the journal is replayed
//!   and jobs that were running are re-queued, resuming from their last
//!   committed checkpoint generation.
//! * **Fair-share scheduling.** A weighted deficit round-robin scheduler
//!   ([`scheduler`]) with per-tenant concurrency quotas guarantees bounded
//!   wait for every tenant given bounded job costs.
//! * **Preemption via checkpoint.** A higher-priority submission (or a
//!   cancel, or shutdown) raises the running job's
//!   [`PreemptSignal`](exa_search::PreemptSignal); the run commits a final
//!   checkpoint at its next iteration boundary, stops cleanly, and is
//!   re-queued to resume later — no work is lost beyond the current
//!   iteration.
//!
//! The wire protocol ([`http`]) speaks both minimal HTTP/1.1 and a
//! line-oriented JSON protocol on the same socket; [`client`] is the
//! matching blocking client used by `examl serve …` subcommands.

pub mod client;
pub mod daemon;
pub mod http;
pub mod journal;
pub mod scheduler;
pub mod signal;

use examl_core::RunConfig;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Daemon-assigned job identifier, dense from 1 within one spool directory.
pub type JobId = u64;

/// One submission: who it belongs to, how urgent and how big it is, and the
/// run to execute. Spooled verbatim into the journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Tenant the job is accounted against.
    pub tenant: String,
    /// Strict global priority class (higher dispatches first; fair share
    /// applies within a class) and the preemption trigger: a submission
    /// with strictly higher priority than a running job may
    /// checkpoint-preempt it when no worker is idle.
    pub priority: u32,
    /// Deficit charge in scheduler units — an estimate of the job's size
    /// (any monotone proxy works; the bench harness uses pattern count ×
    /// iterations). Clamped to at least 1.
    pub cost: u64,
    /// Alignment input: `exa-bio` binary (`.exml`) or PHYLIP/FASTA text.
    pub alignment: PathBuf,
    /// Optional RAxML-style partition file for text alignments.
    pub partitions: Option<PathBuf>,
    /// The run itself. `checkpoint_out`, `checkpoint_keep`,
    /// `checkpoint_every`, `checkpoint_every_secs`, `preempt`, `resume_from`
    /// and `health_out` are daemon-owned and overridden at dispatch.
    pub config: RunConfig,
}

/// Lifecycle of a job inside the daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the scheduler (also after a preemption, until
    /// re-dispatched).
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a final likelihood.
    Completed { lnl: f64, iterations: u64 },
    /// The run returned an error.
    Failed { error: String },
    /// Cancelled while queued, or checkpoint-stopped after a running
    /// cancel.
    Cancelled,
}

impl JobState {
    /// Whether the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed { .. } | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

/// Point-in-time snapshot of one job, as returned by `status`/`list`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    pub id: JobId,
    pub tenant: String,
    pub priority: u32,
    pub cost: u64,
    pub state: JobState,
    /// Dispatches so far (1 on the first run; +1 per resume).
    pub attempts: u64,
    /// Checkpoint-preemptions suffered.
    pub preemptions: u64,
    /// Queue wait from submission to first dispatch, once dispatched.
    pub wait_ms: Option<f64>,
}
