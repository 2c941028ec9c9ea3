//! `exa-obs`: per-rank tracing & metrics for parallel phylogenetic runs.
//!
//! The paper's central argument is about *parallel regions*: the fork-join
//! scheme opens one region per traversal-descriptor broadcast while the
//! de-centralized scheme needs only the two allreduces of §III-B. Verifying
//! that claim (and localizing where wall time goes) requires seeing every
//! region, kernel invocation and collective per rank. This crate provides:
//!
//! - [`Recorder`]/[`Tracer`]: span-style events written to per-rank
//!   append-only buffers. The hot path takes no lock — each rank thread owns
//!   its buffer exclusively. A run that collects no trace creates no
//!   recorder at all.
//! - a thread-local current tracer ([`install_tracer`]) so deep layers
//!   (likelihood kernels, the tree search) can emit events without the
//!   tracer being plumbed through every signature; the free functions
//!   [`region`], [`collective`] and [`mark`] are no-ops when no tracer is
//!   installed.
//! - aggregation ([`RunTrace::aggregate`]) into run-level metrics: duration
//!   histograms per region kind, byte totals per [`CommCategory`], event
//!   counts.
//! - exporters: Chrome `trace_event` JSON (openable in Perfetto /
//!   `chrome://tracing`) and a plain JSON summary.
//! - [`metrics`]: a process-wide registry of counters, gauges and
//!   log-linear histograms rendered in Prometheus text exposition format —
//!   the *live* counterpart of the offline trace, scraped via the daemon's
//!   `GET /metrics` or dumped by `examl --metrics-out`.
//! - [`RunTrace::critical_path`]: per-iteration wall-time attribution into
//!   compute vs collective-wait vs straggler-induced idle, naming the
//!   slowest rank and hottest partition per window.
//!
//! The communication bookkeeping types ([`CommCategory`], [`OpKind`],
//! [`CommStats`]) live here — at the bottom of the crate stack — and are
//! re-exported by `exa-comm` for compatibility with existing call sites.

mod aggregate;
mod events;
mod export;
mod fingerprint;
mod health;
pub mod metrics;
mod recorder;
mod stats;

pub use aggregate::{
    CriticalPath, CriticalPathSummary, IterationWindow, KernelProfile, RegionStats, RunMetrics,
    RunTrace,
};
pub use events::{EventKind, RegionKind, TraceEvent};
pub use export::{
    chrome_trace, summary_table, write_chrome_trace, CHECKPOINT_MARK, ITERATION_MARK, MODE_MARK,
};
pub use fingerprint::{
    check_agreement, fnv1a, Component, Fnv1a, ReplicaDivergence, StateFingerprint, FNV_OFFSET,
    FNV_PRIME,
};
pub use health::{imbalance_ratio, HealthReport, HeartbeatRecord, ServeHeartbeat, TenantGauge};
pub use recorder::{
    collective, install_tracer, kernel, mark, region, tracing_active, with_tracer, Recorder,
    RegionGuard, TlsGuard, Tracer,
};
pub use stats::{CategoryStats, CommCategory, CommStats, OpKind};
