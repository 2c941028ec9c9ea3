//! Lock-free per-rank event recording.
//!
//! ## Safety model
//!
//! Each rank's buffer is an `UnsafeCell<Vec<TraceEvent>>` guarded by two
//! invariants instead of a lock:
//!
//! 1. **Single claimant.** [`Recorder::tracer`] hands out at most one
//!    [`Tracer`] per rank slot (enforced by an atomic claim flag; a second
//!    claim panics).
//! 2. **Single thread.** `Tracer` is `!Send`, so the tracer (and any clones)
//!    stays on the thread that claimed the slot — writes to one buffer are
//!    always from one thread.
//!
//! Reading happens only in [`Recorder::finish`], which consumes the last
//! `Arc`; `Arc::try_unwrap` succeeding proves every tracer (each holds an
//! `Arc`) is gone, hence every writer thread is done.

use crate::events::{EventKind, RegionKind, TraceEvent};
use crate::stats::{CommCategory, OpKind};
use crate::RunTrace;
use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct RankBuffer {
    claimed: AtomicBool,
    events: UnsafeCell<Vec<TraceEvent>>,
}

// Sound per the module-level safety model: concurrent access never happens.
unsafe impl Sync for RankBuffer {}

/// Owns the per-rank buffers of one run.
pub struct Recorder {
    epoch: Instant,
    buffers: Vec<RankBuffer>,
}

impl Recorder {
    /// A recorder for `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            buffers: (0..n_ranks)
                .map(|_| RankBuffer {
                    claimed: AtomicBool::new(false),
                    events: UnsafeCell::new(Vec::new()),
                })
                .collect(),
        })
    }

    pub fn n_ranks(&self) -> usize {
        self.buffers.len()
    }

    /// Claim rank `rank`'s buffer. Must be called on the thread that will
    /// emit the rank's events; panics on double-claim or out-of-range rank.
    pub fn tracer(self: &Arc<Recorder>, rank: usize) -> Tracer {
        let buffer = &self.buffers[rank];
        if buffer.claimed.swap(true, Ordering::AcqRel) {
            panic!("rank {rank} buffer claimed twice");
        }
        Tracer {
            recorder: Arc::clone(self),
            rank,
            _not_send: PhantomData,
        }
    }

    /// Consume the recorder and yield the merged trace. Panics if any
    /// tracer is still alive (it would hold an `Arc` to this recorder).
    pub fn finish(recorder: Arc<Recorder>) -> RunTrace {
        let rec = Arc::try_unwrap(recorder).unwrap_or_else(|arc| {
            panic!(
                "Recorder::finish with {} outstanding handle(s): join all rank threads \
                 and drop their tracers first",
                Arc::strong_count(&arc) - 1
            )
        });
        RunTrace {
            per_rank: rec
                .buffers
                .into_iter()
                .map(|b| b.events.into_inner())
                .collect(),
        }
    }
}

/// A rank's handle for appending events. Cheap to clone; pinned to the
/// claiming thread (`!Send`).
pub struct Tracer {
    recorder: Arc<Recorder>,
    rank: usize,
    _not_send: PhantomData<*const ()>,
}

impl Clone for Tracer {
    fn clone(&self) -> Tracer {
        Tracer {
            recorder: Arc::clone(&self.recorder),
            rank: self.rank,
            _not_send: PhantomData,
        }
    }
}

impl Tracer {
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn push(&self, kind: EventKind) {
        let ts_ns = self.recorder.epoch.elapsed().as_nanos() as u64;
        let buffer = &self.recorder.buffers[self.rank];
        // SAFETY: single claimant + !Send (module-level safety model).
        unsafe { (*buffer.events.get()).push(TraceEvent { ts_ns, kind }) };
    }

    /// Open a span; it closes when the guard drops.
    pub fn region(&self, kind: RegionKind) -> RegionGuard {
        self.push(EventKind::RegionBegin { region: kind });
        RegionGuard {
            tracer: self.clone(),
            kind,
        }
    }

    /// Record a collective this rank took part in.
    pub fn collective(&self, op: OpKind, category: CommCategory, bytes: u64) {
        self.push(EventKind::Collective {
            op,
            category,
            bytes,
        });
    }

    /// Record a point annotation.
    pub fn mark(&self, label: &str) {
        self.push(EventKind::Mark {
            label: label.to_string(),
        });
    }

    /// Record one kernel invocation on one global partition.
    pub fn kernel(&self, region: RegionKind, partition: u32, dur_ns: u64) {
        self.push(EventKind::Kernel {
            region,
            partition,
            dur_ns,
        });
    }
}

/// RAII span: emits the matching `RegionEnd` on drop.
pub struct RegionGuard {
    tracer: Tracer,
    kind: RegionKind,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        self.tracer.push(EventKind::RegionEnd { region: self.kind });
    }
}

// ------------------------------------------------------------ thread-local

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Install `tracer` as this thread's current tracer for the guard's
/// lifetime; the previous tracer (if any) is restored on drop. Deep layers
/// emit through [`region`]/[`collective`]/[`mark`] without plumbing.
pub fn install_tracer(tracer: Tracer) -> TlsGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(tracer));
    TlsGuard { prev }
}

pub struct TlsGuard {
    prev: Option<Tracer>,
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Run `f` with the current tracer, or skip it if none is installed.
pub fn with_tracer<R>(f: impl FnOnce(&Tracer) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// Open a span on the current tracer (no-op guard when none installed).
pub fn region(kind: RegionKind) -> Option<RegionGuard> {
    with_tracer(|t| t.region(kind))
}

/// Record a collective on the current tracer.
pub fn collective(op: OpKind, category: CommCategory, bytes: u64) {
    with_tracer(|t| t.collective(op, category, bytes));
}

/// Record a kernel invocation on the current tracer.
pub fn kernel(region: RegionKind, partition: u32, dur_ns: u64) {
    with_tracer(|t| t.kernel(region, partition, dur_ns));
}

/// Whether a tracer is installed on this thread — the gate for optional
/// measurement work (e.g. per-partition `Instant` reads) whose only
/// consumer is the trace.
pub fn tracing_active() -> bool {
    with_tracer(|_| ()).is_some()
}

/// Record a point annotation on the current tracer. The label is built
/// lazily so absent tracing never formats.
pub fn mark(label: impl FnOnce() -> String) {
    with_tracer(|t| t.push(EventKind::Mark { label: label() }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_regions_collectives_and_marks() {
        let rec = Recorder::new(1);
        let t = rec.tracer(0);
        {
            let _g = t.region(RegionKind::SprRound);
            t.collective(OpKind::Allreduce, CommCategory::SiteLikelihoods, 8);
            t.mark("spr_round:0");
        }
        drop(t);
        let trace = Recorder::finish(rec);
        let sigs = trace.signatures(0);
        assert_eq!(
            sigs,
            vec![
                "begin:spr_round",
                "coll:allreduce:SiteLikelihoods:8",
                "mark:spr_round:0",
                "end:spr_round",
            ]
        );
    }

    #[test]
    fn timestamps_are_monotone_per_rank() {
        let rec = Recorder::new(1);
        let t = rec.tracer(0);
        for _ in 0..100 {
            let _g = t.region(RegionKind::Newview);
        }
        drop(t);
        let trace = Recorder::finish(rec);
        let events = trace.events(0);
        assert_eq!(events.len(), 200);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics() {
        let rec = Recorder::new(1);
        let _a = rec.tracer(0);
        let _b = rec.tracer(0);
    }

    #[test]
    fn ranks_write_concurrently_without_interference() {
        let rec = Recorder::new(4);
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let t = rec.tracer(rank);
                    for i in 0..500 {
                        t.collective(
                            OpKind::Allreduce,
                            CommCategory::SiteLikelihoods,
                            (rank * 1000 + i) as u64,
                        );
                    }
                });
            }
        });
        let trace = Recorder::finish(rec);
        for rank in 0..4 {
            let events = trace.events(rank);
            assert_eq!(events.len(), 500);
            for (i, e) in events.iter().enumerate() {
                match &e.kind {
                    EventKind::Collective { bytes, .. } => {
                        assert_eq!(*bytes, (rank * 1000 + i) as u64)
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tls_free_functions_are_noops_without_tracer() {
        assert!(region(RegionKind::Newview).is_none());
        collective(OpKind::Barrier, CommCategory::Control, 0);
        mark(|| panic!("label must not be built without a tracer"));
    }

    #[test]
    fn tracing_active_tracks_the_installed_tracer() {
        assert!(!tracing_active());
        let rec = Recorder::new(1);
        let t = rec.tracer(0);
        {
            let _g = install_tracer(t.clone());
            assert!(tracing_active());
            kernel(RegionKind::Newview, 3, 55);
        }
        assert!(!tracing_active());
        drop(t);
        let trace = Recorder::finish(rec);
        assert_eq!(trace.signatures(0), vec!["kernel:newview:3"]);
    }

    #[test]
    fn tls_install_scopes_and_restores() {
        let rec = Recorder::new(2);
        let outer = rec.tracer(0);
        let inner = rec.tracer(1);
        {
            let _g0 = install_tracer(outer.clone());
            collective(OpKind::Allreduce, CommCategory::BranchLength, 16);
            {
                let _g1 = install_tracer(inner.clone());
                collective(OpKind::Allreduce, CommCategory::BranchLength, 32);
            }
            // Restored to rank 0 after the inner guard dropped.
            collective(OpKind::Allreduce, CommCategory::BranchLength, 48);
        }
        assert!(with_tracer(|_| ()).is_none());
        drop((outer, inner));
        let trace = Recorder::finish(rec);
        assert_eq!(
            trace.signatures(0),
            vec![
                "coll:allreduce:BranchLength:16",
                "coll:allreduce:BranchLength:48"
            ]
        );
        assert_eq!(trace.signatures(1), vec!["coll:allreduce:BranchLength:32"]);
    }
}
