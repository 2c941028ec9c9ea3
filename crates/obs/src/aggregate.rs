//! Merge per-rank event buffers into run-level metrics, including the
//! per-iteration critical-path attribution (compute vs collective-wait vs
//! straggler-induced idle).

use crate::events::{EventKind, RegionKind, TraceEvent};
use crate::stats::CommStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The merged output of one run's [`crate::Recorder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    pub per_rank: Vec<Vec<TraceEvent>>,
}

impl RunTrace {
    pub fn n_ranks(&self) -> usize {
        self.per_rank.len()
    }

    pub fn events(&self, rank: usize) -> &[TraceEvent] {
        &self.per_rank[rank]
    }

    /// Timestamp-free event signatures of one rank (see
    /// [`TraceEvent::signature`]); the unit of determinism comparisons.
    pub fn signatures(&self, rank: usize) -> Vec<String> {
        self.per_rank[rank]
            .iter()
            .map(TraceEvent::signature)
            .collect()
    }

    /// Total recorded events across ranks.
    pub fn total_events(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// Reduce to run-level metrics.
    pub fn aggregate(&self) -> RunMetrics {
        let mut regions = vec![RegionStats::default(); RegionKind::ALL.len()];
        let mut comm = CommStats::default();
        let mut collective_events = 0u64;
        let mut marks = 0u64;
        let mut kernel_events = 0u64;
        let mut unmatched = 0u64;
        let mut span_ns = 0u64;
        // Collectives are symmetric: every rank logs the same operation, so
        // run-level comm stats come from rank 0's view (matching how the
        // communicator's own `CommStats` counts each collective once).
        for (rank, events) in self.per_rank.iter().enumerate() {
            // Begin-events awaiting their end, per kind (regions of
            // different kinds may nest arbitrarily).
            let mut open: Vec<Vec<u64>> = vec![Vec::new(); RegionKind::ALL.len()];
            for e in events {
                span_ns = span_ns.max(e.ts_ns);
                match &e.kind {
                    EventKind::RegionBegin { region } => {
                        open[region.index()].push(e.ts_ns);
                    }
                    EventKind::RegionEnd { region } => match open[region.index()].pop() {
                        Some(begin_ns) => {
                            regions[region.index()].observe(e.ts_ns.saturating_sub(begin_ns));
                        }
                        None => unmatched += 1,
                    },
                    EventKind::Collective {
                        op,
                        category,
                        bytes,
                    } => {
                        collective_events += 1;
                        if rank == 0 {
                            comm.record(*category, *op, *bytes);
                        }
                    }
                    EventKind::Mark { .. } => marks += 1,
                    // Kernel spans are complete at emission; they carry no
                    // begin/end pair and stay out of the region stacks.
                    EventKind::Kernel { .. } => kernel_events += 1,
                }
            }
            unmatched += open.iter().map(|v| v.len() as u64).sum::<u64>();
        }
        RunMetrics {
            n_ranks: self.n_ranks(),
            regions,
            comm,
            collective_events,
            marks,
            kernel_events,
            unmatched_regions: unmatched,
            span_ns,
        }
    }

    /// Attribute each search iteration's wall time to compute,
    /// collective-wait, straggler-induced idle, and other (bookkeeping).
    ///
    /// Windows are cut at the `iteration:N` marks the search driver emits
    /// at every boundary. All ranks of a run share the recorder's clock, so
    /// the boundaries are global: the window for iteration `N` opens at the
    /// earliest rank's mark and closes at the next iteration's (the last
    /// window closes at the final event). This also covers the fork-join
    /// scheme, where only the master thread runs the driver and emits the
    /// marks — worker events still fall into the master's windows.
    ///
    /// Per window and rank, compute is the sum of kernel span durations and
    /// collective-wait is the summed [`RegionKind::CollectiveWait`] region
    /// time. The straggler share is the part of the mean collective wait
    /// explained by kernel imbalance (the fastest ranks idle inside
    /// collectives while the slowest one computes): `min(max_compute −
    /// mean_compute, mean_collective_wait)`. The four components sum to the
    /// window's wall time exactly; when measured compute + wait exceeds the
    /// wall (clock-edge straddle), components are scaled down
    /// proportionally rather than over-attributing.
    ///
    /// Returns `None` when the trace carries no iteration marks (e.g. a
    /// zero-iteration run).
    pub fn critical_path(&self) -> Option<CriticalPath> {
        // Iteration → earliest mark timestamp across ranks.
        let mut bounds: BTreeMap<u64, u64> = BTreeMap::new();
        let mut end_ns = 0u64;
        for events in &self.per_rank {
            for e in events {
                end_ns = end_ns.max(e.ts_ns);
                if let EventKind::Mark { label } = &e.kind {
                    if let Some(n) = label
                        .strip_prefix(crate::ITERATION_MARK)
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        let slot = bounds.entry(n).or_insert(e.ts_ns);
                        *slot = (*slot).min(e.ts_ns);
                    }
                }
            }
        }
        if bounds.is_empty() {
            return None;
        }
        let starts: Vec<(u64, u64)> = bounds.into_iter().collect(); // (iteration, ts)
        let n_windows = starts.len();
        let n_ranks = self.n_ranks().max(1);
        // Window index of a timestamp; events before the first boundary
        // (setup, data distribution) are outside every window.
        let window_of = |ts: u64| -> Option<usize> {
            let idx = starts.partition_point(|&(_, b)| b <= ts);
            idx.checked_sub(1)
        };
        let mut compute = vec![vec![0u64; n_ranks]; n_windows];
        let mut collwait = vec![vec![0u64; n_ranks]; n_windows];
        let mut partitions: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); n_windows];
        for (rank, events) in self.per_rank.iter().enumerate() {
            let mut open_wait: Vec<u64> = Vec::new();
            for e in events {
                match &e.kind {
                    EventKind::Kernel {
                        partition, dur_ns, ..
                    } => {
                        if let Some(w) = window_of(e.ts_ns) {
                            compute[w][rank] += dur_ns;
                            *partitions[w].entry(*partition).or_insert(0) += dur_ns;
                        }
                    }
                    EventKind::RegionBegin {
                        region: RegionKind::CollectiveWait,
                    } => open_wait.push(e.ts_ns),
                    EventKind::RegionEnd {
                        region: RegionKind::CollectiveWait,
                    } => {
                        if let Some(begin) = open_wait.pop() {
                            if let Some(w) = window_of(begin) {
                                collwait[w][rank] += e.ts_ns.saturating_sub(begin);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let windows = (0..n_windows)
            .map(|w| {
                let wall_ns = if w + 1 < n_windows {
                    starts[w + 1].1 - starts[w].1
                } else {
                    end_ns.saturating_sub(starts[w].1)
                };
                let compute_mean = compute[w].iter().sum::<u64>() / n_ranks as u64;
                let wait_mean = collwait[w].iter().sum::<u64>() / n_ranks as u64;
                let (slowest_rank, slowest_ns) = compute[w]
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, ns)| *ns)
                    .map(|(r, &ns)| (r as u32, ns))
                    .unwrap_or((0, 0));
                let mut straggler_ns = (slowest_ns - compute_mean).min(wait_mean);
                let mut collective_ns = wait_mean - straggler_ns;
                let mut compute_ns = compute_mean;
                let attributed = compute_ns + wait_mean;
                if attributed > wall_ns && attributed > 0 {
                    // Scale proportionally (u128: products can exceed u64).
                    let fit = |x: u64| ((x as u128 * wall_ns as u128) / attributed as u128) as u64;
                    compute_ns = fit(compute_ns);
                    collective_ns = fit(collective_ns);
                    straggler_ns = fit(straggler_ns);
                }
                let other_ns = wall_ns.saturating_sub(compute_ns + collective_ns + straggler_ns);
                let hottest = partitions[w]
                    .iter()
                    .max_by_key(|&(_, ns)| *ns)
                    .map(|(&p, &ns)| (p, ns));
                IterationWindow {
                    iteration: starts[w].0,
                    wall_ns,
                    compute_ns,
                    collective_ns,
                    straggler_ns,
                    other_ns,
                    slowest_rank,
                    slowest_rank_kernel_ns: slowest_ns,
                    hottest_partition: hottest.map(|(p, _)| p),
                    hottest_partition_ns: hottest.map(|(_, ns)| ns).unwrap_or(0),
                }
            })
            .collect();
        Some(CriticalPath {
            n_ranks: self.n_ranks(),
            windows,
        })
    }

    /// Sum per-partition kernel durations per rank: the *measured* load the
    /// scheduler's pattern-count prediction can be checked against.
    pub fn kernel_profile(&self) -> KernelProfile {
        let per_rank = self
            .per_rank
            .iter()
            .map(|events| {
                let mut acc: Vec<(u32, u64)> = Vec::new();
                for e in events {
                    if let EventKind::Kernel {
                        partition, dur_ns, ..
                    } = &e.kind
                    {
                        match acc.binary_search_by_key(partition, |&(p, _)| p) {
                            Ok(i) => acc[i].1 += dur_ns,
                            Err(i) => acc.insert(i, (*partition, *dur_ns)),
                        }
                    }
                }
                acc
            })
            .collect();
        KernelProfile { per_rank }
    }
}

/// Measured kernel time per (rank, global partition), summed over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// `per_rank[r]` is rank `r`'s `(global partition, total ns)` pairs,
    /// sorted by partition index.
    pub per_rank: Vec<Vec<(u32, u64)>>,
}

impl KernelProfile {
    /// Total measured kernel nanoseconds per rank.
    pub fn rank_totals(&self) -> Vec<u64> {
        self.per_rank
            .iter()
            .map(|parts| parts.iter().map(|&(_, ns)| ns).sum())
            .collect()
    }
}

/// One iteration window of the critical-path attribution. All components
/// are rank-averaged nanoseconds and sum exactly to `wall_ns`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationWindow {
    /// Search iteration this window covers (from the boundary mark).
    pub iteration: u64,
    /// Window wall time on the recorder's shared clock.
    pub wall_ns: u64,
    /// Mean per-rank kernel time.
    pub compute_ns: u64,
    /// Mean collective time *not* explained by kernel imbalance: the
    /// genuine synchronization + payload-exchange cost.
    pub collective_ns: u64,
    /// Idle time induced by the slowest rank: the part of the mean
    /// collective wait that vanishes under perfect kernel balance.
    pub straggler_ns: u64,
    /// Residual (search bookkeeping, tree surgery, model-opt scalar code).
    pub other_ns: u64,
    /// Rank with the most kernel time in this window.
    pub slowest_rank: u32,
    pub slowest_rank_kernel_ns: u64,
    /// Global partition with the most kernel time in this window (summed
    /// across ranks); `None` when no kernel span landed in the window.
    pub hottest_partition: Option<u32>,
    pub hottest_partition_ns: u64,
}

/// Per-iteration wall-time attribution over a whole run (see
/// [`RunTrace::critical_path`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPath {
    pub n_ranks: usize,
    pub windows: Vec<IterationWindow>,
}

impl CriticalPath {
    /// Condense the windows into the run-level block embedded in health
    /// JSON: component totals plus the overall slowest rank and hottest
    /// partition.
    pub fn summary(&self) -> CriticalPathSummary {
        let mut s = CriticalPathSummary {
            iterations: self.windows.len() as u64,
            ..CriticalPathSummary::default()
        };
        let mut rank_ns: BTreeMap<u32, u64> = BTreeMap::new();
        let mut part_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for w in &self.windows {
            s.wall_ns += w.wall_ns;
            s.compute_ns += w.compute_ns;
            s.collective_ns += w.collective_ns;
            s.straggler_ns += w.straggler_ns;
            s.other_ns += w.other_ns;
            *rank_ns.entry(w.slowest_rank).or_insert(0) += w.slowest_rank_kernel_ns;
            if let Some(p) = w.hottest_partition {
                *part_ns.entry(p).or_insert(0) += w.hottest_partition_ns;
            }
        }
        if let Some((&r, _)) = rank_ns.iter().max_by_key(|&(_, ns)| *ns) {
            s.slowest_rank = Some(r);
        }
        if let Some((&p, &ns)) = part_ns.iter().max_by_key(|&(_, ns)| *ns) {
            s.hottest_partition = Some(p);
            s.hottest_partition_ns = ns;
        }
        s
    }
}

/// Run-level critical-path block: totals over every iteration window. The
/// four component fields sum to `wall_ns` exactly (each window's do, and
/// totals are plain sums).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPathSummary {
    /// Iteration windows attributed.
    pub iterations: u64,
    /// Total attributed wall time, ns.
    pub wall_ns: u64,
    pub compute_ns: u64,
    pub collective_ns: u64,
    pub straggler_ns: u64,
    pub other_ns: u64,
    /// Rank most often on the critical path (weighted by its kernel time
    /// in the windows it dominated).
    pub slowest_rank: Option<u32>,
    /// Partition most often the hottest, and its kernel time in those
    /// windows.
    pub hottest_partition: Option<u32>,
    pub hottest_partition_ns: u64,
}

impl CriticalPathSummary {
    /// Fraction of attributed wall time, 0.0 when no wall time was seen.
    fn frac(&self, part: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            part as f64 / self.wall_ns as f64
        }
    }

    pub fn compute_frac(&self) -> f64 {
        self.frac(self.compute_ns)
    }

    pub fn collective_frac(&self) -> f64 {
        self.frac(self.collective_ns)
    }

    pub fn straggler_frac(&self) -> f64 {
        self.frac(self.straggler_ns)
    }
}

/// Duration statistics of one [`RegionKind`] across all ranks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionStats {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Log₂ duration histogram: bucket `i` counts durations in
    /// `[2^i, 2^(i+1))` ns (bucket 0 additionally holds 0 ns).
    pub hist: [u64; 32],
}

impl RegionStats {
    fn observe(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
        let bucket = if dur_ns == 0 {
            0
        } else {
            (63 - dur_ns.leading_zeros() as usize).min(self.hist.len() - 1)
        };
        self.hist[bucket] += 1;
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Run-level metrics: the aggregation of every rank's events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    pub n_ranks: usize,
    /// Indexed by [`RegionKind::ALL`] order.
    pub regions: Vec<RegionStats>,
    /// Comm traffic reconstructed from collective events (rank 0's view,
    /// each collective counted once).
    pub comm: CommStats,
    /// Collective events across **all** ranks (≈ regions × ranks).
    pub collective_events: u64,
    pub marks: u64,
    /// Complete kernel spans across all ranks (see [`EventKind::Kernel`]).
    pub kernel_events: u64,
    /// `RegionEnd` without begin or vice versa — nonzero indicates a rank
    /// died mid-region or a driver bug.
    pub unmatched_regions: u64,
    /// Largest timestamp seen (run span on the recorder's clock).
    pub span_ns: u64,
}

impl RunMetrics {
    pub fn region(&self, kind: RegionKind) -> &RegionStats {
        &self.regions[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CommCategory, OpKind};

    fn ev(ts_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { ts_ns, kind }
    }

    #[test]
    fn aggregates_nested_regions() {
        let trace = RunTrace {
            per_rank: vec![vec![
                ev(
                    0,
                    EventKind::RegionBegin {
                        region: RegionKind::SprRound,
                    },
                ),
                ev(
                    10,
                    EventKind::RegionBegin {
                        region: RegionKind::Newview,
                    },
                ),
                ev(
                    30,
                    EventKind::RegionEnd {
                        region: RegionKind::Newview,
                    },
                ),
                ev(
                    40,
                    EventKind::RegionBegin {
                        region: RegionKind::Newview,
                    },
                ),
                ev(
                    100,
                    EventKind::RegionEnd {
                        region: RegionKind::Newview,
                    },
                ),
                ev(
                    200,
                    EventKind::RegionEnd {
                        region: RegionKind::SprRound,
                    },
                ),
            ]],
        };
        let m = trace.aggregate();
        assert_eq!(m.region(RegionKind::Newview).count, 2);
        assert_eq!(m.region(RegionKind::Newview).total_ns, 80);
        assert_eq!(m.region(RegionKind::Newview).min_ns, 20);
        assert_eq!(m.region(RegionKind::Newview).max_ns, 60);
        assert_eq!(m.region(RegionKind::SprRound).count, 1);
        assert_eq!(m.region(RegionKind::SprRound).total_ns, 200);
        assert_eq!(m.unmatched_regions, 0);
        assert_eq!(m.span_ns, 200);
        assert!((m.region(RegionKind::Newview).mean_ns() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn comm_stats_count_each_collective_once() {
        let coll = EventKind::Collective {
            op: OpKind::Allreduce,
            category: CommCategory::SiteLikelihoods,
            bytes: 8,
        };
        let trace = RunTrace {
            per_rank: vec![
                vec![ev(1, coll.clone()), ev(2, coll.clone())],
                vec![ev(1, coll.clone()), ev(2, coll.clone())],
                vec![ev(1, coll.clone()), ev(2, coll)],
            ],
        };
        let m = trace.aggregate();
        // 6 events across ranks, but 2 logical collectives.
        assert_eq!(m.collective_events, 6);
        assert_eq!(m.comm.total_regions(), 2);
        assert_eq!(m.comm.get(CommCategory::SiteLikelihoods).bytes, 16);
    }

    #[test]
    fn unmatched_regions_are_counted_not_fatal() {
        let trace = RunTrace {
            per_rank: vec![vec![
                ev(
                    0,
                    EventKind::RegionBegin {
                        region: RegionKind::Evaluate,
                    },
                ),
                ev(
                    5,
                    EventKind::RegionEnd {
                        region: RegionKind::Newview,
                    },
                ),
            ]],
        };
        let m = trace.aggregate();
        // One dangling begin + one end without begin.
        assert_eq!(m.unmatched_regions, 2);
        assert_eq!(m.region(RegionKind::Evaluate).count, 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = RegionStats::default();
        s.observe(0); // bucket 0
        s.observe(1); // bucket 0
        s.observe(2); // bucket 1
        s.observe(3); // bucket 1
        s.observe(1024); // bucket 10
        assert_eq!(s.hist[0], 2);
        assert_eq!(s.hist[1], 2);
        assert_eq!(s.hist[10], 1);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn kernel_profile_sums_per_rank_and_partition() {
        let k = |ts, partition, dur_ns| {
            ev(
                ts,
                EventKind::Kernel {
                    region: RegionKind::Newview,
                    partition,
                    dur_ns,
                },
            )
        };
        let trace = RunTrace {
            per_rank: vec![
                vec![k(0, 2, 100), k(1, 0, 50), k(2, 2, 25)],
                vec![k(0, 1, 10), k(1, 1, 30)],
            ],
        };
        let profile = trace.kernel_profile();
        assert_eq!(profile.per_rank[0], vec![(0, 50), (2, 125)]);
        assert_eq!(profile.per_rank[1], vec![(1, 40)]);
        assert_eq!(profile.rank_totals(), vec![175, 40]);

        let m = trace.aggregate();
        assert_eq!(m.kernel_events, 5);
        // Kernel spans carry their own duration; region stats stay empty.
        assert_eq!(m.region(RegionKind::Newview).count, 0);
        assert_eq!(m.unmatched_regions, 0);
    }

    #[test]
    fn metrics_roundtrip_through_json() {
        let trace = RunTrace {
            per_rank: vec![vec![
                ev(
                    0,
                    EventKind::RegionBegin {
                        region: RegionKind::NrIteration,
                    },
                ),
                ev(
                    4,
                    EventKind::RegionEnd {
                        region: RegionKind::NrIteration,
                    },
                ),
                ev(
                    6,
                    EventKind::Mark {
                        label: "pass:1".into(),
                    },
                ),
            ]],
        };
        let m = trace.aggregate();
        let text = serde_json::to_string_pretty(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(m, back);
    }

    fn mark(ts: u64, label: &str) -> TraceEvent {
        ev(
            ts,
            EventKind::Mark {
                label: label.into(),
            },
        )
    }

    fn kernel(ts: u64, partition: u32, dur_ns: u64) -> TraceEvent {
        ev(
            ts,
            EventKind::Kernel {
                region: RegionKind::Newview,
                partition,
                dur_ns,
            },
        )
    }

    fn wait(begin: u64, end: u64) -> [TraceEvent; 2] {
        [
            ev(
                begin,
                EventKind::RegionBegin {
                    region: RegionKind::CollectiveWait,
                },
            ),
            ev(
                end,
                EventKind::RegionEnd {
                    region: RegionKind::CollectiveWait,
                },
            ),
        ]
    }

    #[test]
    fn critical_path_attribution_sums_to_wall_time() {
        let [w0b, w0e] = wait(850, 900);
        let [w1b, w1e] = wait(600, 950);
        let [w2b, w2e] = wait(1500, 1600);
        let trace = RunTrace {
            per_rank: vec![
                vec![
                    mark(100, "iteration:0"),
                    kernel(200, 0, 600),
                    w0b,
                    w0e,
                    mark(1100, "iteration:1"),
                    kernel(1200, 0, 200),
                    w2b,
                    w2e,
                ],
                vec![
                    mark(110, "iteration:0"),
                    kernel(250, 1, 300),
                    w1b,
                    w1e,
                    mark(1105, "iteration:1"),
                ],
            ],
        };
        let cp = trace.critical_path().expect("marks present");
        assert_eq!(cp.n_ranks, 2);
        assert_eq!(cp.windows.len(), 2);

        // Window 0: [100, 1100) — wall 1000. Mean compute 450, mean wait
        // 200 of which 150 is straggler idle (rank 0 computed 600 vs mean
        // 450).
        let w = &cp.windows[0];
        assert_eq!(w.iteration, 0);
        assert_eq!(w.wall_ns, 1000);
        assert_eq!(w.compute_ns, 450);
        assert_eq!(w.straggler_ns, 150);
        assert_eq!(w.collective_ns, 50);
        assert_eq!(w.other_ns, 350);
        assert_eq!(w.slowest_rank, 0);
        assert_eq!(w.slowest_rank_kernel_ns, 600);
        assert_eq!(w.hottest_partition, Some(0));
        assert_eq!(w.hottest_partition_ns, 600);

        // Every window's components sum to its wall time exactly.
        for w in &cp.windows {
            assert_eq!(
                w.compute_ns + w.collective_ns + w.straggler_ns + w.other_ns,
                w.wall_ns,
                "window {} does not sum to wall",
                w.iteration
            );
        }

        let s = cp.summary();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.wall_ns, cp.windows.iter().map(|w| w.wall_ns).sum::<u64>());
        assert_eq!(
            s.compute_ns + s.collective_ns + s.straggler_ns + s.other_ns,
            s.wall_ns
        );
        assert_eq!(s.slowest_rank, Some(0));
        assert_eq!(s.hottest_partition, Some(0));
        assert!(s.compute_frac() > 0.0 && s.compute_frac() < 1.0);
    }

    #[test]
    fn critical_path_scales_down_clock_edge_overattribution() {
        // A kernel span longer than the window itself (clock-edge straddle)
        // must not attribute more than the wall.
        let trace = RunTrace {
            per_rank: vec![vec![
                mark(0, "iteration:0"),
                kernel(10, 3, 1000),
                mark(500, "end_sentinel_not_a_boundary"),
            ]],
        };
        let cp = trace.critical_path().unwrap();
        let w = &cp.windows[0];
        assert_eq!(w.wall_ns, 500);
        assert_eq!(w.compute_ns, 500);
        assert_eq!(w.collective_ns + w.straggler_ns + w.other_ns, 0);
    }

    #[test]
    fn critical_path_is_none_without_iteration_marks() {
        let trace = RunTrace {
            per_rank: vec![vec![kernel(0, 0, 10)]],
        };
        assert!(trace.critical_path().is_none());
    }
}
