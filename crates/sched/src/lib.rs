//! `exa-sched` — data distribution across ranks.
//!
//! Two strategies, mirroring RAxML-Light/ExaML (§II, §IV-D of the paper and
//! reference 24, "The multi-processor scheduling problem in
//! phylogenetics"):
//!
//! * **Cyclic** (the default): site patterns are dealt round-robin across
//!   ranks over the whole alignment. Perfectly balanced in pattern count,
//!   but with many partitions every rank touches every partition, so every
//!   rank pays every partition's per-partition overhead (P-matrices,
//!   model updates).
//! * **Monolithic / MPS** (the `-Q` option): whole partitions are assigned
//!   to ranks. Optimal balance is NP-hard (multiprocessor scheduling), so
//!   the LPT (Longest Processing Time) heuristic is used, followed by a
//!   pairwise-move refinement. The paper activates this for ≥ 500
//!   partitions; ref. 24 reports up to an order of magnitude speedup from it.

pub mod balance;

use exa_bio::patterns::CompressedAlignment;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which patterns of one partition a rank holds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternSubset {
    /// The entire partition (monolithic assignment).
    All,
    /// An explicit pattern-index subset (cyclic assignment).
    Indices(Vec<usize>),
}

/// One partition's share on one rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartShare {
    /// Global partition index.
    pub global_index: usize,
    pub patterns: PatternSubset,
}

/// Everything one rank holds.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RankAssignment {
    pub shares: Vec<PartShare>,
}

impl RankAssignment {
    /// Number of patterns this rank holds, given the alignment.
    pub fn pattern_count(&self, aln: &CompressedAlignment) -> usize {
        self.shares
            .iter()
            .map(|s| match &s.patterns {
                PatternSubset::All => aln.partitions[s.global_index].n_patterns(),
                PatternSubset::Indices(v) => v.len(),
            })
            .sum()
    }
}

/// Distribution strategy (the paper's `-Q` flag selects `MonolithicLpt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    Cyclic,
    MonolithicLpt,
}

/// Distribute the alignment's patterns over `n_ranks`.
pub fn distribute(
    aln: &CompressedAlignment,
    n_ranks: usize,
    strategy: Strategy,
) -> Vec<RankAssignment> {
    assert!(n_ranks >= 1, "need at least one rank");
    match strategy {
        Strategy::Cyclic => cyclic(aln, n_ranks),
        Strategy::MonolithicLpt => monolithic_lpt(aln, n_ranks),
    }
}

/// Round-robin over the global pattern sequence: pattern `j` of partition
/// `p` goes to rank `(offset_p + j) mod n_ranks`.
fn cyclic(aln: &CompressedAlignment, n_ranks: usize) -> Vec<RankAssignment> {
    let mut out = vec![RankAssignment::default(); n_ranks];
    let mut offset = 0usize;
    for (pi, part) in aln.partitions.iter().enumerate() {
        let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for j in 0..part.n_patterns() {
            per_rank[(offset + j) % n_ranks].push(j);
        }
        offset += part.n_patterns();
        for (r, indices) in per_rank.into_iter().enumerate() {
            if !indices.is_empty() {
                out[r].shares.push(PartShare {
                    global_index: pi,
                    patterns: PatternSubset::Indices(indices),
                });
            }
        }
    }
    out
}

/// LPT: sort partitions by pattern count (descending, ties by index for
/// determinism), greedily give each to the least-loaded rank; then refine
/// with single-partition moves while they reduce the makespan.
fn monolithic_lpt(aln: &CompressedAlignment, n_ranks: usize) -> Vec<RankAssignment> {
    let mut order: Vec<usize> = (0..aln.partitions.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(aln.partitions[i].n_patterns()), i));

    let mut loads = vec![0usize; n_ranks];
    let mut owner = vec![0usize; aln.partitions.len()];
    for &pi in &order {
        let r = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("at least one rank");
        owner[pi] = r;
        loads[r] += aln.partitions[pi].n_patterns();
    }

    // Refinement: move any partition from the most-loaded rank to the
    // least-loaded one while that strictly reduces the makespan.
    loop {
        let (max_r, &max_l) = loads
            .iter()
            .enumerate()
            .max_by_key(|&(i, &l)| (l, usize::MAX - i))
            .unwrap();
        let (min_r, &min_l) = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .unwrap();
        if max_r == min_r {
            break;
        }
        // Best single move: the largest partition on max_r that still
        // reduces the makespan when moved to min_r.
        let mut best: Option<(usize, usize)> = None; // (patterns, partition)
        for (pi, &o) in owner.iter().enumerate() {
            if o != max_r {
                continue;
            }
            let w = aln.partitions[pi].n_patterns();
            let new_max = (max_l - w).max(min_l + w);
            if new_max < max_l && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, pi));
            }
        }
        match best {
            Some((w, pi)) => {
                owner[pi] = min_r;
                loads[max_r] -= w;
                loads[min_r] += w;
            }
            None => break,
        }
    }

    let mut out = vec![RankAssignment::default(); n_ranks];
    for (pi, &r) in owner.iter().enumerate() {
        out[r].shares.push(PartShare {
            global_index: pi,
            patterns: PatternSubset::All,
        });
    }
    out
}

/// Materialize a rank's data: the `(global_index, CompressedPartition)`
/// pairs it will build its engine from.
pub fn materialize(
    aln: &CompressedAlignment,
    assignment: &RankAssignment,
) -> Vec<(usize, exa_bio::patterns::CompressedPartition)> {
    assignment
        .shares
        .iter()
        .map(|s| {
            let part = &aln.partitions[s.global_index];
            let data = match &s.patterns {
                PatternSubset::All => part.clone(),
                PatternSubset::Indices(idx) => part.select_patterns(idx),
            };
            (s.global_index, data)
        })
        .collect()
}

/// Full-partition tip codes and pattern weights wrapped in `Arc`, built once
/// per process. Every in-process rank whose assignment holds an entire
/// partition ([`PatternSubset::All`]) gets its [`PartitionSlice`] by cloning
/// the `Arc` handles instead of the buffers, so an N-rank world holds one
/// copy of each full partition's data rather than N. Cyclic `Indices` shares
/// still materialize per rank — their pattern subsets genuinely differ.
///
/// [`PartitionSlice`]: exa_phylo::PartitionSlice
#[derive(Debug, Clone, Default)]
pub struct SharedSlices {
    tips: Vec<Arc<Vec<Vec<u8>>>>,
    weights: Vec<Arc<Vec<f64>>>,
}

impl SharedSlices {
    /// Wrap every partition's tip/weight buffers once.
    pub fn build(aln: &CompressedAlignment) -> SharedSlices {
        SharedSlices {
            tips: aln
                .partitions
                .iter()
                .map(|p| Arc::new(p.tips.clone()))
                .collect(),
            weights: aln
                .partitions
                .iter()
                .map(|p| Arc::new(p.weights.iter().map(|&w| w as f64).collect()))
                .collect(),
        }
    }

    /// A full-partition slice backed by the shared buffers (no data copy).
    pub fn slice(
        &self,
        aln: &CompressedAlignment,
        global_index: usize,
        freqs: [f64; 4],
    ) -> exa_phylo::PartitionSlice {
        exa_phylo::PartitionSlice::from_shared(
            global_index,
            aln.partitions[global_index].name.clone(),
            Arc::clone(&self.tips[global_index]),
            Arc::clone(&self.weights[global_index]),
            freqs,
        )
    }
}

/// Everything [`build_engine`] needs beyond the data distribution itself:
/// the rate model plus the run's resolved backend knobs (kernel, site repeats,
/// intra-rank threads, batching).
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub rate_model: exa_phylo::RateModelKind,
    pub kernel: exa_phylo::KernelKind,
    pub site_repeats: exa_phylo::SiteRepeats,
    /// Intra-rank worker-pool width (1 = serial, the historical behavior).
    pub threads: usize,
    /// Pack small partitions into cache-sized kernel batches. Off = one
    /// dispatch per partition.
    pub batch: bool,
}

impl EngineSpec {
    /// A spec with the historical defaults: serial execution, batching on.
    pub fn new(
        rate_model: exa_phylo::RateModelKind,
        kernel: exa_phylo::KernelKind,
        site_repeats: exa_phylo::SiteRepeats,
    ) -> EngineSpec {
        EngineSpec {
            rate_model,
            kernel,
            site_repeats,
            threads: 1,
            batch: true,
        }
    }

    /// CLV rate categories per pattern under this spec's rate model (the
    /// unit `pack_batches` footprints are measured in).
    pub fn clv_categories(&self) -> usize {
        match self.rate_model {
            exa_phylo::RateModelKind::Gamma => exa_phylo::model::rates::GAMMA_CATEGORIES,
            exa_phylo::RateModelKind::Psr => 1,
        }
    }
}

/// CLV footprint budget per kernel batch: the working set of one batch
/// (CLV columns + P-matrix scratch for each member) should stay L2-resident,
/// so a batch's partitions reuse hot scratch instead of evicting each other.
pub const BATCH_BUDGET_BYTES: usize = 256 * 1024;

/// Pack consecutive local partitions into cache-sized batches: greedy fill
/// against `budget_bytes` of per-pattern CLV footprint
/// (`patterns × categories × 4 states × 8 bytes`). The result is an exact
/// consecutive cover of `0..slice_patterns.len()` — packing only groups,
/// never reorders or splits, so it is a pure function of the slice
/// assignment and every rank can derive it independently. Oversized
/// partitions get a singleton batch.
pub fn pack_batches(
    slice_patterns: &[usize],
    clv_categories: usize,
    budget_bytes: usize,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut fill = 0usize;
    for (i, &patterns) in slice_patterns.iter().enumerate() {
        let footprint = patterns * clv_categories * 4 * 8;
        if i > start && fill + footprint > budget_bytes {
            out.push(start..i);
            start = i;
            fill = 0;
        }
        fill += footprint;
    }
    if start < slice_patterns.len() {
        out.push(start..slice_patterns.len());
    }
    out
}

/// Build a rank's likelihood engine from its distribution assignment and an
/// [`EngineSpec`]. This is the one place a data distribution becomes an
/// [`Engine`](exa_phylo::Engine), shared by every execution scheme — and
/// therefore the one place the partition-packing pass runs. When `shared`
/// is given, full-partition shares reuse its `Arc`-backed buffers instead
/// of cloning them.
pub fn build_engine(
    aln: &CompressedAlignment,
    assignment: &RankAssignment,
    freqs: &[[f64; 4]],
    spec: &EngineSpec,
    shared: Option<&SharedSlices>,
) -> exa_phylo::Engine {
    let slices: Vec<exa_phylo::PartitionSlice> = assignment
        .shares
        .iter()
        .map(|s| {
            let gi = s.global_index;
            match (&s.patterns, shared) {
                (PatternSubset::All, Some(sh)) => sh.slice(aln, gi, freqs[gi]),
                (PatternSubset::All, None) => {
                    exa_phylo::PartitionSlice::from_subset(gi, &aln.partitions[gi], freqs[gi])
                }
                (PatternSubset::Indices(idx), _) => {
                    let part = aln.partitions[gi].select_patterns(idx);
                    exa_phylo::PartitionSlice::from_subset(gi, &part, freqs[gi])
                }
            }
        })
        .collect();
    let patterns: Vec<usize> = slices.iter().map(|s| s.n_patterns()).collect();
    let mut engine = exa_phylo::Engine::with_config(
        aln.n_taxa(),
        slices,
        spec.rate_model,
        1.0,
        spec.kernel,
        spec.site_repeats,
    );
    engine.set_threads(spec.threads);
    if spec.batch {
        engine.set_batches(pack_batches(
            &patterns,
            spec.clv_categories(),
            BATCH_BUDGET_BYTES,
        ));
    }
    engine
}

/// The global pattern indices of one share, in the local-engine pattern
/// order `materialize`/`build_engine` produce.
fn share_pattern_indices(aln: &CompressedAlignment, share: &PartShare) -> Vec<usize> {
    match &share.patterns {
        PatternSubset::All => (0..aln.partitions[share.global_index].n_patterns()).collect(),
        PatternSubset::Indices(idx) => idx.clone(),
    }
}

/// Capture this rank's per-pattern PSR rates as
/// `(global_partition, global_pattern_indices, rate_bits)` triples, one per
/// share, in share order (which is the engine's local partition order by
/// construction of [`build_engine`]). Returns an empty vector under Γ —
/// there is no per-pattern state to persist. Checkpoint writers gather
/// these triples from every rank and merge them with [`merge_site_rates`].
pub fn capture_site_rates(
    engine: &exa_phylo::Engine,
    assignment: &RankAssignment,
    aln: &CompressedAlignment,
) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
    let mut out = Vec::new();
    for (local, share) in assignment.shares.iter().enumerate() {
        let (_, rates) = engine.model_state(local);
        if !matches!(
            rates,
            exa_phylo::model::rates::RateHeterogeneity::Psr { .. }
        ) {
            return Vec::new();
        }
        let indices = share_pattern_indices(aln, share);
        let bits: Vec<u64> = (0..indices.len())
            .map(|j| {
                rates
                    .pattern_rate(j)
                    .expect("PSR partition has a rate per pattern")
                    .to_bits()
            })
            .collect();
        out.push((share.global_index, indices, bits));
    }
    out
}

/// Merge per-rank [`capture_site_rates`] triples into one full
/// `[global_partition][global_pattern]` rate-bits table. Panics if the
/// shares do not cover every pattern exactly once — a rank assignment that
/// violates that is corrupt.
pub fn merge_site_rates(
    aln: &CompressedAlignment,
    parts: impl IntoIterator<Item = (usize, Vec<usize>, Vec<u64>)>,
) -> Vec<Vec<u64>> {
    let mut table: Vec<Vec<u64>> = aln
        .partitions
        .iter()
        .map(|p| vec![0u64; p.n_patterns()])
        .collect();
    let mut filled: Vec<Vec<bool>> = aln
        .partitions
        .iter()
        .map(|p| vec![false; p.n_patterns()])
        .collect();
    for (gi, indices, bits) in parts {
        assert_eq!(indices.len(), bits.len(), "rate blob length mismatch");
        for (&g, &b) in indices.iter().zip(&bits) {
            assert!(
                !filled[gi][g],
                "pattern {g} of partition {gi} covered twice"
            );
            table[gi][g] = b;
            filled[gi][g] = true;
        }
    }
    for (gi, f) in filled.iter().enumerate() {
        assert!(
            f.iter().all(|&x| x),
            "partition {gi} has uncovered patterns in the PSR rate table"
        );
    }
    table
}

/// Restore this rank's slice of a merged PSR rate table into its engine
/// (checkpoint resume). Rebuilds each share's `Psr` state directly from the
/// stored `f64` bits — first-appearance-unique category rates plus a
/// pattern→category map — so `pattern_rate` is bit-identical to the
/// checkpointed run regardless of how this rank's patterns are now
/// distributed. The caller is responsible for CLV invalidation afterwards
/// (the usual `restore` path does it).
pub fn apply_site_rates(
    engine: &mut exa_phylo::Engine,
    assignment: &RankAssignment,
    aln: &CompressedAlignment,
    table: &[Vec<u64>],
) {
    use std::collections::HashMap;
    for (local, share) in assignment.shares.iter().enumerate() {
        let indices = share_pattern_indices(aln, share);
        let mut category_rates: Vec<f64> = Vec::new();
        let mut by_bits: HashMap<u64, u32> = HashMap::new();
        let pattern_cat: Vec<u32> = indices
            .iter()
            .map(|&g| {
                let bits = table[share.global_index][g];
                *by_bits.entry(bits).or_insert_with(|| {
                    category_rates.push(f64::from_bits(bits));
                    (category_rates.len() - 1) as u32
                })
            })
            .collect();
        let (model, _) = engine.model_state(local);
        engine.set_model_state(
            local,
            model,
            exa_phylo::model::rates::RateHeterogeneity::Psr {
                category_rates,
                pattern_cat,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_bio::alignment::Alignment;
    use exa_bio::partition::PartitionScheme;

    /// Alignment with heterogeneous partition sizes (in unique patterns).
    fn test_alignment(part_lens: &[usize]) -> CompressedAlignment {
        let total: usize = part_lens.iter().sum();
        // Build rows whose columns are all distinct so patterns == sites.
        let n_taxa = 4;
        let mut rows = vec![String::new(); n_taxa];
        for site in 0..total {
            // Encode the site index in base 4 over the 4 taxa.
            let mut v = site;
            for row in rows.iter_mut() {
                row.push(['A', 'C', 'G', 'T'][v % 4]);
                v /= 4;
            }
        }
        let named: Vec<(String, String)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("t{i}"), r))
            .collect();
        let refs: Vec<(&str, &str)> = named
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_str()))
            .collect();
        let aln = Alignment::from_ascii(&refs).unwrap();
        let scheme = PartitionScheme::from_lengths(part_lens.iter().copied());
        CompressedAlignment::build(&aln, &scheme)
    }

    fn coverage_is_exact(aln: &CompressedAlignment, assignments: &[RankAssignment]) {
        for (pi, part) in aln.partitions.iter().enumerate() {
            let mut seen = vec![0u32; part.n_patterns()];
            for a in assignments {
                for s in &a.shares {
                    if s.global_index != pi {
                        continue;
                    }
                    match &s.patterns {
                        PatternSubset::All => {
                            for c in seen.iter_mut() {
                                *c += 1;
                            }
                        }
                        PatternSubset::Indices(v) => {
                            for &i in v {
                                seen[i] += 1;
                            }
                        }
                    }
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "partition {pi} coverage: {seen:?}"
            );
        }
    }

    #[test]
    fn cyclic_covers_everything_exactly_once() {
        let aln = test_alignment(&[7, 13, 5]);
        let a = distribute(&aln, 4, Strategy::Cyclic);
        coverage_is_exact(&aln, &a);
    }

    #[test]
    fn cyclic_is_balanced_within_one() {
        let aln = test_alignment(&[50, 30, 21]);
        let a = distribute(&aln, 8, Strategy::Cyclic);
        let counts: Vec<usize> = a.iter().map(|x| x.pattern_count(&aln)).collect();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(mx - mn <= 1, "{counts:?}");
    }

    #[test]
    fn monolithic_covers_everything_exactly_once() {
        let aln = test_alignment(&[9, 4, 17, 3, 8, 8]);
        let a = distribute(&aln, 3, Strategy::MonolithicLpt);
        coverage_is_exact(&aln, &a);
    }

    #[test]
    fn monolithic_never_splits_partitions() {
        let aln = test_alignment(&[9, 4, 17, 3, 8, 8]);
        let a = distribute(&aln, 3, Strategy::MonolithicLpt);
        for rank in &a {
            for s in &rank.shares {
                assert_eq!(s.patterns, PatternSubset::All);
            }
        }
    }

    #[test]
    fn lpt_respects_list_scheduling_bound() {
        // Provable Graham bound: makespan <= total/m + max_item * (m-1)/m.
        let sizes = [37usize, 12, 9, 55, 23, 8, 41, 14, 6, 30, 18, 27];
        let aln = test_alignment(&sizes);
        for m in [2usize, 3, 4, 5] {
            let a = distribute(&aln, m, Strategy::MonolithicLpt);
            let makespan = a.iter().map(|x| x.pattern_count(&aln)).max().unwrap();
            let total: usize = sizes.iter().sum();
            let max_item = *sizes.iter().max().unwrap() as f64;
            let bound = total as f64 / m as f64 + max_item * (m as f64 - 1.0) / m as f64;
            assert!(
                makespan as f64 <= bound + 1e-9,
                "m={m}: makespan {makespan} > bound {bound}"
            );
            // For this instance LPT actually achieves near-perfect balance.
            let opt_lb = (total as f64 / m as f64).max(max_item);
            assert!(
                (makespan as f64) < 1.15 * opt_lb,
                "m={m}: makespan {makespan}"
            );
        }
    }

    #[test]
    fn lpt_separates_the_large_partitions() {
        let sizes = [100usize, 1, 1, 1, 100, 1, 1, 1];
        let aln = test_alignment(&sizes);
        let a = distribute(&aln, 2, Strategy::MonolithicLpt);
        let makespan = a.iter().map(|x| x.pattern_count(&aln)).max().unwrap();
        assert_eq!(makespan, 103);
        let big_owners: Vec<usize> = a
            .iter()
            .enumerate()
            .filter(|(_, x)| {
                x.shares
                    .iter()
                    .any(|s| aln.partitions[s.global_index].n_patterns() == 100)
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(big_owners.len(), 2, "each big partition on its own rank");
    }

    #[test]
    fn more_ranks_than_partitions_leaves_some_empty() {
        let aln = test_alignment(&[5, 5]);
        let a = distribute(&aln, 4, Strategy::MonolithicLpt);
        let nonempty = a.iter().filter(|x| !x.shares.is_empty()).count();
        assert_eq!(nonempty, 2);
        coverage_is_exact(&aln, &a);
    }

    #[test]
    fn single_rank_gets_everything() {
        let aln = test_alignment(&[3, 4, 5]);
        for strat in [Strategy::Cyclic, Strategy::MonolithicLpt] {
            let a = distribute(&aln, 1, strat);
            assert_eq!(a.len(), 1);
            assert_eq!(a[0].pattern_count(&aln), aln.total_patterns());
        }
    }

    #[test]
    fn materialize_builds_correct_subsets() {
        let aln = test_alignment(&[6, 4]);
        let a = distribute(&aln, 2, Strategy::Cyclic);
        let data0 = materialize(&aln, &a[0]);
        let data1 = materialize(&aln, &a[1]);
        let total: usize = data0
            .iter()
            .chain(&data1)
            .map(|(_, p)| p.n_patterns())
            .sum();
        assert_eq!(total, aln.total_patterns());
        // Weighted site counts preserved.
        let wsum: u32 = data0
            .iter()
            .chain(&data1)
            .flat_map(|(_, p)| p.weights.iter())
            .sum();
        assert_eq!(wsum as usize, aln.total_sites());
    }

    #[test]
    fn shared_slices_alias_full_partitions_across_engines() {
        let aln = test_alignment(&[9, 4, 17]);
        let a = distribute(&aln, 2, Strategy::MonolithicLpt);
        let freqs = vec![[0.25; 4]; aln.partitions.len()];
        let shared = SharedSlices::build(&aln);
        let engines: Vec<exa_phylo::Engine> = a
            .iter()
            .map(|asg| {
                build_engine(
                    &aln,
                    asg,
                    &freqs,
                    &EngineSpec::new(
                        exa_phylo::RateModelKind::Gamma,
                        exa_phylo::KernelKind::Scalar,
                        exa_phylo::SiteRepeats::Off,
                    ),
                    Some(&shared),
                )
            })
            .collect();
        for e in &engines {
            for li in 0..e.n_partitions() {
                let s = e.partition_slice(li);
                assert!(
                    Arc::ptr_eq(&s.tips, &shared.tips[s.global_index]),
                    "tips of partition {} are a private copy",
                    s.global_index
                );
                assert!(
                    Arc::ptr_eq(&s.weights, &shared.weights[s.global_index]),
                    "weights of partition {} are a private copy",
                    s.global_index
                );
            }
        }
    }

    #[test]
    fn deterministic_assignments() {
        let aln = test_alignment(&[9, 4, 17, 3, 8, 8]);
        let a = distribute(&aln, 3, Strategy::MonolithicLpt);
        let b = distribute(&aln, 3, Strategy::MonolithicLpt);
        assert_eq!(a, b);
    }

    fn psr_engine(aln: &CompressedAlignment, assignment: &RankAssignment) -> exa_phylo::Engine {
        let freqs = vec![[0.25; 4]; aln.partitions.len()];
        build_engine(
            aln,
            assignment,
            &freqs,
            &EngineSpec::new(
                exa_phylo::RateModelKind::Psr,
                exa_phylo::KernelKind::Scalar,
                exa_phylo::SiteRepeats::Off,
            ),
            None,
        )
    }

    #[test]
    fn site_rates_survive_capture_merge_apply_across_rank_counts() {
        let aln = test_alignment(&[7, 5]);
        // Two cyclic ranks with distinct per-pattern rates.
        let two = distribute(&aln, 2, Strategy::Cyclic);
        let mut engines: Vec<exa_phylo::Engine> = two.iter().map(|a| psr_engine(&aln, a)).collect();
        for (e, a) in engines.iter_mut().zip(&two) {
            for (local, share) in a.shares.iter().enumerate() {
                let globals = share_pattern_indices(&aln, share);
                let rates: Vec<f64> = globals
                    .iter()
                    .map(|&g| 0.25 + 0.125 * (share.global_index * 100 + g) as f64)
                    .collect();
                let pattern_cat: Vec<u32> = (0..rates.len() as u32).collect();
                let (model, _) = e.model_state(local);
                e.set_model_state(
                    local,
                    model,
                    exa_phylo::model::rates::RateHeterogeneity::Psr {
                        category_rates: rates,
                        pattern_cat,
                    },
                );
            }
        }

        // Gather + merge as a checkpoint writer would.
        let table = merge_site_rates(
            &aln,
            engines
                .iter()
                .zip(&two)
                .flat_map(|(e, a)| capture_site_rates(e, a, &aln)),
        );

        // Restore into a single-rank world (elastic resume) and re-capture.
        let one = distribute(&aln, 1, Strategy::Cyclic);
        let mut solo = psr_engine(&aln, &one[0]);
        apply_site_rates(&mut solo, &one[0], &aln, &table);
        let again = merge_site_rates(&aln, capture_site_rates(&solo, &one[0], &aln));
        assert_eq!(table, again, "rate bits must survive redistribution");
    }

    #[test]
    fn gamma_engines_capture_no_site_rates() {
        let aln = test_alignment(&[6]);
        let a = distribute(&aln, 1, Strategy::Cyclic);
        let freqs = vec![[0.25; 4]; 1];
        let e = build_engine(
            &aln,
            &a[0],
            &freqs,
            &EngineSpec::new(
                exa_phylo::RateModelKind::Gamma,
                exa_phylo::KernelKind::Scalar,
                exa_phylo::SiteRepeats::Off,
            ),
            None,
        );
        assert!(capture_site_rates(&e, &a[0], &aln).is_empty());
    }

    #[test]
    fn pack_batches_groups_small_and_isolates_large() {
        // 250-pattern Γ partitions footprint 32 KiB each → 8 per 256 KiB.
        let small = vec![250usize; 20];
        let b = pack_batches(&small, 4, BATCH_BUDGET_BYTES);
        assert_eq!(b, vec![0..8, 8..16, 16..20]);
        // An oversized partition gets its own batch without stalling packing.
        let mixed = [100usize, 50_000, 100, 100];
        let b = pack_batches(&mixed, 4, BATCH_BUDGET_BYTES);
        assert_eq!(b, vec![0..1, 1..2, 2..4]);
        assert!(pack_batches(&[], 4, BATCH_BUDGET_BYTES).is_empty());
    }

    #[test]
    fn build_engine_packs_batches_deterministically_from_the_assignment() {
        let aln = test_alignment(&[40, 40, 40, 40]);
        let a = distribute(&aln, 1, Strategy::MonolithicLpt);
        let freqs = vec![[0.25; 4]; aln.partitions.len()];
        let spec = EngineSpec::new(
            exa_phylo::RateModelKind::Gamma,
            exa_phylo::KernelKind::Scalar,
            exa_phylo::SiteRepeats::Off,
        );
        let e1 = build_engine(&aln, &a[0], &freqs, &spec, None);
        let e2 = build_engine(&aln, &a[0], &freqs, &spec, None);
        assert_eq!(e1.batch_count(), e2.batch_count());
        // 40 patterns × 4 cats × 32 B = 5120 B → all four fit one batch.
        assert_eq!(e1.batch_count(), 1);
        let unbatched = build_engine(
            &aln,
            &a[0],
            &freqs,
            &EngineSpec {
                batch: false,
                ..spec
            },
            None,
        );
        assert_eq!(unbatched.batch_count(), 4);
    }
}

#[cfg(test)]
mod pack_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Packing is a permutation-free exact cover: every partition index
        /// appears in exactly one batch, batches are consecutive and in
        /// order, and the per-partition pattern slices are untouched (the
        /// input is never reordered). Also deterministic across calls.
        #[test]
        fn packing_is_a_permutation_free_exact_cover(
            patterns in prop::collection::vec(0usize..4000, 0..80),
            cats in prop::sample::select(vec![1usize, 4]),
            budget in 1usize..(1 << 20),
        ) {
            let batches = pack_batches(&patterns, cats, budget);
            // Exact consecutive cover in input order.
            let mut next = 0usize;
            for r in &batches {
                prop_assert_eq!(r.start, next);
                prop_assert!(r.end > r.start);
                next = r.end;
            }
            prop_assert_eq!(next, patterns.len());
            // Deterministic.
            prop_assert_eq!(batches.clone(), pack_batches(&patterns, cats, budget));
            // Budget respected except for unavoidable singletons.
            for r in &batches {
                let fill: usize = patterns[r.start..r.end]
                    .iter()
                    .map(|&p| p * cats * 4 * 8)
                    .sum();
                prop_assert!(
                    fill <= budget || r.end - r.start == 1,
                    "over-budget multi-partition batch {:?}", r
                );
            }
        }
    }
}
