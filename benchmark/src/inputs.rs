//! The four pinned workloads and their input files.
//!
//! The parent process generates every input with `exa_simgen` and writes it
//! as PHYLIP + RAxML partition files; the measured child only ever sees
//! those files, exactly as the `examl` binary would.
//!
//! What the seed varies: the order of the site columns inside each
//! partition — other bytes on disk, another pattern order after
//! compression, another split of the patterns over the ranks, another
//! summation order. What it does not: the alignment as a multiset of
//! columns, which is simulated from pinned seeds. A tree search amplifies
//! its input: re-simulating the columns per seed moved the kernel work of
//! one repetition by ×1.27 (`wide_gamma`) to ×1.42 across ten seeds at equal
//! pattern counts, because Brent, Newton and lazy-SPR step counts follow
//! the data — more than any bound on a wall could absorb, so every
//! comparison would have been between draws, not between programs. Under a
//! column permutation the work of a repetition is constant to under 1 %
//! (exactly constant on `manypart_gamma`), and input diversity comes from
//! the four workloads instead.

use exa_bio::partition::PartitionScheme;
use exa_phylo::model::rates::RateModelKind;
use exa_sched::Strategy;
use exa_search::{SearchConfig, StartingTree};
use exa_simgen::SimModel;
use examl_core::RunConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20130520;
/// Ranks of every gated search run (`nproc` of the reference box).
pub const RANKS: usize = 2;
/// Daemon workers on `serve_flood` (each runs 1-rank jobs, so at most two
/// compute threads are runnable, as on the search workloads).
pub const SERVE_WORKERS: usize = 2;

const TREE_SEED: u64 = 7;
const MODEL_SEED: u64 = 9;
const COLUMN_SEED: u64 = 11;

/// Shape of one simulated alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub taxa: usize,
    pub partitions: usize,
    pub sites_per_partition: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `RunConfig::run` is one repetition.
    Search,
    /// One backlog drain through the daemon is one repetition.
    Serve,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub rate_model: RateModelKind,
    pub strategy: Strategy,
    pub full: Shape,
    pub quick: Shape,
    /// Jobs per drain on `serve_flood`; jobs of the small daemon probe the
    /// search workloads run for their `serve.*` layer metrics.
    pub jobs_full: usize,
    pub jobs_quick: usize,
}

/// The daemon job: small enough that start-up (parse, compress, distribute,
/// build, parsimony start tree, journal and checkpoint writes) outweighs
/// the kernels.
pub const JOB_SHAPE: Shape = Shape {
    taxa: 12,
    partitions: 2,
    sites_per_partition: 150,
};
/// Tenants the jobs are spread over; also the number of distinct job specs
/// (tenant `i` searches from parsimony seed `i + 1`).
pub const TENANTS: usize = 3;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "wide_gamma",
        why: "one wide GAMMA partition, per-rank CLVs larger than L2: kernels and memory traffic do the work, dispatch and comm almost none",
        kind: Kind::Search,
        rate_model: RateModelKind::Gamma,
        strategy: Strategy::Cyclic,
        full: Shape { taxa: 12, partitions: 1, sites_per_partition: 12_000 },
        quick: Shape { taxa: 8, partitions: 1, sites_per_partition: 1_500 },
        jobs_full: 12,
        jobs_quick: 6,
    },
    WorkloadDef {
        name: "manypart_gamma",
        why: "60 partitions of ~21 patterns, whole-partition LPT: per-partition dispatch, P-matrices, model optimisation and fat reductions dominate tiny kernels",
        kind: Kind::Search,
        rate_model: RateModelKind::Gamma,
        strategy: Strategy::MonolithicLpt,
        full: Shape { taxa: 16, partitions: 60, sites_per_partition: 25 },
        quick: Shape { taxa: 12, partitions: 12, sites_per_partition: 25 },
        jobs_full: 12,
        jobs_quick: 6,
    },
    WorkloadDef {
        name: "tall_psr",
        why: "many taxa, few sites, PSR: thousands of 24-byte collectives, 1-category kernels and site-rate optimisation, so latency and search logic dominate",
        kind: Kind::Search,
        rate_model: RateModelKind::Psr,
        strategy: Strategy::Cyclic,
        full: Shape { taxa: 40, partitions: 4, sites_per_partition: 100 },
        quick: Shape { taxa: 16, partitions: 2, sites_per_partition: 100 },
        jobs_full: 12,
        jobs_quick: 6,
    },
    WorkloadDef {
        name: "serve_flood",
        why: "closed backlog of start-up-dominated jobs through daemon, listener and journal: parse, distribute, parsimony, fsyncs and checkpoint writes carry it, kernels do not",
        kind: Kind::Serve,
        rate_model: RateModelKind::Gamma,
        strategy: Strategy::Cyclic,
        full: JOB_SHAPE,
        quick: JOB_SHAPE,
        jobs_full: 24,
        jobs_quick: 12,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    pub fn shape(&self, quick: bool) -> Shape {
        if quick {
            self.quick
        } else {
            self.full
        }
    }

    pub fn jobs(&self, quick: bool) -> usize {
        if quick {
            self.jobs_quick
        } else {
            self.jobs_full
        }
    }

    /// The run a repetition of a search workload executes: `RunConfig::new`
    /// defaults (de-centralized, joint branch lengths, random start tree,
    /// seed 42, radius 5) at two ranks, capped at one search iteration —
    /// initial smoothing and model optimisation, then one SPR round, one
    /// smoothing and one model optimisation — so every phase runs and the
    /// amount of work does not depend on how soon a draw converges.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::new(RANKS)
            .rate_model(self.rate_model)
            .strategy(self.strategy)
            .search(SearchConfig {
                max_iterations: 1,
                ..SearchConfig::default()
            })
    }
}

/// The run one daemon job executes (spec `variant` of `TENANTS`).
pub fn job_config(variant: usize) -> RunConfig {
    RunConfig::new(1)
        .seed(variant as u64 + 1)
        .starting_tree(StartingTree::Parsimony)
        .search(SearchConfig {
            max_iterations: 1,
            ..SearchConfig::default()
        })
}

/// One alignment on disk.
#[derive(Debug, Clone)]
pub struct InputFiles {
    pub phylip: PathBuf,
    pub partitions: PathBuf,
}

/// Branch lengths of the generating tree are log-uniform in this range.
const BRANCH_RANGE: (f64, f64) = (0.01, 0.5);

/// Simulate the pinned alignment of `shape`, permute its columns by `seed`,
/// and write it to `files`.
fn simulate_to(files: &InputFiles, shape: Shape, seed: u64) {
    let (min_branch, max_branch) = BRANCH_RANGE;
    let tree =
        exa_simgen::random_tree_with_lengths(shape.taxa, 1, min_branch, max_branch, TREE_SEED);
    let scheme = PartitionScheme::uniform_chunks(shape.partitions, shape.sites_per_partition);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let models: Vec<SimModel> = (0..shape.partitions)
        .map(|_| SimModel::random(&mut rng))
        .collect();
    let base = exa_simgen::simulate(&tree, &scheme, &models, COLUMN_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = Vec::with_capacity(scheme.n_sites());
    for p in scheme.partitions() {
        let mut sites: Vec<usize> = (p.start..p.end).collect();
        sites.shuffle(&mut rng);
        order.extend(sites);
    }
    let rows = (0..shape.taxa)
        .map(|t| order.iter().map(|&site| base.row(t)[site]).collect())
        .collect();
    let alignment = exa_bio::alignment::Alignment::new(base.taxa().to_vec(), rows)
        .expect("a column permutation of a valid alignment is valid");
    std::fs::write(&files.phylip, exa_bio::phylip::write_phylip(&alignment))
        .expect("write PHYLIP input");
    std::fs::write(
        &files.partitions,
        exa_bio::partition::write_partition_file(&scheme),
    )
    .expect("write partition file");
}

/// File names of a workload's inputs inside `dir`: its own alignment and
/// the daemon job's (the child re-derives them; nothing but paths crosses
/// the process boundary). On `serve_flood` the two are the same files.
pub fn input_paths(dir: &Path, def: &WorkloadDef) -> (InputFiles, InputFiles) {
    let at = |stem: &str| InputFiles {
        phylip: dir.join(format!("{stem}.phy")),
        partitions: dir.join(format!("{stem}.part")),
    };
    match def.kind {
        Kind::Search => (at(def.name), at("job")),
        Kind::Serve => (at(def.name), at(def.name)),
    }
}

/// Generate a workload's alignment and the daemon-job alignment into `dir`.
pub fn generate(dir: &Path, def: &WorkloadDef, quick: bool, seed: u64) {
    std::fs::create_dir_all(dir).expect("create input directory");
    let (files, job_files) = input_paths(dir, def);
    simulate_to(&files, def.shape(quick), seed);
    if def.kind == Kind::Search {
        simulate_to(&job_files, JOB_SHAPE, seed.wrapping_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let base = crate::parent::out_dir().join(format!("test-inputs-{}", std::process::id()));
        let def = workload("tall_psr").unwrap();
        let read = |sub: &str, seed: u64| {
            let dir = base.join(sub);
            generate(&dir, def, true, seed);
            std::fs::read(input_paths(&dir, def).0.phylip).unwrap()
        };
        let (a, b, c) = (read("a", 5), read("b", 5), read("c", 6));
        std::fs::remove_dir_all(&base).ok();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
