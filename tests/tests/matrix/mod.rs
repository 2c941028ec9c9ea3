//! One reproducibility matrix: replicas compute bit-identical state whatever
//! the world looks like. The de-centralized scheme (§III-B) and its fault
//! tolerance (§V) both rest on this property.
//!
//! Every axis a run varies is declared once, with its levels
//! (`Cell::from_levels`). The cells are a deterministic pairwise covering
//! array over the combinations `allowed` admits, plus named crossings that
//! once found bugs. One oracle checks each cell against the reference run
//! of its equivalence class (`class_of`). A reference runs once per test
//! binary, and every cell of its class shares it.
//!
//! Each cell belongs to one test, the first of `ROUTES` whose predicate it
//! holds; the suites that include this module hold those tests
//! (`reproducibility.rs`, `reduce_chaos.rs`, `threads_chaos.rs`,
//! `gradient_chaos.rs`, `restart_chaos.rs`), and every cell runs once.

use crate::common;
use exa_comm::ReduceChoice::{self, Fast, Reproducible};
use exa_obs::HeartbeatRecord;
use exa_phylo::model::rates::RateModelKind::{self, Gamma, Psr};
use exa_phylo::GradientChoice::{self, Auto, Off, On};
use exa_phylo::KernelChoice::{self, Scalar, Simd};
use exa_phylo::{RepeatsChoice, ThreadCount, ThreadsChoice};
use exa_search::{KillSpec, SearchConfig};
use exa_simgen::workloads;
use examl_core::fault::FaultPlan;
use examl_core::{RunConfig, RunError, RunOutcome, Scheme};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use Fault::{Death, Kill, Victim};

pub const DEC: Scheme = Scheme::Decentralized;
pub const FJ: Scheme = Scheme::ForkJoin;

/// A fault one cell injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    None,
    /// §V: rank 1 dies at iteration 1 (`Faults::plan`), the survivors finish.
    Death,
    /// `kill:N`: the run dies after N committed checkpoints, then resumes.
    Kill(u64),
    /// `kill:2:RANK`: one rank dies after 2 checkpoints, the rest abort.
    Victim(usize),
}

/// One run of the matrix: a level on every axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub scheme: Scheme,
    pub ranks: usize,
    pub threads: usize,
    pub kernel: KernelChoice,
    pub repeats: RepeatsChoice,
    pub reduce: ReduceChoice,
    pub gradient: GradientChoice,
    pub batch: bool,
    pub rate: RateModelKind,
    /// Grow to 8 ranks at iteration 1, shrink to 2 at iteration 2. Traced,
    /// so the recorder must be sized for the widest planned width.
    pub resize: bool,
    pub fault: Fault,
    /// A killed run resumes into `other(cell)` instead of itself.
    pub resume_other: bool,
}

const RANKS: [usize; 4] = [1, 2, 3, 8];
const THREADS: [usize; 3] = [1, 2, 8];
const REPEATS: [RepeatsChoice; 2] = [RepeatsChoice::On, RepeatsChoice::Off];
const GRADIENTS: [GradientChoice; 3] = [Off, On, Auto];
#[rustfmt::skip]
const FAULTS: [Fault; 7] = [Fault::None, Death, Kill(1), Kill(2), Kill(3), Victim(1), Victim(0)];
/// Levels per axis, in the order `Cell::from_levels` reads them.
#[rustfmt::skip]
const LEVELS: [usize; 12] = [2, RANKS.len(), THREADS.len(), 2, 2, 2, GRADIENTS.len(), 2, 2, 2, FAULTS.len(), 2];
/// One slot per (axis, level): no axis has more levels than `FAULTS`.
const SLOTS: usize = 12 * FAULTS.len();

/// Every axis at its first level.
pub const BASE: Cell = Cell::from_levels(&[0; 12]);

/// A cell with the named axes moved: from `BASE`, or from the cell before
/// the `;`.
macro_rules! cell {
    ($($axis:ident: $level:expr),*) => { cell!(BASE; $($axis: $level),*) };
    ($from:expr; $($axis:ident: $level:expr),*) => { Cell { $($axis: $level,)* ..$from } };
}

impl Cell {
    pub const fn from_levels(l: &[usize; 12]) -> Cell {
        Cell {
            scheme: [DEC, FJ][l[0]],
            ranks: RANKS[l[1]],
            threads: THREADS[l[2]],
            kernel: [Scalar, Simd][l[3]],
            repeats: REPEATS[l[4]],
            reduce: [Reproducible, Fast][l[5]],
            gradient: GRADIENTS[l[6]],
            batch: [true, false][l[7]],
            rate: [Gamma, Psr][l[8]],
            resize: [false, true][l[9]],
            fault: FAULTS[l[10]],
            resume_other: [false, true][l[11]],
        }
    }

    /// The checkpoint kill this cell injects, if any.
    fn kill(&self) -> Option<KillSpec> {
        let (after_checkpoints, rank) = match self.fault {
            Kill(n) => (n, None),
            Victim(r) => (2, Some(r)),
            Fault::None | Death => return None,
        };
        Some(KillSpec {
            after_checkpoints,
            rank,
        })
    }

    pub fn is_kill(&self) -> bool {
        self.kill().is_some()
    }

    /// The configuration of this cell's first run, writing under `root`.
    pub fn config(&self, root: &Path) -> RunConfig {
        let mut cfg = RunConfig::new(self.ranks)
            .scheme(self.scheme)
            .threads(ThreadsChoice::Count(ThreadCount::new(self.threads)))
            .kernel(self.kernel)
            .site_repeats(self.repeats)
            .reduce(self.reduce)
            .gradient(self.gradient)
            .batch(self.batch)
            .rate_model(self.rate)
            .collect_trace(self.resize)
            .health_out(root.join("health.jsonl"))
            .seed(23)
            .search(SearchConfig {
                max_iterations: 3,
                // Never converged: every cell runs all three iterations, so
                // every kill point and resize boundary is reached.
                epsilon: f64::MIN,
                ..SearchConfig::fast()
            });
        if self.resize {
            cfg = cfg.resize_at(1, 8).resize_at(2, 2);
        }
        if self.fault == Death {
            cfg.faults.plan = FaultPlan::kill(1, 1);
        }
        cfg.faults.kill = self.kill();
        if self.is_kill() {
            cfg = cfg.checkpoint(root.join("ckpt"), 1);
        }
        cfg
    }
}

/// The one constraint on cells: `RunConfig::validate` accepts the first
/// run, and only a killed run has a resume to redirect.
pub fn allowed(c: &Cell) -> bool {
    c.config(Path::new("")).validate().is_ok() && (c.is_kill() || !c.resume_other)
}

/// The class key: the reference cell of `c`'s class. It keeps the axes a
/// result is known to depend on today and puts every other axis at its
/// first level.
/// - The rate model, always.
/// - Under `fast` sums: the scheme and the rank count, which set the
///   summation order.
/// - Under PSR: the width history (rank count, resize plan, deaths),
///   because per-site rates are quantised inside each rank's slice (ROADMAP
///   item 3; its fix deletes this clause).
pub fn class_of(c: &Cell) -> Cell {
    let (fast, psr) = (c.reduce == Fast, c.rate == Psr);
    Cell {
        scheme: if fast { c.scheme } else { DEC },
        ranks: if fast || psr { c.ranks } else { 1 },
        reduce: c.reduce,
        rate: c.rate,
        resize: psr && c.resize,
        fault: if psr && c.fault == Death {
            Death
        } else {
            Fault::None
        },
        ..BASE
    }
}

/// Another cell of `c`'s class, without its fault: each move below is kept
/// where the result is allowed and stays in the class.
pub fn other(c: &Cell) -> Cell {
    fn next<T: Copy + PartialEq>(levels: &[T], v: T) -> T {
        let i = levels.iter().position(|&l| l == v).map_or(0, |i| i + 1);
        levels[i % levels.len()]
    }
    let moves: [fn(&mut Cell); 8] = [
        |o| o.threads = next(&THREADS, o.threads),
        |o| o.kernel = next(&[Scalar, Simd], o.kernel),
        |o| o.repeats = next(&REPEATS, o.repeats),
        |o| o.gradient = next(&GRADIENTS, o.gradient),
        |o| o.batch = !o.batch,
        |o| o.ranks = next(&RANKS, o.ranks),
        |o| o.resize = false,
        |o| o.scheme = next(&[DEC, FJ], o.scheme),
    ];
    let class = class_of(c);
    let mut o = cell!(*c; fault: Fault::None, resume_other: false);
    for step in moves {
        let mut moved = o;
        step(&mut moved);
        if class_of(&moved) == class && allowed(&moved) {
            o = moved;
        }
    }
    o
}

/// Every allowed combination of levels, in odometer order.
pub fn allowed_levels() -> Vec<[usize; 12]> {
    let mut all = Vec::new();
    let mut l = [0usize; 12];
    loop {
        if allowed(&Cell::from_levels(&l)) {
            all.push(l);
        }
        let Some(axis) = (0..12).find(|&a| l[a] + 1 < LEVELS[a]) else {
            return all;
        };
        l[axis] += 1;
        l[..axis].fill(0);
    }
}

/// The pairs of levels a combination covers, as numbers below `SLOTS²`.
pub fn pairs(l: &[usize; 12]) -> impl Iterator<Item = usize> + '_ {
    let slot = move |a: usize| a * FAULTS.len() + l[a];
    (0..12).flat_map(move |a| (a + 1..12).map(move |b| slot(a) * SLOTS + slot(b)))
}

/// Deterministic greedy pairwise covering array over the allowed cells:
/// each row is the first allowed combination, in odometer order, that
/// covers the most pairs of levels no earlier row covers.
pub fn pairwise() -> &'static [[usize; 12]] {
    static ROWS: OnceLock<Vec<[usize; 12]>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let all = allowed_levels();
        let mut uncovered = vec![false; SLOTS * SLOTS];
        all.iter().flat_map(pairs).for_each(|p| uncovered[p] = true);
        let mut rows = Vec::new();
        loop {
            let gain = |l: &&[usize; 12]| pairs(l).filter(|&p| uncovered[p]).count();
            let best = *all.iter().rev().max_by_key(gain).expect("allowed cells");
            if gain(&&best) == 0 {
                return rows;
            }
            pairs(&best).for_each(|p| uncovered[p] = false);
            rows.push(best);
        }
    })
}

/// Named crossings kept beside the covering array.
fn named() -> Vec<Cell> {
    let fast = cell!(ranks: 2, reduce: Fast);
    let fj = cell!(fast; scheme: FJ);
    vec![
        cell!(ranks: 32, kernel: Simd),
        // Fork-join agrees with the de-centralized scheme, uninterrupted.
        cell!(scheme: FJ, ranks: 8, threads: 2, gradient: On),
        cell!(scheme: FJ, ranks: 3),
        cell!(ranks: 2, threads: 2, batch: false),
        cell!(ranks: 4, resize: true),
        cell!(fast; fault: Kill(1)),
        cell!(fast; fault: Kill(2)),
        cell!(fast; fault: Kill(3)),
        cell!(fj; fault: Kill(1)),
        cell!(fj; fault: Kill(2)),
        cell!(fj; fault: Kill(3)),
        cell!(fast; fault: Victim(1)),
        cell!(fj; fault: Victim(0)),
        // Elastic: 2-rank SIMD de-centralized -> 3-rank scalar fork-join.
        cell!(ranks: 2, kernel: Simd, fault: Kill(2), resume_other: true),
        cell!(scheme: FJ, ranks: 2, fault: Kill(2), resume_other: true),
        // Gradient on -> off, and off -> on.
        cell!(fast; gradient: On, fault: Kill(2), resume_other: true),
        cell!(fast; fault: Kill(2), resume_other: true),
        cell!(fast; rate: Psr, fault: Kill(2)),
        cell!(fj; rate: Psr, fault: Kill(2)),
        cell!(ranks: 4, rate: Psr, resize: true),
        cell!(ranks: 4, fault: Death),
    ]
}

/// The matrix: the covering array's cells, then the named crossings.
pub fn cells() -> Vec<Cell> {
    let array = pairwise().iter().map(Cell::from_levels);
    array.chain(named()).collect()
}

/// What one cell's runs left behind.
struct Observed {
    /// Each run's configuration and the heartbeats it appended.
    attempts: Vec<(RunConfig, Vec<HeartbeatRecord>)>,
    /// The checkpoint count a killed run died after, and the generations
    /// it left on disk.
    killed: Option<(u64, usize)>,
    /// The last run's outcome.
    out: RunOutcome,
}

fn workload() -> &'static workloads::Workload {
    static W: OnceLock<workloads::Workload> = OnceLock::new();
    W.get_or_init(|| workloads::partitioned(6, 2, 100, 41))
}

/// Run `c`: once, or killed and then resumed.
fn observe(c: &Cell) -> Observed {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("examl_repro_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let (aln, ckpt) = (&workload().compressed, root.join("ckpt"));
    let heartbeats_after = |seen: usize| -> Vec<HeartbeatRecord> {
        let text = std::fs::read_to_string(root.join("health.jsonl")).unwrap_or_default();
        let lines = text.lines().skip(seen);
        lines
            .map(|l| HeartbeatRecord::from_json_line(l).unwrap())
            .collect()
    };
    let cfg = c.config(&root);
    let first = cfg.run(aln);
    let mut attempts = vec![(cfg, heartbeats_after(0))];
    let mut killed = None;
    let out = match first {
        Ok(out) if !c.is_kill() => out,
        Err(RunError::Killed {
            after_checkpoints, ..
        }) if c.is_kill() => {
            let generations = examl_core::checkpoint::list_generations(&ckpt).unwrap();
            killed = Some((after_checkpoints, generations.len()));
            let into = if c.resume_other {
                other(c)
            } else {
                cell!(*c; fault: Fault::None)
            };
            let cfg = into.config(&root).resume(&ckpt);
            let out = cfg.run(aln);
            let seen = attempts[0].1.len();
            attempts.push((cfg, heartbeats_after(seen)));
            out.unwrap_or_else(|e| panic!("{c:?}: resume into {into:?} failed: {e}"))
        }
        Ok(out) => panic!("{c:?}: the kill never fired: {:?}", out.result),
        Err(e) => panic!("{c:?}: {e}"),
    };
    std::fs::remove_dir_all(&root).ok();
    Observed {
        attempts,
        killed,
        out,
    }
}

/// The reference run of class `class`, run once and shared.
fn reference(class: &Cell) -> Arc<OnceLock<Observed>> {
    static REFS: Mutex<BTreeMap<String, Arc<OnceLock<Observed>>>> = Mutex::new(BTreeMap::new());
    let slot = Arc::clone(
        REFS.lock()
            .unwrap()
            .entry(format!("{class:?}"))
            .or_default(),
    );
    slot.get_or_init(|| observe(class));
    slot
}

/// Bitwise final state: lnL, topology, α and GTR rates.
fn final_state(out: &RunOutcome) -> (u64, &str, Vec<u64>) {
    let gtr = out.state.gtr_rates.iter().flatten();
    let params = out.state.alphas.iter().chain(gtr).map(|v| v.to_bits());
    (out.result.lnl.to_bits(), &out.tree_newick, params.collect())
}

/// The `(iteration, lnL bits)` heartbeat trajectory across all attempts (a
/// boundary a resume replays appears once).
fn trajectory(o: &Observed) -> Vec<(u64, u64)> {
    let records = o.attempts.iter().flat_map(|(_, hb)| hb);
    let mut steps: Vec<_> = records.map(|r| (r.iteration, r.lnl.to_bits())).collect();
    steps.dedup();
    steps
}

/// The one oracle: `c` replays its class reference bit for bit, reports
/// the modes its configuration resolves to, returns the state whose lnL it
/// reports, and a killed run dies no earlier than it was told to. A failure
/// names every check that failed, with every axis level of the cell and of
/// its reference.
fn oracle(c: &Cell) {
    let class = class_of(c);
    let slot = reference(&class);
    let reference = slot.get().expect("initialised by `reference`");
    let fresh;
    let got = if *c == class {
        reference
    } else {
        fresh = observe(c);
        &fresh
    };
    let (cfg, out) = (&got.attempts.last().unwrap().0, &got.out);
    let mut failed = Vec::new();
    let mut check = |what: &'static str, holds: bool| {
        if !holds {
            failed.push(what)
        }
    };

    check(
        "final state",
        final_state(out) == final_state(&reference.out),
    );
    let m = cfg.modes();
    let reported = (out.kernel, out.site_repeats, out.reduce, out.gradient);
    let resolved = (m.kernel, m.site_repeats, m.reduce, m.gradient);
    check(
        "outcome modes",
        reported == resolved && out.threads == m.threads.get(),
    );
    check("health modes", out.health.modes == Some(m.label_map()));
    let stamped = |(cfg, hb): &(RunConfig, Vec<HeartbeatRecord>)| {
        hb.iter().all(|h| h.modes == Some(cfg.modes().label_map()))
    };
    check("heartbeat modes", got.attempts.iter().all(stamped));
    if got.attempts.iter().all(|(cfg, _)| cfg.scheme == DEC) {
        let steps = trajectory(reference);
        check("heartbeats", !steps.is_empty() && trajectory(got) == steps);
    }
    let neutral = cell!(*c; kernel: class.kernel, repeats: class.repeats, threads: class.threads,
        batch: class.batch, gradient: class.gradient);
    if c.fault == Fault::None && neutral == class {
        check("CommStats", out.comm_stats == reference.out.comm_stats);
    }
    if c.rate == Gamma && (cfg.scheme == DEC || c.reduce == Reproducible) {
        let mut world = cfg.clone();
        world.n_ranks = out.survivors.len();
        let lnl = common::returned_state_lnl(&workload().compressed, &world, out);
        check("returned state", out.result.lnl.to_bits() == lnl.to_bits());
    }
    if let Some(kill) = c.kill() {
        let (after, generations) = got.killed.expect("observed as killed");
        check("kill budget", after >= kill.after_checkpoints);
        check("generations on disk", generations > 0);
    }
    assert!(
        failed.is_empty(),
        "{c:?} vs reference {class:?}: {failed:?}"
    );
}

/// A property of a cell.
pub type Holds = fn(&Cell) -> bool;

/// The test that checks a cell: the first route whose predicate it holds.
#[rustfmt::skip]
pub const ROUTES: [(&str, Holds); 16] = [
    // restart_chaos.rs
    ("kill_restart_replays_psr_rates_bitwise", |c| c.is_kill() && c.rate == Psr),
    ("kill_single_rank_then_restart_decentralized", |c| c.scheme == DEC && matches!(c.fault, Victim(_))),
    // Fork-join into de-centralized here, the other way round in the next.
    ("checkpoint_resumes_across_schemes", |c| c.resume_other && c.scheme == FJ && other(c).scheme == DEC),
    ("resume_is_elastic_across_kernel_and_rank_count", |c| {
        let o = other(c);
        c.resume_other && o.ranks != c.ranks && o.kernel != c.kernel
    }),
    // `other` moves the gradient mode of every cell.
    ("checkpoint_resumes_across_gradient_modes", |c| c.resume_other),
    ("kill_restart_sweep_kill_points", |c| matches!(c.fault, Kill(_)) && c.kernel == Scalar && c.repeats == RepeatsChoice::On),
    ("kill_restart_sweep_schemes_kernels_repeats", |c| c.is_kill()),
    // reduce_chaos.rs, gradient_chaos.rs, threads_chaos.rs
    ("midrun_resize_grow_and_shrink_preserves_trajectory", |c| c.resize),
    ("forkjoin_search_bitwise_invariant_to_rank_count", |c| c.scheme == FJ && c.gradient == Off),
    ("schemes_agree_bitwise_under_reproducible_reduce", |c| c.scheme == FJ && c.reduce == Reproducible && c.rate == Gamma),
    ("forkjoin_final_lnl_bitwise_invariant_to_gradient_mode", |c| c.scheme == FJ),
    ("trajectory_bitwise_invariant_to_batching", |c| !c.batch),
    ("decentralized_trajectory_bitwise_invariant_to_gradient_mode", |c| c.gradient != Off),
    ("trajectory_bitwise_invariant_to_thread_count", |c| c.threads > 1),
    ("decentralized_trajectory_bitwise_invariant_to_rank_count", |c| c.ranks > 1),
    // reproducibility.rs
    ("uninterrupted_cells_replay_their_class", |_| true),
];

/// The name of the test that checks `c`.
pub fn route(c: &Cell) -> &'static str {
    ROUTES
        .iter()
        .find(|(_, holds)| holds(c))
        .expect("a catch-all")
        .0
}

/// Run the oracle over the cells of test `name`, and name every one that
/// fails.
pub fn check(name: &str) {
    let cells: Vec<Cell> = cells().into_iter().filter(|c| route(c) == name).collect();
    assert!(!cells.is_empty(), "no cell routes to {name}");
    let wrong = cells
        .iter()
        .filter(|c| std::panic::catch_unwind(|| oracle(c)).is_err());
    let wrong: Vec<String> = wrong.map(|c| format!("{c:?}")).collect();
    assert!(wrong.is_empty(), "cells failing:\n{}", wrong.join("\n"));
}
