//! Golden pin for the evaluator layer: literal lnL bits, trees and full
//! `CommStats` captured from the build *before* the three hand-written
//! `Evaluator` impls were folded into one core (commit a197a77), so the
//! refactor — and any later change to a wire layout or a summation order —
//! must reproduce every bit and every byte count, not merely agree with
//! itself. `evaluator_golden.txt` holds one line per pinned run; a mismatch
//! prints the line the current build produces.
//!
//! A change that moves the search trajectory on purpose regenerates its
//! lines with `EXAML_BLESS_GOLDEN=1 cargo test -p examl-integration-tests
//! --test evaluator_golden`: every mismatching line is rewritten in place
//! instead of failing (the next run reads the new file), and `git diff`
//! shows which pins moved. The `sequential/*` op-script lines call the
//! evaluator directly and follow no trajectory; they must not move.

mod common;

use exa_bio::stats::global_frequencies;
use exa_comm::ReduceChoice;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_phylo::{GradientChoice, GradientMode, KernelChoice, SiteRepeats};
use exa_search::evaluator::{BranchMode, Evaluator, SequentialEvaluator};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

const GOLDEN: &str = include_str!("evaluator_golden.txt");

/// The pinned line for `label` (`label<TAB>payload`).
fn golden(label: &str) -> &'static str {
    GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(label)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("no golden line for {label}"))
}

fn check(label: &str, actual: &str) {
    let pinned = golden(label);
    if actual != pinned && std::env::var_os("EXAML_BLESS_GOLDEN").is_some_and(|v| v == "1") {
        return bless(label, actual);
    }
    assert_eq!(
        actual, pinned,
        "golden mismatch; current build gives:\n{label}\t{actual}"
    );
}

/// Rewrite the line of `label` in the golden file (one writer at a time:
/// the tests of this file run on parallel threads).
fn bless(label: &str, actual: &str) {
    static WRITER: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _one_at_a_time = WRITER.lock().unwrap_or_else(|e| e.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/evaluator_golden.txt");
    let prefix = format!("{label}\t");
    let blessed: String = std::fs::read_to_string(path)
        .expect("read the golden file")
        .lines()
        .map(|line| {
            if line.starts_with(&prefix) {
                format!("{prefix}{actual}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    std::fs::write(path, blessed).expect("rewrite the golden file");
    eprintln!("blessed {label}");
}

const MODELS: [(&str, RateModelKind, BranchMode); 3] = [
    ("gamma-joint", RateModelKind::Gamma, BranchMode::Joint),
    ("gamma-M", RateModelKind::Gamma, BranchMode::PerPartition),
    ("psr-joint", RateModelKind::Psr, BranchMode::Joint),
];

/// One scheme × {fast, reproducible} × {Γ joint, Γ -M, PSR joint} ×
/// {gradient on, off} at 3 ranks: final lnL bits, Newick and
/// the serialized `CommStats` (calls + bytes per category × op kind).
fn driver_runs_reproduce_the_pin(scheme_label: &str, scheme: Scheme) {
    let w = workloads::partitioned(8, 3, 60, 41);
    for reduce in [ReduceChoice::Fast, ReduceChoice::Reproducible] {
        for (model_label, rate_model, branch_mode) in MODELS {
            let mut on_off = Vec::new();
            for gradient in [GradientChoice::On, GradientChoice::Off] {
                let cfg = RunConfig::new(3)
                    .scheme(scheme)
                    .rate_model(rate_model)
                    .branch_mode(branch_mode)
                    .reduce(reduce)
                    .gradient(gradient)
                    .seed(17)
                    .search(SearchConfig {
                        max_iterations: 1,
                        ..SearchConfig::fast()
                    });
                let out = cfg.run(&w.compressed).expect("pinned run must complete");
                let label = format!(
                    "{scheme_label}/{}/{model_label}/gradient-{}",
                    reduce.label(),
                    gradient.label()
                );
                // The reported lnL is the returned state's. (Fast sums
                // depend on the scheme, reproducible ones do not.)
                if rate_model == RateModelKind::Gamma
                    && (scheme == Scheme::Decentralized || reduce == ReduceChoice::Reproducible)
                {
                    assert_eq!(
                        out.result.lnl.to_bits(),
                        common::returned_state_lnl(&w.compressed, &cfg, &out).to_bits(),
                        "{label}: result.lnl is not the lnL of the returned state"
                    );
                }
                let actual = format!(
                    "{:016x}\t{}\t{}",
                    out.result.lnl.to_bits(),
                    out.tree_newick,
                    serde_json::to_string(&out.comm_stats).unwrap()
                );
                check(&label, &actual);
                on_off.push(actual);
            }
            // No search phase calls `full_gradient`: the mode changes
            // neither the trajectory nor the traffic.
            assert_eq!(on_off[0], on_off[1], "{scheme_label} {model_label}");
        }
    }
}

#[test]
fn decentralized_runs_reproduce_the_pinned_bits_trees_and_comm_stats() {
    driver_runs_reproduce_the_pin("decentralized", Scheme::Decentralized);
}

#[test]
fn forkjoin_runs_reproduce_the_pinned_bits_trees_and_comm_stats() {
    driver_runs_reproduce_the_pin("forkjoin", Scheme::ForkJoin);
}

/// A sequential evaluator over a single-rank whole-partition assignment
/// whose shares are listed in *reverse*, so the engine's local partition
/// order differs from the global one: joint derivative sums run in local
/// order, `evaluate` sums `last_per_partition` in global order, and the
/// scripted sequence below pins the bits of both.
fn sequential_scrambled(
    w: &workloads::Workload,
    kind: RateModelKind,
    mode: BranchMode,
    gradient: GradientMode,
) -> SequentialEvaluator {
    let aln = &w.compressed;
    let mut assignment =
        exa_sched::distribute(aln, 1, exa_sched::Strategy::MonolithicLpt).remove(0);
    assignment.shares.reverse();
    let engine = exa_sched::build_engine(
        aln,
        &assignment,
        &global_frequencies(aln),
        &exa_sched::EngineSpec::new(kind, KernelChoice::Auto.resolve_local(), SiteRepeats::On),
        None,
    );
    let globals = engine.global_indices();
    assert!(
        globals.windows(2).any(|p| p[0] > p[1]),
        "local order must differ from global order: {globals:?}"
    );
    let p = aln.n_partitions();
    let blens = match mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => p,
    };
    let tree = Tree::random(aln.n_taxa(), blens, 23);
    SequentialEvaluator::new(tree, engine, p, mode).with_gradient(gradient)
}

/// Run the fixed op script and return every produced f64 as hex bits.
fn scripted_bits(eval: &mut SequentialEvaluator) -> String {
    let p = eval.n_partitions();
    let arity = match eval.branch_mode() {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => p,
    };
    let mut bits: Vec<u64> = Vec::new();
    let mut push = |vals: &[f64]| bits.extend(vals.iter().map(|v| v.to_bits()));

    push(&[eval.evaluate(0)]);
    push(eval.last_per_partition());
    if eval.rate_kind() == RateModelKind::Gamma {
        let alphas: Vec<f64> = (0..p).map(|i| 0.3 + 0.45 * i as f64).collect();
        eval.set_alphas(&alphas);
    }
    let rates: Vec<f64> = (0..p).map(|i| 0.8 + 0.7 * i as f64).collect();
    eval.set_gtr_rate(1, &rates);
    push(&[eval.evaluate_partitioned(2)]);
    push(eval.last_per_partition());
    eval.optimize_site_rates();
    push(&[eval.evaluate(1)]);

    eval.prepare_derivatives(3);
    let lengths: Vec<f64> = (0..arity).map(|i| 0.07 + 0.05 * i as f64).collect();
    let (d1, d2) = eval.derivatives(&lengths);
    push(&d1);
    push(&d2);

    let g = eval.full_gradient();
    for (e1, e2) in g.d1.iter().zip(&g.d2) {
        push(e1);
        push(e2);
    }
    push(&[g.collectives as f64]);

    let snap = eval.snapshot();
    eval.tree_mut().set_length(0, 0, 0.9);
    eval.set_gtr_rate(3, &vec![2.5; p]);
    push(&[eval.evaluate(0)]);
    eval.restore(&snap);
    push(&[eval.evaluate(0)]);
    push(eval.last_per_partition());

    bits.iter()
        .map(|b| format!("{b:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn sequential_op_script_reproduces_the_pinned_bits_in_scrambled_local_order() {
    let w = workloads::partitioned(7, 4, 60, 29);
    for (model_label, kind, mode) in MODELS {
        for gradient in [GradientMode::On, GradientMode::Off] {
            let mut eval = sequential_scrambled(&w, kind, mode, gradient);
            let label = format!("sequential/{model_label}/gradient-{}", gradient.label());
            check(&label, &scripted_bits(&mut eval));
        }
    }
}

/// Every `Mark` label rank `rank` emitted, in order — the six mode stamps
/// spelled as the golden file has them. It was captured when they were
/// `kernel_backend:scalar … reduce_mode:fast …`; since the one wire bump
/// they are `mode:kernel=scalar … mode:reduce=fast …` (pinned old → new in
/// `mode_stamps.rs`). Translating here keeps the file byte-for-byte what
/// the pre-refactor build wrote, still pinning the count, order and values.
fn mark_labels(trace: &exa_obs::RunTrace, rank: usize) -> String {
    let golden_spelling = |label: &String| {
        let stamp = label.strip_prefix(exa_obs::MODE_MARK);
        match stamp.and_then(|stamp| stamp.split_once('=')) {
            Some(("kernel", value)) => format!("kernel_backend:{value}"),
            Some(("reduce", value)) => format!("reduce_mode:{value}"),
            Some((key, value)) => format!("{key}:{value}"),
            None => label.clone(),
        }
    };
    trace
        .events(rank)
        .iter()
        .filter_map(|e| match &e.kind {
            exa_obs::EventKind::Mark { label } => Some(golden_spelling(label)),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The restart paths of one scheme × {Γ, PSR} at 3 ranks, cadence 1, traced
/// (captured at commit 99589d8, before the two scheme drivers were merged):
/// run A is killed by injection after its first checkpoint, run B resumes
/// it to completion, run C is preempted by a signal raised before it
/// starts. Pinned: both `RunError`s, B's lnL bits / Newick / `CommStats`
/// (the resume broadcast, the PSR rate gathers, the single `Shutdown`), the
/// generations on disk, the newest generation's header (its payload
/// fingerprint covers the payload bytes) and the ordered marks of ranks 0
/// and 1. The modes are forced so the literals hold whatever
/// `RunConfig::new` defaults to.
fn restart_paths_reproduce_the_pin(scheme_label: &str, scheme: Scheme) {
    use exa_phylo::engine::{ThreadCount, ThreadsChoice};
    use exa_phylo::RepeatsChoice;
    use exa_search::{KillSpec, PreemptSignal};
    use examl_core::{checkpoint, Faults};

    let w = workloads::partitioned(8, 3, 60, 41);
    for (model_label, rate_model) in [("gamma", RateModelKind::Gamma), ("psr", RateModelKind::Psr)]
    {
        let label = |what: &str| format!("restart/{scheme_label}/{model_label}/{what}");
        let dir = std::env::temp_dir().join(format!(
            "examl_golden_{scheme_label}_{model_label}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let (killed_dir, preempted_dir) = (dir.join("killed"), dir.join("preempted"));
        let base = |ckpt: &std::path::Path| {
            RunConfig::new(3)
                .scheme(scheme)
                .rate_model(rate_model)
                .kernel(KernelChoice::Scalar)
                .site_repeats(RepeatsChoice::On)
                .threads(ThreadsChoice::Count(ThreadCount::new(1)))
                .gradient(GradientChoice::On)
                .seed(17)
                .search(SearchConfig {
                    max_iterations: 3,
                    ..SearchConfig::fast()
                })
                .checkpoint(ckpt, 1)
                .collect_trace(true)
        };
        let on_disk = |ckpt: &std::path::Path| {
            let generations = checkpoint::list_generations(ckpt).unwrap().len();
            let header = checkpoint::load_latest(ckpt).unwrap().header;
            format!("{generations}\t{}", serde_json::to_string(&header).unwrap())
        };

        let a = base(&killed_dir)
            .faults(Faults {
                kill: Some(KillSpec {
                    after_checkpoints: 1,
                    rank: None,
                }),
                ..Faults::none()
            })
            .run(&w.compressed)
            .expect_err("run A is killed");
        check(
            &label("A-killed"),
            &format!("{a:?}\t{}", on_disk(&killed_dir)),
        );

        let b = base(&killed_dir)
            .resume(&killed_dir)
            .run(&w.compressed)
            .expect("run B resumes to completion");
        check(
            &label("B-resumed"),
            &format!(
                "{:016x}\t{}\t{}\t{}",
                b.result.lnl.to_bits(),
                b.tree_newick,
                serde_json::to_string(&b.comm_stats).unwrap(),
                on_disk(&killed_dir)
            ),
        );
        let trace = b.trace.as_ref().expect("collect_trace was set");
        check(&label("B-marks-rank0"), &mark_labels(trace, 0));
        check(&label("B-marks-rank1"), &mark_labels(trace, 1));

        let signal = PreemptSignal::new();
        signal.request();
        let c = base(&preempted_dir)
            .preempt(signal)
            .run(&w.compressed)
            .expect_err("run C is preempted");
        check(
            &label("C-preempted"),
            &format!("{c:?}\t{}", on_disk(&preempted_dir)),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn decentralized_restart_paths_reproduce_the_pinned_errors_stats_headers_and_marks() {
    restart_paths_reproduce_the_pin("decentralized", Scheme::Decentralized);
}

#[test]
fn forkjoin_restart_paths_reproduce_the_pinned_errors_stats_headers_and_marks() {
    restart_paths_reproduce_the_pin("forkjoin", Scheme::ForkJoin);
}
