//! Command-line parsing: one flag table per verb, one engine.
//!
//! A flag is one [`Flag`] row — `--name VALUE`, the closure that writes the
//! parsed value into the verb's target struct, and a help paragraph.
//! [`parse`] walks an argument list against a table and [`usage`] renders
//! the same table as `--help` text, so a flag is written exactly once.
//! Unknown flags name the nearest row:
//!
//! ```text
//! unknown argument "--phlyip" (did you mean --phylip?)
//! ```
//!
//! The run flags ([`run_flags`]) write straight into a [`RunConfig`] and
//! are shared by every verb that describes a run (`examl` itself through
//! [`Cli`], `examl serve submit` through its job spec); a verb's defaults
//! are simply the `RunConfig` its target starts from. The five run modes
//! get their rows from their [`Choice`] impls.

use crate::fault::INJECT_SPEC;
use crate::run::{BootstrapOptions, RunConfig};
use exa_comm::ReduceChoice;
use exa_phylo::engine::{GradientChoice, KernelChoice, RepeatsChoice, ThreadsChoice};
use exa_phylo::model::rates::RateModelKind;
use exa_search::{BranchMode, StartingTree};
use std::path::PathBuf;

/// What a row's closure answers: done, or what it expected instead.
pub type Applied = Result<(), &'static str>;

/// A row's closure: writes the flag's value (`""` for a switch) into the
/// target.
type Apply<T> = Box<dyn Fn(&mut T, &str) -> Applied>;

/// One command-line flag of a verb whose arguments land in a `T`.
pub struct Flag<T> {
    /// `--name`, or — without a leading dash — the label of the verb's
    /// positional argument (`ID`), which matches any dash-less argument.
    pub name: &'static str,
    /// Value placeholder in `--help`; empty for a switch.
    pub value: &'static str,
    /// One paragraph; [`usage`] wraps it.
    pub help: String,
    /// The verb cannot run without it.
    pub required: bool,
    apply: Apply<T>,
}

impl<T: 'static> Flag<T> {
    /// The row `spec` (`"--name VALUE"`, `"--switch"` or `"POSITIONAL"`)
    /// names, applied by `apply`.
    pub fn new(spec: &'static str, apply: impl Fn(&mut T, &str) -> Applied + 'static) -> Flag<T> {
        let (name, value) = spec.split_once(' ').unwrap_or((spec, ""));
        Flag {
            name,
            value,
            help: String::new(),
            required: false,
            apply: Box::new(apply),
        }
    }

    pub fn help(mut self, help: impl Into<String>) -> Flag<T> {
        self.help = help.into();
        self
    }

    pub fn required(mut self) -> Flag<T> {
        self.required = true;
        self
    }

    /// The same row for a target that holds a `T` at `part`.
    pub fn within<U: 'static>(self, part: fn(&mut U) -> &mut T) -> Flag<U> {
        let apply = self.apply;
        Flag {
            name: self.name,
            value: self.value,
            help: self.help,
            required: self.required,
            apply: Box::new(move |target, value| apply(part(target), value)),
        }
    }
}

impl<T> Flag<T> {
    fn is_positional(&self) -> bool {
        !self.name.starts_with('-')
    }
}

/// A rejected command line. `Display` renders the message the binary
/// prints before its usage text.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `--help`/`-h`: not an error, but parsing stops.
    Help,
    /// A flag nobody recognizes; `suggestion` is the closest valid flag
    /// (edit distance), when one is close enough to be plausible.
    UnknownFlag {
        flag: String,
        suggestion: Option<&'static str>,
    },
    /// A value-taking flag at the end of the line.
    MissingValue { flag: &'static str },
    /// A value that does not parse.
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    /// A required flag that was not given.
    Missing {
        flag: &'static str,
        value: &'static str,
    },
    /// Flags that parse one by one but do not describe a run together.
    Invalid(&'static str),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::UnknownFlag { flag, suggestion } => {
                write!(f, "unknown argument {flag:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s}?)")?;
                }
                Ok(())
            }
            CliError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value {value:?} for {flag} (expected {expected})"
                )
            }
            CliError::Missing { flag, value } => {
                write!(f, "missing {}", format!("{flag} {value}").trim_end())
            }
            CliError::Invalid(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for CliError {}

/// Levenshtein edit distance — small inputs only (flag names), so the
/// O(n·m) dynamic program is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The flag of `rows` (or `--help`) closest to `flag`, when it is close
/// enough (edit distance at most half the flag's length) to plausibly be a
/// typo.
pub fn nearest_flag<T>(rows: &[Flag<T>], flag: &str) -> Option<&'static str> {
    rows.iter()
        .filter(|r| !r.is_positional())
        .map(|r| r.name)
        .chain(["--help"])
        .map(|f| (edit_distance(flag, f), f))
        .min()
        .filter(|&(d, f)| d <= f.len().div_ceil(2))
        .map(|(_, f)| f)
}

/// Apply an argument list (without program name and verb) to `target`,
/// row by row.
pub fn parse<T, I, S>(rows: &[Flag<T>], target: &mut T, args: I) -> Result<(), CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut given = vec![false; rows.len()];
    let mut it = args.into_iter().map(Into::into);
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        let positional = |r: &Flag<T>| r.is_positional() && !arg.starts_with('-');
        let found =
            (rows.iter().position(|r| r.name == arg)).or_else(|| rows.iter().position(positional));
        let Some(index) = found else {
            return Err(CliError::UnknownFlag {
                suggestion: nearest_flag(rows, &arg),
                flag: arg,
            });
        };
        let row = &rows[index];
        let value = if row.is_positional() {
            arg
        } else if row.value.is_empty() {
            String::new()
        } else {
            it.next().ok_or(CliError::MissingValue { flag: row.name })?
        };
        (row.apply)(target, &value).map_err(|expected| CliError::BadValue {
            flag: row.name,
            value,
            expected,
        })?;
        given[index] = true;
    }
    match rows
        .iter()
        .zip(given)
        .find(|(r, given)| r.required && !given)
    {
        Some((row, _)) => Err(CliError::Missing {
            flag: row.name,
            value: row.value,
        }),
        None => Ok(()),
    }
}

/// One `--help` entry: `left`, then `help` wrapped to 80 columns in a
/// column of its own that starts at `column` — below `left` when that
/// reaches into it.
pub fn help_entry(left: &str, help: &str, column: usize) -> String {
    let mut out = String::new();
    let mut line = left.trim_end().to_string();
    if line.len() >= column {
        out += &line;
        out.push('\n');
        line.clear();
    }
    for word in help.split_whitespace() {
        if line.len() > column && line.len() + 1 + word.len() > 80 {
            out += &line;
            out.push('\n');
            line.clear();
        }
        let gap = column.saturating_sub(line.len()).max(1);
        line += &" ".repeat(gap);
        line += word;
    }
    out + &line + "\n"
}

/// Render `rows` as `--help` text, one [`help_entry`] per row, `indent`
/// spaces in.
pub fn usage<T>(rows: &[Flag<T>], indent: usize) -> String {
    let entry = |row: &Flag<T>| {
        let left = format!("{:indent$}{} {}", "", row.name, row.value);
        let required = if row.required { " (required)" } else { "" };
        help_entry(&left, &format!("{}{required}", row.help), indent + 23)
    };
    rows.iter().map(entry).collect()
}

/// Store a parsed value, passing a parse failure on.
pub fn set<V>(slot: &mut V, value: Result<V, &'static str>) -> Applied {
    *slot = value?;
    Ok(())
}

/// A non-negative integer.
pub fn count<N: std::str::FromStr>(v: &str) -> Result<N, &'static str> {
    v.parse().map_err(|_| "a count")
}

/// A count that may not be zero (ranks, generations kept).
fn at_least_one(v: &str) -> Result<usize, &'static str> {
    let n = v.parse().ok().filter(|&n| n > 0);
    n.ok_or("a count of at least 1")
}

/// A positive, finite number of seconds.
fn seconds(v: &str) -> Result<f64, &'static str> {
    let s = v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0);
    s.ok_or("seconds")
}

fn path(v: &str) -> Result<Option<PathBuf>, &'static str> {
    Ok(Some(v.into()))
}

/// A run mode's operator surface, written once: the flag, the accepted
/// values and the help paragraph. The mode's row ([`run_flags`]) is
/// generated from it.
pub trait Choice: Sized {
    /// The command-line flag that sets this choice, as `--help` shows it
    /// (`--name VALUE`).
    const FLAG: &'static str;
    /// The accepted values, as an error message names them.
    const VALUES: &'static str;
    /// The `--help` paragraph of [`Choice::FLAG`].
    const HELP: &'static str;
    /// Parse a [`Choice::FLAG`] value.
    fn parse(s: &str) -> Option<Self>;
}

impl Choice for KernelChoice {
    const FLAG: &'static str = "--kernel MODE";
    const VALUES: &'static str = "scalar, simd or auto";
    const HELP: &'static str = "likelihood-kernel backend: scalar | simd | auto (default auto: \
        simd where the host has AVX2, else scalar)";
    fn parse(s: &str) -> Option<Self> {
        KernelChoice::parse(s)
    }
}

impl Choice for RepeatsChoice {
    const FLAG: &'static str = "--site-repeats MODE";
    const VALUES: &'static str = "on, off or auto";
    const HELP: &'static str = "subtree-repeat CLV compression: on | off | auto (default auto, \
        which is on)";
    fn parse(s: &str) -> Option<Self> {
        RepeatsChoice::parse(s)
    }
}

impl Choice for ReduceChoice {
    const FLAG: &'static str = "--reduce MODE";
    const VALUES: &'static str = "fast, reproducible or auto";
    const HELP: &'static str = "collective reduction mode: fast | reproducible | auto \
        (reproducible sums are bitwise invariant to rank count and summation order; auto is \
        reproducible; default fast)";
    fn parse(s: &str) -> Option<Self> {
        ReduceChoice::parse(s)
    }
}

impl Choice for ThreadsChoice {
    const FLAG: &'static str = "--threads MODE";
    const VALUES: &'static str = "a count or auto";
    const HELP: &'static str = "intra-rank worker threads per rank executing kernel batches \
        task-parallel: a count or auto (bitwise invisible: the lnL trajectory is identical at \
        any count; default auto, which is 1)";
    fn parse(s: &str) -> Option<Self> {
        ThreadsChoice::parse(s)
    }
}

impl Choice for GradientChoice {
    const FLAG: &'static str = "--gradient MODE";
    const VALUES: &'static str = "on, off or auto";
    const HELP: &'static str = "full-tree branch gradient route: on | off | auto (on computes \
        all edge derivatives in one sweep and reduces them in a single collective, off walks \
        the edges; bitwise-equal numbers; branch smoothing does not call it, so a run is the \
        same either way; default auto, which is on)";
    fn parse(s: &str) -> Option<Self> {
        GradientChoice::parse(s)
    }
}

/// The row of one run mode, from its [`Choice`] impl: the flag that sets
/// the choice at `choice`.
fn mode_flag<C: Choice + 'static>(choice: fn(&mut RunConfig) -> &mut C) -> Flag<RunConfig> {
    Flag::new(C::FLAG, move |r, v| {
        set(choice(r), C::parse(v).ok_or(C::VALUES))
    })
    .help(C::HELP)
}

/// The `--partitions` row, for every verb that names an alignment.
pub fn partitions_flag<T: 'static>(slot: fn(&mut T) -> &mut Option<PathBuf>) -> Flag<T> {
    Flag::new("--partitions FILE", move |t, v| set(slot(t), path(v)))
        .help("RAxML-style partition file (DNA, name = a-b)")
}

/// The three checkpoint-cadence rows — one name, help and validation each,
/// wherever a cadence is configured: `examl`'s own run, or the policy
/// `examl serve daemon` forces onto every job.
pub fn cadence_flags<T: 'static>(
    every: fn(&mut T, usize),
    every_secs: fn(&mut T, f64),
    keep: fn(&mut T, usize),
) -> [Flag<T>; 3] {
    [
        Flag::new("--checkpoint-every N", move |t, v| {
            count(v).map(|n| every(t, n))
        })
        .help("checkpoint every N iterations (default 1; 0: never)"),
        Flag::new("--checkpoint-every-secs S", move |t, v| {
            seconds(v).map(|s| every_secs(t, s))
        })
        .help("and whenever S seconds passed since the last commit"),
        Flag::new("--checkpoint-keep N", move |t, v| {
            at_least_one(v).map(|n| keep(t, n))
        })
        .help("checkpoint generations retained (default 3)"),
    ]
}

/// The flags that describe a run. What the daemon overwrites in a
/// submitted job — where the artifacts go, the checkpoint cadence — and
/// the test faults, which no job carries, are not run flags but `examl`'s
/// own ([`Cli`]).
pub fn run_flags() -> Vec<Flag<RunConfig>> {
    type Row = Flag<RunConfig>;
    vec![
        Row::new("--ranks N", |r, v| set(&mut r.n_ranks, at_least_one(v)))
            .help("number of ranks (default 4)"),
        Row::new("--model GAMMA|PSR", |r, v| {
            r.rate_model = match v.to_uppercase().as_str() {
                "GAMMA" => RateModelKind::Gamma,
                "PSR" | "CAT" => RateModelKind::Psr,
                _ => return Err("GAMMA or PSR"),
            };
            Ok(())
        })
        .help("rate heterogeneity model (default GAMMA)"),
        mode_flag(|r| &mut r.kernel),
        mode_flag(|r| &mut r.site_repeats),
        mode_flag(|r| &mut r.reduce),
        mode_flag(|r| &mut r.threads),
        mode_flag(|r| &mut r.gradient),
        Row::new("--batch on|off", |r, v| {
            r.batch = match v {
                "on" => true,
                "off" => false,
                _ => return Err("on or off"),
            };
            Ok(())
        })
        .help(
            "pack small partitions into cache-sized kernel batches (default on; off = one \
             dispatch per partition)",
        ),
        Row::new("--resize-at ITER:WIDTH[,ITER:WIDTH...]", |r, v| {
            set(&mut r.resize_plan, resize_plan(v))
        })
        .help(
            "shrink/grow the active rank pool to WIDTH at the start of iteration ITER \
             (de-centralized scheme; requires --reduce reproducible or auto)",
        ),
        Row::new("-Q", |r, _| {
            r.strategy = exa_sched::Strategy::MonolithicLpt;
            Ok(())
        })
        .help("monolithic per-partition data distribution (MPS)"),
        Row::new("-M", |r, _| {
            r.branch_mode = BranchMode::PerPartition;
            Ok(())
        })
        .help("per-partition branch lengths"),
        Row::new("--seed N", |r, v| set(&mut r.seed, count(v)))
            .help("starting-tree seed (default 42)"),
        Row::new("--iterations N", |r, v| {
            set(&mut r.search.max_iterations, count(v))
        })
        .help("max search iterations (default 10)"),
        Row::new("--radius N", |r, v| set(&mut r.search.spr_radius, count(v)))
            .help("SPR rearrangement radius (default 5)"),
        Row::new("--epsilon X", |r, v| {
            set(&mut r.search.epsilon, v.parse().map_err(|_| "a number"))
        })
        .help("convergence threshold (default 0.1)"),
        Row::new("--verify-replicas N", |r, v| {
            set(&mut r.verify_replicas, count(v))
        })
        .help("compare replica state fingerprints every N collectives"),
    ]
}

/// What the `examl` binary does around the run: where the alignment comes
/// from and where the results go.
#[derive(Debug, Clone, Default)]
pub struct Io {
    pub phylip: Option<PathBuf>,
    pub fasta: Option<PathBuf>,
    pub binary_in: Option<PathBuf>,
    pub binary_out: Option<PathBuf>,
    pub partitions: Option<PathBuf>,
    /// `--starting-tree` naming a Newick file rather than a built-in
    /// strategy; the binary reads it into `run.starting_tree`.
    pub starting_tree_file: Option<PathBuf>,
    /// `--checkpoint-every` as given. Its absence matters — a time cadence
    /// alone turns the iteration cadence off — so [`Cli::parse`] resolves
    /// `run.checkpoint_every` only once the whole line is read.
    pub checkpoint_every: Option<usize>,
    pub out_tree: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    /// Dump a Prometheus text-format snapshot of the process-global
    /// metrics registry to this file at exit (also enables the registry).
    pub metrics_out: Option<PathBuf>,
    pub bootstrap: usize,
    pub quiet: bool,
    pub ascii: bool,
    pub stats_only: bool,
}

/// Parsed command line of the `examl` binary: the run, ready to execute
/// (but for a starting tree still to be read from
/// [`Io::starting_tree_file`]), and what the binary does around it.
#[derive(Debug, Clone)]
pub struct Cli {
    pub run: RunConfig,
    pub io: Io,
}

impl Cli {
    /// Every flag `examl` accepts, in `--help` order.
    pub fn flags() -> Vec<Flag<Cli>> {
        type Row = Flag<Cli>;
        let mut rows = vec![
            Row::new("--phylip FILE", |c, v| set(&mut c.io.phylip, path(v)))
                .help("PHYLIP alignment to analyse"),
            Row::new("--fasta FILE", |c, v| set(&mut c.io.fasta, path(v)))
                .help("FASTA alignment to analyse"),
            Row::new("--binary-in FILE", |c, v| set(&mut c.io.binary_in, path(v)))
                .help("compressed alignment written by --binary-out"),
            partitions_flag(|c: &mut Cli| &mut c.io.partitions),
        ];
        rows.extend(
            run_flags()
                .into_iter()
                .map(|f| f.within(|c: &mut Cli| &mut c.run)),
        );
        rows.extend([
            Row::new("--starting-tree S", |c, v| {
                c.io.starting_tree_file = None;
                match v {
                    "random" => c.run.starting_tree = StartingTree::Random,
                    "parsimony" => c.run.starting_tree = StartingTree::Parsimony,
                    file => c.io.starting_tree_file = Some(file.into()),
                }
                Ok(())
            })
            .help("random | parsimony | <newick file> (default parsimony)"),
            Row::new("--checkpoint-out DIR", |c, v| {
                set(&mut c.run.checkpoint_out, path(v))
            })
            .help(
                "commit checkpoint generations into DIR (atomic write + rename); a time cadence \
                 alone turns the iteration cadence off",
            ),
        ]);
        rows.extend(cadence_flags(
            |c: &mut Cli, n| c.io.checkpoint_every = Some(n),
            |c, secs| c.run.checkpoint_every_secs = Some(secs),
            |c, n| c.run.checkpoint_keep = n,
        ));
        rows.extend([
            Row::new("--resume DIR", |c, v| set(&mut c.run.resume_from, path(v)))
                .help("resume from the newest intact generation in DIR"),
            Row::new("--inject SPEC", |c, v| c.run.faults.inject(v)).help(format!(
                "test fault injection, repeatable: {INJECT_SPEC}. kill: die after N committed \
                 checkpoints, all ranks or just RANK (needs --checkpoint-out; exit code 3). \
                 diverge: flip one state bit on RANK after COLLECTIVE collectives (caught by \
                 --verify-replicas)"
            )),
            Row::new("--binary-out FILE", |c, v| {
                set(&mut c.io.binary_out, path(v))
            })
            .help("write the compressed alignment in binary form and exit"),
            Row::new("--out-tree FILE", |c, v| set(&mut c.io.out_tree, path(v)))
                .help("write the final Newick tree to FILE"),
            Row::new("--trace-out FILE", |c, v| set(&mut c.io.trace_out, path(v))).help(
                "write a Chrome trace_event JSON trace to FILE (under --bootstrap: one trace \
                 per replicate, FILE.repN.json)",
            ),
            Row::new("--bootstrap N", |c, v| set(&mut c.io.bootstrap, count(v)))
                .help("run N bootstrap replicates and annotate support"),
            Row::new("--health-out FILE", |c, v| {
                set(&mut c.run.health_out, path(v))
            })
            .help("append one heartbeat JSON line per iteration to FILE"),
            Row::new("--metrics-out FILE", |c, v| {
                set(&mut c.io.metrics_out, path(v))
            })
            .help(
                "write a Prometheus text-format metrics snapshot to FILE at exit (enables the \
                 metrics registry)",
            ),
            Row::new("--ascii", |c, _| set(&mut c.io.ascii, Ok(true)))
                .help("also print an ASCII cladogram"),
            Row::new("--stats", |c, _| set(&mut c.io.stats_only, Ok(true)))
                .help("print alignment statistics and memory needs, then exit"),
            Row::new("--quiet", |c, _| set(&mut c.io.quiet, Ok(true)))
                .help("suppress progress output"),
        ]);
        rows
    }

    /// Parse `examl`'s argument list (without the program name), starting
    /// from `examl`'s defaults: 4 ranks, a parsimony starting tree, and
    /// everything else as [`RunConfig::new`] has it.
    pub fn parse<I, S>(args: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cli = Cli {
            run: RunConfig::new(4).starting_tree(StartingTree::Parsimony),
            io: Io::default(),
        };
        parse(&Cli::flags(), &mut cli, args)?;
        let Cli { run, io } = &mut cli;
        // An explicit --checkpoint-every always wins (0 disables the
        // iteration cadence); absent, commit every iteration — unless only
        // a time cadence was given, which then drives commits alone.
        let untimed = run.checkpoint_every_secs.is_none();
        run.checkpoint_every = io.checkpoint_every.unwrap_or(if untimed { 1 } else { 0 });
        if io.bootstrap > 0 {
            run.bootstrap = Some(BootstrapOptions {
                replicates: io.bootstrap,
                seed: run.seed.wrapping_add(0xB00),
                trace_out: io.trace_out.clone(),
            });
        } else {
            // A trace costs a recorder and an aggregation: collect one
            // only when something will read it.
            run.collect_trace = !io.quiet || io.trace_out.is_some() || io.metrics_out.is_some();
        }
        run.validate().map_err(CliError::Invalid)?;
        Ok(cli)
    }
}

/// `ITER:WIDTH[,ITER:WIDTH...]` into a resize plan. Pairs must be in
/// strictly increasing iteration order and widths must be at least 1; the
/// world-size upper bound is checked later, once the run knows its world.
fn resize_plan(spec: &str) -> Result<Vec<(usize, usize)>, &'static str> {
    let parse = || {
        let mut plan: Vec<(usize, usize)> = Vec::new();
        for pair in spec.split(',') {
            let (iter, width) = pair.split_once(':')?;
            let iter: usize = iter.parse().ok()?;
            let width: usize = width.parse().ok()?;
            if width == 0 || plan.last().is_some_and(|&(last, _)| iter <= last) {
                return None;
            }
            plan.push((iter, width));
        }
        Some(plan)
    };
    parse().ok_or("ITER:WIDTH[,ITER:WIDTH...]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Faults;
    use crate::sentinel::{DivergenceFault, FaultComponent};
    use exa_phylo::engine::ThreadCount;
    use exa_search::{KillSpec, SearchConfig};
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().copied())
    }

    /// The builder calls the binary made from a parsed line before the rows
    /// wrote the `RunConfig` themselves start here: `examl`'s defaults.
    fn examl(ranks: usize) -> RunConfig {
        RunConfig::new(ranks)
            .starting_tree(StartingTree::Parsimony)
            .collect_trace(true)
    }

    fn search(max_iterations: usize, spr_radius: usize, epsilon: f64) -> SearchConfig {
        SearchConfig {
            max_iterations,
            spr_radius,
            epsilon,
            ..SearchConfig::default()
        }
    }

    fn iterations(n: usize) -> SearchConfig {
        search(n, 5, 0.1)
    }

    /// Literal command lines — every `examl` invocation of
    /// `scripts/verify.sh`, the historical full-flag line, every flag at
    /// least once — against the `RunConfig` the builder API gives, compared
    /// as serialized bytes plus the (never serialized) faults: parsing is
    /// pinned against the library's public surface, not against itself.
    #[test]
    fn full_flag_set_parses() {
        let reproducible = ReduceChoice::Reproducible;
        let threads = |n| ThreadsChoice::Count(ThreadCount::new(n));
        let kill = |after_checkpoints, rank| Faults {
            kill: Some(KillSpec {
                after_checkpoints,
                rank,
            }),
            ..Faults::none()
        };
        let table: Vec<(&str, RunConfig)> = vec![
            ("", examl(4)),
            // scripts/verify.sh, in order.
            (
                "--phylip smoke.phy --ranks 2 --iterations 2 --kernel auto --site-repeats on \
                 --verify-replicas 8 --health-out health.jsonl --metrics-out metrics.prom \
                 --out-tree smoke.nwk --quiet",
                examl(2)
                    .search(iterations(2))
                    .kernel(KernelChoice::Auto)
                    .site_repeats(RepeatsChoice::On)
                    .verify_replicas(8)
                    .health_out("health.jsonl"),
            ),
            (
                "--phylip smoke.phy --ranks 1 --iterations 3 --seed 7 --reduce reproducible \
                 --health-out reduce_1.jsonl --quiet",
                examl(1)
                    .search(iterations(3))
                    .seed(7)
                    .reduce(reproducible)
                    .health_out("reduce_1.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 4 --iterations 3 --seed 7 --reduce reproducible \
                 --health-out reduce_4.jsonl --quiet",
                examl(4)
                    .search(iterations(3))
                    .seed(7)
                    .reduce(reproducible)
                    .health_out("reduce_4.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --seed 7 --reduce reproducible \
                 --resize-at 1:4,2:1 --health-out reduce_rz.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .seed(7)
                    .reduce(reproducible)
                    .resize_at(1, 4)
                    .resize_at(2, 1)
                    .health_out("reduce_rz.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --seed 7 --threads 1 \
                 --health-out threads_1.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .seed(7)
                    .threads(threads(1))
                    .health_out("threads_1.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --seed 7 --threads 2 --batch off \
                 --health-out threads_nb.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .seed(7)
                    .threads(threads(2))
                    .batch(false)
                    .health_out("threads_nb.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --seed 7 --reduce reproducible \
                 --gradient on --health-out grad_on.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .seed(7)
                    .reduce(reproducible)
                    .gradient(GradientChoice::On)
                    .health_out("grad_on.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --seed 7 --reduce reproducible \
                 --gradient off --health-out grad_off.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .seed(7)
                    .reduce(reproducible)
                    .gradient(GradientChoice::Off)
                    .health_out("grad_off.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --checkpoint-out ckpt \
                 --checkpoint-every 1 --health-out ckpt_health.jsonl --quiet",
                examl(2)
                    .search(iterations(3))
                    .checkpoint("ckpt", 1)
                    .health_out("ckpt_health.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --checkpoint-out ckpt \
                 --checkpoint-every 1 --inject kill:1 --quiet",
                examl(2)
                    .search(iterations(3))
                    .checkpoint("ckpt", 1)
                    .faults(kill(1, None))
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 3 --resume ckpt --out-tree \
                 resumed.nwk --quiet",
                examl(2)
                    .search(iterations(3))
                    .resume("ckpt")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 2 --iterations 1 --health-out env.jsonl --quiet",
                examl(2)
                    .search(iterations(1))
                    .health_out("env.jsonl")
                    .collect_trace(false),
            ),
            (
                "--phylip smoke.phy --ranks 4 --iterations 2 --seed 7 --verify-replicas 1 \
                 --inject diverge:1:3:alpha --quiet",
                examl(4)
                    .search(iterations(2))
                    .seed(7)
                    .verify_replicas(1)
                    .faults(Faults {
                        divergence: Some(DivergenceFault {
                            rank: 1,
                            after_collectives: 3,
                            component: FaultComponent::Alpha,
                        }),
                        ..Faults::none()
                    })
                    .collect_trace(false),
            ),
            // The historical `full_flag_set_parses` line.
            (
                "--phylip a.phy --partitions p.txt --ranks 8 --model psr --kernel simd \
                 --site-repeats off --reduce reproducible --threads 2 --gradient on --batch off \
                 --resize-at 2:1,5:4 -Q -M --seed 7 --starting-tree random --iterations 3 \
                 --radius 2 --epsilon 0.5 --verify-replicas 16 --inject diverge:1:10:alpha \
                 --metrics-out metrics.prom --quiet",
                examl(8)
                    .rate_model(RateModelKind::Psr)
                    .branch_mode(BranchMode::PerPartition)
                    .strategy(exa_sched::Strategy::MonolithicLpt)
                    .search(search(3, 2, 0.5))
                    .seed(7)
                    .starting_tree(StartingTree::Random)
                    .kernel(KernelChoice::Simd)
                    .site_repeats(RepeatsChoice::Off)
                    .reduce(reproducible)
                    .threads(threads(2))
                    .gradient(GradientChoice::On)
                    .batch(false)
                    .verify_replicas(16)
                    .resize_at(2, 1)
                    .resize_at(5, 4)
                    .faults(Faults {
                        divergence: Some(DivergenceFault {
                            rank: 1,
                            after_collectives: 10,
                            component: FaultComponent::Alpha,
                        }),
                        ..Faults::none()
                    }),
            ),
            // The flags no line above used, and the cadence rules.
            (
                "--fasta a.fa --model CAT",
                examl(4).rate_model(RateModelKind::Psr),
            ),
            ("--binary-in a.exml --model gamma --kernel scalar", {
                examl(4).kernel(KernelChoice::Scalar)
            }),
            (
                "--site-repeats auto --reduce auto --threads auto --batch on",
                {
                    examl(4)
                        .site_repeats(RepeatsChoice::Auto)
                        .reduce(ReduceChoice::Auto)
                        .threads(ThreadsChoice::Auto)
                },
            ),
            ("--reduce fast --starting-tree parsimony", {
                examl(4).reduce(ReduceChoice::Fast)
            }),
            (
                "--phylip a.phy --binary-out a.exml --stats --ascii",
                examl(4),
            ),
            (
                "--bootstrap 5 --seed 9 --trace-out t.json --quiet",
                examl(4)
                    .seed(9)
                    .collect_trace(false)
                    .bootstrap(5, 9 + 0xB00)
                    .bootstrap_trace_out("t.json"),
            ),
            (
                "--bootstrap 2",
                examl(4).collect_trace(false).bootstrap(2, 42 + 0xB00),
            ),
            ("--trace-out t.json --quiet", examl(4)),
            ("--inject diverge:0:3:blen", {
                examl(4).faults(Faults {
                    divergence: Some(DivergenceFault {
                        rank: 0,
                        after_collectives: 3,
                        component: FaultComponent::BranchLength,
                    }),
                    ..Faults::none()
                })
            }),
            ("--checkpoint-out c --inject kill:3:1", {
                examl(4).checkpoint("c", 1).faults(kill(3, Some(1)))
            }),
            // A later spec of a kind replaces an earlier one.
            (
                "--inject diverge:2:5:blen --inject diverge:0:3:alpha",
                examl(4).faults(Faults {
                    divergence: Some(DivergenceFault {
                        rank: 0,
                        after_collectives: 3,
                        component: FaultComponent::Alpha,
                    }),
                    ..Faults::none()
                }),
            ),
            // A time cadence alone turns the iteration cadence off …
            ("--checkpoint-out c --checkpoint-every-secs 2.5", {
                examl(4).checkpoint("c", 0).checkpoint_every_secs(2.5)
            }),
            // … both can be armed together, in either order …
            (
                "--checkpoint-every-secs 10 --checkpoint-out c --checkpoint-every 4 \
                 --checkpoint-keep 7",
                examl(4)
                    .checkpoint("c", 4)
                    .checkpoint_keep(7)
                    .checkpoint_every_secs(10.0),
            ),
            // … and an explicit zero disables the iteration cadence outright.
            (
                "--checkpoint-out c --checkpoint-every 0",
                examl(4).checkpoint("c", 0),
            ),
        ];
        assert!(table.len() >= 25);
        for (line, expected) in &table {
            let cli = parse(&line.split_whitespace().collect::<Vec<_>>())
                .unwrap_or_else(|e| panic!("{line:?} rejected: {e}"));
            assert_eq!(
                serde_json::to_string(&cli.run).unwrap(),
                serde_json::to_string(expected).unwrap(),
                "{line:?}"
            );
            assert_eq!(cli.run.faults, expected.faults, "{line:?}");
        }
        let flags = Cli::flags();
        for flag in flags.iter().map(|f| f.name) {
            let used = |(line, _): &(&str, RunConfig)| line.split_whitespace().any(|a| a == flag);
            assert!(table.iter().any(used), "no pinned line uses {flag}");
        }

        // `examl serve submit`'s defaults are the library's; the same rows
        // write into them.
        let mut job = RunConfig::new(2);
        let line = "--ranks 3 --iterations 60 --epsilon 0.0000001 --seed 7 -M --gradient off";
        super::parse(&run_flags(), &mut job, line.split_whitespace()).unwrap();
        let expected = RunConfig::new(3)
            .search(search(60, 5, 0.0000001))
            .seed(7)
            .branch_mode(BranchMode::PerPartition)
            .gradient(GradientChoice::Off);
        assert_eq!(
            serde_json::to_string(&job).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
    }

    #[test]
    fn defaults_match_historical_cli() {
        let c = parse(&[]).unwrap();
        assert_eq!(c.run.n_ranks, 4);
        assert_eq!(c.run.rate_model, RateModelKind::Gamma);
        assert!(matches!(c.run.starting_tree, StartingTree::Parsimony));
        assert_eq!(c.run.search.max_iterations, 10);
        assert_eq!(c.run.search.spr_radius, 5);
        assert!((c.run.search.epsilon - 0.1).abs() < 1e-12);
        assert_eq!(c.run.verify_replicas, 0);
        assert!(c.run.resize_plan.is_empty());
        assert!(c.io.phylip.is_none() && c.io.fasta.is_none() && c.io.binary_in.is_none());
        assert!(c.io.starting_tree_file.is_none() && c.io.out_tree.is_none());
        assert_eq!(c.io.bootstrap, 0);
        assert!(!c.io.quiet && !c.io.ascii && !c.io.stats_only);
    }

    #[test]
    fn what_the_binary_does_around_the_run_is_parsed_beside_it() {
        let c = parse(&[
            "--phylip",
            "a.phy",
            "--partitions",
            "p.txt",
            "--starting-tree",
            "start.nwk",
            "--binary-out",
            "a.exml",
            "--out-tree",
            "out.nwk",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "metrics.prom",
            "--bootstrap",
            "3",
            "--quiet",
            "--ascii",
            "--stats",
        ])
        .unwrap();
        assert_eq!(c.io.phylip.as_deref(), Some(Path::new("a.phy")));
        assert_eq!(c.io.partitions.as_deref(), Some(Path::new("p.txt")));
        assert_eq!(
            c.io.starting_tree_file.as_deref(),
            Some(Path::new("start.nwk"))
        );
        assert_eq!(c.io.binary_out.as_deref(), Some(Path::new("a.exml")));
        assert_eq!(c.io.out_tree.as_deref(), Some(Path::new("out.nwk")));
        assert_eq!(c.io.trace_out.as_deref(), Some(Path::new("t.json")));
        assert_eq!(c.io.metrics_out.as_deref(), Some(Path::new("metrics.prom")));
        assert_eq!(c.io.bootstrap, 3);
        assert!(c.io.quiet && c.io.ascii && c.io.stats_only);
        let c = parse(&["--fasta", "a.fa", "--binary-in", "a.exml"]).unwrap();
        assert_eq!(c.io.fasta.as_deref(), Some(Path::new("a.fa")));
        assert_eq!(c.io.binary_in.as_deref(), Some(Path::new("a.exml")));
        // A later built-in strategy withdraws an earlier file.
        let c = parse(&["--starting-tree", "start.nwk", "--starting-tree", "random"]).unwrap();
        assert_eq!(c.io.starting_tree_file, None);
    }

    /// A trace costs a recorder and an aggregation: it is collected only
    /// when the summary, a trace file or the metrics dump will read it.
    #[test]
    fn a_trace_is_collected_only_for_a_consumer() {
        for (line, collect) in [
            ("", true),
            ("--quiet", false),
            ("--quiet --health-out h.jsonl", false),
            ("--quiet --trace-out t.json", true),
            ("--quiet --metrics-out m.prom", true),
            ("--bootstrap 2", false),
        ] {
            let cli = parse(&line.split_whitespace().collect::<Vec<_>>()).unwrap();
            assert_eq!(cli.run.collect_trace, collect, "{line:?}");
        }
    }

    #[test]
    fn checkpoint_and_kill_flags_parse() {
        let c = parse(&[
            "--checkpoint-out",
            "ckpt/",
            "--checkpoint-every",
            "5",
            "--resume",
            "ckpt/",
            "--inject",
            "kill:2",
        ])
        .unwrap();
        assert_eq!(c.run.checkpoint_out.as_deref(), Some(Path::new("ckpt/")));
        assert_eq!(c.run.checkpoint_every, 5);
        assert_eq!(c.run.resume_from.as_deref(), Some(Path::new("ckpt/")));
        let all_ranks = KillSpec {
            after_checkpoints: 2,
            rank: None,
        };
        assert_eq!(c.run.faults.kill, Some(all_ranks));
        for bad in ["kill:", "kill:x", "kill:1:", "kill:1:x", "kill:1:2:3"] {
            let err = parse(&["--checkpoint-out", "c", "--inject", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--inject",
                        expected: "kill:N[:RANK]",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_cadence_and_retention_flags() {
        // Absent flags: commit every iteration, keep the default window.
        let c = parse(&[]).unwrap();
        assert_eq!(c.io.checkpoint_every, None);
        assert_eq!(c.run.checkpoint_every, 1);
        assert_eq!(c.run.checkpoint_keep, crate::checkpoint::KEEP_GENERATIONS);
        // A time cadence alone turns the iteration cadence off; the other
        // combinations are pinned in `full_flag_set_parses`.
        let c = parse(&["--checkpoint-every-secs", "2.5"]).unwrap();
        assert_eq!(c.run.checkpoint_every_secs, Some(2.5));
        assert_eq!(c.run.checkpoint_every, 0);
        for (flag, bad) in [
            ("--checkpoint-every-secs", "0"),
            ("--checkpoint-every-secs", "-1"),
            ("--checkpoint-every-secs", "inf"),
            ("--checkpoint-every-secs", "nan"),
            ("--checkpoint-keep", "0"),
        ] {
            let err = parse(&[flag, bad]).unwrap_err();
            assert!(
                matches!(err, CliError::BadValue { .. }),
                "{flag} {bad:?} should be rejected, got {err:?}"
            );
        }
    }

    /// A count that makes no run is a usage error where it is typed, not a
    /// panic where it is used: `--ranks 0` used to reach the world's resize
    /// assertion (exit 101).
    #[test]
    fn zero_ranks_is_a_usage_error() {
        let err = parse(&["--ranks", "0"]).unwrap_err();
        assert!(err.to_string().contains("a count of at least 1"), "{err}");
        // The same row serves `examl serve submit`.
        let mut job = RunConfig::new(2);
        let err = super::parse(&run_flags(), &mut job, ["--ranks", "0"]).unwrap_err();
        assert!(
            matches!(
                err,
                CliError::BadValue {
                    flag: "--ranks",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn flags_that_do_not_describe_a_run_together_are_usage_errors() {
        let err = parse(&["--resize-at", "1:2"]).unwrap_err();
        let CliError::Invalid(why) = &err else {
            panic!("expected Invalid, got {err:?}");
        };
        assert!(
            why.contains("--resize-at requires --reduce reproducible"),
            "{why}"
        );
        parse(&["--resize-at", "1:2", "--reduce", "auto"]).unwrap();
        let err = parse(&["--inject", "kill:2"]).unwrap_err();
        assert!(
            err.to_string()
                .contains("--inject kill requires --checkpoint-out"),
            "{err}"
        );
    }

    /// A fault spec that does not parse names the grammar it missed; one
    /// that parses but that the run could not deliver is refused before
    /// any input is read.
    #[test]
    fn malformed_inject_specs_are_usage_errors() {
        for (spec, expected) in [
            ("frob:1", "a fault kind: kill or diverge"),
            ("batch:on", "a fault kind: kill or diverge"),
            // A mode is configuration: no rank can be told to compute with
            // another one.
            ("kernel:scalar,simd", "a fault kind: kill or diverge"),
            ("reduce:fast", "a fault kind: kill or diverge"),
            (
                "kill",
                "kill:N[:RANK] or diverge:RANK:COLLECTIVE:alpha|blen",
            ),
            ("diverge:1:5", "diverge:RANK:COLLECTIVE:alpha|blen"),
            ("diverge:1:5:topology", "diverge:RANK:COLLECTIVE:alpha|blen"),
        ] {
            let err = parse(&["--inject", spec]).unwrap_err();
            let text = err.to_string();
            assert!(
                text.starts_with(&format!("invalid value {spec:?} for --inject (expected ")),
                "{spec}: {text}"
            );
            assert!(text.contains(expected), "{spec}: {text}");
        }
        let words = |line: &'static str| line.split_whitespace().collect::<Vec<_>>();
        for (line, why) in [
            ("--inject kill:1", "--inject kill requires --checkpoint-out"),
            (
                "--ranks 2 --checkpoint-out d --inject kill:1:9",
                "outside the world",
            ),
            (
                "--ranks 2 --inject diverge:9:5:alpha --verify-replicas 1",
                "outside the world",
            ),
        ] {
            let err = parse(&words(line)).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid(w) if w.contains(why)),
                "{line:?}: {err:?}"
            );
        }
        // The last rank of the world is a rank like any other, and resize
        // head-room ranks replicate the search too.
        parse(&words("--ranks 2 --checkpoint-out d --inject kill:1:1")).unwrap();
        parse(&words(
            "--ranks 2 --reduce auto --resize-at 1:6 --inject diverge:5:5:blen",
        ))
        .unwrap();
    }

    #[test]
    fn unknown_flag_names_the_nearest_valid_one() {
        let err = parse(&["--phlyip", "a.phy"]).unwrap_err();
        let CliError::UnknownFlag { flag, suggestion } = &err else {
            panic!("expected UnknownFlag, got {err:?}");
        };
        assert_eq!(flag, "--phlyip");
        assert_eq!(*suggestion, Some("--phylip"));
        assert!(err.to_string().contains("did you mean --phylip?"), "{err}");

        let err = parse(&["--kernal", "simd"]).unwrap_err();
        assert!(err.to_string().contains("did you mean --kernel?"), "{err}");

        // Gibberish gets no far-fetched suggestion.
        let err = parse(&["--zzzzzzzzzzzzzzzzzz"]).unwrap_err();
        let CliError::UnknownFlag { suggestion, .. } = err else {
            panic!()
        };
        assert_eq!(suggestion, None);

        // Suggestions rank against the table in hand, not `examl`'s: a
        // flag `examl` alone takes is a stranger to the run rows.
        let typo = "--checkpoint-ot";
        assert_eq!(nearest_flag(&Cli::flags(), typo), Some("--checkpoint-out"));
        assert_eq!(nearest_flag(&run_flags(), typo), None);
        assert_eq!(nearest_flag(&run_flags(), "--hlep"), Some("--help"));
        // `examl` takes no positional argument.
        let err = parse(&["a.phy"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownFlag { .. }), "{err:?}");
    }

    #[test]
    fn missing_and_bad_values_are_structured() {
        assert_eq!(
            parse(&["--ranks"]).unwrap_err(),
            CliError::MissingValue { flag: "--ranks" }
        );
        let err = parse(&["--ranks", "many"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::BadValue {
                flag: "--ranks",
                ..
            }
        ));
        let err = parse(&["--kernel", "avx512"]).unwrap_err();
        assert!(err.to_string().contains("scalar, simd or auto"), "{err}");
        let err = parse(&["--site-repeats", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on, off or auto"), "{err}");
        let err = parse(&["--model", "JC"]).unwrap_err();
        assert!(err.to_string().contains("GAMMA or PSR"), "{err}");
        let err = parse(&["--reduce", "exact"]).unwrap_err();
        assert!(
            err.to_string().contains("fast, reproducible or auto"),
            "{err}"
        );
        let err = parse(&["--threads", "lots"]).unwrap_err();
        assert!(err.to_string().contains("a count or auto"), "{err}");
        let err = parse(&["--batch", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
        let err = parse(&["--gradient", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on, off or auto"), "{err}");
        // Out-of-order, zero-width and malformed plans are all rejected.
        for bad in ["", "3", "3:", "3:0", "5:2,3:4", "3:2,3:1", "x:2"] {
            let err = parse(&["--reduce", "auto", "--resize-at", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--resize-at",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
            assert!(
                err.to_string().contains("ITER:WIDTH[,ITER:WIDTH...]"),
                "{err}"
            );
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["--ranks", "2", "-h"]).unwrap_err(), CliError::Help);
    }

    /// A verb's table with a required flag and a positional argument, as
    /// the `examl serve` client verbs have.
    #[test]
    fn required_flags_and_positionals() {
        #[derive(Default)]
        struct Wait {
            to: String,
            id: u64,
            secs: u64,
        }
        let rows = [
            Flag::new("--to ADDR", |w: &mut Wait, v| set(&mut w.to, Ok(v.into()))).required(),
            Flag::new("ID", |w: &mut Wait, v| set(&mut w.id, count(v))).required(),
            Flag::new("--timeout-secs S", |w: &mut Wait, v| {
                set(&mut w.secs, count(v))
            }),
        ];
        let mut w = Wait::default();
        super::parse(&rows, &mut w, ["--to", "h:1", "17", "--timeout-secs", "9"]).unwrap();
        assert_eq!((w.to.as_str(), w.id, w.secs), ("h:1", 17, 9));

        let mut w = Wait::default();
        let err = super::parse(&rows, &mut w, ["17"]).unwrap_err();
        assert_eq!(err.to_string(), "missing --to ADDR");
        let err = super::parse(&rows, &mut w, ["--to", "h:1"]).unwrap_err();
        assert_eq!(err.to_string(), "missing ID");
        let err = super::parse(&rows, &mut w, ["--to", "h:1", "x7"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid value \"x7\" for ID (expected a count)"
        );
        // A negative number is a flag nobody knows, not a positional.
        let err = super::parse(&rows, &mut w, ["--to", "h:1", "-7"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownFlag { .. }), "{err:?}");
    }

    #[test]
    fn the_table_is_what_help_shows() {
        let flags = Cli::flags();
        let help = usage(&flags, 2);
        for (i, f) in flags.iter().enumerate() {
            assert!(
                flags[..i].iter().all(|g| g.name != f.name),
                "{} is in the table twice",
                f.name
            );
            assert!(!f.help.is_empty(), "{} has no help", f.name);
            // Exactly one entry: the row's name at the start of a line.
            let entries = help
                .lines()
                .filter(|l| l.trim_start().split(' ').next() == Some(f.name))
                .filter(|l| l.starts_with("  -"))
                .count();
            assert_eq!(entries, 1, "{} in:\n{help}", f.name);
        }
        assert!(help.lines().all(|l| l.len() <= 80), "{help}");
        // A mode is set by its flag alone: no row names a variable.
        for flag in [
            "--kernel",
            "--site-repeats",
            "--reduce",
            "--threads",
            "--gradient",
        ] {
            let row = flags.iter().find(|f| f.name == flag).unwrap();
            assert!(!row.help.contains("EXAML"), "{flag}: {}", row.help);
        }
    }

    #[test]
    fn help_entries_wrap_in_their_own_column() {
        assert_eq!(help_entry("  -Q", "monolithic", 8), "  -Q    monolithic\n");
        // A left part that reaches into the column gets its own line.
        assert_eq!(
            help_entry("  --resize-at PLAN", "shrink or grow", 8),
            "  --resize-at PLAN\n        shrink or grow\n"
        );
        let long = "word ".repeat(30);
        let text = help_entry("  --flag", &long, 12);
        assert!(text.lines().count() > 1);
        assert!(text.lines().all(|l| l.len() <= 80), "{text}");
        assert!(text
            .lines()
            .skip(1)
            .all(|l| l.starts_with("            word")));
        assert_eq!(text.matches("word").count(), 30);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("--phlyip", "--phylip"), 2);
    }
}
