//! The driving process: generates inputs, spawns one long-lived child per
//! workload, and drives repetitions round-robin across them so that each
//! workload's samples span the whole invocation rather than one phase of
//! the machine. It only ever blocks on a child — at no time are more than
//! two compute threads runnable.

use crate::child::Reply;
use crate::inputs::{self, Kind, WorkloadDef};
use crate::layers::Metrics;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Span;
use crate::{stats, sys};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Which metric sets an invocation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the gated end-to-end metrics only.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics (fewer untraced rounds, since the
    /// walls are not what this run reports).
    Layers,
    /// No `--trace`: both, for a person.
    Both,
}

impl Mode {
    fn layered(self) -> bool {
        self != Mode::EndToEnd
    }

    fn min_reps(self) -> usize {
        match self {
            Mode::Layers => 4,
            _ => stats::MIN_REPS,
        }
    }

    /// Share of `--seconds` the timed rounds get.
    fn budget_share(self) -> f64 {
        match self {
            Mode::Layers => 0.5,
            _ => 1.0,
        }
    }
}

pub struct Options {
    pub workloads: Vec<&'static WorkloadDef>,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub quick: bool,
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    pub def: &'static WorkloadDef,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub patterns: f64,
}

struct Driven {
    def: &'static WorkloadDef,
    process: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Static facts from the first pass (counts, sizes, peak RSS).
    first: Metrics,
    /// Each round's best set-up time, in all (`setup_s`) and per stage.
    setup: std::collections::BTreeMap<String, Vec<f64>>,
    setup_reps: f64,
    /// Seconds this workload's rounds have taken so far, all included.
    round_secs: f64,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    calib: Vec<f64>,
    /// The reference loop around each timed repetition, in ms.
    refs: Vec<f64>,
    forkjoin: Vec<Reply>,
    spans: Vec<Span>,
}

impl Driven {
    fn spawn(def: &'static WorkloadDef, dir: &Path, quick: bool) -> Driven {
        let exe = std::env::current_exe().expect("own executable path");
        let mut cmd = Command::new(exe);
        cmd.arg("exec")
            .arg("--workload")
            .arg(def.name)
            .arg("--dir")
            .arg(dir);
        if quick {
            cmd.arg("--quick");
        }
        // The library reads these as run-mode defaults; a stray one in the
        // caller's environment would silently benchmark another program.
        for var in [
            "EXAML_KERNEL",
            "EXAML_SITE_REPEATS",
            "EXAML_THREADS",
            "EXAML_REDUCE",
            "EXAML_GRADIENT",
        ] {
            cmd.env_remove(var);
        }
        let mut process = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn measured child");
        let stdin = process.stdin.take().expect("child stdin");
        let stdout = BufReader::new(process.stdout.take().expect("child stdout"));
        Driven {
            def,
            process,
            stdin,
            stdout,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            first: Metrics::new(),
            setup: Default::default(),
            setup_reps: 0.0,
            round_secs: 0.0,
            walls: Vec::new(),
            cpus: Vec::new(),
            calib: Vec::new(),
            refs: Vec::new(),
            forkjoin: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Send one command and block until the child answers.
    fn call(&mut self, command: &str) -> Reply {
        writeln!(self.stdin, "{command}").expect("send command to child");
        self.stdin.flush().expect("flush command");
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read child reply");
        assert!(n > 0, "{} child died during `{command}`", self.def.name);
        let mut reply: Reply = serde_json::from_str(&line).expect("decode child reply");
        self.attempted += reply.attempted;
        self.failed += reply.failed;
        self.notes.append(&mut reply.notes);
        crate::spans::append(&mut self.spans, std::mem::take(&mut reply.spans));
        reply
    }

    fn rep(&mut self) {
        let r = self.call("rep");
        self.walls.push(r.values["wall_s"]);
        self.cpus.push(r.values["cpu_s"]);
        self.calib.push(r.values["calib_ms"]);
        self.refs.push(r.values["ref_ms"]);
        self.setup_reps += r.values["setup_reps"];
        for (name, &secs) in &r.values {
            if name == "setup_s" || name.starts_with("stage.") {
                self.setup.entry(name.clone()).or_default().push(secs);
            }
        }
    }

    /// The timed repetitions scaled to the machine's nominal state.
    fn scaled_walls(&self) -> Vec<f64> {
        stats::scaled(&self.walls, &self.refs, sys::REFERENCE_NOMINAL_MS)
    }

    /// Set-up time: the median over the rounds of each round's best. A
    /// set-up is a millisecond of single-thread work, and this box has a
    /// rare fast state for exactly that (one busy core clocks ~27 % higher
    /// for a few ms): the overall minimum is whether a run happened to see
    /// it (0.89 ms or 1.14 ms), the median of the round-bests is the state
    /// the machine is usually in (1.13–1.15 ms).
    fn setup_secs(&self, name: &str) -> f64 {
        stats::median(&self.setup[name])
    }

    fn quit(mut self) {
        writeln!(self.stdin, "quit").ok();
        drop(self.stdin);
        let status = self.process.wait().expect("wait for child");
        assert!(
            status.success(),
            "{} child exited with {status}",
            self.def.name
        );
    }
}

/// Where this invocation keeps inputs, spools and its outputs: `out/`
/// beside the benchmark's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// Removes the run directory when the invocation ends, however it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(opts: &Options) -> (Vec<WorkloadResult>, Vec<Span>) {
    let run_dir = RunDir(out_dir().join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&run_dir.0).expect("create run directory");
    eprintln!(
        "machine: nproc {} | caches {} | spool filesystem {}",
        sys::nproc(),
        sys::cache_sizes().join(", "),
        sys::filesystem_type(&run_dir.0)
    );

    let mut driven: Vec<Driven> = opts
        .workloads
        .iter()
        .map(|def| {
            let dir = run_dir.0.join(def.name);
            inputs::generate(&dir, def, opts.quick, opts.seed);
            Driven::spawn(def, &dir, opts.quick)
        })
        .collect();

    // First pass (also the warm-up); peak RSS is read at its end.
    for d in &mut driven {
        d.first = d.call("first").values;
        eprintln!(
            "{}: {:?}, {} patterns, peak RSS {:.1} MB",
            d.def.name,
            d.def.shape(opts.quick),
            d.first["patterns"],
            d.first["peak_rss_mb"]
        );
    }

    // Timed rounds, round-robin. A workload leaves the rotation when its
    // time budget (or the repetition cap) is spent.
    let min_reps = opts.mode.min_reps();
    let budget = opts.seconds * opts.mode.budget_share();
    loop {
        let mut ran = false;
        for d in &mut driven {
            if stats::enough_reps(d.walls.len(), min_reps, d.round_secs >= budget) {
                continue;
            }
            ran = true;
            let t0 = std::time::Instant::now();
            d.rep();
            if opts.mode.layered() && d.forkjoin.len() < 3 {
                let r = d.call("forkjoin");
                d.forkjoin.push(r);
            }
            d.round_secs += t0.elapsed().as_secs_f64();
        }
        if !ran {
            break;
        }
    }

    let mut results = Vec::new();
    let mut all_spans = Vec::new();
    for mut d in driven {
        if d.forkjoin.is_empty() {
            let r = d.call("forkjoin");
            d.forkjoin.push(r);
        }
        let reference = d.call("reference").values;
        let layers = opts.mode.layered().then(|| d.call("layers").values);
        let result = finalize(&d, &reference, layers.as_ref());
        eprintln!(
            "{}: {} repetitions, best {:.4} s, median {:.4} s, scaled median {:.4} s (reference median {:.1} ms) | set-up {} repetitions, median of round-bests {:.3} ms | calibration best {:.2} ms, median {:.2} ms | {} of {} operations failed",
            d.def.name,
            d.walls.len(),
            stats::min(&d.walls),
            stats::median(&d.walls),
            stats::median(&d.scaled_walls()),
            stats::median(&d.refs),
            d.setup_reps,
            d.setup_secs("setup_s") * 1e3,
            stats::min(&d.calib),
            stats::median(&d.calib),
            result.failed,
            result.attempted
        );
        eprintln!(
            "{}: walls {}",
            d.def.name,
            d.walls
                .iter()
                .map(|w| format!("{w:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        eprintln!(
            "{}: references {}",
            d.def.name,
            d.refs
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        crate::spans::append(&mut all_spans, std::mem::take(&mut d.spans));
        results.push(result);
        d.quit();
    }
    (results, all_spans)
}

fn finalize(d: &Driven, reference: &Metrics, layers: Option<&Metrics>) -> WorkloadResult {
    let best = stats::min(&d.walls);
    // Raw median: what the ratios below (fork-join, one rank, traced) are
    // taken against, since those runs are raw too.
    let typical = stats::median(&d.walls);
    let scaled = d.scaled_walls();
    let mut end_to_end = Metrics::new();
    end_to_end.insert("wall_s".into(), stats::median(&scaled));
    end_to_end.insert("setup_s".into(), d.setup_secs("setup_s"));
    end_to_end.insert("peak_rss_mb".into(), d.first["peak_rss_mb"]);
    for m in &END_TO_END {
        assert!(end_to_end[m.name] > 0.0, "{} is not positive", m.name);
    }

    let mut per_layer = Metrics::new();
    if let Some(layers) = layers {
        let mut all = d.first.clone();
        all.extend(reference.clone());
        let stage_ms = |name: &str| d.setup_secs(&format!("stage.{name}")) * 1e3;
        all.insert(
            "bio.parse_phylip_mb_s".into(),
            d.first["phylip_bytes"] * 1e-3 / stage_ms("bio.parse_phylip"),
        );
        all.insert(
            "bio.parse_partitions_ms".into(),
            stage_ms("bio.parse_partitions"),
        );
        all.insert("bio.compress_ms".into(), stage_ms("bio.compress"));
        all.insert("sched.distribute_ms".into(), stage_ms("sched.distribute"));
        all.insert(
            "sched.build_engine_ms".into(),
            stage_ms("sched.build_engine"),
        );
        all.extend(layers.clone());
        let fj_walls: Vec<f64> = d.forkjoin.iter().map(|r| r.values["wall_s"]).collect();
        // Three runs: their median, like the wall it is divided by.
        let fj_typical = stats::median(&fj_walls);
        all.extend(d.forkjoin.last().expect("a fork-join run").values.clone());
        // On `serve_flood` the gated wall is a drain; the search-side ratios
        // there refer to the two-rank run of one job instead.
        let suite_wall = match d.def.kind {
            Kind::Search => typical,
            Kind::Serve => all["suite_wall_s"],
        };
        all.insert("core.wall_raw_s".into(), typical);
        all.insert("core.wall_best_s".into(), best);
        all.insert("core.wall_spread_pct".into(), stats::spread_pct(&d.walls));
        all.insert("core.cpu_s".into(), stats::median(&d.cpus));
        all.insert(
            "core.scaling_efficiency_r2".into(),
            all["single_rank_wall_s"] / (2.0 * suite_wall),
        );
        all.insert("forkjoin.wall_s".into(), fj_typical);
        all.insert("forkjoin.wall_ratio".into(), fj_typical / suite_wall);
        all.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * (all["traced_run_s"] / suite_wall - 1.0),
        );
        all.insert("harness.reps".into(), d.walls.len() as f64);
        all.insert("harness.calib_best_ms".into(), stats::min(&d.calib));
        all.insert(
            "harness.calib_spread_pct".into(),
            stats::spread_pct(&d.calib),
        );
        all.insert("harness.ref_ms".into(), stats::median(&d.refs));
        all.insert("harness.ref_spread_pct".into(), stats::spread_pct(&d.refs));
        all.insert("harness.aa_split_pct".into(), stats::aa_split_pct(&scaled));
        all.insert("harness.spans".into(), d.spans.len() as f64);
        for m in &PER_LAYER {
            let v = *all.get(m.name).unwrap_or_else(|| {
                panic!(
                    "{}: per-layer metric {} was not measured",
                    d.def.name, m.name
                )
            });
            per_layer.insert(m.name.to_string(), v);
        }
    }
    WorkloadResult {
        def: d.def,
        attempted: d.attempted,
        failed: d.failed,
        notes: d.notes.clone(),
        end_to_end,
        per_layer,
        patterns: d.first["patterns"],
    }
}
