//! The measured process. The parent spawns one per workload
//! (`exec --workload W --dir D`), which then blocks on stdin between
//! commands: inputs are generated in the parent, so this process's peak RSS
//! is the program's, and it lives across repetitions, so its allocator and
//! page cache stay warm. One command per line in, one JSON reply per line
//! out.

use crate::inputs::{self, InputFiles, Kind, WorkloadDef, RANKS, TENANTS};
use crate::layers::{self, Metrics};
use crate::search_wl::{self, RunSample};
use crate::serve_wl;
use crate::spans::{self, Span, Spans};
use crate::{stats, sys};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::CommCategory;
use examl_core::RunConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// Reply to one command: named numbers, operations attempted and failed
/// (an operation is one run, or one daemon job), what failed, and any spans
/// recorded.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Reply {
    pub values: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Reply {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }
}

/// Set-up repetitions run before each timed repetition: as many as fit in
/// `SETUP_CHUNK_SECS`, at least `SETUP_CHUNK_MIN`. Over the seven or more
/// rounds of an invocation that is at least 21 samples and about half a
/// second of set-up, spread over the whole invocation like the walls are —
/// a block of 200 back-to-back repetitions at the start measured the phase
/// the machine was in for those 200 ms (0.52 ms or 0.85 ms, run to run).
const SETUP_CHUNK_SECS: f64 = 0.07;
const SETUP_CHUNK_MIN: usize = 3;
const SETUP_CHUNK_MAX: usize = 100;
/// Each daemon set-up repetition ends with a shutdown that waits out the
/// accept loop's 50 ms idle sleep, so these are not topped up by time.
const DAEMON_SETUP_CHUNK: usize = 3;
/// Sequential submits timed for `serve.submit_ms_*`.
const SEQUENTIAL_SUBMITS: usize = 12;

/// dec vs fork-join: same search, same data split, different collectives.
const FORKJOIN_TOL: f64 = 1e-9;
/// dec vs one-rank runs under GAMMA: a different summation order end to end.
const REFERENCE_TOL: f64 = 1e-6;
/// The same under PSR, which quantises per-site rates into categories
/// within each rank's slice of a partition: the categories, and with them
/// the search path, depend on how the patterns are split over ranks (one
/// rank vs two differ by 4.5 % in final lnL on `tall_psr`). Only a sanity
/// bound is left to check.
const REFERENCE_TOL_PSR: f64 = 0.10;

struct Child {
    def: &'static WorkloadDef,
    quick: bool,
    dir: PathBuf,
    /// The alignment the search-side commands work on: the workload's own,
    /// or on `serve_flood` one job's.
    files: InputFiles,
    job_files: InputFiles,
    cfg: RunConfig,
    aln: Option<CompressedAlignment>,
    /// lnL of the first de-centralized run; every later one must match it
    /// bit for bit.
    lnl: Option<f64>,
    last_run: Option<RunSample>,
    expected_job_lnl: Option<[f64; TENANTS]>,
    job_service_ms: Vec<f64>,
    drains: Vec<serve_wl::Drain>,
    next_span_id: u64,
}

pub fn main(def: &'static WorkloadDef, dir: PathBuf, quick: bool) {
    let (files, job_files) = inputs::input_paths(&dir, def);
    let cfg = match def.kind {
        Kind::Search => def.run_config(),
        Kind::Serve => {
            let mut cfg = inputs::job_config(0);
            cfg.n_ranks = RANKS;
            cfg
        }
    };
    let mut child = Child {
        def,
        quick,
        dir,
        files,
        job_files,
        cfg,
        aln: None,
        lnl: None,
        last_run: None,
        expected_job_lnl: None,
        job_service_ms: Vec::new(),
        drains: Vec::new(),
        next_span_id: 0,
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.expect("read command");
        let reply = match line.trim() {
            "first" => child.first(),
            "rep" => child.rep(),
            "forkjoin" => child.forkjoin(),
            "reference" => child.reference(),
            "layers" => child.layers(),
            "quit" => break,
            other => panic!("unknown command {other:?}"),
        };
        let json = serde_json::to_string(&reply).expect("encode reply");
        writeln!(stdout, "{json}").expect("write reply");
        stdout.flush().expect("flush reply");
    }
}

impl Child {
    fn spans(&mut self) -> Spans {
        self.next_span_id += 1;
        Spans::new(self.next_span_id)
    }

    fn aln(&self) -> &CompressedAlignment {
        self.aln.as_ref().expect("`first` must run first")
    }

    fn expected_job_lnl(&self) -> &[f64; TENANTS] {
        self.expected_job_lnl
            .as_ref()
            .expect("direct jobs must run first")
    }

    fn drain(&mut self) -> serve_wl::Drain {
        let (spool, history, _) = serve_wl::spool_paths(&self.dir);
        self.next_span_id += 1;
        serve_wl::drain(
            &self.job_files,
            self.def.jobs(self.quick),
            self.expected_job_lnl(),
            &spool,
            &history,
            self.next_span_id,
        )
    }

    /// The first pass of a fresh process — files to final lnL once, or one
    /// drain — which is also the warm-up. Peak RSS is read right after it:
    /// that is the memory of a process doing what a user's process does.
    /// (Read after a dozen repetitions it also holds whatever the allocator
    /// kept from earlier ones: 39 MB or 61 MB on `wide_gamma`, run to run.)
    fn first(&mut self) -> Reply {
        let mut r = Reply::default();
        let mut spans = self.spans();
        let ready = search_wl::setup_once(&self.files, &self.cfg, &mut spans);
        let balance = exa_sched::balance::balance_stats(&ready.aln, &ready.assignments);
        r.set("sched.imbalance_max_over_mean", balance.imbalance);
        let batches: usize = ready.engines.iter().map(|e| e.batch_count()).sum();
        let local_parts: usize = ready.engines.iter().map(|e| e.n_partitions()).sum();
        r.set(
            "sched.batches_per_rank",
            batches as f64 / ready.engines.len() as f64,
        );
        r.set(
            "sched.batch_fill_ratio",
            local_parts as f64 / batches.max(1) as f64,
        );
        r.set(
            "phylo.clv_bytes",
            ready.engines.iter().map(|e| e.clv_bytes()).sum::<u64>() as f64,
        );
        r.set("patterns", ready.aln.total_patterns() as f64);
        r.set("phylip_bytes", ready.phylip_bytes as f64);
        self.aln = Some(ready.aln);
        drop(ready.engines);
        match self.def.kind {
            Kind::Search => {
                let sample = search_wl::run_once(&self.cfg, self.aln());
                let lnl = sample.outcome.result.lnl;
                r.check(lnl.is_finite(), || format!("first lnL is {lnl}"));
                self.lnl = Some(lnl);
                self.last_run = Some(sample);
            }
            Kind::Serve => {
                self.direct_jobs();
                let warm = self.drain();
                r.attempted += warm.attempted;
                r.failed += warm.failed;
                r.notes.extend(warm.notes);
            }
        }
        r.set("peak_rss_mb", sys::peak_rss_mb());
        r
    }

    /// Direct runs of the three job specs: the lnL each daemon job must
    /// reproduce, and the service time of one job without the daemon.
    fn direct_jobs(&mut self) {
        if self.expected_job_lnl.is_some() {
            return;
        }
        let scratch = self.dir.join("direct-job");
        let mut lnl = [0.0; TENANTS];
        for (variant, slot) in lnl.iter_mut().enumerate() {
            for _ in 0..3 {
                let (ms, l) = serve_wl::direct_job(&self.job_files, variant, &scratch);
                self.job_service_ms.push(ms);
                *slot = l;
            }
        }
        self.expected_job_lnl = Some(lnl);
    }

    /// A chunk of set-up repetitions: files → engines for the search side
    /// (its stage minima are the `bio.*` / `sched.*` timings), and on
    /// `serve_flood` the daemon's own set-up, which is the gated one there.
    fn setup_chunk(&mut self, r: &mut Reply) {
        let mut totals = Vec::new();
        let mut stage: std::collections::BTreeMap<String, f64> = Default::default();
        while totals.len() < SETUP_CHUNK_MIN
            || (totals.iter().sum::<f64>() < SETUP_CHUNK_SECS && totals.len() < SETUP_CHUNK_MAX)
        {
            let mut spans = self.spans();
            drop(search_wl::setup_once(&self.files, &self.cfg, &mut spans));
            for s in spans.finish() {
                let secs = s.dur_ns() as f64 * 1e-9;
                if s.name == "setup" {
                    totals.push(secs);
                } else {
                    let best = stage
                        .entry(format!("stage.{}", s.name))
                        .or_insert(f64::INFINITY);
                    *best = best.min(secs);
                }
            }
        }
        r.values.extend(stage);
        if self.def.kind == Kind::Serve {
            let (_, history, setup_spool) = serve_wl::spool_paths(&self.dir);
            totals = (0..DAEMON_SETUP_CHUNK)
                .map(|_| serve_wl::daemon_setup_once(&history, &setup_spool))
                .collect();
        }
        r.set("setup_s", stats::min(&totals));
        r.set("setup_reps", totals.len() as f64);
    }

    /// One round: the calibration loop, a chunk of set-up repetitions, then
    /// one timed repetition between two runs of the reference loop.
    fn rep(&mut self) -> Reply {
        let mut r = Reply::default();
        r.set("calib_ms", sys::calibrate_ms());
        self.setup_chunk(&mut r);
        let reference_before = sys::reference_ms();
        match self.def.kind {
            Kind::Search => {
                let sample = search_wl::run_once(&self.cfg, self.aln());
                let lnl = sample.outcome.result.lnl;
                let first = self.lnl.expect("`first` must run first");
                r.check(lnl.is_finite() && lnl.to_bits() == first.to_bits(), || {
                    format!("lnL {lnl} differs from the first repetition's {first}")
                });
                r.set("wall_s", sample.wall_s);
                r.set("cpu_s", sample.cpu_s);
                self.last_run = Some(sample);
            }
            Kind::Serve => {
                let cpu0 = sys::cpu_seconds();
                let mut drain = self.drain();
                r.set("wall_s", drain.wall_s);
                r.set("cpu_s", sys::cpu_seconds() - cpu0);
                r.attempted += drain.attempted;
                r.failed += drain.failed;
                r.notes.append(&mut drain.notes);
                self.drains.push(drain);
            }
        }
        r.set("ref_ms", 0.5 * (reference_before + sys::reference_ms()));
        r
    }

    fn reference_tol(&self) -> f64 {
        match self.cfg.rate_model {
            exa_phylo::model::rates::RateModelKind::Gamma => REFERENCE_TOL,
            exa_phylo::model::rates::RateModelKind::Psr => REFERENCE_TOL_PSR,
        }
    }

    fn first_lnl(&mut self) -> f64 {
        if self.lnl.is_none() {
            // `serve_flood` has no search repetition of its own; its
            // search-side checks compare against one direct two-rank run.
            let sample = search_wl::run_once(&self.cfg, self.aln());
            self.lnl = Some(sample.outcome.result.lnl);
            self.last_run = Some(sample);
        }
        self.lnl.expect("just set")
    }

    /// One fork-join run of the same configuration.
    fn forkjoin(&mut self) -> Reply {
        let mut r = Reply::default();
        let want = self.first_lnl();
        let sample = search_wl::run_once(&search_wl::forkjoin_of(&self.cfg), self.aln());
        let lnl = sample.outcome.result.lnl;
        r.check(
            lnl.is_finite() && search_wl::rel_diff(lnl, want) <= FORKJOIN_TOL,
            || format!("fork-join lnL {lnl} vs de-centralized {want}"),
        );
        let stats = &sample.outcome.comm_stats;
        let iters = sample.outcome.result.iterations.max(1) as f64;
        r.set("wall_s", sample.wall_s);
        r.set(
            "forkjoin.collectives_per_iter",
            stats.total_regions() as f64 / iters,
        );
        r.set(
            "forkjoin.bytes_per_iter",
            stats.total_bytes() as f64 / iters,
        );
        r.set(
            "forkjoin.descriptor_bytes",
            stats.get(CommCategory::TraversalDescriptor).bytes as f64,
        );
        r.set(
            "forkjoin.param_bytes",
            stats.get(CommCategory::ModelParams).bytes as f64,
        );
        r
    }

    /// The plain baseline: one rank, scalar kernels, repeats off.
    fn reference(&mut self) -> Reply {
        let mut r = Reply::default();
        let want = self.first_lnl();
        let sample = search_wl::run_once(&search_wl::reference_of(&self.cfg), self.aln());
        let lnl = sample.outcome.result.lnl;
        let tol = self.reference_tol();
        r.check(
            lnl.is_finite() && search_wl::rel_diff(lnl, want) <= tol,
            || format!("scalar single-rank lnL {lnl} vs de-centralized {want}"),
        );
        r.set("core.wall_r1_s", sample.wall_s);
        r
    }

    /// Everything per-layer that is not a by-product of the rounds: the
    /// traced repetition, the single-rank run, and the probes.
    fn layers(&mut self) -> Reply {
        let mut r = Reply::default();
        let want = self.first_lnl();

        // Exact counts of the gated run.
        let last = self.last_run.as_ref().expect("a run happened");
        let run = &last.outcome;
        let iters = run.result.iterations.max(1) as f64;
        r.set("search.iterations", run.result.iterations as f64);
        r.set(
            "core.collectives_per_iter",
            run.comm_stats.total_regions() as f64 / iters,
        );
        r.set(
            "core.comm_bytes_per_iter",
            run.comm_stats.total_bytes() as f64 / iters,
        );
        r.set("core.work_entries", run.work.total() as f64);
        r.set("core.dispatches", run.work.dispatches as f64);
        r.set("phylo.repeat_ratio", run.work.repeat_ratio());
        r.set("suite_wall_s", last.wall_s);

        // Traced repetition.
        self.next_span_id += 1;
        let traced = search_wl::traced_once(
            &self.files,
            &self.cfg,
            self.next_span_id,
            &self.dir.join("ckpt-probe"),
        );
        let lnl = traced.outcome.result.lnl;
        r.check(lnl.to_bits() == want.to_bits(), || {
            format!("traced lnL {lnl} differs from untraced {want}")
        });
        r.set("traced_run_s", traced.run_s);
        let own = spans::self_by_name(&traced.spans);
        r.set(
            "core.checkpoint_save_ms",
            own["core.checkpoint_save"] as f64 * 1e-6,
        );
        r.set(
            "core.checkpoint_load_ms",
            own["core.checkpoint_load"] as f64 * 1e-6,
        );
        let ckpt_bytes: u64 = std::fs::read_dir(self.dir.join("ckpt-probe"))
            .expect("checkpoint directory")
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        r.set("core.checkpoint_bytes", ckpt_bytes as f64);
        let root = traced
            .spans
            .iter()
            .find(|s| s.parent.is_none())
            .expect("root span");
        r.set("harness.traced_wall_s", root.dur_ns() as f64 * 1e-9);
        r.set(
            "harness.span_self_sum_pct",
            spans::layer_coverage_pct(&traced.spans),
        );
        let cp = traced
            .outcome
            .trace
            .as_ref()
            .and_then(|t| t.critical_path())
            .map(|cp| cp.summary())
            .unwrap_or_default();
        r.set("obs.cp_compute_pct", 100.0 * cp.compute_frac());
        r.set("obs.cp_collective_pct", 100.0 * cp.collective_frac());
        r.set("obs.cp_idle_pct", 100.0 * cp.straggler_frac());
        r.spans = traced.spans;

        // Same configuration on one rank: the scaling-efficiency base.
        let single = search_wl::run_once(&search_wl::single_rank_of(&self.cfg), self.aln());
        let lnl1 = single.outcome.result.lnl;
        let tol = self.reference_tol();
        r.check(
            lnl1.is_finite() && search_wl::rel_diff(lnl1, want) <= tol,
            || format!("single-rank lnL {lnl1} vs two-rank {want}"),
        );
        r.set("single_rank_wall_s", single.wall_s);

        // Layer probes on this workload's data.
        let aln = self.aln.take().expect("`first` must run first");
        layers::phylo(&aln, &self.cfg, &mut r.values);
        let n_edges = 2 * aln.n_taxa() - 3;
        layers::comm(2 * n_edges * aln.n_partitions(), self.quick, &mut r.values);
        layers::search(&aln, &self.cfg, &mut r.values);
        self.aln = Some(aln);

        self.serve_layers(&mut r);
        r
    }

    /// `serve.*`: from this workload's own drains on `serve_flood`, from one
    /// small probe drain elsewhere.
    fn serve_layers(&mut self, r: &mut Reply) {
        self.direct_jobs();
        let (spool, history, _) = serve_wl::spool_paths(&self.dir);
        let n_jobs = self.def.jobs(self.quick);
        if self.def.kind == Kind::Search {
            let mut drain = self.drain();
            r.attempted += drain.attempted;
            r.failed += drain.failed;
            r.notes.append(&mut drain.notes);
            self.drains.push(drain);
        }
        let newest = self.drains.last().expect("a drain to report");
        spans::append(&mut r.spans, newest.spans.iter().cloned());
        let typical = stats::median(&self.drains.iter().map(|d| d.wall_s).collect::<Vec<_>>());
        let pooled = |f: fn(&serve_wl::Drain) -> &Vec<f64>| -> Vec<f64> {
            self.drains
                .iter()
                .flat_map(|d| f(d).iter().copied())
                .collect()
        };
        let wait = pooled(|d| &d.wait_ms);
        let (submit, probe) = serve_wl::sequential_submits(
            &self.job_files,
            if self.quick { 4 } else { SEQUENTIAL_SUBMITS },
            self.expected_job_lnl(),
            &spool,
        );
        r.attempted += probe.attempted;
        r.failed += probe.failed;
        r.notes.extend(probe.notes);
        let urgent: Vec<f64> = self.drains.iter().map(|d| d.urgent_wait_ms).collect();
        r.set("serve.jobs_per_s", n_jobs as f64 / typical);
        r.set("serve.submit_ms_p50", stats::percentile(&submit, 50.0).0);
        r.set("serve.submit_ms_p90", stats::percentile(&submit, 90.0).0);
        r.set("serve.queue_wait_ms_p50", stats::percentile(&wait, 50.0).0);
        r.set("serve.queue_wait_ms_p90", stats::percentile(&wait, 90.0).0);
        eprintln!(
            "{}: serve percentiles over {} queue waits of {} drains and {} sequential submits",
            self.def.name,
            stats::percentile(&wait, 50.0).1,
            self.drains.len(),
            stats::percentile(&submit, 50.0).1
        );
        r.set("serve.urgent_wait_ms", stats::median(&urgent));
        r.set("serve.job_service_ms", stats::min(&self.job_service_ms));
        let appends =
            serve_wl::journal_append_us(&self.dir.join("journal-probe"), &self.job_files, 120);
        r.set(
            "serve.journal_append_us_p50",
            stats::percentile(&appends, 50.0).0,
        );
        r.set(
            "serve.journal_append_us_p90",
            stats::percentile(&appends, 90.0).0,
        );
        let replays: Vec<f64> = (0..5)
            .map(|_| serve_wl::journal_replay_ms(&history))
            .collect();
        r.set("serve.journal_replay_ms", stats::min(&replays));
    }
}
