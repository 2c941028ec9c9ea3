//! `examl-benchmark` — one low-noise benchmark of examl-rs: three gated
//! end-to-end metrics on four pinned workloads, per-layer probes by crate,
//! and a self-checked A/A bound. See `benchmark/README.md`.

mod child;
mod inputs;
mod layers;
mod metrics;
mod parent;
mod report;
mod search_wl;
mod serve_wl;
mod spans;
mod stats;
mod sys;

use parent::{Mode, Options};
use std::path::PathBuf;

const USAGE: &str = "\
usage: examl-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
       examl-benchmark manifest
       examl-benchmark compare FIRST.json SECOND.json
       examl-benchmark validate BENCHMARK.json RESULT.json

  --workload W   run one workload (wide_gamma, manypart_gamma, tall_psr, serve_flood); default all four
  --seed S       seed of the simulated alignments (default pinned)
  --seconds N    budget of the timed rounds per workload (default 26; 1.5 with --quick)
  --trace 0|1    0: end-to-end metrics only; 1: per-layer metrics; default both
  --quick        reduced sizes, a smoke test whose numbers are never comparable
  --out FILE     where to write the full result JSON (default benchmark/out/result.json)

With --workload and --trace the last line of stdout is the driver's object
{correct, attempted, failed, metrics}; otherwise it is the full result.";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == name)?;
        if i + 1 >= self.0.len() {
            fail(&format!("{name} needs a value"));
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad value for {name}: {v}")))
        })
    }

    fn done(self) {
        if let Some(extra) = self.0.first() {
            fail(&format!("unexpected argument {extra}"));
        }
    }
}

fn workload_arg(args: &mut Args) -> Option<&'static inputs::WorkloadDef> {
    args.value("--workload")
        .map(|w| inputs::workload(&w).unwrap_or_else(|| fail(&format!("unknown workload {w}"))))
}

fn main() {
    let mut args = Args(std::env::args().skip(1).collect());
    match args.0.first().map(String::as_str) {
        Some("exec") => {
            args.0.remove(0);
            let def = workload_arg(&mut args).unwrap_or_else(|| fail("exec needs --workload"));
            let dir: PathBuf = args
                .parsed("--dir")
                .unwrap_or_else(|| fail("exec needs --dir"));
            let quick = args.flag("--quick");
            args.done();
            child::main(def, dir, quick);
        }
        Some("manifest") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&metrics::manifest()).expect("encode manifest")
            );
        }
        Some("compare") => {
            if args.0.len() != 3 {
                fail("compare needs two result files");
            }
            if !report::compare(&args.0[1], &args.0[2]) {
                std::process::exit(1);
            }
        }
        Some("validate") => {
            if args.0.len() != 3 {
                fail("validate needs BENCHMARK.json and a result file");
            }
            let problems = report::validate(&args.0[1], &args.0[2]);
            for p in &problems {
                eprintln!("invalid: {p}");
            }
            if !problems.is_empty() {
                std::process::exit(1);
            }
            println!("valid: {} and {}", args.0[1], args.0[2]);
        }
        Some("--help" | "-h") => println!("{USAGE}"),
        _ => bench(args),
    }
}

fn bench(mut args: Args) {
    let one = workload_arg(&mut args);
    let trace: Option<u8> = args.parsed("--trace");
    let mode = match trace {
        None => Mode::Both,
        Some(0) => Mode::EndToEnd,
        Some(1) => Mode::Layers,
        Some(other) => fail(&format!("--trace takes 0 or 1, not {other}")),
    };
    let quick = args.flag("--quick");
    let default_seconds = if quick {
        1.5
    } else {
        metrics::RUN_SECONDS as f64
    };
    let opts = Options {
        workloads: one.map_or_else(|| inputs::WORKLOADS.iter().collect(), |w| vec![w]),
        seed: args.parsed("--seed").unwrap_or(inputs::DEFAULT_SEED),
        seconds: args.parsed("--seconds").unwrap_or(default_seconds),
        mode,
        quick,
    };
    let out_file: Option<PathBuf> = args.parsed("--out");
    args.done();

    let (results, spans) = parent::run(&opts);
    let out_dir = parent::out_dir();
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    if mode != Mode::EndToEnd {
        let json = serde_json::to_string(&spans).expect("encode spans");
        std::fs::write(out_dir.join("spans.json"), json).expect("write spans.json");
    }
    report::print_table(&opts, &results);
    let full = report::full_result(&opts, &results, &out_dir);
    std::fs::write(
        out_file.unwrap_or_else(|| out_dir.join("result.json")),
        serde_json::to_string_pretty(&full).expect("encode result"),
    )
    .expect("write result file");
    let last_line = match (one, trace) {
        (Some(_), Some(_)) => report::driver_line(&results[0], mode),
        _ => full,
    };
    println!(
        "{}",
        serde_json::to_string(&last_line).expect("encode last line")
    );
    // A driver reads `correct` from the line above; a person (and the
    // scripts) get a failing exit status.
    if trace.is_none() && results.iter().any(|r| r.failed > 0) {
        std::process::exit(1);
    }
}
