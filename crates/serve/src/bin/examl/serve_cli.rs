//! `examl serve` — daemon mode and client verbs for `exa-serve`.
//!
//! `examl serve --help` lists the verbs and their flags; like `examl`'s own
//! it is rendered from the tables that parse them (`examl_core::cli`).
//!
//! The daemon prints `listening on <addr>` once the socket is bound (with
//! `--listen …:0` the OS picks the port, so scripts parse this line), then
//! serves until SIGINT/SIGTERM or a `shutdown` request — either way running
//! jobs are checkpoint-preempted and re-queued in the journal, so the next
//! daemon on the same spool resumes them.

use exa_serve::client::Client;
use exa_serve::daemon::{Daemon, DaemonConfig};
use exa_serve::scheduler::TenantConfig;
use exa_serve::{http, signal, JobSpec, JobStatus};
use examl_core::cli::{self, count, set, CliError, Flag};
use examl_core::RunConfig;
use std::process::ExitCode;
use std::time::Duration;

/// What `examl serve daemon` is told.
struct DaemonArgs {
    listen: String,
    cfg: DaemonConfig,
}

fn daemon_flags() -> Vec<Flag<DaemonArgs>> {
    type Row = Flag<DaemonArgs>;
    let mut rows = vec![
        Row::new("--spool DIR", |d, v| set(&mut d.cfg.spool, Ok(v.into())))
            .help("job journal + per-job state")
            .required(),
        Row::new("--listen ADDR", |d, v| set(&mut d.listen, Ok(v.into())))
            .help("bind address (default 127.0.0.1:0, any free port)"),
        Row::new("--workers N", |d, v| set(&mut d.cfg.workers, count(v)))
            .help("concurrent runs (default 2)"),
        Row::new("--tenant NAME:WEIGHT[:MAX_RUNNING]", |d, v| {
            let tenant = parse_tenant(v).ok_or("NAME:WEIGHT[:MAX_RUNNING]")?;
            d.cfg.tenants.push(tenant);
            Ok(())
        })
        .help("fair-share weight and quota of a tenant (repeatable)"),
    ];
    // Forced onto every job, so spelled and validated like `examl`'s own.
    rows.extend(cli::cadence_flags(
        |d: &mut DaemonArgs, n| d.cfg.checkpoint_every = n,
        |d, secs| d.cfg.checkpoint_every_secs = Some(secs),
        |d, n| d.cfg.checkpoint_keep = n,
    ));
    rows
}

/// What a client verb is told: where the daemon is, and whichever of the
/// rest the verb's table accepts.
struct ClientArgs {
    to: String,
    /// The verb's positional number: a job id, or `resize`'s pool size.
    id: u64,
    timeout_secs: u64,
    stream: Option<u64>,
    interval_ms: u64,
    /// `submit`'s job; its run starts from 2 ranks and a random tree.
    spec: JobSpec,
}

type Row = Flag<ClientArgs>;

/// The verb's positional number, `ID` or `N`.
fn positional(name: &'static str) -> Row {
    Row::new(name, |a, v| set(&mut a.id, count(v))).required()
}

/// `submit`'s own flags; it takes every run flag of `examl` besides.
fn submit_flags() -> Vec<Row> {
    vec![
        Row::new("--alignment FILE", |a, v| {
            set(&mut a.spec.alignment, Ok(v.into()))
        })
        .help(".exml binary or PHYLIP/FASTA text")
        .required(),
        cli::partitions_flag(|a: &mut ClientArgs| &mut a.spec.partitions),
        Row::new("--tenant NAME", |a, v| {
            set(&mut a.spec.tenant, Ok(v.into()))
        })
        .help("tenant to bill (default \"default\")"),
        Row::new("--priority N", |a, v| set(&mut a.spec.priority, count(v)))
            .help("priority class, higher preempts (default 0)"),
        Row::new("--cost N", |a, v| set(&mut a.spec.cost, count(v)))
            .help("scheduler cost estimate (default 1)"),
        Row::new("--trace", |a, _| {
            set(&mut a.spec.config.collect_trace, Ok(true))
        })
        .help("collect the job's trace, served at /trace/ID"),
    ]
}

/// One client verb: its line in `--help`, the flags it takes besides
/// `--to` (and, when it describes a job, besides `examl`'s run flags), and
/// what it asks of the daemon.
struct Verb {
    name: &'static str,
    about: &'static str,
    flags: fn() -> Vec<Row>,
    job: bool,
    run: fn(&Client, ClientArgs) -> Result<(), String>,
}

const VERBS: [Verb; 9] = [
    Verb {
        name: "submit",
        about: "submit a job; prints the job id",
        flags: submit_flags,
        job: true,
        run: |c, a| c.submit(&a.spec).map(|id| println!("{id}")),
    },
    Verb {
        name: "status",
        about: "print one job as JSON",
        flags: || vec![positional("ID")],
        job: false,
        run: |c, a| c.status(a.id).map(|st| print_status(&st)),
    },
    Verb {
        name: "cancel",
        about: "cancel a job",
        flags: || vec![positional("ID")],
        job: false,
        run: |c, a| c.cancel(a.id).map(|hit| println!("cancelled: {hit}")),
    },
    Verb {
        name: "wait",
        about: "block until the job is terminal (default 600 s)",
        flags: || {
            vec![
                positional("ID"),
                Row::new("--timeout-secs S", |a, v| {
                    set(&mut a.timeout_secs, count(v))
                }),
            ]
        },
        job: false,
        run: |c, a| {
            c.wait(a.id, Duration::from_secs(a.timeout_secs))
                .map(|st| print_status(&st))
        },
    },
    Verb {
        name: "resize",
        about: "set the worker pool to N threads; excess workers finish their job first",
        flags: || vec![positional("N")],
        job: false,
        run: |c, a| {
            c.resize(a.id)
                .map(|(previous, new)| println!("workers: {previous} -> {new}"))
        },
    },
    Verb {
        name: "list",
        about: "print all jobs as JSON",
        flags: Vec::new,
        job: false,
        run: |c, _| c.list().map(|jobs| jobs.iter().for_each(print_status)),
    },
    Verb {
        name: "health",
        about: "daemon gauges; N samples, M ms apart (default 200)",
        flags: || {
            vec![
                Row::new("--stream N", |a, v| set(&mut a.stream, count(v).map(Some))),
                Row::new("--interval-ms M", |a, v| set(&mut a.interval_ms, count(v))),
            ]
        },
        job: false,
        run: |c, a| {
            let samples = match a.stream {
                None => vec![c.health()?],
                Some(n) => c.stream_health(n, a.interval_ms)?,
            };
            samples
                .iter()
                .for_each(|hb| println!("{}", hb.to_json_line()));
            Ok(())
        },
    },
    Verb {
        name: "metrics",
        about: "print the daemon's Prometheus text-format snapshot",
        flags: Vec::new,
        job: false,
        run: |c, _| c.metrics().map(|text| print!("{text}")),
    },
    Verb {
        name: "shutdown",
        about: "checkpoint running jobs and stop the daemon",
        flags: Vec::new,
        job: false,
        run: |c, _| c.shutdown().map(|()| println!("shutdown requested")),
    },
];

fn usage() -> String {
    let mut out = String::from("usage: examl serve <verb> [options]\n");
    out += &cli::help_entry(
        "  daemon",
        "run the inference daemon; prints `listening on ADDR`",
        27,
    );
    out += &cli::usage(&daemon_flags(), 4);
    out += "client verbs, each with --to ADDR (the daemon's address):\n";
    for verb in &VERBS {
        // Flags that need no explanation sit in the verb's synopsis, the
        // others in a table below it.
        let (table, inline): (Vec<_>, Vec<_>) =
            (verb.flags)().into_iter().partition(|f| !f.help.is_empty());
        let mut synopsis = format!("  {}", verb.name);
        for f in inline {
            synopsis += &match (f.required, f.value) {
                (true, _) => format!(" {}", f.name),
                (false, "") => format!(" [{}]", f.name),
                (false, value) => format!(" [{} {value}]", f.name),
            };
        }
        out += &cli::help_entry(&synopsis, verb.about, 30);
        out += &cli::usage(&table, 4);
        if verb.job {
            let run = cli::run_flags();
            let (first, last) = (run[0].name, run[run.len() - 1].name);
            out += &format!(
                "    and the run flags of `examl --help`, {first} to {last}\n    \
                 (a job starts from 2 ranks and a random tree)\n"
            );
        }
    }
    out
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprint!("{}", usage());
    ExitCode::from(2)
}

/// Parse a verb's arguments into `target`; a usage problem is this
/// process's exit code.
fn parse_or_exit<T>(rows: &[Flag<T>], target: &mut T, args: Vec<String>) -> Result<(), ExitCode> {
    match cli::parse(rows, target, args) {
        Ok(()) => Ok(()),
        Err(CliError::Help) => {
            eprint!("{}", usage());
            Err(ExitCode::SUCCESS)
        }
        Err(e) => Err(fail(&e.to_string())),
    }
}

pub fn main(mut args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        return fail("missing serve verb");
    }
    let name = args.remove(0);
    if name == "daemon" {
        return daemon_main(args);
    }
    if name == "--help" || name == "-h" {
        eprint!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(verb) = VERBS.iter().find(|v| v.name == name) else {
        return fail(&format!("unknown serve verb {name:?}"));
    };
    let mut parsed = ClientArgs {
        to: String::new(),
        id: 0,
        timeout_secs: 600,
        stream: None,
        interval_ms: 200,
        spec: JobSpec {
            tenant: "default".into(),
            priority: 0,
            cost: 1,
            alignment: Default::default(),
            partitions: None,
            config: RunConfig::new(2),
        },
    };
    let mut rows = vec![Row::new("--to ADDR", |a, v| set(&mut a.to, Ok(v.into()))).required()];
    rows.extend((verb.flags)());
    if verb.job {
        let job = cli::run_flags().into_iter();
        rows.extend(job.map(|f| f.within(|a: &mut ClientArgs| &mut a.spec.config)));
    }
    if let Err(code) = parse_or_exit(&rows, &mut parsed, args) {
        return code;
    }
    if let Err(why) = parsed.spec.config.validate() {
        return fail(why);
    }
    match (verb.run)(&Client::new(parsed.to.clone()), parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_status(st: &JobStatus) {
    println!(
        "{}",
        serde_json::to_string(st).expect("status serialization cannot fail")
    );
}

fn parse_tenant(spec: &str) -> Option<(String, TenantConfig)> {
    let mut parts = spec.splitn(3, ':');
    let name = parts.next()?.to_string();
    let weight: u64 = parts.next()?.parse().ok()?;
    let max_running = match parts.next() {
        Some(m) => m.parse().ok()?,
        None => usize::MAX,
    };
    Some((
        name,
        TenantConfig {
            weight,
            max_running,
        },
    ))
}

fn daemon_main(args: Vec<String>) -> ExitCode {
    let mut parsed = DaemonArgs {
        listen: "127.0.0.1:0".into(),
        cfg: DaemonConfig::new(""),
    };
    if let Err(code) = parse_or_exit(&daemon_flags(), &mut parsed, args) {
        return code;
    }
    let DaemonArgs { listen, cfg } = parsed;
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match std::net::TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            daemon.shutdown();
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(_) => println!("listening on {listen}"),
    }
    // Scripts parse the line above from a pipe — don't let it sit in the
    // block buffer until shutdown.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    signal::install();
    let accept = http::spawn(daemon.clone(), listener);
    // Serve until a termination signal or a client shutdown request. The
    // signal handler can only set a flag, so that one is polled; a client's
    // shutdown ends the wait at once.
    while !signal::termination_requested() && !daemon.wait_shutdown(Duration::from_millis(100)) {}
    daemon.shutdown();
    let _ = accept.join();
    eprintln!("daemon stopped (running jobs checkpointed and re-queued)");
    ExitCode::SUCCESS
}
