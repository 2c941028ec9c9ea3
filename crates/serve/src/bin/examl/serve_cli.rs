//! `examl serve` — daemon mode and client verbs for `exa-serve`.
//!
//! ```text
//! examl serve daemon --spool DIR [--listen 127.0.0.1:0] [--workers N] ...
//! examl serve submit --to ADDR --alignment FILE [--tenant T] [--priority P] ...
//! examl serve status|cancel|wait --to ADDR ID
//! examl serve resize --to ADDR N
//! examl serve list|health|metrics|shutdown --to ADDR
//! ```
//!
//! The daemon prints `listening on <addr>` once the socket is bound (with
//! `--listen …:0` the OS picks the port, so scripts parse this line), then
//! serves until SIGINT/SIGTERM or a `shutdown` request — either way running
//! jobs are checkpoint-preempted and re-queued in the journal, so the next
//! daemon on the same spool resumes them.

use exa_search::SearchConfig;
use exa_serve::client::Client;
use exa_serve::daemon::{Daemon, DaemonConfig};
use exa_serve::scheduler::TenantConfig;
use exa_serve::{http, signal, JobSpec, JobStatus};
use examl_core::RunConfig;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: examl serve <verb> [options]\n\
verbs:\n\
  daemon     run the inference daemon\n\
    --spool DIR             job journal + per-job state (required)\n\
    --listen ADDR           bind address (default 127.0.0.1:0; the chosen\n\
                            address is printed as `listening on ADDR`)\n\
    --workers N             concurrent runs (default 2)\n\
    --quantum N             scheduler quantum (default 1)\n\
    --tenant NAME:WEIGHT[:MAX_RUNNING]\n\
                            per-tenant fair-share weight and quota\n\
                            (repeatable; default weight 1, no quota)\n\
    --checkpoint-every N    per-job iteration checkpoint cadence (default 1)\n\
    --checkpoint-every-secs S  per-job time cadence\n\
    --checkpoint-keep N     generations retained per job (default 3)\n\
  submit     submit a job; prints the job id\n\
    --to ADDR               daemon address (required)\n\
    --alignment FILE        .exml binary or PHYLIP/FASTA text (required)\n\
    --partitions FILE       RAxML-style partition file\n\
    --tenant NAME           tenant to bill (default \"default\")\n\
    --priority N            priority class, higher preempts (default 0)\n\
    --cost N                scheduler cost estimate (default 1)\n\
    --ranks N --iterations N --radius N --epsilon X --seed N\n\
                            forwarded into the job's RunConfig\n\
    --trace                 collect the job's trace; GET /trace/ID serves\n\
                            it as Chrome JSON once the job completed\n\
  status ID  print one job as JSON        cancel ID   cancel a job\n\
  wait ID    block until terminal [--timeout-secs S (default 600)]\n\
  resize N   retarget the worker pool to N threads (grow spawns now;\n\
             shrink lets excess workers drain after their current job)\n\
  list       print all jobs as JSON\n\
  health     print daemon gauges [--stream N [--interval-ms M]]\n\
  metrics    print the daemon's Prometheus text-format snapshot\n\
  shutdown   checkpoint running jobs and stop the daemon";

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let mut it = args.into_iter();
    let verb = match it.next() {
        Some(v) => v,
        None => return fail("missing serve verb"),
    };
    let rest: Vec<String> = it.collect();
    match verb.as_str() {
        "daemon" => daemon_main(rest),
        "submit" => submit_main(rest),
        "status" => id_verb(rest, |c, id| c.status(id).map(print_status)),
        "cancel" => id_verb(rest, |c, id| {
            c.cancel(id).map(|hit| println!("cancelled: {hit}"))
        }),
        "wait" => wait_main(rest),
        "list" => client_verb(rest, |c| {
            c.list().map(|jobs| jobs.iter().for_each(print_status_ref))
        }),
        "health" => health_main(rest),
        "resize" => id_verb(rest, |c, n| {
            c.resize(n)
                .map(|(previous, new)| println!("workers: {previous} -> {new}"))
        }),
        "metrics" => client_verb(rest, |c| c.metrics().map(|text| print!("{text}"))),
        "shutdown" => client_verb(rest, |c| {
            c.shutdown().map(|()| println!("shutdown requested"))
        }),
        "--help" | "-h" => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown serve verb {other:?}")),
    }
}

fn print_status(st: JobStatus) {
    print_status_ref(&st);
}

fn print_status_ref(st: &JobStatus) {
    println!(
        "{}",
        serde_json::to_string(st).expect("status serialization cannot fail")
    );
}

/// Pull `--to ADDR` out of an argument list, returning the client and the
/// remaining arguments.
fn split_to(args: Vec<String>) -> Result<(Client, Vec<String>), String> {
    let mut rest = Vec::new();
    let mut addr = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--to" {
            addr = Some(it.next().ok_or("missing value for --to")?);
        } else {
            rest.push(a);
        }
    }
    let addr = addr.ok_or("missing --to ADDR")?;
    Ok((Client::new(addr), rest))
}

fn client_verb(args: Vec<String>, f: impl FnOnce(&Client) -> Result<(), String>) -> ExitCode {
    let (client, rest) = match split_to(args) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    if let Some(extra) = rest.first() {
        return fail(&format!("unexpected argument {extra:?}"));
    }
    match f(&client) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn id_verb(args: Vec<String>, f: impl FnOnce(&Client, u64) -> Result<(), String>) -> ExitCode {
    let (client, rest) = match split_to(args) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let id = match rest.first().map(|s| s.parse::<u64>()) {
        Some(Ok(id)) => id,
        _ => return fail("expected a numeric job ID"),
    };
    match f(&client, id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn wait_main(args: Vec<String>) -> ExitCode {
    let (client, rest) = match split_to(args) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let mut id = None;
    let mut timeout = Duration::from_secs(600);
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeout-secs" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => timeout = Duration::from_secs(s),
                _ => return fail("bad --timeout-secs"),
            },
            other => match other.parse::<u64>() {
                Ok(n) => id = Some(n),
                Err(_) => return fail(&format!("unexpected argument {other:?}")),
            },
        }
    }
    let Some(id) = id else {
        return fail("expected a numeric job ID");
    };
    match client.wait(id, timeout) {
        Ok(st) => {
            print_status(st);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn health_main(args: Vec<String>) -> ExitCode {
    let (client, rest) = match split_to(args) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let mut stream = None;
    let mut interval_ms = 200;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stream" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => stream = Some(n),
                _ => return fail("bad --stream count"),
            },
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => interval_ms = n,
                _ => return fail("bad --interval-ms"),
            },
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }
    let result = match stream {
        None => client.health().map(|hb| println!("{}", hb.to_json_line())),
        Some(n) => client.stream_health(n, interval_ms).map(|hbs| {
            for hb in hbs {
                println!("{}", hb.to_json_line());
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn submit_main(args: Vec<String>) -> ExitCode {
    let (client, rest) = match split_to(args) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let mut alignment = None;
    let mut partitions = None;
    let mut tenant = "default".to_string();
    let mut priority = 0u32;
    let mut cost = 1u64;
    let mut ranks = 2usize;
    let mut search = SearchConfig::default();
    let mut seed = 42u64;
    let mut trace = false;
    let mut it = rest.into_iter();
    macro_rules! val {
        ($flag:expr) => {
            match it.next() {
                Some(v) => v,
                None => return fail(&format!("missing value for {}", $flag)),
            }
        };
    }
    macro_rules! num {
        ($flag:expr) => {
            match val!($flag).parse() {
                Ok(v) => v,
                Err(_) => return fail(&format!("bad value for {}", $flag)),
            }
        };
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--alignment" => alignment = Some(std::path::PathBuf::from(val!("--alignment"))),
            "--partitions" => partitions = Some(std::path::PathBuf::from(val!("--partitions"))),
            "--tenant" => tenant = val!("--tenant"),
            "--priority" => priority = num!("--priority"),
            "--cost" => cost = num!("--cost"),
            "--ranks" => ranks = num!("--ranks"),
            "--iterations" => search.max_iterations = num!("--iterations"),
            "--radius" => search.spr_radius = num!("--radius"),
            "--epsilon" => search.epsilon = num!("--epsilon"),
            "--seed" => seed = num!("--seed"),
            "--trace" => trace = true,
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(alignment) = alignment else {
        return fail("missing --alignment FILE");
    };
    let spec = JobSpec {
        tenant,
        priority,
        cost,
        alignment,
        partitions,
        config: RunConfig::new(ranks)
            .search(search)
            .seed(seed)
            .collect_trace(trace),
    };
    match client.submit(&spec) {
        Ok(id) => {
            println!("{id}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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
    let mut listen = "127.0.0.1:0".to_string();
    let mut spool = None;
    let mut cfg_workers = 2usize;
    let mut quantum = 1u64;
    let mut tenants = Vec::new();
    let mut checkpoint_every = 1usize;
    let mut checkpoint_every_secs = None;
    let mut checkpoint_keep = examl_core::checkpoint::KEEP_GENERATIONS;
    let mut it = args.into_iter();
    macro_rules! val {
        ($flag:expr) => {
            match it.next() {
                Some(v) => v,
                None => return fail(&format!("missing value for {}", $flag)),
            }
        };
    }
    macro_rules! num {
        ($flag:expr) => {
            match val!($flag).parse() {
                Ok(v) => v,
                Err(_) => return fail(&format!("bad value for {}", $flag)),
            }
        };
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = val!("--listen"),
            "--spool" => spool = Some(std::path::PathBuf::from(val!("--spool"))),
            "--workers" => cfg_workers = num!("--workers"),
            "--quantum" => quantum = num!("--quantum"),
            "--tenant" => {
                let spec = val!("--tenant");
                match parse_tenant(&spec) {
                    Some(t) => tenants.push(t),
                    None => return fail(&format!("bad --tenant {spec:?}")),
                }
            }
            "--checkpoint-every" => checkpoint_every = num!("--checkpoint-every"),
            "--checkpoint-every-secs" => {
                checkpoint_every_secs = Some(num!("--checkpoint-every-secs"))
            }
            "--checkpoint-keep" => checkpoint_keep = num!("--checkpoint-keep"),
            other => return fail(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(spool) = spool else {
        return fail("missing --spool DIR");
    };
    let cfg = DaemonConfig {
        workers: cfg_workers,
        quantum,
        tenants,
        checkpoint_every,
        checkpoint_every_secs,
        checkpoint_keep,
        ..DaemonConfig::new(spool)
    };
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
