//! The `examl` binary at its command line: exit codes and usage errors of
//! every verb's flag table, that the process environment sets no mode, and
//! that SIGTERM checkpoints a run — what only a spawned process can show
//! (the variables and the signal reach the child alone, so no test in this
//! process sees them).

use exa_obs::HeartbeatRecord;
use exa_simgen::workloads;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn examl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_examl"))
        .args(args)
        .output()
        .expect("the examl binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory holding a small PHYLIP alignment.
fn fixture(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("examl_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let w = workloads::partitioned(8, 2, 60, 41);
    let phylip = dir.join("aln.phy");
    std::fs::write(&phylip, exa_bio::phylip::write_phylip(&w.alignment)).unwrap();
    let phylip = phylip.to_str().unwrap().to_string();
    (dir, phylip)
}

#[test]
fn help_exits_zero_and_usage_errors_exit_two() {
    let out = examl(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = stderr(&out);
    assert!(help.starts_with("usage: examl "), "{help}");
    for flag in ["--ranks N", "--inject SPEC", "--quiet", "serve"] {
        assert!(help.contains(flag), "{flag} missing from:\n{help}");
    }
    // The five fault flags `--inject` replaced.
    for retired in [
        "--reduce-override",
        "--threads-override",
        "--gradient-override",
        "--inject-divergence",
        "--inject-kill",
    ] {
        assert!(!help.contains(retired), "{retired} still in:\n{help}");
    }
    let out = examl(&["serve", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stderr(&out).starts_with("usage: examl serve "));

    // `--ranks 0` used to reach the world's resize assertion: exit 101 and
    // "resize width 0 outside 1..=0".
    let (dir, phylip) = fixture("usage");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    for line in [
        vec!["--phylip", &phylip, "--ranks", "0"],
        vec!["--phylip", &phylip, "--inject", "kill:1"],
        // Faults no rank of the world could deliver: both used to exit 0
        // without firing.
        vec![
            "--phylip",
            &phylip,
            "--ranks",
            "2",
            "--checkpoint-out",
            ckpt,
            "--inject",
            "kill:1:9",
        ],
        vec![
            "--phylip",
            &phylip,
            "--ranks",
            "2",
            "--inject",
            "diverge:9:5:alpha",
            "--verify-replicas",
            "1",
        ],
        vec![
            "--phylip",
            &phylip,
            "--resize-at",
            "1:2",
            "--reduce",
            "fast",
        ],
        vec!["--phlyip", &phylip],
        // A mode is configuration: no rank can be told to compute with
        // another one.
        vec!["--phylip", &phylip, "--inject", "kernel:scalar,simd"],
        vec!["serve"],
        vec!["serve", "frobnicate"],
        vec!["serve", "status", "7"],
        vec!["serve", "status", "--to", "127.0.0.1:1"],
        vec!["serve", "submit", "--to", "127.0.0.1:1"],
        vec![
            "serve",
            "submit",
            "--to",
            "127.0.0.1:1",
            "--alignment",
            &phylip,
            "--ranks",
            "0",
        ],
        // A job carries no faults: `serve submit` takes neither `--inject`
        // nor the flags it replaced.
        vec![
            "serve",
            "submit",
            "--to",
            "127.0.0.1:1",
            "--alignment",
            &phylip,
            "--inject",
            "kill:1",
        ],
        vec![
            "serve",
            "submit",
            "--to",
            "127.0.0.1:1",
            "--alignment",
            &phylip,
            "--reduce-override",
            "fast",
        ],
        vec!["serve", "daemon"],
    ] {
        let out = examl(&line);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {err}");
        assert!(err.contains("\nusage: examl "), "{line:?}: {err}");
    }
    let out = examl(&["--phylip", &phylip, "--ranks", "0"]);
    assert!(
        stderr(&out)
            .starts_with("invalid value \"0\" for --ranks (expected a count of at least 1)"),
        "{}",
        stderr(&out)
    );
    let out = examl(&[
        "--phylip",
        &phylip,
        "--ranks",
        "2",
        "--checkpoint-out",
        ckpt,
        "--inject",
        "kill:1:9",
    ]);
    assert!(
        stderr(&out).starts_with("--inject kill:N:RANK names a rank outside the world\n"),
        "{}",
        stderr(&out)
    );
    assert!(
        !dir.join("ckpt").exists(),
        "a refused run wrote a checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The daemon's cadence flags are `examl`'s rows: what `examl` rejects the
/// daemon rejects too, instead of forcing it onto every job.
#[test]
fn daemon_cadence_flags_are_validated_like_examls() {
    let (dir, _) = fixture("cadence");
    let spool = dir.join("spool");
    for (flag, bad) in [
        ("--checkpoint-every-secs", "-1"),
        ("--checkpoint-every-secs", "0"),
        ("--checkpoint-every-secs", "inf"),
        ("--checkpoint-every-secs", "nan"),
        ("--checkpoint-keep", "0"),
        ("--checkpoint-every", "often"),
    ] {
        let out = examl(&[
            "serve",
            "daemon",
            "--spool",
            spool.to_str().unwrap(),
            flag,
            bad,
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {err}");
        assert!(
            err.starts_with(&format!("invalid value {bad:?} for {flag} ")),
            "{flag} {bad}: {err}"
        );
    }
    assert!(!spool.exists(), "a rejected daemon must not open its spool");
    std::fs::remove_dir_all(&dir).ok();
}

/// The modes the last heartbeat of a one-iteration `examl` run on
/// `phylip` reports, with `env` set on the child; the run must succeed.
fn heartbeat_modes(dir: &Path, phylip: &str, env: &[(&str, &str)]) -> BTreeMap<String, String> {
    let health = dir.join("health.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_examl"))
        .args(["--phylip", phylip, "--ranks", "2", "--iterations", "1"])
        .args(["--quiet", "--health-out", health.to_str().unwrap()])
        .envs(env.iter().copied())
        .output()
        .unwrap();
    assert!(out.status.success(), "{env:?}: {}", stderr(&out));
    let text = std::fs::read_to_string(&health).unwrap();
    let last = text.lines().last().expect("one heartbeat per iteration");
    HeartbeatRecord::from_json_line(last)
        .unwrap()
        .modes
        .unwrap()
}

/// The variables that once set the mode defaults.
const MODE_VARIABLES: [&str; 5] = [
    "EXAML_KERNEL",
    "EXAML_REDUCE",
    "EXAML_THREADS",
    "EXAML_GRADIENT",
    "EXAML_SITE_REPEATS",
];

/// A mode's default is the library's, never the process environment's:
/// the variables that once set the defaults change nothing.
#[test]
fn mode_defaults_ignore_the_environment() {
    let (dir, phylip) = fixture("env");
    let unset = heartbeat_modes(&dir, &phylip, &[]);
    assert_eq!(unset["reduce"], "fast");
    assert_eq!(unset["threads"], "1");
    assert_eq!(unset["gradient"], "on");
    assert_eq!(unset["site_repeats"], "on");
    let every_mode = [
        ("EXAML_KERNEL", "scalar"),
        ("EXAML_REDUCE", "reproducible"),
        ("EXAML_THREADS", "2"),
        ("EXAML_GRADIENT", "off"),
        ("EXAML_SITE_REPEATS", "off"),
    ];
    assert_eq!(heartbeat_modes(&dir, &phylip, &every_mode), unset);
    std::fs::remove_dir_all(&dir).ok();
}

/// A mode variable set to a value no flag accepts is no usage error of
/// `examl` or `examl serve submit`: the variable is not read at all, so
/// the run keeps its defaults and the submit fails only on the connection.
#[test]
fn a_misspelled_mode_variable_is_ignored() {
    let (dir, phylip) = fixture("bad_env");
    let unset = heartbeat_modes(&dir, &phylip, &[]);
    for var in MODE_VARIABLES {
        assert_eq!(
            heartbeat_modes(&dir, &phylip, &[(var, "smid")]),
            unset,
            "{var}"
        );
        let out = Command::new(env!("CARGO_BIN_EXE_examl"))
            .args([
                "serve",
                "submit",
                "--to",
                "127.0.0.1:1",
                "--alignment",
                &phylip,
            ])
            .env(var, "smid")
            .output()
            .unwrap();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{var}: {err}");
        assert!(
            err.starts_with("error: cannot connect to 127.0.0.1:1"),
            "{var}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// The final Newick (stdout) of a successful `examl` run on `phylip`.
#[cfg(unix)]
fn final_tree(phylip: &str, extra: &[&str]) -> String {
    let out = examl(&[&["--phylip", phylip, "--ranks", "2", "--seed", "7"], extra].concat());
    assert_eq!(out.status.code(), Some(0), "{extra:?}: {}", stderr(&out));
    String::from_utf8(out.stdout).unwrap()
}

/// SIGTERM at a checkpointing run: a final generation is committed at the
/// next iteration boundary and the process exits 4; resuming from it
/// replays an uninterrupted run of the same length bit for bit.
#[cfg(unix)]
#[test]
fn sigterm_checkpoints_and_the_resume_replays_the_run() {
    const SIGTERM: i32 = 15;
    let (dir, phylip) = fixture("sigterm");
    let ckpt = dir.join("ckpt");
    let health = dir.join("health.jsonl");
    // A negative ε never converges: the run lasts until the signal.
    let search = ["--epsilon", "-1"];
    let mut child = Command::new(env!("CARGO_BIN_EXE_examl"))
        .args(["--phylip", &phylip, "--ranks", "2", "--seed", "7"])
        .args(search)
        .args(["--iterations", "100000", "--quiet"])
        .args(["--checkpoint-out", ckpt.to_str().unwrap()])
        .args(["--health-out", health.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first heartbeat: the search is past its start-up, with its
    // signal handler installed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !std::fs::read_to_string(&health).is_ok_and(|t| t.contains('\n')) {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("no heartbeat within 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // SAFETY: `kill(2)` takes two integers and touches no memory of this
    // process; the pid is the child's, which has not been waited for.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let out = child.wait_with_output().unwrap();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(
        err.contains("interrupted: final checkpoint committed, resume with --resume"),
        "{err}"
    );
    // "run preempted at iteration boundary K (…)": resume to two
    // iterations past K.
    let boundary: usize = err
        .split("iteration boundary ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|k| k.parse().ok())
        .unwrap_or_else(|| panic!("no preemption boundary in: {err}"));
    let iterations = (boundary + 2).to_string();
    let length = ["--iterations", iterations.as_str()];
    let resumed = final_tree(
        &phylip,
        &[&search[..], &length, &["--resume", ckpt.to_str().unwrap()]].concat(),
    );
    assert_eq!(
        resumed,
        final_tree(&phylip, &[&search[..], &length].concat())
    );
    std::fs::remove_dir_all(&dir).ok();
}
