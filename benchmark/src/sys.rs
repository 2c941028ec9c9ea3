//! What the harness reads from the machine: process CPU time and peak RSS
//! from `/proc`, the calibration loop, and the facts about the box that a
//! reader needs to compare two result sets.

use std::path::Path;
use std::time::Instant;

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture this runs on (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' come state (field 3), ...; utime and stime are fields 14, 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A fixed single-thread chain of dependent multiply-adds (about 40 ms on
/// the reference box). It touches no memory and calls nothing, so its time
/// moves only when the machine does: timed before every repetition, it
/// lets a reader of two disagreeing result sets tell a slower program from
/// a slower box.
pub fn calibrate_ms() -> f64 {
    const STEPS: u64 = 25_000_000;
    let t0 = Instant::now();
    let mut x = std::hint::black_box(1.0f64);
    for _ in 0..STEPS {
        x = x * 1.000_000_1 + 1e-9;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// What the reference loop takes on the reference box in its busier state
/// (67–70 ms in its quiet one). Scaling by `REFERENCE_NOMINAL_MS /
/// reference_ms()` turns a wall measured now into the wall of that state,
/// so scaled and raw seconds are of one size.
pub const REFERENCE_NOMINAL_MS: f64 = 85.0;

/// The reference loop: two threads, each making `REFERENCE_PASSES`
/// multiply-add passes over its own L2-resident buffer between
/// mutex + condvar barriers — the shape of a two-rank run (kernels over
/// CLVs, then a collective), frozen here so that it changes only when the
/// machine does. Timed right before and right after every repetition; the
/// repetition's wall is divided by it (`stats::scaled`).
///
/// Why the gated wall needs it: on this shared box the speed of a *pair* of
/// busy vCPUs drifts by 25 % over minutes while a single thread's does not
/// (`calibrate_ms` stayed at 47 ms through all of it). Over twelve 100 s
/// runs spread over 25 minutes, chunks of 30 repetitions had raw medians
/// with an interquartile range of 9 % / 14 % / 25 % / 17 % of their median
/// (`wide_gamma` / `manypart_gamma` / `tall_psr` / `serve_flood`) and scaled
/// medians with 5 % / 5 % / 7 % / 4 %.
pub fn reference_ms() -> f64 {
    const ROUNDS: u64 = 1200;
    const REFERENCE_PASSES: usize = 3;
    const DOUBLES: usize = 64 * 1024;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let work = move |barrier: &std::sync::Barrier| {
        let mut v = vec![1.0f64; DOUBLES];
        barrier.wait();
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            let k = 1.0 + round as f64 * 1e-12;
            for _ in 0..REFERENCE_PASSES {
                for x in v.iter_mut() {
                    *x = *x * k + 1e-9;
                }
            }
            barrier.wait();
        }
        std::hint::black_box(&v);
        t0.elapsed().as_secs_f64() * 1e3
    };
    let other = {
        let barrier = barrier.clone();
        std::thread::spawn(move || work(&barrier))
    };
    let mine = work(&barrier);
    mine.max(other.join().expect("reference thread"))
}

/// Size of cache `index` of cpu0 as sysfs prints it (`48K`, `2048K`).
fn cache_size(index: usize) -> Option<String> {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
    let kind = std::fs::read_to_string(format!("{base}/type")).ok()?;
    let size = std::fs::read_to_string(format!("{base}/size")).ok()?;
    Some(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()))
}

/// Cache hierarchy of cpu0, one entry per cache.
pub fn cache_sizes() -> Vec<String> {
    (0..8).map_while(cache_size).collect()
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`). Journal and checkpoint fsyncs cost what this
/// filesystem makes them cost.
pub fn filesystem_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5, "a running test process holds some RSS");
        let before = cpu_seconds();
        let ms = calibrate_ms();
        assert!(ms > 1.0, "calibration loop was optimised away: {ms} ms");
        assert!(cpu_seconds() >= before);
        assert_ne!(filesystem_type(Path::new("/")), "unknown");
    }
}
