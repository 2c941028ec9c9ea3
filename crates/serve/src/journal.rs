//! The daemon's crash-safe job journal.
//!
//! Every job state transition is one JSON line appended to
//! `<spool>/journal.jsonl` and fsynced before the transition takes effect
//! anywhere else — the journal *is* the queue's durable state. On startup
//! the daemon replays the journal: terminal jobs are remembered for status
//! queries, queued jobs re-enter the scheduler, and jobs that were running
//! when the process died are re-queued (their next dispatch resumes from
//! the newest intact checkpoint generation in the job's spool directory,
//! exactly like `--resume`).
//!
//! A torn final line — the append that was racing the crash, anything after
//! the last `\n` — is dropped during replay and cut off the file before it
//! is reopened for appending, so the next event starts a line of its own;
//! every earlier line was fsynced before being acted on, so nothing else
//! can be torn. [`Journal::compact`] rewrites the
//! file through [`examl_core::checkpoint::atomic_write`], the same
//! two-phase commit (unique tmp + fsync + rename + directory fsync) the
//! checkpoint layer uses, so a crash mid-compaction leaves the old journal
//! intact.

use crate::{JobId, JobSpec};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One durable job state transition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalEvent {
    /// Job admitted with its full spec (boxed: a spec dwarfs every other
    /// variant).
    Submitted { id: JobId, spec: Box<JobSpec> },
    /// Dispatched to a worker (initial run or resume).
    Started { id: JobId },
    /// Checkpoint-preempted and re-queued.
    Preempted { id: JobId },
    /// Cancelled (from the queue, or via preemption while running).
    Cancelled { id: JobId },
    /// Finished with a final likelihood.
    Completed {
        id: JobId,
        lnl: f64,
        iterations: u64,
    },
    /// The run returned an error.
    Failed { id: JobId, error: String },
}

impl JournalEvent {
    /// The job this event belongs to.
    pub fn id(&self) -> JobId {
        match self {
            JournalEvent::Submitted { id, .. }
            | JournalEvent::Started { id }
            | JournalEvent::Preempted { id }
            | JournalEvent::Cancelled { id }
            | JournalEvent::Completed { id, .. }
            | JournalEvent::Failed { id, .. } => *id,
        }
    }
}

/// Append handle on the journal file. Opening replays existing events.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// When set, every append's write+flush+fdatasync latency is observed
    /// here (milliseconds). The daemon wires its
    /// `exa_journal_fsync_ms` instrument in after opening.
    fsync_ms: Option<std::sync::Arc<exa_obs::metrics::Histogram>>,
}

impl Journal {
    /// Journal file inside a spool directory.
    pub fn path_in(spool: &Path) -> PathBuf {
        spool.join("journal.jsonl")
    }

    /// Open (creating if absent) the journal in `spool`, returning the
    /// handle and the replayed events. A torn final line (no `\n` after it:
    /// its append never returned, so nothing acted on it) is dropped and
    /// truncated away; a malformed complete line is a hard error, since
    /// only the last append can legitimately be interrupted.
    pub fn open(spool: &Path) -> std::io::Result<(Journal, Vec<JournalEvent>)> {
        std::fs::create_dir_all(spool)?;
        let path = Self::path_in(spool);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let complete = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let text = std::str::from_utf8(&bytes[..complete]).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("journal: {e}"))
        })?;
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev = serde_json::from_str::<JournalEvent>(line).map_err(|e| {
                std::io::Error::other(format!("corrupt journal line {}: {e}", i + 1))
            })?;
            events.push(ev);
        }
        if complete < bytes.len() {
            // The crash tore the final append mid-line: cut it off, or the
            // next append would be glued onto it.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(complete as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal {
                path,
                file,
                fsync_ms: None,
            },
            events,
        ))
    }

    /// Observe every future append's durability latency in `hist`.
    pub fn set_fsync_histogram(&mut self, hist: std::sync::Arc<exa_obs::metrics::Histogram>) {
        self.fsync_ms = Some(hist);
    }

    /// Durably append one event: write the line, flush, fsync. The caller
    /// must not act on the transition before this returns.
    pub fn append(&mut self, ev: &JournalEvent) -> std::io::Result<()> {
        let line = serde_json::to_string(ev)
            .map_err(|e| std::io::Error::other(format!("journal encode: {e}")))?;
        let t0 = std::time::Instant::now();
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        let res = self.file.sync_data();
        if let Some(h) = &self.fsync_ms {
            h.observe(t0.elapsed().as_secs_f64() * 1e3);
        }
        res
    }

    /// Append to `path` from now on: `/dev/full` makes every append fail.
    #[cfg(test)]
    pub(crate) fn redirect(&mut self, path: &Path) -> std::io::Result<()> {
        self.file = OpenOptions::new().append(true).open(path)?;
        Ok(())
    }

    /// Atomically replace the journal with `events` (dropping history for
    /// terminal jobs), then reopen for appending.
    pub fn compact(&mut self, events: &[JournalEvent]) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        for ev in events {
            let line = serde_json::to_string(ev)
                .map_err(|e| std::io::Error::other(format!("journal encode: {e}")))?;
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        examl_core::checkpoint::atomic_write(&self.path, &bytes)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use examl_core::RunConfig;
    use proptest::prelude::*;

    fn spec(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            priority: 2,
            cost: 10,
            alignment: PathBuf::from("data.phy"),
            partitions: None,
            config: RunConfig::new(2),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exa-serve-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn events_replay_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut j, replayed) = Journal::open(&dir).unwrap();
            assert!(replayed.is_empty());
            j.append(&JournalEvent::Submitted {
                id: 1,
                spec: Box::new(spec("a")),
            })
            .unwrap();
            j.append(&JournalEvent::Started { id: 1 }).unwrap();
            j.append(&JournalEvent::Preempted { id: 1 }).unwrap();
            j.append(&JournalEvent::Completed {
                id: 1,
                lnl: -1234.5,
                iterations: 7,
            })
            .unwrap();
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 4);
        assert!(matches!(
            &replayed[0],
            JournalEvent::Submitted { id: 1, spec } if spec.tenant == "a"
        ));
        assert!(
            matches!(&replayed[3], JournalEvent::Completed { lnl, .. } if (*lnl + 1234.5).abs() < 1e-12)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_but_corruption_elsewhere_is_fatal() {
        let dir = tmpdir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&JournalEvent::Started { id: 3 }).unwrap();
        }
        let path = Journal::path_in(&dir);
        // Simulate a crash mid-append: a truncated, newline-less tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"Started\":{\"id\"");
        std::fs::write(&path, &text).unwrap();
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);

        // A mangled *interior* line is real corruption and must not be
        // silently skipped.
        std::fs::write(&path, "garbage\n{\"Started\":{\"id\":3}}\n").unwrap();
        assert!(Journal::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_rewrites_atomically_and_keeps_appending() {
        let dir = tmpdir("compact");
        let (mut j, _) = Journal::open(&dir).unwrap();
        for id in 1..=5 {
            j.append(&JournalEvent::Started { id }).unwrap();
            j.append(&JournalEvent::Completed {
                id,
                lnl: -1.0,
                iterations: 1,
            })
            .unwrap();
        }
        j.compact(&[JournalEvent::Submitted {
            id: 6,
            spec: Box::new(spec("b")),
        }])
        .unwrap();
        j.append(&JournalEvent::Started { id: 6 }).unwrap();
        let (_, replayed) = Journal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].id(), 6);
        assert!(matches!(replayed[1], JournalEvent::Started { id: 6 }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_next_append() {
        let dir = tmpdir("torn-append");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(&JournalEvent::Started { id: 1 }).unwrap();
        }
        let path = Journal::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"Started\":{\"id\"");
        std::fs::write(&path, &bytes).unwrap();
        {
            let (mut j, replayed) = Journal::open(&dir).unwrap();
            assert_eq!(replayed.len(), 1);
            j.append(&JournalEvent::Started { id: 2 }).unwrap();
        }
        let (_, replayed) = Journal::open(&dir).unwrap();
        let ids: Vec<JobId> = replayed.iter().map(JournalEvent::id).collect();
        assert_eq!(ids, vec![1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One event of a random journal: (variant, id, tenant, lnl).
    fn event((what, id, tenant, lnl): (u8, u64, u8, f64)) -> JournalEvent {
        match what {
            0 => JournalEvent::Submitted {
                id,
                spec: Box::new(spec(["a", "bee", "c\"d"][tenant as usize])),
            },
            1 => JournalEvent::Started { id },
            2 => JournalEvent::Preempted { id },
            3 => JournalEvent::Cancelled { id },
            4 => JournalEvent::Completed {
                id,
                lnl,
                iterations: id % 9,
            },
            _ => JournalEvent::Failed {
                id,
                error: format!("run {id} failed: \u{e9}\n"),
            },
        }
    }

    fn lines(events: &[JournalEvent]) -> Vec<String> {
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect()
    }

    fn case_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        tmpdir(&format!("{tag}-{}", CASE.fetch_add(1, Ordering::Relaxed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A journal cut at any byte replays exactly its complete lines,
        /// and keeps appending after them.
        #[test]
        fn a_truncated_journal_replays_its_complete_lines(
            raw in prop::collection::vec((0u8..6, 0u64..1000, 0u8..3, -1e6f64..0.0), 1..8),
            cut in 0.0f64..1.0,
        ) {
            let events: Vec<JournalEvent> = raw.into_iter().map(event).collect();
            let dir = case_dir("truncate");
            {
                let (mut j, _) = Journal::open(&dir).unwrap();
                for ev in &events {
                    j.append(ev).unwrap();
                }
            }
            let path = Journal::path_in(&dir);
            let bytes = std::fs::read(&path).unwrap();
            let at = ((bytes.len() + 1) as f64 * cut) as usize;
            std::fs::write(&path, &bytes[..at]).unwrap();
            let complete = bytes[..at].iter().filter(|&&b| b == b'\n').count();

            let (mut j, replayed) = Journal::open(&dir).unwrap();
            prop_assert_eq!(lines(&replayed), lines(&events[..complete]));
            let last = JournalEvent::Started { id: 4242 };
            j.append(&last).unwrap();
            drop(j);
            let (_, replayed) = Journal::open(&dir).unwrap();
            let mut want = events[..complete].to_vec();
            want.push(last);
            prop_assert_eq!(lines(&replayed), lines(&want));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Any single flipped bit: `open` answers `Ok` or a typed error,
        /// and never panics.
        #[test]
        fn a_bit_flipped_journal_opens_or_errs(
            raw in prop::collection::vec((0u8..6, 0u64..1000, 0u8..3, -1e6f64..0.0), 1..8),
            at in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let events: Vec<JournalEvent> = raw.into_iter().map(event).collect();
            let dir = case_dir("flip");
            {
                let (mut j, _) = Journal::open(&dir).unwrap();
                for ev in &events {
                    j.append(ev).unwrap();
                }
            }
            let path = Journal::path_in(&dir);
            let mut bytes = std::fs::read(&path).unwrap();
            let at = (bytes.len() as f64 * at) as usize;
            bytes[at] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            if let Ok((_, replayed)) = Journal::open(&dir) {
                prop_assert!(replayed.len() <= events.len());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
