//! Checkpoint / restart.
//!
//! RAxML-Light introduced checkpointing for long cluster runs (ref. 4 of
//! the paper); ExaML keeps it. Under the de-centralized scheme a checkpoint
//! is tiny: the replicated [`SearchSnapshot`] (tree topology + branch
//! lengths + model parameters + loop cursor), plus the gathered per-pattern
//! PSR rates — CLVs are recomputed on restart, and every rank re-reads its
//! data slice from the alignment.
//!
//! # On-disk format (version 2)
//!
//! A checkpoint file is self-describing:
//!
//! ```text
//! EXAMLCKPT\n              magic line
//! {header json}\n          one line: CheckpointHeader
//! {payload json}           CheckpointPayload, exactly payload_len bytes
//! ```
//!
//! The header carries the format version, the resolved kernel backend
//! and site-repeats setting, the rank count, and an FNV-1a fingerprint of
//! the payload bytes (reusing `exa_obs::fnv1a`), so a reader can decide
//! whether a resume is compatible — or reject a torn/corrupt file — before
//! parsing the payload at all. `lnl` travels as raw IEEE-754 bits inside
//! the payload: the convergence test depends on the exact bits.
//!
//! # Atomicity and generations
//!
//! Writes are two-phase: serialize to a uniquely-named `*.tmp` sibling,
//! `fsync` it, `rename` onto the final name, then `fsync` the directory. A
//! crash mid-write leaves at worst a stray temp file; it can never damage a
//! committed generation. A checkpoint directory keeps the last
//! [`KEEP_GENERATIONS`] files (`gen-NNNNNNNN.ckpt`), and
//! [`load_latest`] falls back to the previous intact generation when the
//! newest is torn.

use crate::RunConfig;
use exa_bio::patterns::CompressedAlignment;
use exa_search::evaluator::{GlobalState, SearchSnapshot};
use exa_search::{Modes, SearchResult};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format version, bumped on layout changes.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Magic first line of every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "EXAMLCKPT";

/// Default committed generations retained per checkpoint directory
/// (overridable per run via `--checkpoint-keep` /
/// `RunConfig::checkpoint_keep`).
pub const KEEP_GENERATIONS: usize = 3;

/// The self-describing header, written as one JSON line after the magic.
/// Everything a reader needs to judge resume compatibility without parsing
/// the payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// [`CHECKPOINT_VERSION`] at write time.
    pub format_version: u32,
    /// Execution scheme that wrote the checkpoint (`"decentralized"` or
    /// `"forkjoin"`). Informational: resume under the other scheme is
    /// allowed (the replicated state is scheme-agnostic).
    pub scheme: String,
    /// Label of the likelihood-kernel backend the run computed with.
    /// Elastic on resume — backends are bitwise identical by contract.
    pub kernel: String,
    /// Label of the site-repeats setting. Elastic on resume for the same
    /// reason.
    pub site_repeats: String,
    /// World size that wrote the checkpoint. Elastic on resume: the
    /// replicated state redistributes over any rank count.
    pub rank_count: usize,
    /// Rate-heterogeneity model (strict: a Γ checkpoint cannot seed a PSR
    /// run).
    pub rate_model: String,
    /// Branch-length mode (strict).
    pub branch_mode: String,
    /// Starting-tree seed (strict: a different seed is a different run).
    pub seed: u64,
    /// Taxon count (strict).
    pub n_taxa: usize,
    /// Global partition count (strict).
    pub n_partitions: usize,
    /// Boundary iteration of the payload snapshot (duplicated here so
    /// `load_latest` can pick the newest generation without payload work).
    pub iteration: usize,
    /// Exact payload byte length; a shorter file is torn.
    pub payload_len: u64,
    /// FNV-1a 64 of the payload bytes.
    pub payload_fingerprint: u64,
    /// Label of the reduction mode (`"fast"`/`"reproducible"`). `None`
    /// on checkpoints written before reduce-mode selection existed (treated
    /// as `"fast"` on resume). Gates `rank_count` elasticity: a fast-mode
    /// lnL trajectory is a function of the rank count, so resuming it on a
    /// different count is a silent fork, not a continuation.
    pub reduce_mode: Option<String>,
    /// Gradient-BLO mode label (`"on"`/`"off"`) at write time. `None` on
    /// checkpoints written before gradient BLO existed. Elastic: gradient
    /// seeding is bitwise result-neutral, so a run may resume under a
    /// different mode and continue the same trajectory.
    pub gradient: Option<String>,
}

impl CheckpointHeader {
    /// The header of a checkpoint `scheme` writes for the run `cfg` over
    /// `aln` computing with `modes`. The payload-derived fields
    /// (`format_version`, `iteration`, `payload_len`,
    /// `payload_fingerprint`) are sealed by [`Checkpoint::build`].
    pub fn new(
        cfg: &RunConfig,
        aln: &CompressedAlignment,
        scheme: &str,
        modes: &Modes,
    ) -> CheckpointHeader {
        CheckpointHeader {
            format_version: 0,
            scheme: scheme.into(),
            kernel: modes.kernel.label().into(),
            site_repeats: modes.site_repeats.label().into(),
            // The configured width, not the momentary surviving width: the
            // snapshot is replicated state from the full-width trajectory,
            // and the resume gate compares trajectory identities.
            rank_count: cfg.n_ranks,
            rate_model: format!("{:?}", cfg.rate_model),
            branch_mode: format!("{:?}", cfg.branch_mode),
            seed: cfg.seed,
            n_taxa: aln.n_taxa(),
            n_partitions: aln.n_partitions(),
            iteration: 0,
            payload_len: 0,
            payload_fingerprint: 0,
            reduce_mode: Some(modes.reduce.label().into()),
            gradient: Some(modes.gradient.label().into()),
        }
    }
}

/// Bootstrap progress folded into checkpoints written between replicates,
/// so `--bootstrap N` resumes at the replicate it was killed in rather
/// than replaying all of them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BootstrapProgress {
    /// Fully completed replicates.
    pub completed: usize,
    /// Final log-likelihood of each completed replicate, as bits.
    pub replicate_lnl_bits: Vec<u64>,
    /// Bipartition occurrence counts over the completed replicates, sorted
    /// by split for deterministic encoding.
    pub split_counts: Vec<(Vec<usize>, u32)>,
    /// Search result of the completed best-tree run.
    pub best_result: SearchResult,
    /// Final replicated state of the best-tree run.
    pub best_state: GlobalState,
}

/// Checkpoint payload: the search re-entry state, plus bootstrap progress
/// when the run is a `--bootstrap` sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointPayload {
    pub snapshot: SearchSnapshot,
    pub bootstrap: Option<BootstrapProgress>,
}

/// A decoded checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub header: CheckpointHeader,
    pub payload: CheckpointPayload,
}

impl Checkpoint {
    /// Assemble a checkpoint, computing the derived header fields
    /// (`format_version`, `iteration`, `payload_len`,
    /// `payload_fingerprint`) from the payload. The values of those fields
    /// in `header` are ignored.
    pub fn build(mut header: CheckpointHeader, payload: CheckpointPayload) -> Checkpoint {
        let bytes = payload_bytes(&payload);
        header.format_version = CHECKPOINT_VERSION;
        header.iteration = payload.snapshot.iteration;
        header.payload_len = bytes.len() as u64;
        header.payload_fingerprint = exa_obs::fnv1a(&bytes);
        Checkpoint { header, payload }
    }
}

/// Errors from checkpoint I/O. Every failure names what went wrong — a
/// corrupt file is never a panic and never a silently-wrong resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file exists but its contents are damaged; `field` names the
    /// first part of the format that failed validation.
    Corrupt {
        path: PathBuf,
        field: &'static str,
        detail: String,
    },
    /// The checkpoint is intact but incompatible with the resuming run;
    /// `field` names the offending header field.
    Mismatch {
        field: &'static str,
        expected: String,
        found: String,
    },
    /// The checkpoint directory holds no committed generation.
    NoGenerations { dir: PathBuf },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt {
                path,
                field,
                detail,
            } => write!(
                f,
                "corrupt checkpoint {}: bad {field}: {detail}",
                path.display()
            ),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint mismatch on {field}: run expects {expected}, checkpoint has {found}"
            ),
            CheckpointError::NoGenerations { dir } => {
                write!(f, "no checkpoint generations in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn payload_bytes(payload: &CheckpointPayload) -> Vec<u8> {
    serde_json::to_vec(payload).expect("checkpoint payload serializes")
}

/// Encode a checkpoint to its on-disk byte layout, recomputing the derived
/// header fields so the bytes are always internally consistent.
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let sealed = Checkpoint::build(ckpt.header.clone(), ckpt.payload.clone());
    let header = serde_json::to_vec(&sealed.header).expect("checkpoint header serializes");
    let payload = payload_bytes(&sealed.payload);
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + header.len() + payload.len() + 2);
    out.extend_from_slice(CHECKPOINT_MAGIC.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&header);
    out.push(b'\n');
    out.extend_from_slice(&payload);
    out
}

fn corrupt(path: &Path, field: &'static str, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        path: path.to_path_buf(),
        field,
        detail: detail.into(),
    }
}

/// Decode and validate checkpoint bytes (`path` is for error reporting
/// only). Checks, in order: magic, header syntax, format version, payload
/// length, payload fingerprint, payload syntax, tree invariants, and
/// header/payload agreement.
pub fn decode(path: &Path, bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let magic_end = CHECKPOINT_MAGIC.len();
    if bytes.len() <= magic_end
        || &bytes[..magic_end] != CHECKPOINT_MAGIC.as_bytes()
        || bytes[magic_end] != b'\n'
    {
        return Err(corrupt(path, "magic", "missing EXAMLCKPT magic line"));
    }
    let rest = &bytes[magic_end + 1..];
    let header_end = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt(path, "header", "truncated before header newline"))?;
    let header: CheckpointHeader = serde_json::from_slice(&rest[..header_end])
        .map_err(|e| corrupt(path, "header", e.to_string()))?;
    if header.format_version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Mismatch {
            field: "format_version",
            expected: CHECKPOINT_VERSION.to_string(),
            found: header.format_version.to_string(),
        });
    }
    let payload = &rest[header_end + 1..];
    if payload.len() as u64 != header.payload_len {
        return Err(corrupt(
            path,
            "payload_len",
            format!(
                "header says {}, file has {}",
                header.payload_len,
                payload.len()
            ),
        ));
    }
    let fp = exa_obs::fnv1a(payload);
    if fp != header.payload_fingerprint {
        return Err(corrupt(
            path,
            "payload_fingerprint",
            format!(
                "header says {:#018x}, payload hashes to {fp:#018x}",
                header.payload_fingerprint
            ),
        ));
    }
    let payload: CheckpointPayload =
        serde_json::from_slice(payload).map_err(|e| corrupt(path, "payload", e.to_string()))?;
    payload
        .snapshot
        .state
        .tree
        .check_invariants()
        .map_err(|e| corrupt(path, "tree", e))?;
    if header.iteration != payload.snapshot.iteration {
        return Err(corrupt(
            path,
            "iteration",
            format!(
                "header says {}, snapshot says {}",
                header.iteration, payload.snapshot.iteration
            ),
        ));
    }
    if header.n_taxa != payload.snapshot.state.tree.n_taxa() {
        return Err(corrupt(
            path,
            "n_taxa",
            format!(
                "header says {}, tree has {}",
                header.n_taxa,
                payload.snapshot.state.tree.n_taxa()
            ),
        ));
    }
    Ok(Checkpoint { header, payload })
}

/// Distinguishes concurrent writers' temp files (and successive writes by
/// one process) within a directory.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically write a checkpoint to `path`: unique temp sibling → `fsync`
/// → `rename` → `fsync` the parent directory. An interrupted write can
/// leave a stray `*.tmp*` file but never a torn `path`, and never touches
/// a previously committed file until the rename lands.
pub fn save(path: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    atomic_write(path, &encode(ckpt))?;
    Ok(())
}

/// The two-phase atomic commit underlying [`save`], exposed so other
/// durable state (the serve daemon's job journal snapshots) reuses the
/// exact crash-consistency protocol: unique temp sibling → `fsync` →
/// `rename` → `fsync` the parent directory. An interrupted write can leave
/// a stray `*.tmp*` file but never a torn `path`, and never touches a
/// previously committed file until the rename lands.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    tmp_name.push(format!(".tmp.{}.{n}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        // Persist the rename itself. Directories can't always be opened
        // for fsync (non-POSIX filesystems); failing open is not fatal.
        if let Ok(d) = std::fs::File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// Load and validate one checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = std::fs::read(path)?;
    decode(path, &bytes)
}

/// The file name of generation `seq` inside a checkpoint directory.
pub fn generation_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("gen-{seq:08}.ckpt"))
}

fn parse_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Committed generations in `dir`, ascending by sequence number. Temp
/// files and foreign names are ignored.
pub fn list_generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_generation) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Commit `ckpt` as the next generation in `dir` (created if missing) and
/// prune generations beyond [`KEEP_GENERATIONS`]. Returns the committed
/// sequence number and path.
pub fn save_generation(dir: &Path, ckpt: &Checkpoint) -> Result<(u64, PathBuf), CheckpointError> {
    save_generation_keeping(dir, ckpt, KEEP_GENERATIONS)
}

/// [`save_generation`] with a configurable retention: the directory keeps
/// the last `keep` generations (`keep` is clamped to at least 1 — pruning
/// the generation just committed would defeat the point).
pub fn save_generation_keeping(
    dir: &Path,
    ckpt: &Checkpoint,
    keep: usize,
) -> Result<(u64, PathBuf), CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let existing = list_generations(dir)?;
    let seq = existing.last().map(|&(s, _)| s + 1).unwrap_or(0);
    let path = generation_path(dir, seq);
    save(&path, ckpt)?;
    // Prune oldest-first; the file just committed is never a candidate.
    let keep_from = (existing.len() + 1).saturating_sub(keep.max(1));
    for (_, old) in existing.into_iter().take(keep_from) {
        std::fs::remove_file(old).ok();
    }
    Ok((seq, path))
}

/// Load the newest intact generation from `dir`, falling back over corrupt
/// or torn newer generations. Returns the newest generation's error if
/// none is loadable, or [`CheckpointError::NoGenerations`] for an empty
/// directory.
pub fn load_latest(dir: &Path) -> Result<Checkpoint, CheckpointError> {
    let generations = list_generations(dir)?;
    if generations.is_empty() {
        return Err(CheckpointError::NoGenerations {
            dir: dir.to_path_buf(),
        });
    }
    let mut newest_err = None;
    for (_, path) in generations.into_iter().rev() {
        match load(&path) {
            Ok(ckpt) => return Ok(ckpt),
            Err(e) => {
                if newest_err.is_none() {
                    newest_err = Some(e);
                }
            }
        }
    }
    Err(newest_err.expect("at least one generation was tried"))
}

/// The strict identity of a run, checked against a checkpoint header
/// before resuming. Fields absent here (`kernel`, `site_repeats`,
/// `scheme`) are *elastic*: the replicated state redistributes across any
/// world shape, and kernel backends are bitwise identical by contract.
/// `rank_count` is *conditionally* elastic — only when both the checkpoint
/// and the resuming run reduce reproducibly (see [`validate_resume`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeContext {
    pub rate_model: String,
    pub branch_mode: String,
    pub seed: u64,
    pub n_taxa: usize,
    pub n_partitions: usize,
    /// The resuming run's rank count.
    pub rank_count: usize,
    /// The resuming run's locally-resolved reduce-mode label.
    pub reduce: String,
}

/// Validate that `header` may seed a run described by `ctx`; on failure,
/// the error names the first offending field.
///
/// `rank_count` may differ from the checkpoint's only when both sides
/// reduce with `"reproducible"`: under `"fast"` the collective sums — and
/// therefore the whole lnL trajectory — are a function of the rank count,
/// so a cross-count resume would silently fork the trajectory the
/// checkpoint attests. The error names the offending mode so the fix
/// (`--reduce reproducible`, or matching rank counts) is obvious.
pub fn validate_resume(
    header: &CheckpointHeader,
    ctx: &ResumeContext,
) -> Result<(), CheckpointError> {
    let checks: [(&'static str, String, String); 5] = [
        (
            "rate_model",
            ctx.rate_model.clone(),
            header.rate_model.clone(),
        ),
        (
            "branch_mode",
            ctx.branch_mode.clone(),
            header.branch_mode.clone(),
        ),
        ("seed", ctx.seed.to_string(), header.seed.to_string()),
        ("n_taxa", ctx.n_taxa.to_string(), header.n_taxa.to_string()),
        (
            "n_partitions",
            ctx.n_partitions.to_string(),
            header.n_partitions.to_string(),
        ),
    ];
    for (field, expected, found) in checks {
        if expected != found {
            return Err(CheckpointError::Mismatch {
                field,
                expected,
                found,
            });
        }
    }
    if header.rank_count != ctx.rank_count {
        let ckpt_mode = header.reduce_mode.as_deref().unwrap_or("fast");
        let reproducible = ckpt_mode == "reproducible" && ctx.reduce == "reproducible";
        if !reproducible {
            return Err(CheckpointError::Mismatch {
                field: "rank_count",
                expected: format!(
                    "{} (elastic only under reduce mode \"reproducible\"; run has \"{}\")",
                    ctx.rank_count, ctx.reduce
                ),
                found: format!(
                    "{} (checkpoint reduce mode \"{ckpt_mode}\")",
                    header.rank_count
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_phylo::tree::Tree;

    fn sample_header() -> CheckpointHeader {
        CheckpointHeader {
            format_version: CHECKPOINT_VERSION,
            scheme: "decentralized".into(),
            kernel: "simd".into(),
            site_repeats: "on".into(),
            rank_count: 3,
            rate_model: "Gamma".into(),
            branch_mode: "Joint".into(),
            seed: 42,
            n_taxa: 6,
            n_partitions: 2,
            iteration: 0,
            payload_len: 0,
            payload_fingerprint: 0,
            reduce_mode: Some("fast".into()),
            gradient: Some("on".into()),
        }
    }

    fn sample() -> Checkpoint {
        let snapshot = SearchSnapshot {
            iteration: 3,
            lnl_bits: (-1234.5f64).to_bits(),
            spr_moves: 7,
            state: GlobalState {
                tree: Tree::random(6, 1, 9),
                alphas: vec![0.7, 1.3],
                gtr_rates: vec![[1.0, 2.0, 0.5, 1.1, 3.0]; 2],
            },
            psr_rates: Vec::new(),
        };
        Checkpoint::build(
            sample_header(),
            CheckpointPayload {
                snapshot,
                bootstrap: None,
            },
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "examl_ckpt_{tag}_{}_{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = tmpdir("rt");
        let path = dir.join("one.ckpt");
        let c = sample();
        save(&path, &c).unwrap();
        let d = load(&path).unwrap();
        assert_eq!(d.header, c.header);
        assert_eq!(d.payload.snapshot.lnl_bits, c.payload.snapshot.lnl_bits);
        assert_eq!(
            serde_json::to_vec(&d.payload.snapshot).unwrap(),
            serde_json::to_vec(&c.payload.snapshot).unwrap(),
            "payload must round-trip bit-exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_seals_derived_fields() {
        let c = sample();
        assert_eq!(c.header.iteration, 3);
        assert!(c.header.payload_len > 0);
        let bytes = payload_bytes(&c.payload);
        assert_eq!(c.header.payload_fingerprint, exa_obs::fnv1a(&bytes));
    }

    #[test]
    fn rejects_bumped_format_version_naming_the_field() {
        let dir = tmpdir("ver");
        let path = dir.join("one.ckpt");
        let c = sample();
        // Re-encode with a bumped version but otherwise valid derived
        // fields (encode() would heal them, so patch the bytes directly).
        let sealed = Checkpoint::build(c.header.clone(), c.payload.clone());
        let mut header = sealed.header.clone();
        header.format_version = CHECKPOINT_VERSION + 1;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_MAGIC.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&serde_json::to_vec(&header).unwrap());
        bytes.push(b'\n');
        bytes.extend_from_slice(&payload_bytes(&sealed.payload));
        std::fs::write(&path, &bytes).unwrap();
        match load(&path).unwrap_err() {
            CheckpointError::Mismatch { field, .. } => assert_eq!(field, "format_version"),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_mismatched_fingerprint_naming_the_field() {
        let dir = tmpdir("fp");
        let path = dir.join("one.ckpt");
        let sealed = Checkpoint::build(sample().header, sample().payload);
        let mut header = sealed.header.clone();
        header.payload_fingerprint ^= 1;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_MAGIC.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&serde_json::to_vec(&header).unwrap());
        bytes.push(b'\n');
        bytes.extend_from_slice(&payload_bytes(&sealed.payload));
        std::fs::write(&path, &bytes).unwrap();
        match load(&path).unwrap_err() {
            CheckpointError::Corrupt { field, .. } => assert_eq!(field, "payload_fingerprint"),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage_and_missing_magic() {
        let dir = tmpdir("garbage");
        let path = dir.join("one.ckpt");
        std::fs::write(&path, b"{not a checkpoint").unwrap();
        match load(&path).unwrap_err() {
            CheckpointError::Corrupt { field, .. } => assert_eq!(field, "magic"),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/examl.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn generations_rotate_and_prune() {
        let dir = tmpdir("gens");
        let c = sample();
        for i in 0..5 {
            let mut ci = c.clone();
            ci.payload.snapshot.iteration = i;
            let (seq, _) = save_generation(&dir, &ci).unwrap();
            assert_eq!(seq, i as u64);
        }
        let gens = list_generations(&dir).unwrap();
        assert_eq!(gens.len(), KEEP_GENERATIONS);
        assert_eq!(gens.first().unwrap().0, 2);
        let latest = load_latest(&dir).unwrap();
        assert_eq!(latest.payload.snapshot.iteration, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_falls_back_over_a_torn_newest_generation() {
        let dir = tmpdir("torn");
        let c = sample();
        save_generation(&dir, &c).unwrap();
        let mut newer = c.clone();
        newer.payload.snapshot.iteration = 9;
        let (seq, path) = save_generation(&dir, &newer).unwrap();
        assert_eq!(seq, 1);
        // Tear the newest file: truncate mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.payload.snapshot.iteration, 3, "fell back to gen 0");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_reports_no_generations() {
        let dir = tmpdir("empty");
        assert!(matches!(
            load_latest(&dir).unwrap_err(),
            CheckpointError::NoGenerations { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_write_never_damages_previous_generation() {
        let dir = tmpdir("crash");
        let c = sample();
        let (_, committed) = save_generation(&dir, &c).unwrap();
        // Simulate a crash mid-write of the next generation: a partial
        // temp file appears but no rename happens.
        let partial = dir.join("gen-00000001.ckpt.tmp.999.0");
        std::fs::write(&partial, &encode(&c)[..20]).unwrap();
        // The committed generation is untouched and still the latest.
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.payload.snapshot.iteration, 3);
        load(&committed).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_resume_names_offending_field() {
        let c = sample();
        let good = ResumeContext {
            rate_model: "Gamma".into(),
            branch_mode: "Joint".into(),
            seed: 42,
            n_taxa: 6,
            n_partitions: 2,
            rank_count: 3,
            reduce: "fast".into(),
        };
        validate_resume(&c.header, &good).unwrap();
        let mut bad = good.clone();
        bad.seed = 43;
        match validate_resume(&c.header, &bad).unwrap_err() {
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => {
                assert_eq!(field, "seed");
                assert_eq!(expected, "43");
                assert_eq!(found, "42");
            }
            other => panic!("wrong error: {other}"),
        }
        let mut bad = good;
        bad.rate_model = "Psr".into();
        match validate_resume(&c.header, &bad).unwrap_err() {
            CheckpointError::Mismatch { field, .. } => assert_eq!(field, "rate_model"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rank_count_elasticity_requires_reproducible_reduce() {
        let c = sample(); // header: rank_count 3, reduce_mode "fast"
        let ctx = |rank_count: usize, reduce: &str| ResumeContext {
            rate_model: "Gamma".into(),
            branch_mode: "Joint".into(),
            seed: 42,
            n_taxa: 6,
            n_partitions: 2,
            rank_count,
            reduce: reduce.into(),
        };

        // Same count: always fine, any mode.
        validate_resume(&c.header, &ctx(3, "fast")).unwrap();
        validate_resume(&c.header, &ctx(3, "reproducible")).unwrap();

        // Different count under fast: rejected, naming the mode.
        match validate_resume(&c.header, &ctx(5, "fast")).unwrap_err() {
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => {
                assert_eq!(field, "rank_count");
                assert!(expected.contains("reproducible"), "{expected}");
                assert!(found.contains("fast"), "{found}");
            }
            other => panic!("wrong error: {other}"),
        }
        // A reproducible run still cannot stretch a fast checkpoint (its
        // trajectory is already rank-count-bound).
        assert!(validate_resume(&c.header, &ctx(5, "reproducible")).is_err());

        // Both sides reproducible: rank count is elastic.
        let mut h = c.header.clone();
        h.reduce_mode = Some("reproducible".into());
        validate_resume(&h, &ctx(5, "reproducible")).unwrap();
        // ... but not for a fast-mode resuming run.
        assert!(validate_resume(&h, &ctx(5, "fast")).is_err());

        // Legacy header (no reduce_mode) is treated as fast.
        let mut legacy = c.header.clone();
        legacy.reduce_mode = None;
        assert!(validate_resume(&legacy, &ctx(5, "reproducible")).is_err());
        validate_resume(&legacy, &ctx(3, "fast")).unwrap();
    }
}
