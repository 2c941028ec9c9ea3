//! The binary alignment format.
//!
//! §V of the paper: "We have already developed a binary data format for
//! storing input alignments and plan to use MPI parallel I/O routines to
//! further accelerate data (re-)distribution." This module implements that
//! format for the *compressed* alignment (parsing and pattern compression are
//! done once; every rank — and every restart or post-failure redistribution —
//! then reads the cheap binary form).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "EXML"           4 B
//! version u32             4 B
//! n_taxa  u64
//! taxa: n_taxa × (u64 len, utf-8 bytes)
//! n_partitions u64
//! per partition:
//!     name (u64 len, utf-8)
//!     n_patterns u64
//!     n_sites u64
//!     weights:  n_patterns × u32
//!     tips:     n_taxa × n_patterns × u8
//!     site_map: n_sites × u32
//! checksum u64 (FNV-1a over everything before it)
//! ```

use crate::error::BioError;
use crate::patterns::{CompressedAlignment, CompressedPartition};

const MAGIC: &[u8; 4] = b"EXML";
const VERSION: u32 = 1;
/// The smallest encoding of a string: its `u64` length.
const STR_MIN: usize = 8;
/// The smallest encoding of a partition: name, pattern and site counts.
const PARTITION_MIN: usize = STR_MIN + 16;

/// FNV-1a 64-bit, used as an integrity checksum for the binary file. The
/// implementation is shared with the replica-fingerprint machinery and
/// lives in `exa-obs`; this re-export keeps existing call sites working.
pub use exa_obs::fnv1a;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BioError> {
        if self.pos + n > self.buf.len() {
            return Err(BioError::BadBinary(format!(
                "truncated: need {n} bytes at offset {}, file has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, BioError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, BioError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A count of `what`, each encoded in at least `min_bytes`: refused
    /// when the bytes left cannot hold that many, so no length prefix sizes
    /// an allocation beyond what the file holds.
    fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, BioError> {
        let v = self.u64()?;
        if v > ((self.buf.len() - self.pos) / min_bytes) as u64 {
            return Err(BioError::BadBinary(format!(
                "implausible {what} length {v}"
            )));
        }
        Ok(v as usize)
    }
    fn str(&mut self) -> Result<String, BioError> {
        let n = self.count("string", 1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BioError::BadBinary("non-utf8 string".into()))
    }
}

/// Serialize a compressed alignment to the binary format.
pub fn to_bytes(aln: &CompressedAlignment) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u64(aln.taxa.len() as u64);
    for t in &aln.taxa {
        w.str(t);
    }
    w.u64(aln.partitions.len() as u64);
    for p in &aln.partitions {
        w.str(&p.name);
        w.u64(p.n_patterns() as u64);
        w.u64(p.site_to_pattern.len() as u64);
        for &wt in &p.weights {
            w.u32(wt);
        }
        for row in &p.tips {
            debug_assert_eq!(row.len(), p.n_patterns());
            w.buf.extend_from_slice(row);
        }
        for &s in &p.site_to_pattern {
            w.u32(s);
        }
    }
    let sum = fnv1a(&w.buf);
    w.u64(sum);
    w.buf
}

/// Deserialize the binary format.
pub fn from_bytes(bytes: &[u8]) -> Result<CompressedAlignment, BioError> {
    if bytes.len() < 8 {
        return Err(BioError::BadBinary("file shorter than checksum".into()));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let actual = fnv1a(body);
    if stored != actual {
        return Err(BioError::BadBinary(format!(
            "checksum mismatch: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    let mut r = Reader { buf: body, pos: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(BioError::BadBinary("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(BioError::BadBinary(format!(
            "unsupported version {version}"
        )));
    }
    let n_taxa = r.count("taxa", STR_MIN)?;
    let mut taxa = Vec::with_capacity(n_taxa);
    for _ in 0..n_taxa {
        taxa.push(r.str()?);
    }
    let n_parts = r.count("partition", PARTITION_MIN)?;
    let mut partitions = Vec::with_capacity(n_parts);
    for _ in 0..n_parts {
        let name = r.str()?;
        let n_patterns = r.count("pattern", 4)?;
        // A partition is never empty; an empty one would cost `n_taxa`
        // tip rows for no byte of the file.
        if n_patterns == 0 {
            return Err(BioError::BadBinary(format!(
                "partition {name:?} has no patterns"
            )));
        }
        let n_sites = r.count("site", 4)?;
        let mut weights = Vec::with_capacity(n_patterns);
        for _ in 0..n_patterns {
            weights.push(r.u32()?);
        }
        let mut tips = Vec::with_capacity(n_taxa);
        for _ in 0..n_taxa {
            tips.push(r.take(n_patterns)?.to_vec());
        }
        let mut site_to_pattern = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            let s = r.u32()?;
            if s as usize >= n_patterns {
                return Err(BioError::BadBinary(format!(
                    "site maps to pattern {s} of {n_patterns}"
                )));
            }
            site_to_pattern.push(s);
        }
        partitions.push(CompressedPartition {
            name,
            tips,
            weights,
            site_to_pattern,
        });
    }
    if r.pos != body.len() {
        return Err(BioError::BadBinary(format!(
            "{} trailing bytes after last partition",
            body.len() - r.pos
        )));
    }
    Ok(CompressedAlignment { taxa, partitions })
}

/// Write the binary format to a file.
pub fn write_file(path: &std::path::Path, aln: &CompressedAlignment) -> Result<(), BioError> {
    std::fs::write(path, to_bytes(aln))?;
    Ok(())
}

/// Read the binary format from a file.
pub fn read_file(path: &std::path::Path) -> Result<CompressedAlignment, BioError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::partition::PartitionScheme;

    fn sample() -> CompressedAlignment {
        let a = Alignment::from_ascii(&[
            ("tx1", "ACGTACGT"),
            ("tx2", "ACGAACGA"),
            ("tx3", "TCGATNGA"),
        ])
        .unwrap();
        CompressedAlignment::build(&a, &PartitionScheme::uniform_chunks(2, 4))
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let bytes = to_bytes(&c);
        let d = from_bytes(&bytes).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let c = sample();
        let bytes = to_bytes(&c);
        // Flip one byte in a handful of positions spread over the file.
        for pos in [0, 4, 10, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x5a;
            assert!(
                from_bytes(&bad).is_err(),
                "corruption at {pos} not detected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = to_bytes(&sample());
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        // Restore the checksum so the magic check itself is exercised.
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(BioError::BadBinary(_))));
    }

    /// Every count prefix set to `u64::MAX` (checksum restored): each is
    /// refused as implausible before anything is sized by it.
    #[test]
    fn giant_counts_are_refused() {
        let bytes = to_bytes(&sample());
        let n_taxa_at = 8;
        let n_parts_at = 8 + 8 + (8 + 3) * 3;
        let name_at = n_parts_at + 8;
        let n_patterns_at = name_at + 8 + "gene0".len();
        for at in [
            n_taxa_at,
            n_taxa_at + 8,
            n_parts_at,
            name_at,
            n_patterns_at,
            n_patterns_at + 8,
        ] {
            let mut bad = bytes[..bytes.len() - 8].to_vec();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let sum = fnv1a(&bad);
            bad.extend_from_slice(&sum.to_le_bytes());
            match from_bytes(&bad) {
                Err(BioError::BadBinary(msg)) => {
                    assert!(msg.contains("implausible"), "{at}: {msg}")
                }
                other => panic!("count at {at}: {other:?}"),
            }
        }
    }

    /// Partitions without patterns are refused: each would allocate
    /// `n_taxa` tip rows from a few bytes, so their memory would grow with
    /// the square of the file.
    #[test]
    fn empty_partitions_are_refused() {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.u64(2000);
        for _ in 0..2000 {
            w.str("a");
        }
        w.u64(1900);
        for _ in 0..1900 {
            w.str("p");
            w.u64(0);
            w.u64(0);
        }
        let sum = fnv1a(&w.buf);
        w.u64(sum);
        match from_bytes(&w.buf) {
            Err(BioError::BadBinary(msg)) => assert!(msg.contains("no patterns"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("examl_bio_binary_test.exml");
        let c = sample();
        write_file(&path, &c).unwrap();
        let d = read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(c, d);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
