//! Partition schemes: how an alignment is sub-divided into blocks that get
//! independent model parameters (per-gene or per-codon-position partitions,
//! §I of the paper).

use crate::error::BioError;
use serde::{Deserialize, Serialize};

/// One partition: a named, contiguous block of alignment columns
/// `[start, end)`.
///
/// Real partition files can list non-contiguous column sets (e.g. codon
/// positions `1-99\3`); those are normalized to contiguous blocks by column
/// reordering before they reach the engine, so the engine-facing type only
/// needs ranges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

impl Partition {
    /// Number of sites in this partition.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the partition contains no sites.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A full partition scheme over an alignment of `n_sites` columns: an ordered
/// list of disjoint blocks that exactly tile `[0, n_sites)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionScheme {
    partitions: Vec<Partition>,
    n_sites: usize,
}

impl PartitionScheme {
    /// A single partition covering the whole alignment.
    pub fn unpartitioned(n_sites: usize) -> PartitionScheme {
        PartitionScheme {
            partitions: vec![Partition {
                name: "ALL".into(),
                start: 0,
                end: n_sites,
            }],
            n_sites,
        }
    }

    /// Validate and build a scheme from explicit blocks. Blocks must be
    /// sorted, non-overlapping, non-empty, and tile the alignment exactly.
    pub fn new(partitions: Vec<Partition>, n_sites: usize) -> Result<PartitionScheme, BioError> {
        if partitions.is_empty() {
            return Err(BioError::BadPartition("no partitions".into()));
        }
        let mut expected_start = 0usize;
        for p in &partitions {
            if p.start != expected_start {
                return Err(BioError::BadPartition(format!(
                    "partition {:?} starts at {} but previous block ended at {}",
                    p.name, p.start, expected_start
                )));
            }
            if p.is_empty() {
                return Err(BioError::BadPartition(format!(
                    "partition {:?} is empty",
                    p.name
                )));
            }
            expected_start = p.end;
        }
        if expected_start != n_sites {
            return Err(BioError::BadPartition(format!(
                "partitions cover {expected_start} sites but alignment has {n_sites}"
            )));
        }
        Ok(PartitionScheme {
            partitions,
            n_sites,
        })
    }

    /// Cut the first `count` equally-sized chunks of `chunk_len` sites, the
    /// construction the paper uses for the partition-scaling experiments
    /// (§IV-B: "we divided the original alignment into partitions of
    /// [~1000 bp] size" and extracted the first 10/50/100/500/1000).
    pub fn uniform_chunks(count: usize, chunk_len: usize) -> PartitionScheme {
        assert!(count > 0 && chunk_len > 0);
        let partitions = (0..count)
            .map(|i| Partition {
                name: format!("gene{i}"),
                start: i * chunk_len,
                end: (i + 1) * chunk_len,
            })
            .collect();
        PartitionScheme {
            partitions,
            n_sites: count * chunk_len,
        }
    }

    /// Build from per-block lengths (heterogeneous gene lengths).
    pub fn from_lengths<I: IntoIterator<Item = usize>>(lengths: I) -> PartitionScheme {
        let mut partitions = Vec::new();
        let mut start = 0usize;
        for (i, len) in lengths.into_iter().enumerate() {
            assert!(len > 0, "zero-length partition");
            partitions.push(Partition {
                name: format!("gene{i}"),
                start,
                end: start + len,
            });
            start += len;
        }
        assert!(!partitions.is_empty(), "no partitions");
        PartitionScheme {
            partitions,
            n_sites: start,
        }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True if the scheme has no partitions (never constructible).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Total number of alignment sites covered.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// The blocks, in alignment order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }
}

/// Parse a RAxML-style partition file. Each line has the form
/// `DNA, name = start-end` with 1-based inclusive coordinates, e.g.
/// `DNA, gene0 = 1-1000`.
pub fn parse_partition_file(text: &str, n_sites: usize) -> Result<PartitionScheme, BioError> {
    let mut partitions = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| BioError::Parse(format!("partition file line {}: {msg}", lineno + 1));
        let (_model, rest) = line.split_once(',').ok_or_else(|| err("missing ','"))?;
        let (name, range) = rest.split_once('=').ok_or_else(|| err("missing '='"))?;
        let (lo, hi) = range
            .trim()
            .split_once('-')
            .ok_or_else(|| err("missing '-' in range"))?;
        let lo: usize = lo.trim().parse().map_err(|_| err("bad range start"))?;
        let hi: usize = hi.trim().parse().map_err(|_| err("bad range end"))?;
        if lo == 0 || hi < lo {
            return Err(err("range must be 1-based and non-empty"));
        }
        partitions.push(Partition {
            name: name.trim().to_string(),
            start: lo - 1,
            end: hi,
        });
    }
    PartitionScheme::new(partitions, n_sites)
}

/// Render a scheme in the RAxML partition-file syntax.
pub fn write_partition_file(scheme: &PartitionScheme) -> String {
    let mut out = String::new();
    for p in scheme.partitions() {
        out.push_str(&format!("DNA, {} = {}-{}\n", p.name, p.start + 1, p.end));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpartitioned_is_single_block() {
        let s = PartitionScheme::unpartitioned(100);
        assert_eq!(s.len(), 1);
        assert_eq!(s.n_sites(), 100);
    }

    #[test]
    fn uniform_chunks_tile() {
        let s = PartitionScheme::uniform_chunks(10, 1000);
        assert_eq!(s.len(), 10);
        assert_eq!(s.n_sites(), 10_000);
    }

    #[test]
    fn from_lengths_heterogeneous() {
        let s = PartitionScheme::from_lengths([3, 5, 2]);
        assert_eq!(s.n_sites(), 10);
        assert_eq!(s.partitions()[1].start, 3);
        assert_eq!(s.partitions()[1].end, 8);
    }

    #[test]
    fn validation_catches_gap() {
        let parts = vec![
            Partition {
                name: "a".into(),
                start: 0,
                end: 4,
            },
            Partition {
                name: "b".into(),
                start: 5,
                end: 10,
            },
        ];
        assert!(PartitionScheme::new(parts, 10).is_err());
    }

    #[test]
    fn validation_catches_short_cover() {
        let parts = vec![Partition {
            name: "a".into(),
            start: 0,
            end: 4,
        }];
        assert!(PartitionScheme::new(parts, 10).is_err());
    }

    #[test]
    fn partition_file_roundtrip() {
        let s = PartitionScheme::from_lengths([100, 250, 50]);
        let text = write_partition_file(&s);
        let parsed = parse_partition_file(&text, 400).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn partition_file_rejects_garbage() {
        assert!(parse_partition_file("DNA gene0 1-100", 100).is_err());
        assert!(parse_partition_file("DNA, g = 0-100", 100).is_err());
        assert!(parse_partition_file("DNA, g = 5-4", 100).is_err());
    }

    #[test]
    fn partition_file_skips_comments_and_blanks() {
        let text = "# comment\n\nDNA, g = 1-10\n";
        let s = parse_partition_file(text, 10).unwrap();
        assert_eq!(s.len(), 1);
    }
}
