//! The multiple-sequence alignment container.

use crate::dna::{decode_sequence, encode_sequence, Nucleotide};
use crate::error::BioError;

/// A multiple-sequence DNA alignment: `n_taxa` rows × `n_sites` columns.
///
/// Sequences are stored row-major (one `Vec<Nucleotide>` per taxon), which is
/// the natural parse order; the pattern-compression step transposes into the
/// column-major layout the likelihood kernels need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    taxa: Vec<String>,
    rows: Vec<Vec<Nucleotide>>,
    n_sites: usize,
}

impl Alignment {
    /// Build an alignment from taxon names and decoded rows.
    pub fn new(taxa: Vec<String>, rows: Vec<Vec<Nucleotide>>) -> Result<Alignment, BioError> {
        if taxa.len() != rows.len() {
            return Err(BioError::Parse(format!(
                "{} taxon names but {} sequences",
                taxa.len(),
                rows.len()
            )));
        }
        if taxa.is_empty() {
            return Err(BioError::Parse("empty alignment".into()));
        }
        let n_sites = rows[0].len();
        for (t, r) in taxa.iter().zip(&rows) {
            if r.len() != n_sites {
                return Err(BioError::LengthMismatch {
                    taxon: t.clone(),
                    expected: n_sites,
                    found: r.len(),
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for t in &taxa {
            if !seen.insert(t.as_str()) {
                return Err(BioError::DuplicateTaxon(t.clone()));
            }
        }
        Ok(Alignment {
            taxa,
            rows,
            n_sites,
        })
    }

    /// Build from raw ASCII sequences.
    pub fn from_ascii(named: &[(&str, &str)]) -> Result<Alignment, BioError> {
        let mut taxa = Vec::with_capacity(named.len());
        let mut rows = Vec::with_capacity(named.len());
        for (name, seq) in named {
            let decoded = decode_sequence(seq).map_err(|(pos, ch)| BioError::InvalidCharacter {
                taxon: (*name).to_string(),
                position: pos,
                ch,
            })?;
            taxa.push((*name).to_string());
            rows.push(decoded);
        }
        Alignment::new(taxa, rows)
    }

    /// Number of taxa (rows).
    pub fn n_taxa(&self) -> usize {
        self.taxa.len()
    }

    /// Number of alignment columns (sites).
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Taxon names, in row order.
    pub fn taxa(&self) -> &[String] {
        &self.taxa
    }

    /// The row (sequence) of taxon `i`.
    pub fn row(&self, i: usize) -> &[Nucleotide] {
        &self.rows[i]
    }

    /// One alignment column as a freshly collected vector.
    pub fn column(&self, site: usize) -> Vec<Nucleotide> {
        self.rows.iter().map(|r| r[site]).collect()
    }

    /// The ASCII rendering of row `i` (for writers and debugging).
    pub fn row_ascii(&self, i: usize) -> String {
        encode_sequence(&self.rows[i])
    }

    /// Concatenate several alignments over identical taxa (in identical
    /// order) into one super-alignment, returning it together with the
    /// per-block site ranges.
    pub fn concatenate(blocks: &[Alignment]) -> Result<(Alignment, Vec<(usize, usize)>), BioError> {
        let first = blocks
            .first()
            .ok_or_else(|| BioError::Parse("cannot concatenate zero blocks".into()))?;
        let mut rows: Vec<Vec<Nucleotide>> = vec![Vec::new(); first.n_taxa()];
        let mut ranges = Vec::with_capacity(blocks.len());
        let mut offset = 0usize;
        for b in blocks {
            if b.taxa != first.taxa {
                return Err(BioError::Parse(
                    "concatenated blocks must share taxa in identical order".into(),
                ));
            }
            for (row, brow) in rows.iter_mut().zip(&b.rows) {
                row.extend_from_slice(brow);
            }
            ranges.push((offset, offset + b.n_sites));
            offset += b.n_sites;
        }
        let aln = Alignment::new(first.taxa.clone(), rows)?;
        Ok((aln, ranges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Alignment {
        Alignment::from_ascii(&[("t1", "ACGT"), ("t2", "ACGA"), ("t3", "TCGA")]).unwrap()
    }

    #[test]
    fn dimensions() {
        let a = small();
        assert_eq!(a.n_taxa(), 3);
        assert_eq!(a.n_sites(), 4);
        assert_eq!(a.taxa(), &["t1", "t2", "t3"]);
    }

    #[test]
    fn column_access() {
        let a = small();
        let col = a.column(0);
        assert_eq!(col, vec![Nucleotide::A, Nucleotide::A, Nucleotide::T]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Alignment::from_ascii(&[("a", "ACGT"), ("b", "ACG")]).unwrap_err();
        assert!(matches!(err, BioError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_duplicate_taxa() {
        let err = Alignment::from_ascii(&[("a", "ACGT"), ("a", "ACGT")]).unwrap_err();
        assert_eq!(err, BioError::DuplicateTaxon("a".into()));
    }

    #[test]
    fn rejects_empty() {
        assert!(Alignment::from_ascii(&[]).is_err());
    }

    #[test]
    fn rejects_bad_character() {
        let err = Alignment::from_ascii(&[("a", "ACZT")]).unwrap_err();
        assert!(matches!(
            err,
            BioError::InvalidCharacter { position: 2, .. }
        ));
    }

    #[test]
    fn concatenate_blocks() {
        let a = small();
        let b = small();
        let (cat, ranges) = Alignment::concatenate(&[a, b]).unwrap();
        assert_eq!(cat.n_sites(), 8);
        assert_eq!(ranges, vec![(0, 4), (4, 8)]);
        assert_eq!(cat.row_ascii(0), "ACGTACGT");
    }

    #[test]
    fn concatenate_rejects_mismatched_taxa() {
        let a = small();
        let b = Alignment::from_ascii(&[("x", "AC"), ("y", "AC"), ("z", "AC")]).unwrap();
        assert!(Alignment::concatenate(&[a, b]).is_err());
    }
}
