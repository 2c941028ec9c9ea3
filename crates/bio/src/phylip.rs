//! Relaxed (RAxML-style) sequential PHYLIP parsing and writing.
//!
//! The header line holds taxon and site counts; each following non-empty
//! line is `name whitespace sequence...`; sequences may be wrapped across
//! lines in interleaved-free "relaxed sequential" style where every line
//! carries the taxon name (the format RAxML/ExaML consume).

use crate::alignment::Alignment;
use crate::dna::decode_sequence;
use crate::error::BioError;

/// Parse a relaxed sequential PHYLIP file.
pub fn parse_phylip(text: &str) -> Result<Alignment, BioError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| BioError::Parse("empty file".into()))?;
    let mut hp = header.split_whitespace();
    let n_taxa: usize = hp
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| BioError::Parse("bad PHYLIP header: taxon count".into()))?;
    let n_sites: usize = hp
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| BioError::Parse("bad PHYLIP header: site count".into()))?;

    let mut taxa = Vec::with_capacity(capacity(n_taxa, text));
    let mut rows = Vec::with_capacity(capacity(n_taxa, text));
    for line in lines {
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| BioError::Parse("sequence line without name".into()))?
            .to_string();
        let seq: String = it.collect();
        let decoded = decode_sequence(&seq).map_err(|(pos, ch)| BioError::InvalidCharacter {
            taxon: name.clone(),
            position: pos,
            ch,
        })?;
        taxa.push(name);
        rows.push(decoded);
    }
    if taxa.len() != n_taxa {
        return Err(BioError::Parse(format!(
            "header declares {n_taxa} taxa but file has {}",
            taxa.len()
        )));
    }
    let aln = Alignment::new(taxa, rows)?;
    if aln.n_sites() != n_sites {
        return Err(BioError::Parse(format!(
            "header declares {n_sites} sites but sequences have {}",
            aln.n_sites()
        )));
    }
    Ok(aln)
}

/// Parse interleaved PHYLIP: the first block carries taxon names, later
/// blocks (separated by blank lines) carry continuation chunks in the same
/// taxon order without names.
pub fn parse_phylip_interleaved(text: &str) -> Result<Alignment, BioError> {
    let mut lines = text.lines();
    let header = loop {
        match lines.next() {
            Some(l) if !l.trim().is_empty() => break l,
            Some(_) => continue,
            None => return Err(BioError::Parse("empty file".into())),
        }
    };
    let mut hp = header.split_whitespace();
    let n_taxa: usize = hp
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| BioError::Parse("bad PHYLIP header: taxon count".into()))?;
    let n_sites: usize = hp
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| BioError::Parse("bad PHYLIP header: site count".into()))?;
    if n_taxa == 0 {
        return Err(BioError::Parse("zero taxa".into()));
    }

    let mut taxa: Vec<String> = Vec::with_capacity(capacity(n_taxa, text));
    let mut seqs: Vec<String> = Vec::with_capacity(capacity(n_taxa, text));
    let mut row_in_block = 0usize;
    let mut first_block = true;
    for line in lines {
        if line.trim().is_empty() {
            if row_in_block != 0 {
                return Err(BioError::Parse(format!(
                    "interleaved block ended after {row_in_block} of {n_taxa} rows"
                )));
            }
            continue;
        }
        if first_block {
            let mut it = line.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| BioError::Parse("sequence line without name".into()))?
                .to_string();
            taxa.push(name);
            seqs.push(it.flat_map(|w| w.chars()).collect());
        } else {
            seqs[row_in_block].extend(line.split_whitespace().flat_map(|w| w.chars()));
        }
        row_in_block += 1;
        if row_in_block == n_taxa {
            row_in_block = 0;
            first_block = false;
        }
    }
    if first_block && taxa.len() != n_taxa {
        return Err(BioError::Parse(format!(
            "header declares {n_taxa} taxa but first block has {}",
            taxa.len()
        )));
    }
    if row_in_block != 0 {
        return Err(BioError::Parse("file ends mid-block".into()));
    }

    let mut rows = Vec::with_capacity(taxa.len());
    for (name, seq) in taxa.iter().zip(&seqs) {
        let decoded = decode_sequence(seq).map_err(|(pos, ch)| BioError::InvalidCharacter {
            taxon: name.clone(),
            position: pos,
            ch,
        })?;
        rows.push(decoded);
    }
    let aln = Alignment::new(taxa, rows)?;
    if aln.n_sites() != n_sites {
        return Err(BioError::Parse(format!(
            "header declares {n_sites} sites but sequences have {}",
            aln.n_sites()
        )));
    }
    Ok(aln)
}

/// Room for the taxa a header declares, but never more than `text` can
/// hold (a taxon line takes at least a name byte and a line break): a
/// header count alone must not size an allocation. A file that falls
/// short of its count is refused after the scan.
fn capacity(n_taxa: usize, text: &str) -> usize {
    n_taxa.min(text.len() / 2)
}

/// Parse PHYLIP, auto-detecting sequential vs interleaved layout: try
/// sequential first (the RAxML default), fall back to interleaved.
pub fn parse_phylip_auto(text: &str) -> Result<Alignment, BioError> {
    match parse_phylip(text) {
        Ok(a) => Ok(a),
        Err(seq_err) => parse_phylip_interleaved(text).map_err(|_| seq_err),
    }
}

/// Render an alignment as relaxed sequential PHYLIP.
pub fn write_phylip(aln: &Alignment) -> String {
    let mut out = format!("{} {}\n", aln.n_taxa(), aln.n_sites());
    for (i, name) in aln.taxa().iter().enumerate() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&aln.row_ascii(i));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = Alignment::from_ascii(&[("alpha", "ACGT-N"), ("beta", "TTGRYA")]).unwrap();
        let text = write_phylip(&a);
        let b = parse_phylip(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_header_mismatch() {
        assert!(parse_phylip("3 4\nt1 ACGT\nt2 ACGT\n").is_err());
        assert!(parse_phylip("2 5\nt1 ACGT\nt2 ACGT\n").is_err());
    }

    #[test]
    fn rejects_missing_header() {
        assert!(parse_phylip("").is_err());
        assert!(parse_phylip("hello\n").is_err());
    }

    #[test]
    fn tolerates_blank_lines_and_split_sequences() {
        let text = "2 8\n\nt1 ACGT ACGT\nt2 TTTT TTTT\n\n";
        let a = parse_phylip(text).unwrap();
        assert_eq!(a.n_sites(), 8);
        assert_eq!(a.row_ascii(1), "TTTTTTTT");
    }

    #[test]
    fn interleaved_roundtrip() {
        let text = "2 12\nalpha ACGT\nbeta  TTTT\n\nACGT\nCCCC\n\nGGGG\nAAAA\n";
        let a = parse_phylip_interleaved(text).unwrap();
        assert_eq!(a.n_taxa(), 2);
        assert_eq!(a.n_sites(), 12);
        assert_eq!(a.row_ascii(0), "ACGTACGTGGGG");
        assert_eq!(a.row_ascii(1), "TTTTCCCCAAAA");
    }

    #[test]
    fn interleaved_rejects_ragged_blocks() {
        // Second block has only one row.
        let text = "2 8\na ACGT\nb TTTT\n\nACGT\n";
        assert!(parse_phylip_interleaved(text).is_err());
    }

    #[test]
    fn interleaved_rejects_wrong_totals() {
        let text = "2 10\na ACGT\nb TTTT\n\nACGT\nCCCC\n";
        assert!(parse_phylip_interleaved(text).is_err());
    }

    #[test]
    fn auto_detect_handles_both_layouts() {
        let sequential = "2 8\nx ACGTACGT\ny TTTTTTTT\n";
        let interleaved = "2 8\nx ACGT\ny TTTT\n\nACGT\nTTTT\n";
        let a = parse_phylip_auto(sequential).unwrap();
        let b = parse_phylip_auto(interleaved).unwrap();
        assert_eq!(a.n_sites(), 8);
        assert_eq!(b.n_sites(), 8);
        assert_eq!(a.row_ascii(0), b.row_ascii(0));
    }

    /// A header count far beyond the file is a parse error in every
    /// layout, not an allocation of that many taxa.
    #[test]
    fn giant_header_counts_are_parse_errors() {
        for text in [
            "100000000000 4\nt0 ACGT\n",
            &format!("{} 4\nt0 ACGT\n", usize::MAX),
            "100000000000 8\nt0 ACGT\n\nACGT\n",
        ] {
            for parse in [parse_phylip, parse_phylip_interleaved, parse_phylip_auto] {
                let err = parse(text).unwrap_err();
                assert!(matches!(err, BioError::Parse(_)), "{text:?}: {err:?}");
            }
        }
    }

    #[test]
    fn reports_invalid_character_with_taxon() {
        let err = parse_phylip("1 4\nbad ACQT\n").unwrap_err();
        match err {
            BioError::InvalidCharacter { taxon, ch, .. } => {
                assert_eq!(taxon, "bad");
                assert_eq!(ch, 'Q');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
