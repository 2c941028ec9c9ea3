//! 4-bit nucleotide encoding with IUPAC ambiguity codes.
//!
//! Each nucleotide is stored as a 4-bit mask over the states `{A, C, G, T}`
//! (bit 0 = A, bit 1 = C, bit 2 = G, bit 3 = T). Ambiguity codes set several
//! bits; a gap or `N` sets all four. This is the encoding RAxML and ExaML use
//! internally: the tip conditional likelihood for state `s` is `1.0` iff bit
//! `s` is set, which lets the likelihood kernels treat ambiguous characters
//! uniformly.

/// Number of nucleotide states.
pub const NUM_STATES: usize = 4;

/// A 4-bit encoded nucleotide (possibly ambiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Nucleotide(pub u8);

impl Nucleotide {
    pub const A: Nucleotide = Nucleotide(0b0001);
    pub const C: Nucleotide = Nucleotide(0b0010);
    pub const G: Nucleotide = Nucleotide(0b0100);
    pub const T: Nucleotide = Nucleotide(0b1000);
    /// Fully ambiguous (gap, `N`, `?`, `X`).
    pub const ANY: Nucleotide = Nucleotide(0b1111);

    /// Decode one IUPAC character (case-insensitive). Returns `None` for
    /// characters that are not valid nucleotide codes.
    pub fn from_char(c: char) -> Option<Nucleotide> {
        let bits = match c.to_ascii_uppercase() {
            'A' => 0b0001,
            'C' => 0b0010,
            'G' => 0b0100,
            'T' | 'U' => 0b1000,
            'R' => 0b0101, // A|G
            'Y' => 0b1010, // C|T
            'S' => 0b0110, // C|G
            'W' => 0b1001, // A|T
            'K' => 0b1100, // G|T
            'M' => 0b0011, // A|C
            'B' => 0b1110, // C|G|T
            'D' => 0b1101, // A|G|T
            'H' => 0b1011, // A|C|T
            'V' => 0b0111, // A|C|G
            'N' | '?' | 'X' | '-' | '.' | 'O' => 0b1111,
            _ => return None,
        };
        Some(Nucleotide(bits))
    }

    /// Encode back to the canonical IUPAC character.
    pub fn to_char(self) -> char {
        match self.0 {
            0b0001 => 'A',
            0b0010 => 'C',
            0b0100 => 'G',
            0b1000 => 'T',
            0b0101 => 'R',
            0b1010 => 'Y',
            0b0110 => 'S',
            0b1001 => 'W',
            0b1100 => 'K',
            0b0011 => 'M',
            0b1110 => 'B',
            0b1101 => 'D',
            0b1011 => 'H',
            0b0111 => 'V',
            0b1111 => '-',
            _ => '?',
        }
    }

    /// Is this a concrete (unambiguous) nucleotide?
    pub fn is_concrete(self) -> bool {
        self.0.count_ones() == 1
    }

    /// The concrete state index (0=A, 1=C, 2=G, 3=T), if unambiguous.
    pub fn state(self) -> Option<usize> {
        if self.is_concrete() {
            Some(self.0.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Build from a concrete state index (0=A .. 3=T).
    ///
    /// # Panics
    /// Panics if `state >= 4`.
    pub fn from_state(state: usize) -> Nucleotide {
        assert!(state < NUM_STATES, "nucleotide state out of range: {state}");
        Nucleotide(1u8 << state)
    }
}

impl std::fmt::Display for Nucleotide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Decode an ASCII sequence into nucleotides, reporting the first bad
/// character's position.
pub fn decode_sequence(s: &str) -> Result<Vec<Nucleotide>, (usize, char)> {
    s.chars()
        .filter(|c| !c.is_whitespace())
        .enumerate()
        .map(|(i, c)| Nucleotide::from_char(c).ok_or((i, c)))
        .collect()
}

/// Encode nucleotides back to an ASCII string.
pub fn encode_sequence(seq: &[Nucleotide]) -> String {
    seq.iter().map(|n| n.to_char()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_roundtrip() {
        for (c, s) in [('A', 0), ('C', 1), ('G', 2), ('T', 3)] {
            let n = Nucleotide::from_char(c).unwrap();
            assert!(n.is_concrete());
            assert_eq!(n.state(), Some(s));
            assert_eq!(n.to_char(), c);
            assert_eq!(Nucleotide::from_state(s), n);
        }
    }

    #[test]
    fn ambiguity_codes_roundtrip() {
        for c in "RYSWKMBDHV".chars() {
            let n = Nucleotide::from_char(c).unwrap();
            assert!(!n.is_concrete());
            assert_eq!(n.to_char(), c);
        }
    }

    #[test]
    fn gap_variants_all_map_to_any() {
        for c in "N?X-.".chars() {
            assert_eq!(Nucleotide::from_char(c).unwrap(), Nucleotide::ANY);
        }
    }

    #[test]
    fn uracil_is_thymine() {
        assert_eq!(Nucleotide::from_char('U'), Nucleotide::from_char('T'));
        assert_eq!(Nucleotide::from_char('u'), Nucleotide::from_char('T'));
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(Nucleotide::from_char('a'), Some(Nucleotide::A));
        assert_eq!(Nucleotide::from_char('y'), Nucleotide::from_char('Y'));
    }

    #[test]
    fn invalid_characters_rejected() {
        for c in ['Z', 'J', '1', '*', ' '] {
            assert_eq!(Nucleotide::from_char(c), None, "char {c:?}");
        }
    }

    #[test]
    fn decode_sequence_reports_position() {
        assert_eq!(decode_sequence("ACGZ"), Err((3, 'Z')));
        let seq = decode_sequence("AC GT\n").unwrap();
        assert_eq!(encode_sequence(&seq), "ACGT");
    }

    #[test]
    fn from_state_panics_out_of_range() {
        let r = std::panic::catch_unwind(|| Nucleotide::from_state(4));
        assert!(r.is_err());
    }
}
