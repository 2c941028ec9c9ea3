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
        match u8::try_from(c).map_or(0, |b| DECODE[b as usize]) {
            0 | SKIP => None,
            bits => Some(Nucleotide(bits)),
        }
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

/// [`DECODE`]'s mark for the ASCII whitespace sequences may carry.
const SKIP: u8 = 0x10;

/// `DECODE[b]`: the 4-bit code of the IUPAC character `b` (either case),
/// [`SKIP`] for ASCII whitespace (`char::is_whitespace`'s six bytes), and 0
/// for every other byte, non-ASCII bytes included.
static DECODE: [u8; 256] = decode_table();

const fn decode_table() -> [u8; 256] {
    const CODES: [(u8, u8); 21] = [
        (b'A', 0b0001),
        (b'C', 0b0010),
        (b'G', 0b0100),
        (b'T', 0b1000),
        (b'U', 0b1000),
        (b'R', 0b0101), // A|G
        (b'Y', 0b1010), // C|T
        (b'S', 0b0110), // C|G
        (b'W', 0b1001), // A|T
        (b'K', 0b1100), // G|T
        (b'M', 0b0011), // A|C
        (b'B', 0b1110), // C|G|T
        (b'D', 0b1101), // A|G|T
        (b'H', 0b1011), // A|C|T
        (b'V', 0b0111), // A|C|G
        (b'N', 0b1111),
        (b'?', 0b1111),
        (b'X', 0b1111),
        (b'-', 0b1111),
        (b'.', 0b1111),
        (b'O', 0b1111),
    ];
    let mut table = [0u8; 256];
    let mut k = 0;
    while k < CODES.len() {
        let (ch, bits) = CODES[k];
        table[ch as usize] = bits;
        table[ch.to_ascii_lowercase() as usize] = bits;
        k += 1;
    }
    let whitespace = [b'\t', b'\n', 0x0b, 0x0c, b'\r', b' '];
    let mut k = 0;
    while k < whitespace.len() {
        table[whitespace[k] as usize] = SKIP;
        k += 1;
    }
    table
}

/// Decode a sequence into nucleotides, skipping whitespace and reporting
/// the first bad character with its position among the non-whitespace
/// characters. ASCII is decoded byte by byte through a 256-entry table;
/// from the first non-ASCII byte on the rest is decoded by `char`, so
/// Unicode whitespace is skipped and a bad character is reported whole.
pub fn decode_sequence(s: &str) -> Result<Vec<Nucleotide>, (usize, char)> {
    // Grown, not pre-sized to `s.len()`: pre-sizing moves the heap layout
    // of what is allocated after parsing, and `wide_gamma`'s wall measured
    // 6–7 % slower with it (EXPERIMENTS.md).
    let mut out = Vec::new();
    for (at, &b) in s.as_bytes().iter().enumerate() {
        match DECODE[b as usize] {
            SKIP => {}
            0 if b.is_ascii() => return Err((out.len(), b as char)),
            0 => return decode_chars(&s[at..], out),
            bits => out.push(Nucleotide(bits)),
        }
    }
    Ok(out)
}

/// [`decode_sequence`]'s `char` loop, appending to `out`.
fn decode_chars(s: &str, mut out: Vec<Nucleotide>) -> Result<Vec<Nucleotide>, (usize, char)> {
    for c in s.chars().filter(|c| !c.is_whitespace()) {
        let n = Nucleotide::from_char(c).ok_or((out.len(), c))?;
        out.push(n);
    }
    Ok(out)
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
    fn decode_error_after_embedded_whitespace_counts_bases_only() {
        assert_eq!(decode_sequence("AC\tG T\r\n\x0bZA"), Err((4, 'Z')));
    }

    #[test]
    fn decode_reports_a_non_ascii_character_whole() {
        assert_eq!(decode_sequence("AC GTé"), Err((4, 'é')));
        assert_eq!(decode_sequence("A\u{00a0}C\u{03a9}"), Err((2, 'Ω')));
    }

    #[test]
    fn decode_skips_a_no_break_space_between_bases() {
        let seq = decode_sequence("AC\u{00a0}GT\u{2003}a").unwrap();
        assert_eq!(encode_sequence(&seq), "ACGTA");
    }

    #[test]
    fn table_agrees_with_a_match_on_every_byte() {
        for b in 0..=255u8 {
            let c = b as char;
            let want = match c.to_ascii_uppercase() {
                'A' => Some(0b0001),
                'C' => Some(0b0010),
                'G' => Some(0b0100),
                'T' | 'U' => Some(0b1000),
                'R' => Some(0b0101),
                'Y' => Some(0b1010),
                'S' => Some(0b0110),
                'W' => Some(0b1001),
                'K' => Some(0b1100),
                'M' => Some(0b0011),
                'B' => Some(0b1110),
                'D' => Some(0b1101),
                'H' => Some(0b1011),
                'V' => Some(0b0111),
                'N' | '?' | 'X' | '-' | '.' | 'O' => Some(0b1111),
                _ => None,
            };
            assert_eq!(Nucleotide::from_char(c), want.map(Nucleotide), "{c:?}");
            let text = format!("A{c}C");
            let decoded = decode_sequence(&text);
            match want {
                Some(bits) => assert_eq!(
                    decoded,
                    Ok(vec![Nucleotide::A, Nucleotide(bits), Nucleotide::C])
                ),
                None if c.is_whitespace() => {
                    assert_eq!(decoded, Ok(vec![Nucleotide::A, Nucleotide::C]))
                }
                None => assert_eq!(decoded, Err((1, c)), "{c:?}"),
            }
        }
    }

    #[test]
    fn from_state_panics_out_of_range() {
        let r = std::panic::catch_unwind(|| Nucleotide::from_state(4));
        assert!(r.is_err());
    }
}
