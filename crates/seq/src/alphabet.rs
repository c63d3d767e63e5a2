//! Residue alphabets and the dense `u8` encoding used by every kernel.
//!
//! All alignment kernels in the workspace operate on *encoded* residues:
//! small dense integers `0..alphabet.len()` so a substitution-matrix lookup
//! is a single indexed load and a query profile is a flat 2-D array. This
//! module defines the canonical encodings.
//!
//! The protein alphabet follows the convention of SWIPE / BLAST: the 20
//! standard amino acids, the ambiguity codes `B` (Asx), `Z` (Glx), `X`
//! (unknown), and `*` (stop/terminator), 24 symbols total. The paper's
//! evaluation uses BLOSUM62 over exactly this alphabet.

use crate::error::SeqError;
use serde::{Deserialize, Serialize};

/// Which family of molecules an [`Alphabet`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlphabetKind {
    /// Amino acids (24 symbols: 20 standard + B, Z, X, `*`).
    Protein,
    /// Nucleotides (5 symbols: A, C, G, T, N).
    Dna,
}

/// The canonical protein symbol order: `ARNDCQEGHILKMFPSTWYVBZX*`.
///
/// This matches the row/column order of the bundled BLOSUM/PAM matrices,
/// so `matrix[a * 24 + b]` scores encoded residues directly.
pub const PROTEIN_SYMBOLS: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// The canonical DNA symbol order.
pub const DNA_SYMBOLS: &[u8; 5] = b"ACGTN";

/// A residue alphabet: a symbol set plus its dense encoding.
///
/// `Alphabet` is a small value type (two lookup tables); clone freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    kind: AlphabetKind,
    /// Encoded value -> ASCII symbol.
    decode: Vec<u8>,
    /// ASCII byte (uppercased) -> encoded value, 0xFF = invalid.
    encode: [u8; 256],
    /// Code used for unknown/ambiguous residues when parsing leniently.
    unknown_code: u8,
}

impl Alphabet {
    /// The 24-symbol protein alphabet used throughout the paper.
    pub fn protein() -> Self {
        Self::from_symbols(AlphabetKind::Protein, PROTEIN_SYMBOLS, b'X')
    }

    /// The 5-symbol DNA alphabet (`ACGTN`).
    pub fn dna() -> Self {
        Self::from_symbols(AlphabetKind::Dna, DNA_SYMBOLS, b'N')
    }

    fn from_symbols(kind: AlphabetKind, symbols: &[u8], unknown: u8) -> Self {
        let mut encode = [0xFFu8; 256];
        for (code, &sym) in symbols.iter().enumerate() {
            encode[sym as usize] = code as u8;
            encode[sym.to_ascii_lowercase() as usize] = code as u8;
        }
        let unknown_code = encode[unknown as usize];
        debug_assert_ne!(unknown_code, 0xFF, "unknown symbol must be in the alphabet");
        Alphabet {
            kind,
            decode: symbols.to_vec(),
            encode,
            unknown_code,
        }
    }

    /// Which molecule family this alphabet encodes.
    #[inline]
    pub fn kind(&self) -> AlphabetKind {
        self.kind
    }

    /// Number of symbols (24 for protein, 5 for DNA).
    #[inline]
    pub fn len(&self) -> usize {
        self.decode.len()
    }

    /// Alphabets are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dense code for unknown residues (`X` for protein, `N` for DNA).
    #[inline]
    pub fn unknown_code(&self) -> u8 {
        self.unknown_code
    }

    /// Encode one ASCII residue, case-insensitively.
    #[inline]
    pub fn encode_byte(&self, b: u8) -> Option<u8> {
        let code = self.encode[b as usize];
        (code != 0xFF).then_some(code)
    }

    /// Decode one dense code back to its (uppercase) ASCII symbol.
    ///
    /// # Panics
    /// Panics if `code` is out of range; encoded sequences produced by this
    /// crate are always in range.
    #[inline]
    pub fn decode_byte(&self, code: u8) -> u8 {
        self.decode[code as usize]
    }

    /// Encode a full residue string strictly: any byte outside the alphabet
    /// is an error (whitespace is *not* tolerated here — FASTA parsing strips
    /// it earlier).
    pub fn encode_strict(&self, text: &[u8]) -> Result<Vec<u8>, SeqError> {
        let mut out = Vec::with_capacity(text.len());
        for (position, &b) in text.iter().enumerate() {
            match self.encode_byte(b) {
                Some(c) => out.push(c),
                None => return Err(SeqError::InvalidResidue { byte: b, position }),
            }
        }
        Ok(out)
    }

    /// Encode leniently: unknown letters map to the unknown code, and
    /// non-alphabetic bytes are an error. Mirrors how production search
    /// tools (SWIPE, BLAST) tolerate rare non-standard residues (U, O, J)
    /// in real Swiss-Prot entries.
    pub fn encode_lenient(&self, text: &[u8]) -> Result<Vec<u8>, SeqError> {
        let mut out = Vec::with_capacity(text.len());
        for (position, &b) in text.iter().enumerate() {
            match self.encode_byte(b) {
                Some(c) => out.push(c),
                None if b.is_ascii_alphabetic() => out.push(self.unknown_code),
                None => return Err(SeqError::InvalidResidue { byte: b, position }),
            }
        }
        Ok(out)
    }

    /// Decode an encoded sequence back to ASCII.
    pub fn decode(&self, codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| self.decode_byte(c)).collect()
    }

    /// All symbols in encoding order.
    pub fn symbols(&self) -> &[u8] {
        &self.decode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protein_roundtrip_all_symbols() {
        let a = Alphabet::protein();
        assert_eq!(a.len(), 24);
        for (i, &s) in PROTEIN_SYMBOLS.iter().enumerate() {
            assert_eq!(a.encode_byte(s), Some(i as u8));
            assert_eq!(a.decode_byte(i as u8), s);
        }
    }

    #[test]
    fn protein_case_insensitive() {
        let a = Alphabet::protein();
        assert_eq!(a.encode_byte(b'a'), a.encode_byte(b'A'));
        assert_eq!(a.encode_byte(b'w'), a.encode_byte(b'W'));
    }

    #[test]
    fn dna_alphabet() {
        let a = Alphabet::dna();
        assert_eq!(a.len(), 5);
        assert_eq!(a.kind(), AlphabetKind::Dna);
        assert_eq!(a.encode_byte(b'G'), Some(2));
        assert_eq!(a.unknown_code(), 4); // N
    }

    #[test]
    fn strict_rejects_nonstandard() {
        let a = Alphabet::protein();
        // 'U' (selenocysteine) is not one of the 24 canonical symbols.
        let err = a.encode_strict(b"ARU").unwrap_err();
        assert_eq!(
            err,
            SeqError::InvalidResidue {
                byte: b'U',
                position: 2
            }
        );
    }

    #[test]
    fn lenient_maps_nonstandard_to_unknown() {
        let a = Alphabet::protein();
        let enc = a.encode_lenient(b"ARU").unwrap();
        assert_eq!(enc[2], a.unknown_code());
        assert_eq!(a.decode_byte(enc[2]), b'X');
    }

    #[test]
    fn lenient_still_rejects_digits() {
        let a = Alphabet::protein();
        assert!(a.encode_lenient(b"AR3").is_err());
    }

    #[test]
    fn decode_roundtrip() {
        let a = Alphabet::protein();
        let text = b"MKVLITRAW";
        let enc = a.encode_strict(text).unwrap();
        assert_eq!(a.decode(&enc), text.to_vec());
    }

    #[test]
    fn unknown_code_is_x_for_protein() {
        let a = Alphabet::protein();
        assert_eq!(a.decode_byte(a.unknown_code()), b'X');
    }

    #[test]
    fn symbols_accessor() {
        assert_eq!(Alphabet::protein().symbols(), PROTEIN_SYMBOLS);
    }
}
