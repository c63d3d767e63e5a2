//! Substitution matrices — the `V(ai, bj)` of the paper's Eq. 2.
//!
//! A [`SubstMatrix`] is a dense `len × len` score table over an encoded
//! alphabet, stored flat so that `scores[a * len + b]` is one indexed load
//! in the kernels. The bundled standard matrices (BLOSUM/PAM families) are
//! embedded in NCBI text format and parsed on construction by
//! [`parser::parse_ncbi`] — this keeps a single source of truth and
//! exercises the same code path a user-supplied matrix file takes.
//!
//! The paper's evaluation uses **BLOSUM62** with gap penalties 10/2.

pub mod data;
pub mod parser;

use crate::alphabet::Alphabet;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A dense substitution matrix over an encoded alphabet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubstMatrix {
    /// Display name, e.g. `BLOSUM62`.
    pub name: Arc<str>,
    /// Alphabet size (row/column count).
    len: usize,
    /// Flat row-major scores: `scores[a * len + b]`.
    scores: Vec<i32>,
}

impl SubstMatrix {
    /// Build from a flat row-major score table.
    ///
    /// # Panics
    /// Panics if `scores.len() != len * len`.
    pub fn from_flat(name: &str, len: usize, scores: Vec<i32>) -> Self {
        assert_eq!(
            scores.len(),
            len * len,
            "flat score table must be len × len"
        );
        SubstMatrix {
            name: name.into(),
            len,
            scores,
        }
    }

    /// The matrix used throughout the paper's evaluation.
    pub fn blosum62() -> Self {
        parser::parse_ncbi("BLOSUM62", data::BLOSUM62, &Alphabet::protein())
            .expect("bundled BLOSUM62 parses")
    }

    /// BLOSUM45 (more divergent sequences).
    pub fn blosum45() -> Self {
        parser::parse_ncbi("BLOSUM45", data::BLOSUM45, &Alphabet::protein())
            .expect("bundled BLOSUM45 parses")
    }

    /// BLOSUM50 (the SSEARCH default).
    pub fn blosum50() -> Self {
        parser::parse_ncbi("BLOSUM50", data::BLOSUM50, &Alphabet::protein())
            .expect("bundled BLOSUM50 parses")
    }

    /// BLOSUM80 (closely related sequences).
    pub fn blosum80() -> Self {
        parser::parse_ncbi("BLOSUM80", data::BLOSUM80, &Alphabet::protein())
            .expect("bundled BLOSUM80 parses")
    }

    /// PAM250 (classic Dayhoff matrix).
    pub fn pam250() -> Self {
        parser::parse_ncbi("PAM250", data::PAM250, &Alphabet::protein())
            .expect("bundled PAM250 parses")
    }

    /// Look up a bundled matrix by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "BLOSUM62" => Some(Self::blosum62()),
            "BLOSUM45" => Some(Self::blosum45()),
            "BLOSUM50" => Some(Self::blosum50()),
            "BLOSUM80" => Some(Self::blosum80()),
            "PAM250" => Some(Self::pam250()),
            _ => None,
        }
    }

    /// Simple match/mismatch matrix (useful for DNA and for tests).
    pub fn match_mismatch(alphabet: &Alphabet, matches: i32, mismatch: i32) -> Self {
        let len = alphabet.len();
        let mut scores = vec![mismatch; len * len];
        for i in 0..len {
            scores[i * len + i] = matches;
        }
        SubstMatrix {
            name: format!("match/mismatch({matches}/{mismatch})").into(),
            len,
            scores,
        }
    }

    /// Alphabet size.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Matrices are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Score of aligning encoded residues `a` and `b`.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize * self.len + b as usize]
    }

    /// Borrow the flat row-major table.
    #[inline]
    pub fn flat(&self) -> &[i32] {
        &self.scores
    }

    /// One row of the table (scores of residue `a` against every residue).
    #[inline]
    pub fn row(&self, a: u8) -> &[i32] {
        let s = a as usize * self.len;
        &self.scores[s..s + self.len]
    }

    /// Maximum score in the table (used for overflow-bound analysis).
    pub fn max_score(&self) -> i32 {
        *self.scores.iter().max().expect("non-empty")
    }

    /// Minimum score in the table.
    pub fn min_score(&self) -> i32 {
        *self.scores.iter().min().expect("non-empty")
    }

    /// True when the table is symmetric (all standard matrices are).
    pub fn is_symmetric(&self) -> bool {
        for a in 0..self.len {
            for b in (a + 1)..self.len {
                if self.scores[a * self.len + b] != self.scores[b * self.len + a] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn enc(a: &Alphabet, c: u8) -> u8 {
        a.encode_byte(c).unwrap()
    }

    #[test]
    fn blosum62_known_values() {
        let a = Alphabet::protein();
        let m = SubstMatrix::blosum62();
        // Spot-check against the canonical NCBI table.
        assert_eq!(m.score(enc(&a, b'A'), enc(&a, b'A')), 4);
        assert_eq!(m.score(enc(&a, b'W'), enc(&a, b'W')), 11);
        assert_eq!(m.score(enc(&a, b'A'), enc(&a, b'R')), -1);
        assert_eq!(m.score(enc(&a, b'N'), enc(&a, b'B')), 3);
        assert_eq!(m.score(enc(&a, b'E'), enc(&a, b'Z')), 4);
        assert_eq!(m.score(enc(&a, b'C'), enc(&a, b'C')), 9);
        assert_eq!(m.score(enc(&a, b'*'), enc(&a, b'*')), 1);
        assert_eq!(m.score(enc(&a, b'A'), enc(&a, b'*')), -4);
    }

    #[test]
    fn all_bundled_matrices_parse_and_are_symmetric() {
        for m in [
            SubstMatrix::blosum62(),
            SubstMatrix::blosum45(),
            SubstMatrix::blosum50(),
            SubstMatrix::blosum80(),
            SubstMatrix::pam250(),
        ] {
            assert_eq!(m.len(), 24, "{}", m.name);
            assert!(m.is_symmetric(), "{} must be symmetric", m.name);
            assert!(m.max_score() > 0, "{} has a positive max", m.name);
            assert!(m.min_score() < 0, "{} has a negative min", m.name);
        }
    }

    #[test]
    fn diagonal_dominant_for_standard_residues() {
        // Self-alignment must beat any substitution for the 20 standard
        // amino acids in every bundled matrix (a property of log-odds
        // matrices that our kernels' self-alignment tests rely on).
        for m in [SubstMatrix::blosum62(), SubstMatrix::blosum50()] {
            for a in 0..20u8 {
                let diag = m.score(a, a);
                assert!(
                    diag > 0,
                    "{}: diagonal of residue {a} must be positive",
                    m.name
                );
            }
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(SubstMatrix::by_name("blosum62").is_some());
        assert!(SubstMatrix::by_name("BLOSUM50").is_some());
        assert!(SubstMatrix::by_name("BLOSUM31415").is_none());
    }

    #[test]
    fn match_mismatch_matrix() {
        let dna = Alphabet::dna();
        let m = SubstMatrix::match_mismatch(&dna, 5, -4);
        assert_eq!(m.score(0, 0), 5);
        assert_eq!(m.score(0, 1), -4);
        assert!(m.is_symmetric());
    }

    #[test]
    fn row_matches_score() {
        let m = SubstMatrix::blosum62();
        for a in 0..24u8 {
            let row = m.row(a);
            for b in 0..24u8 {
                assert_eq!(row[b as usize], m.score(a, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "len × len")]
    fn from_flat_validates_shape() {
        SubstMatrix::from_flat("bad", 3, vec![0; 8]);
    }
}
