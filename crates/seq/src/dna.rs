//! DNA-specific utilities.
//!
//! The paper's evaluation is protein search, but the introduction frames
//! SW in sequencing terms ("k is usually 11 for a DNA sequence"), and the
//! engine is alphabet-generic. This module supplies what a nucleotide
//! search needs on top of the [`crate::alphabet::Alphabet::dna`]
//! encoding: the reverse complement for minus-strand search, and scoring
//! matrices with ambiguous-base handling.

use crate::alphabet::Alphabet;
use crate::matrices::SubstMatrix;

/// Complement of an encoded DNA residue (`A↔T`, `C↔G`, `N→N`).
#[inline]
pub fn complement_code(code: u8) -> u8 {
    match code {
        0 => 3,         // A -> T
        1 => 2,         // C -> G
        2 => 1,         // G -> C
        3 => 0,         // T -> A
        other => other, // N and anything else stays put
    }
}

/// Reverse complement of an encoded DNA sequence.
pub fn reverse_complement(residues: &[u8]) -> Vec<u8> {
    residues.iter().rev().map(|&c| complement_code(c)).collect()
}

/// A DNA scoring matrix: `match`/`mismatch` over ACGT, with `N` scoring
/// `n_score` against everything (0 = neutral, negative = penalised).
///
/// The defaults (+5/−4, N = −2) are the classic BLASTN megablast-era
/// values.
pub fn dna_matrix(matches: i32, mismatch: i32, n_score: i32) -> SubstMatrix {
    let a = Alphabet::dna();
    let len = a.len();
    let mut scores = vec![mismatch; len * len];
    for i in 0..4 {
        scores[i * len + i] = matches;
    }
    let n = 4usize; // code of 'N'
    for i in 0..len {
        scores[n * len + i] = n_score;
        scores[i * len + n] = n_score;
    }
    SubstMatrix::from_flat(
        &format!("DNA({matches}/{mismatch},N={n_score})"),
        len,
        scores,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(s: &[u8]) -> Vec<u8> {
        Alphabet::dna().encode_strict(s).unwrap()
    }

    fn dec(codes: &[u8]) -> Vec<u8> {
        Alphabet::dna().decode(codes)
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(dec(&reverse_complement(&enc(b"ACGT"))), b"ACGT".to_vec());
        assert_eq!(dec(&reverse_complement(&enc(b"AAAA"))), b"TTTT".to_vec());
        assert_eq!(
            dec(&reverse_complement(&enc(b"GATTACA"))),
            b"TGTAATC".to_vec()
        );
        assert_eq!(dec(&reverse_complement(&enc(b"ACGN"))), b"NCGT".to_vec());
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s = enc(b"ACGTACGTNNGGCC");
        assert_eq!(reverse_complement(&reverse_complement(&s)), s);
    }

    #[test]
    fn dna_matrix_values() {
        let m = dna_matrix(5, -4, -2);
        let a = Alphabet::dna();
        let (ac, gc, nc) = (
            a.encode_byte(b'A').unwrap(),
            a.encode_byte(b'G').unwrap(),
            a.encode_byte(b'N').unwrap(),
        );
        assert_eq!(m.score(ac, ac), 5);
        assert_eq!(m.score(ac, gc), -4);
        assert_eq!(m.score(nc, ac), -2);
        assert_eq!(m.score(nc, nc), -2);
        assert!(m.is_symmetric());
    }

    #[test]
    fn minus_strand_alignment_via_revcomp() {
        use crate::gap::GapPenalty;
        // A query that matches the minus strand of the subject: direct
        // alignment is poor, reverse-complement alignment is perfect.
        let query = enc(b"ACGTACGTACGTACCGGT");
        let subject = {
            let rc = reverse_complement(&query);
            let mut s = enc(b"TTTT");
            s.extend_from_slice(&rc);
            s.extend_from_slice(&enc(b"TTTT"));
            s
        };
        let params_matrix = dna_matrix(5, -4, -2);
        let gap = GapPenalty::new(10, 2);
        let sw = |q: &[u8], s: &[u8]| -> i64 {
            // Local scalar SW (duplicated minimal logic not needed — use a
            // simple check through the matrix: delegated to sw-kernels in
            // integration tests; here verify profile-level consistency).
            let mut best = 0i64;
            let n = s.len();
            let mut h_row = vec![0i64; n + 1];
            let mut e_col = vec![i64::MIN / 4; n + 1];
            let first = gap.first() as i64;
            let ext = gap.extend as i64;
            for &qc in q {
                let mut h_diag = 0i64;
                let mut h_left = 0i64;
                let mut f = i64::MIN / 4;
                for j in 1..=n {
                    let up = h_row[j];
                    let e = (up - first).max(e_col[j] - ext);
                    f = (h_left - first).max(f - ext);
                    let h = (h_diag + params_matrix.score(qc, s[j - 1]) as i64)
                        .max(e)
                        .max(f)
                        .max(0);
                    h_diag = up;
                    e_col[j] = e;
                    h_row[j] = h;
                    h_left = h;
                    best = best.max(h);
                }
            }
            best
        };
        let plus = sw(&query, &subject);
        let minus = sw(&reverse_complement(&query), &subject);
        assert_eq!(minus, 18 * 5, "minus strand is a perfect 18-base match");
        assert!(plus < minus, "plus {plus} vs minus {minus}");
    }
}
