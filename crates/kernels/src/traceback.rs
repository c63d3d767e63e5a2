//! Full-matrix Smith-Waterman with affine-gap traceback — step (4) of the
//! paper's §II description: *"a backtracking process finds the pair of
//! segments with maximum similarity."*
//!
//! Database search only needs scores (the vector kernels), but a usable
//! tool must render the best alignments; the CLI calls this on the top-k
//! hits. Memory is `O(M·N)` — fine for reporting a handful of hits,
//! deliberately not used during search.

use crate::scalar::{SwParams, NEG_INF};
use serde::{Deserialize, Serialize};

/// One step of an alignment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlignOp {
    /// Query residue aligned to subject residue (match or substitution).
    Align,
    /// Gap in the subject (query residue consumed alone).
    InsertQuery,
    /// Gap in the query (subject residue consumed alone).
    InsertSubject,
}

/// A local alignment with its path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alignment {
    /// Optimal local score `G` (Eq. 6).
    pub score: i64,
    /// Query range `[start, end)` of the aligned segment (0-based).
    pub query_range: (usize, usize),
    /// Subject range `[start, end)` of the aligned segment.
    pub subject_range: (usize, usize),
    /// Path from head to tail of the alignment.
    pub ops: Vec<AlignOp>,
}

impl Alignment {
    /// Recompute the score of this path from scratch — used by property
    /// tests to validate traceback consistency.
    pub fn recompute_score(&self, query: &[u8], subject: &[u8], params: &SwParams) -> i64 {
        let mut qi = self.query_range.0;
        let mut sj = self.subject_range.0;
        let first = params.gap.first() as i64;
        let extend = params.gap.extend as i64;
        let mut score = 0i64;
        let mut prev: Option<AlignOp> = None;
        for &op in &self.ops {
            match op {
                AlignOp::Align => {
                    score += params.matrix.score(query[qi], subject[sj]) as i64;
                    qi += 1;
                    sj += 1;
                }
                AlignOp::InsertQuery => {
                    score -= if prev == Some(AlignOp::InsertQuery) {
                        extend
                    } else {
                        first
                    };
                    qi += 1;
                }
                AlignOp::InsertSubject => {
                    score -= if prev == Some(AlignOp::InsertSubject) {
                        extend
                    } else {
                        first
                    };
                    sj += 1;
                }
            }
            prev = Some(op);
        }
        debug_assert_eq!(qi, self.query_range.1);
        debug_assert_eq!(sj, self.subject_range.1);
        score
    }

    /// Render the classic three-line alignment view (query / bars / subject)
    /// using `alphabet` for decoding.
    pub fn render(&self, query: &[u8], subject: &[u8], alphabet: &sw_seq::Alphabet) -> String {
        let mut top = String::new();
        let mut mid = String::new();
        let mut bot = String::new();
        let mut qi = self.query_range.0;
        let mut sj = self.subject_range.0;
        for &op in &self.ops {
            match op {
                AlignOp::Align => {
                    let qc = alphabet.decode_byte(query[qi]) as char;
                    let sc = alphabet.decode_byte(subject[sj]) as char;
                    top.push(qc);
                    mid.push(if qc == sc { '|' } else { ' ' });
                    bot.push(sc);
                    qi += 1;
                    sj += 1;
                }
                AlignOp::InsertQuery => {
                    top.push(alphabet.decode_byte(query[qi]) as char);
                    mid.push(' ');
                    bot.push('-');
                    qi += 1;
                }
                AlignOp::InsertSubject => {
                    top.push('-');
                    mid.push(' ');
                    bot.push(alphabet.decode_byte(subject[sj]) as char);
                    sj += 1;
                }
            }
        }
        format!("{top}\n{mid}\n{bot}")
    }
}

/// Summary statistics of an alignment path — the numbers BLAST-style
/// reports print per hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlignStats {
    /// Alignment columns (matches + mismatches + gap positions).
    pub columns: usize,
    /// Identical residue pairs.
    pub identities: usize,
    /// Positively-scoring residue pairs (includes identities).
    pub positives: usize,
    /// Gap openings.
    pub gap_opens: usize,
    /// Total gapped columns.
    pub gap_columns: usize,
}

impl AlignStats {
    /// Percent identity over alignment columns.
    pub fn pct_identity(&self) -> f64 {
        if self.columns == 0 {
            0.0
        } else {
            100.0 * self.identities as f64 / self.columns as f64
        }
    }
}

impl Alignment {
    /// Compute per-column statistics of this alignment.
    pub fn stats(&self, query: &[u8], subject: &[u8], params: &SwParams) -> AlignStats {
        let mut qi = self.query_range.0;
        let mut sj = self.subject_range.0;
        let mut stats = AlignStats {
            columns: self.ops.len(),
            identities: 0,
            positives: 0,
            gap_opens: 0,
            gap_columns: 0,
        };
        let mut prev: Option<AlignOp> = None;
        for &op in &self.ops {
            match op {
                AlignOp::Align => {
                    if query[qi] == subject[sj] {
                        stats.identities += 1;
                    }
                    if params.matrix.score(query[qi], subject[sj]) > 0 {
                        stats.positives += 1;
                    }
                    qi += 1;
                    sj += 1;
                }
                AlignOp::InsertQuery => {
                    if prev != Some(AlignOp::InsertQuery) {
                        stats.gap_opens += 1;
                    }
                    stats.gap_columns += 1;
                    qi += 1;
                }
                AlignOp::InsertSubject => {
                    if prev != Some(AlignOp::InsertSubject) {
                        stats.gap_opens += 1;
                    }
                    stats.gap_columns += 1;
                    sj += 1;
                }
            }
            prev = Some(op);
        }
        stats
    }
}

/// DP matrix state for affine traceback.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    H,
    E,
    F,
}

/// Full Smith-Waterman alignment of one pair, with traceback.
///
/// Returns `None` when the best score is 0 (no local alignment at all).
pub fn sw_align(query: &[u8], subject: &[u8], params: &SwParams) -> Option<Alignment> {
    let m = query.len();
    let n = subject.len();
    if m == 0 || n == 0 {
        return None;
    }
    let first = params.gap.first() as i64;
    let extend = params.gap.extend as i64;
    let w = n + 1;
    // Three full matrices (H, E, F) so the affine path is exact.
    let mut h = vec![0i64; (m + 1) * w];
    let mut e = vec![NEG_INF; (m + 1) * w];
    let mut f = vec![NEG_INF; (m + 1) * w];
    let mut best = 0i64;
    let mut best_at = (0usize, 0usize);
    for i in 1..=m {
        let row = params.matrix.row(query[i - 1]);
        for j in 1..=n {
            let ix = i * w + j;
            let up = ix - w;
            let left = ix - 1;
            e[ix] = (h[up] - first).max(e[up] - extend);
            f[ix] = (h[left] - first).max(f[left] - extend);
            let diag = h[up - 1] + row[subject[j - 1] as usize] as i64;
            let v = diag.max(e[ix]).max(f[ix]).max(0);
            h[ix] = v;
            if v > best {
                best = v;
                best_at = (i, j);
            }
        }
    }
    if best == 0 {
        return None;
    }
    // Backtrack from the best cell through the three-state automaton.
    let (mut i, mut j) = best_at;
    let mut state = State::H;
    let mut ops_rev = Vec::new();
    loop {
        let ix = i * w + j;
        match state {
            State::H => {
                if h[ix] == 0 {
                    break; // head of the local alignment
                }
                if h[ix] == e[ix] {
                    state = State::E;
                } else if h[ix] == f[ix] {
                    state = State::F;
                } else {
                    ops_rev.push(AlignOp::Align);
                    i -= 1;
                    j -= 1;
                }
            }
            State::E => {
                // E[i][j] came from H[i-1][j] (open) or E[i-1][j] (extend).
                ops_rev.push(AlignOp::InsertQuery);
                let up = (i - 1) * w + j;
                state = if e[ix] == e[up] - extend {
                    State::E
                } else {
                    State::H
                };
                i -= 1;
            }
            State::F => {
                ops_rev.push(AlignOp::InsertSubject);
                let left = i * w + j - 1;
                state = if f[ix] == f[left] - extend {
                    State::F
                } else {
                    State::H
                };
                j -= 1;
            }
        }
    }
    ops_rev.reverse();
    Some(Alignment {
        score: best,
        query_range: (i, best_at.0),
        subject_range: (j, best_at.1),
        ops: ops_rev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::sw_score_scalar;
    use sw_seq::{Alphabet, GapPenalty, SubstMatrix};

    fn enc(s: &[u8]) -> Vec<u8> {
        Alphabet::protein().encode_strict(s).unwrap()
    }

    fn align(q: &[u8], d: &[u8]) -> Option<Alignment> {
        sw_align(&enc(q), &enc(d), &SwParams::paper_default())
    }

    #[test]
    fn score_matches_scalar_kernel() {
        let cases: [(&[u8], &[u8]); 5] = [
            (b"MKVLITRAW", b"MKVLITRAW"),
            (b"MKVLITRAW", b"MKRLIW"),
            (b"AAAA", b"AAGGAA"),
            (b"ARNDCQEGHILKMFPSTWYV", b"VYWTSPFMKLIHGEQCDNRA"),
            (b"WWPWW", b"WWW"),
        ];
        let p = SwParams::paper_default();
        for (q, d) in cases {
            let (qe, de) = (enc(q), enc(d));
            let expect = sw_score_scalar(&qe, &de, &p);
            let got = sw_align(&qe, &de, &p).map(|a| a.score).unwrap_or(0);
            assert_eq!(got, expect, "q={:?} d={:?}", q, d);
        }
    }

    #[test]
    fn traceback_score_is_consistent() {
        let p = SwParams::paper_default();
        let q = enc(b"MKVLITRAWQESTNHY");
        let d = enc(b"MKVITRWWQESNHY");
        let a = sw_align(&q, &d, &p).unwrap();
        assert_eq!(a.recompute_score(&q, &d, &p), a.score);
    }

    #[test]
    fn no_alignment_returns_none() {
        assert!(align(b"W", b"P").is_none());
        assert!(align(b"", b"AAA").is_none());
    }

    #[test]
    fn perfect_alignment_is_all_matches() {
        let a = align(b"MKVLIT", b"MKVLIT").unwrap();
        assert_eq!(a.ops, vec![AlignOp::Align; 6]);
        assert_eq!(a.query_range, (0, 6));
        assert_eq!(a.subject_range, (0, 6));
    }

    #[test]
    fn embedded_motif_ranges() {
        let a = align(b"MKVLITRAW", b"PPPPMKVLITRAWPPPP").unwrap();
        assert_eq!(a.query_range, (0, 9));
        assert_eq!(a.subject_range, (4, 13));
    }

    #[test]
    fn gap_appears_with_cheap_penalties() {
        let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(1, 1));
        let q = enc(b"AAAA");
        let d = enc(b"AAGGAA");
        let a = sw_align(&q, &d, &p).unwrap();
        assert!(a.ops.contains(&AlignOp::InsertSubject), "ops = {:?}", a.ops);
        assert_eq!(a.recompute_score(&q, &d, &p), a.score);
    }

    #[test]
    fn render_shows_bars_for_matches() {
        let a = align(b"MKV", b"MKV").unwrap();
        let text = a.render(&enc(b"MKV"), &enc(b"MKV"), &Alphabet::protein());
        assert_eq!(text, "MKV\n|||\nMKV");
    }

    #[test]
    fn render_shows_gaps() {
        let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(1, 1));
        let q = enc(b"AAAA");
        let d = enc(b"AAGGAA");
        let a = sw_align(&q, &d, &p).unwrap();
        let text = a.render(&q, &d, &Alphabet::protein());
        assert!(text.contains('-'), "rendered:\n{text}");
    }

    #[test]
    fn stats_perfect_alignment() {
        let p = SwParams::paper_default();
        let q = enc(b"MKVLIT");
        let a = sw_align(&q, &q, &p).unwrap();
        let s = a.stats(&q, &q, &p);
        assert_eq!(s.columns, 6);
        assert_eq!(s.identities, 6);
        assert_eq!(s.positives, 6);
        assert_eq!(s.gap_opens, 0);
        assert_eq!(s.pct_identity(), 100.0);
    }

    #[test]
    fn stats_with_substitutions() {
        let p = SwParams::paper_default();
        // K→R is a positive substitution (BLOSUM62 K-R = 2), V→P negative.
        let q = enc(b"MKVLIT");
        let d = enc(b"MRVLIT");
        let a = sw_align(&q, &d, &p).unwrap();
        let s = a.stats(&q, &d, &p);
        assert_eq!(s.identities, 5);
        assert_eq!(s.positives, 6, "K-R scores +2: counted as positive");
        assert!((s.pct_identity() - 5.0 / 6.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn stats_count_gaps() {
        let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(1, 1));
        let q = enc(b"WWWW");
        let d = enc(b"WWGGWW");
        let a = sw_align(&q, &d, &p).unwrap();
        let s = a.stats(&q, &d, &p);
        assert_eq!(s.gap_opens, 1);
        assert_eq!(s.gap_columns, 2);
        assert_eq!(s.identities, 4);
        assert_eq!(s.columns, 6);
    }

    #[test]
    fn traceback_with_long_gap_run() {
        // Force a long gap (cheap extension) and validate path-score equality.
        let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(2, 1));
        let q = enc(b"WWWWWWWW");
        let d = enc(b"WWWWAAAAAAWWWW");
        let a = sw_align(&q, &d, &p).unwrap();
        assert_eq!(a.recompute_score(&q, &d, &p), a.score);
    }
}
