//! Query and sequence profiles — the paper's two substitution-score
//! layouts (§IV) — and the score table the fused kernel shuffles instead
//! of materialising the second one.
//!
//! **Query profile (QP)**: a `|Q| × |Σ'|` table built once per query in the
//! pre-processing stage. Row `i` holds the scores of query residue `q_i`
//! against every possible database residue code. In the inner loop the
//! kernel must *gather* `L` entries of row `i` indexed by the `L` database
//! residues — cheap on hardware with vector-gather (the Phi), expensive
//! where it must be emulated with shuffles (AVX Xeon). This asymmetry is
//! exactly what Figs. 3–6 of the paper show.
//!
//! **Sequence profile (SP)**: a `|Σ| × N_pad × L` table built *per lane
//! batch* ("these profiles cannot be constructed in the pre-processing
//! stage"). Entry `(e, j, lane)` scores alphabet residue `e` against the
//! lane's residue at database position `j`; the kernel then loads row
//! `(q_i, j)` as one contiguous vector. The build cost is `|Σ|·N·L` — it
//! amortises over `M·N·L` DP cells, which is why SP gets *better* as the
//! query grows (Fig. 6). This is the paper's SP as published; the default
//! search path no longer builds it — it is the comparator the fused
//! kernel is tested and benchmarked against, and the fallback where the
//! fused kernel does not engage.
//!
//! **Score table** ([`ScoreTable`]): `|Σ|` rows × 32 `i8` columns, built
//! once per *search* — it depends on neither the query nor the batch. Row
//! `e` is the substitution row of residue `e` laid out so that a byte
//! shuffle indexed by a lane batch's residue codes yields SP row `(e, j)`
//! in registers (SWIPE's and SWAPHI's InterSP scheme): the kernel derives
//! the SP values one database column at a time and never stores the
//! `|Σ|·N_pad·L` table. One set of signed rows serves both tiers: the i16
//! sweep sign-extends what it shuffles, the floor-offset byte pass that
//! runs before it adds the bytes as they are.
//!
//! `Σ'` is the alphabet plus the pad sentinel; pad entries score
//! [`PAD_SCORE`] so a padded cell's diagonal term is never above zero, at
//! every element width.

use crate::aligned::AlignedBuf;
use crate::batch::{pad_code, profile_codes, LaneBatch, PAD_SCORE};
use sw_seq::{Alphabet, SubstMatrix};

/// Per-query substitution-score table (built once per query).
///
/// ```
/// use sw_swdb::QueryProfile;
/// use sw_seq::{Alphabet, SubstMatrix};
///
/// let a = Alphabet::protein();
/// let m = SubstMatrix::blosum62();
/// let query = a.encode_strict(b"MKW").unwrap();
/// let qp = QueryProfile::build(&query, &m, &a);
/// // Row 2 holds W's scores against every residue: W-W is +11.
/// let w = a.encode_byte(b'W').unwrap();
/// assert_eq!(qp.score(2, w), 11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Row stride = alphabet size + 1 (pad column).
    stride: usize,
    /// Query length `M`.
    query_len: usize,
    /// `scores[i * stride + c]` = V(q_i, c); the pad column is PAD_SCORE.
    scores: Vec<i16>,
}

impl QueryProfile {
    /// Build from an encoded query under `matrix`.
    ///
    /// # Panics
    /// Panics if the matrix dimension differs from the alphabet size or if
    /// the query contains codes outside the alphabet.
    pub fn build(query: &[u8], matrix: &SubstMatrix, alphabet: &Alphabet) -> Self {
        assert_eq!(
            matrix.len(),
            alphabet.len(),
            "matrix/alphabet size mismatch"
        );
        let stride = profile_codes(alphabet);
        let mut scores = Vec::with_capacity(query.len() * stride);
        for &q in query {
            assert!(
                (q as usize) < alphabet.len(),
                "query residue code {q} outside alphabet"
            );
            for c in 0..alphabet.len() {
                let v = matrix.score(q, c as u8);
                scores.push(i16::try_from(v).expect("score fits i16"));
            }
            scores.push(PAD_SCORE as i16);
        }
        QueryProfile {
            stride,
            query_len: query.len(),
            scores,
        }
    }

    /// Query length `M`.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Row stride (alphabet size + 1).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Scores of query position `i` against every residue code.
    #[inline]
    pub fn row(&self, i: usize) -> &[i16] {
        let s = i * self.stride;
        &self.scores[s..s + self.stride]
    }

    /// Score of query position `i` against database residue code `c`
    /// (including the pad code).
    #[inline]
    pub fn score(&self, i: usize, c: u8) -> i16 {
        self.scores[i * self.stride + c as usize]
    }

    /// Approximate memory footprint in bytes (the paper: "it increases
    /// memory requirements but it is negligible").
    pub fn bytes(&self) -> usize {
        self.scores.len() * 2
    }
}

/// Per-batch substitution-score table (built per lane batch, per §IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceProfile {
    /// Lane count `L`.
    lanes: usize,
    /// Padded batch length `N_pad`.
    padded_len: usize,
    /// Alphabet size (rows).
    codes: usize,
    /// `scores[(e * padded_len + j) * lanes + lane]` = V(e, d_j^lane),
    /// in a 64-byte-aligned buffer. Each row starts `lanes` elements
    /// apart, so for the intrinsic lane widths (8/16 × i16) every row
    /// address is 16-/32-byte aligned — the alignment contract the
    /// `sw_kernels::arch` SP kernels load under.
    scores: AlignedBuf<i16>,
}

impl SequenceProfile {
    /// Build for one batch under `matrix`.
    pub fn build(batch: &LaneBatch, matrix: &SubstMatrix, alphabet: &Alphabet) -> Self {
        assert_eq!(
            matrix.len(),
            alphabet.len(),
            "matrix/alphabet size mismatch"
        );
        let lanes = batch.lanes();
        let n = batch.padded_len();
        let codes = alphabet.len();
        let pad = pad_code(alphabet);
        let mut buf = AlignedBuf::<i16>::zeroed(codes * n * lanes);
        let scores = buf.as_mut_slice();
        for e in 0..codes {
            let row = matrix.row(e as u8);
            let base = e * n * lanes;
            for j in 0..n {
                let residues = batch.row(j);
                let out = &mut scores[base + j * lanes..base + (j + 1) * lanes];
                for (lane, &r) in residues.iter().enumerate() {
                    out[lane] = if r == pad {
                        PAD_SCORE as i16
                    } else {
                        i16::try_from(row[r as usize]).expect("score fits i16")
                    };
                }
            }
        }
        SequenceProfile {
            lanes,
            padded_len: n,
            codes,
            scores: buf,
        }
    }

    /// Lane count `L`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Padded batch length.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.padded_len
    }

    /// The `L` scores of query-residue code `e` at database position `j` —
    /// the contiguous vector load of the SP kernels. The returned slice
    /// starts `(e·N_pad + j)·L` elements past a 64-byte-aligned base, so
    /// it is `2·L`-byte aligned (16 B at 8 lanes, 32 B at 16 lanes).
    #[inline]
    pub fn row(&self, e: u8, j: usize) -> &[i16] {
        let s = (e as usize * self.padded_len + j) * self.lanes;
        &self.scores.as_slice()[s..s + self.lanes]
    }

    /// Approximate memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.scores.len() * 2
    }
}

/// Columns of one [`ScoreTable`] row: two 16-byte shuffle halves.
pub const SCORE_TABLE_COLS: usize = 32;

/// Per-search substitution-score table for the fused SP kernel, plus what
/// the materialised fallback needs (the matrix and alphabet it was built
/// from).
///
/// ```
/// use sw_swdb::{batch::PAD_SCORE, ScoreTable};
/// use sw_seq::{Alphabet, SubstMatrix};
///
/// let a = Alphabet::protein();
/// let m = SubstMatrix::blosum62();
/// let table = ScoreTable::build(&m, &a);
/// let rows = table.rows().expect("BLOSUM62 fits i8, 24 codes fit 32 columns");
/// let w = a.encode_byte(b'W').unwrap() as usize;
/// assert_eq!(rows[w][w], 11);
/// assert_eq!(rows[w][a.len()] as i32, PAD_SCORE); // the pad column
/// ```
#[derive(Debug, Clone)]
pub struct ScoreTable<'a> {
    matrix: &'a SubstMatrix,
    alphabet: &'a Alphabet,
    /// `rows[e][c]` = V(e, c) for residue codes `c < |Σ|`, [`PAD_SCORE`]
    /// for the pad code and every column past it. `None` when a score does
    /// not fit `i8` or the alphabet plus pad exceeds the columns.
    rows: Option<Vec<[i8; SCORE_TABLE_COLS]>>,
}

impl<'a> ScoreTable<'a> {
    /// Build for `matrix` over `alphabet`. Whether the shuffle rows exist
    /// is decided from these two inputs alone.
    ///
    /// # Panics
    /// Panics if the matrix dimension differs from the alphabet size.
    pub fn build(matrix: &'a SubstMatrix, alphabet: &'a Alphabet) -> Self {
        assert_eq!(
            matrix.len(),
            alphabet.len(),
            "matrix/alphabet size mismatch"
        );
        let rows = (profile_codes(alphabet) <= SCORE_TABLE_COLS)
            .then(|| (0..alphabet.len() as u8).map(|e| Self::shuffle_row(matrix.row(e))))
            .and_then(Iterator::collect);
        ScoreTable {
            matrix,
            alphabet,
            rows,
        }
    }

    /// One substitution row narrowed to `i8` and padded with [`PAD_SCORE`];
    /// `None` when a score does not fit.
    fn shuffle_row(scores: &[i32]) -> Option<[i8; SCORE_TABLE_COLS]> {
        let mut row = [PAD_SCORE as i8; SCORE_TABLE_COLS];
        for (o, &v) in row.iter_mut().zip(scores) {
            *o = i8::try_from(v).ok()?;
        }
        Some(row)
    }

    /// The shuffle rows, one per residue code — `None` when the matrix
    /// does not fit `i8` or the alphabet has more than 31 codes (the
    /// kernels then materialise a [`SequenceProfile`]).
    #[inline]
    pub fn rows(&self) -> Option<&[[i8; SCORE_TABLE_COLS]]> {
        self.rows.as_deref()
    }

    /// The matrix the table was built from.
    #[inline]
    pub fn matrix(&self) -> &'a SubstMatrix {
        self.matrix
    }

    /// The alphabet the table was built over.
    #[inline]
    pub fn alphabet(&self) -> &'a Alphabet {
        self.alphabet
    }
}

/// Narrow (i8) copy of a [`QueryProfile`] — the first tier of the
/// SWIPE-style dual-precision cascade. Substitution scores of every
/// bundled matrix fit `i8` comfortably (BLOSUM62 spans −4..11); the pad
/// score −128 is `i8::MIN`, which the saturating kernels treat as −∞.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfileI8 {
    stride: usize,
    query_len: usize,
    scores: Vec<i8>,
}

impl QueryProfileI8 {
    /// Narrow an existing profile.
    ///
    /// # Panics
    /// Panics if any score falls outside `i8` range (never for the
    /// bundled matrices).
    pub fn from_wide(qp: &QueryProfile) -> Self {
        let scores = (0..qp.query_len())
            .flat_map(|i| qp.row(i).iter().copied())
            .map(|v| i8::try_from(v).expect("substitution score fits i8"))
            .collect();
        QueryProfileI8 {
            stride: qp.stride(),
            query_len: qp.query_len(),
            scores,
        }
    }

    /// Query length `M`.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Scores of query position `i` against every residue code.
    #[inline]
    pub fn row(&self, i: usize) -> &[i8] {
        let s = i * self.stride;
        &self.scores[s..s + self.stride]
    }
}

/// Narrow (i8) copy of a [`SequenceProfile`]. Scores live in the same
/// 64-byte-aligned storage as the wide profile (rows are `L`-byte
/// aligned: 16 B at 16 lanes, 32 B at 32 lanes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceProfileI8 {
    lanes: usize,
    padded_len: usize,
    scores: AlignedBuf<i8>,
}

impl SequenceProfileI8 {
    /// Narrow an existing profile.
    pub fn from_wide(sp: &SequenceProfile) -> Self {
        let wide = sp.scores.as_slice();
        let mut buf = AlignedBuf::<i8>::zeroed(wide.len());
        for (n, &v) in buf.as_mut_slice().iter_mut().zip(wide) {
            *n = i8::try_from(v).expect("substitution score fits i8");
        }
        SequenceProfileI8 {
            lanes: sp.lanes,
            padded_len: sp.padded_len,
            scores: buf,
        }
    }

    /// Lane count `L`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Padded batch length.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.padded_len
    }

    /// The `L` scores of query-residue code `e` at database position `j`
    /// (an `L`-byte-aligned slice, as for [`SequenceProfile::row`]).
    #[inline]
    pub fn row(&self, e: u8, j: usize) -> &[i8] {
        let s = (e as usize * self.padded_len + j) * self.lanes;
        &self.scores.as_slice()[s..s + self.lanes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::SeqId;

    fn setup() -> (Alphabet, SubstMatrix) {
        (Alphabet::protein(), SubstMatrix::blosum62())
    }

    #[test]
    fn query_profile_matches_matrix() {
        let (a, m) = setup();
        let query = a.encode_strict(b"ARNDW").unwrap();
        let qp = QueryProfile::build(&query, &m, &a);
        assert_eq!(qp.query_len(), 5);
        for (i, &q) in query.iter().enumerate() {
            for c in 0..a.len() as u8 {
                assert_eq!(qp.score(i, c) as i32, m.score(q, c), "i={i} c={c}");
            }
        }
    }

    #[test]
    fn query_profile_pad_column() {
        let (a, m) = setup();
        let query = a.encode_strict(b"AR").unwrap();
        let qp = QueryProfile::build(&query, &m, &a);
        let pad = pad_code(&a);
        assert_eq!(qp.score(0, pad) as i32, PAD_SCORE);
        assert_eq!(qp.score(1, pad) as i32, PAD_SCORE);
    }

    #[test]
    fn query_profile_row_slice() {
        let (a, m) = setup();
        let query = a.encode_strict(b"WAR").unwrap();
        let qp = QueryProfile::build(&query, &m, &a);
        let row = qp.row(0);
        assert_eq!(row.len(), a.len() + 1);
        assert_eq!(row[a.encode_byte(b'W').unwrap() as usize] as i32, 11);
    }

    #[test]
    fn sequence_profile_matches_matrix() {
        let (a, m) = setup();
        let s0 = a.encode_strict(b"ARND").unwrap();
        let s1 = a.encode_strict(b"WW").unwrap();
        let batch = LaneBatch::pack(4, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad_code(&a));
        let sp = SequenceProfile::build(&batch, &m, &a);
        // e = 'A' at position 0: lanes are [A, W, pad, pad].
        let e = a.encode_byte(b'A').unwrap();
        let row = sp.row(e, 0);
        assert_eq!(row[0] as i32, m.score(e, e)); // A vs A
        assert_eq!(row[1] as i32, m.score(e, a.encode_byte(b'W').unwrap())); // A vs W
        assert_eq!(row[2] as i32, PAD_SCORE);
        assert_eq!(row[3] as i32, PAD_SCORE);
    }

    #[test]
    fn sequence_profile_pad_positions() {
        let (a, m) = setup();
        let s0 = a.encode_strict(b"ARND").unwrap();
        let s1 = a.encode_strict(b"W").unwrap();
        let batch = LaneBatch::pack(2, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad_code(&a));
        let sp = SequenceProfile::build(&batch, &m, &a);
        // Position 2 of lane 1 is padding for every query residue.
        for e in 0..a.len() as u8 {
            assert_eq!(sp.row(e, 2)[1] as i32, PAD_SCORE);
        }
    }

    #[test]
    fn profiles_agree_with_each_other() {
        // The central consistency property: for every (i, j, lane),
        // QP[i][batch residue] == SP[q_i][j][lane].
        let (a, m) = setup();
        let query = a.encode_strict(b"MKVLITRA").unwrap();
        let s0 = a.encode_strict(b"ARNDCQEG").unwrap();
        let s1 = a.encode_strict(b"HILKM").unwrap();
        let batch = LaneBatch::pack(4, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad_code(&a));
        let qp = QueryProfile::build(&query, &m, &a);
        let sp = SequenceProfile::build(&batch, &m, &a);
        for (i, &q) in query.iter().enumerate() {
            for j in 0..batch.padded_len() {
                for lane in 0..batch.lanes() {
                    let via_qp = qp.score(i, batch.residue(j, lane));
                    let via_sp = sp.row(q, j)[lane];
                    assert_eq!(via_qp, via_sp, "i={i} j={j} lane={lane}");
                }
            }
        }
    }

    #[test]
    fn memory_footprints() {
        let (a, m) = setup();
        let query = a.encode_strict(b"ARND").unwrap();
        let qp = QueryProfile::build(&query, &m, &a);
        assert_eq!(qp.bytes(), 4 * 25 * 2);
    }

    #[test]
    fn i8_profiles_match_wide() {
        let (a, m) = setup();
        let query = a.encode_strict(b"MKVLITRAW").unwrap();
        let s0 = a.encode_strict(b"ARNDCQEG").unwrap();
        let batch = LaneBatch::pack(4, &[(SeqId(0), &s0[..])], pad_code(&a));
        let qp = QueryProfile::build(&query, &m, &a);
        let sp = SequenceProfile::build(&batch, &m, &a);
        let qp8 = QueryProfileI8::from_wide(&qp);
        let sp8 = SequenceProfileI8::from_wide(&sp);
        assert_eq!(qp8.query_len(), qp.query_len());
        for i in 0..qp.query_len() {
            for (w, n) in qp.row(i).iter().zip(qp8.row(i)) {
                assert_eq!(*w as i32, *n as i32);
            }
        }
        assert_eq!(sp8.lanes(), sp.lanes());
        assert_eq!(sp8.padded_len(), sp.padded_len());
        for e in 0..24u8 {
            for j in 0..sp.padded_len() {
                for (w, n) in sp.row(e, j).iter().zip(sp8.row(e, j)) {
                    assert_eq!(*w as i32, *n as i32);
                }
            }
        }
    }

    #[test]
    fn score_table_rows_equal_sequence_profile_entries() {
        // The fused kernel's contract: shuffling row `e` by a batch
        // column's residue codes gives SP row `(e, j)`, pad lanes included.
        let (a, m) = setup();
        let s0 = a.encode_strict(b"ARNDCQEGHILKMFPSTWYVBZX*").unwrap();
        let s1 = a.encode_strict(b"W").unwrap();
        let batch = LaneBatch::pack(4, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad_code(&a));
        let sp = SequenceProfile::build(&batch, &m, &a);
        let table = ScoreTable::build(&m, &a);
        let rows = table.rows().expect("BLOSUM62 over 24 codes engages");
        assert_eq!(rows.len(), a.len());
        for e in 0..a.len() as u8 {
            for j in 0..batch.padded_len() {
                for (lane, &r) in batch.row(j).iter().enumerate() {
                    assert_eq!(
                        rows[e as usize][r as usize] as i16,
                        sp.row(e, j)[lane],
                        "e={e} j={j} lane={lane}"
                    );
                }
            }
            assert!(rows[e as usize][a.len()..]
                .iter()
                .all(|&v| v as i32 == PAD_SCORE));
        }
    }

    #[test]
    fn score_table_disengages_on_wide_scores_or_alphabets() {
        let a = Alphabet::protein();
        let wide = SubstMatrix::match_mismatch(&a, 200, -200);
        let table = ScoreTable::build(&wide, &a);
        assert!(table.rows().is_none(), "200 does not fit i8");
        assert_eq!(table.matrix().score(0, 0), 200);
        assert_eq!(table.alphabet().len(), a.len());
        // The widest matrix that fits uses the whole byte.
        let edge = SubstMatrix::match_mismatch(&a, 127, -128);
        let table = ScoreTable::build(&edge, &a);
        let rows = table.rows().expect("127 and −128 fit i8");
        assert_eq!((rows[3][3], rows[3][4]), (127, -128));
    }

    #[test]
    fn sequence_profile_rows_are_vector_aligned() {
        // The alignment contract of the intrinsic SP kernels: every row of
        // a profile at an engaged lane width starts on a `width × element`
        // boundary (16 B for SSE2, 32 B for AVX2).
        let (a, m) = setup();
        let s: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 5 + i]).collect();
        for lanes in [8usize, 16, 32] {
            let refs: Vec<(SeqId, &[u8])> = s
                .iter()
                .enumerate()
                .map(|(i, q)| (SeqId(i as u32), q.as_slice()))
                .collect();
            let batch = LaneBatch::pack(lanes, &refs, pad_code(&a));
            let sp = SequenceProfile::build(&batch, &m, &a);
            let sp8 = SequenceProfileI8::from_wide(&sp);
            for e in [0u8, 7, 23] {
                for j in 0..batch.padded_len() {
                    let p16 = sp.row(e, j).as_ptr() as usize;
                    assert_eq!(p16 % (2 * lanes), 0, "i16 lanes={lanes} e={e} j={j}");
                    let p8 = sp8.row(e, j).as_ptr() as usize;
                    assert_eq!(p8 % lanes, 0, "i8 lanes={lanes} e={e} j={j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn query_profile_rejects_pad_in_query() {
        let (a, m) = setup();
        let bad = vec![pad_code(&a)];
        QueryProfile::build(&bad, &m, &a);
    }
}
