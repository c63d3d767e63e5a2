//! The one inter-task sweep, and the kernels cut from it.
//!
//! `sweep!` is the only vector H/E/F recurrence in the crate (SWIPE's
//! scheme, paper §IV): the subject dimension `j` is the outer loop, the
//! query dimension `i` the inner one, per-column state lives in two vector
//! columns (`H` of the previous column and `F` of this one) while the
//! within-column gap state (`E`) and the diagonal travel in registers, and
//! the query is tiled into row blocks with an `N`-long `H`/`E` boundary row
//! carried between them (Fig. 7; one block spanning the query = unblocked).
//! A lane can hold several sequences back to back (lane refill, see
//! [`sw_swdb::batch`]): where the next one starts, the sweep resets that
//! lane and credits the one that ended, so every kernel returns one score
//! per sequence in the batch's `ids()` order.
//! It is written against a vector *type* — anything with `zero`, `splat`,
//! `sat_add`, `sat_sub`, `max` and, for a lane refill, `min`, `to_array`
//! and `from_array` — so the same text is the 16-bit and the
//! 8-bit kernel, signed or floor-offset, on SSE2, AVX2 and the portable
//! [`crate::lanes`] vectors.
//!
//! The cell is SWIPE's ordering: `H` first, from the `E` and `F` the row
//! above and the column before already prepared for it, then `H − first`
//! *once*, shared by the `E` handed to the row below and the `F` stored for
//! the next column. A cell is ten vector operations at i16 and nine in
//! floor-offset bytes. `E` is written to enter `H` last, which makes the
//! chain from one row to the next three operations (`max`, `sat_sub`,
//! `max`); LLVM may reassociate the maxima (it folds `E` with `F` first on
//! AVX2: four), which costs nothing while the loop is bound by how many
//! vector operations issue per cycle, not by that chain.
//!
//! `kernels!` instantiates the five kernels the dispatcher in [`super`]
//! offers for one pair of vector types: query-profile, sequence-profile
//! and fused sequence-profile at i16; query- and sequence-profile at i8.
//! They differ only in where a cell's substitution vector comes from.
//! [`portable`] is the instantiation over `lanes::{I16s<L>, I8s<L>}`;
//! `super::x86` holds the SSE2 and AVX2 ones, and the one kernel that
//! uses the sweep's `skewed` form (AVX2's byte pass).

/// DP sweep over vector type `$V` and the columns of `$batch`; evaluates to
/// the best `H` of every sequence of the batch, in its `ids()` order. A
/// flavour supplies `$rows` — one key per query row (the row index for QP,
/// the residue code for SP) — `$column(j)`, run once per trip through the
/// rows, and `$subst(key, j)`, the substitution vector of one cell. The
/// H/F columns, the boundary rows and the keys are walked in lock step, so
/// the sweep itself indexes nothing.
///
/// Lane refill: before a column where a stacked sequence starts, the
/// `@refill` arm hands the lane's running maximum to the sequence that
/// ends there and resets the lane — `vmax`, its `H` column and its
/// diagonal carry to score 0, its `F` column to the gap floor. A column
/// without a start costs one compare; the row loop does not change.
///
/// `score:` names the arithmetic. `signed` is the textbook recurrence over
/// a signed element: `H = max(0, H_diag + v, E, F)`, gap states starting at
/// `$neg_inf`. `floored` stores `H − 2^(bits−1)`: the element minimum *is*
/// score 0, so the saturating `H_diag + v` cannot fall below it — the add
/// is the `max(0, ·)` — an element holds scores 0 … `2^bits − 1`, and
/// `E`/`F` start at the floor (`$neg_inf` = the element minimum), which
/// `H ≥ 0` makes equivalent to −∞. A penalty must fit the element there
/// (the caller's check): clamping one to the element maximum is exact only
/// in the `signed` form.
///
/// Where the row above a run of rows comes from is the other choice:
///
/// * `block_rows: b` tiles the query into blocks of `b` rows swept one
///   after the other, an `N`-long boundary row carried from each to the
///   next: the last row's `H` (the diagonal of the block below) and the `E`
///   it hands down (`$rows(i0, i1)` yields the keys of one block).
/// * `skewed` sweeps two runs of `m` rows *at once*, in the two halves of
///   one vector, and two database columns per trip through the rows: each
///   row's `H`/`F` is loaded once, advanced by cell A (step `j`) and cell B
///   (step `j + 1` — its `F` is the one A just made, its diagonal the `H`
///   A computed one row up) and stored once. The upper run sits **two**
///   columns behind the lower — the skew equals the trip width, so the row
///   above the upper run at this trip's two steps is exactly what the lower
///   run's last row finished in the previous trip: `shift_halves` moves
///   that `(H, E)` pair across and leaves the floor, the row above the
///   lower run, behind.
///
///   ```text
///   step (trip t = j/2)      j      j+1
///   low half   rows 0..m     col j    col j+1      row above: the floor
///   high half  rows m..2m    col j−2  col j−1      row above: low half's
///                                                  last row, trip t−1
///   ```
///
///   `n` counts steps (columns + 2, rounded up to even), `$rows` yields a
///   key pair per row, `$subst` the vectors of both steps. Starts are even
///   columns, so none falls between a trip's two steps; the upper run takes
///   each one trip after the lower, and a sequence's best is the larger of
///   the two runs'. The H/F columns live in `$cols`,
///   two caller-owned `Vec`s the sweep resizes to `m` and overwrites, so a
///   kernel can keep them across batches.
macro_rules! sweep {
    ($V:ty, elem: $elem:ty, neg_inf: $neg_inf:expr, gap: $gap:expr, m: $m:expr, batch: $batch:expr,
     block_rows: $block_rows:expr, score: $score:ident,
     rows: $rows:expr, column: $column:expr, subst: $subst:expr) => {{
        let m: usize = $m;
        let batch: &sw_swdb::LaneBatch = $batch;
        let n = batch.padded_len();
        let block_rows: usize = $block_rows;
        assert!(block_rows > 0, "block_rows must be positive");
        sweep!(@state $V, $elem, $neg_inf, $gap, $score, first, extend, zero, neg_inf);
        let mut seqs = $crate::intertask::SeqMax::new(batch, zero.to_array()[0], 1, 0);
        let mut bh = vec![zero; n]; //    H[i0-1][j]: the last row of the block above
        let mut be = vec![neg_inf; n]; // E[i0][j]: what that row hands down
        // One block of H/F column state, reset per block. Allocated once,
        // up front: a call inside the loop nest makes the register
        // allocator keep `vmax` and the gap vectors on the stack.
        let mut h_col = vec![zero; block_rows.min(m)];
        let mut f_col = vec![neg_inf; block_rows.min(m)];
        let mut i0 = 0usize;
        while i0 < m {
            let i1 = i0.saturating_add(block_rows).min(m);
            h_col.fill(zero);
            f_col.fill(neg_inf);
            // `vmax` restarts with every block; each sequence keeps its
            // best across blocks in `seqs`.
            let mut vmax = zero;
            seqs.restart();
            let mut next_start = seqs.next_col();
            let mut diag_carry = zero; // H[i0-1][j-1], j = -1 → 0
            for (j, (bh_j, be_j)) in bh.iter_mut().zip(be.iter_mut()).enumerate() {
                $column(j);
                if j == next_start {
                    sweep!(@refill $V, $elem, $neg_inf, seqs, j, zero, vmax, h_col, f_col, diag_carry);
                    next_start = seqs.next_col();
                }
                let (mut h, mut e) = (*bh_j, *be_j);
                let mut h_diag = diag_carry;
                diag_carry = h;
                let cells = h_col.iter_mut().zip(f_col.iter_mut());
                for ((hc, fc), key) in cells.zip($rows(i0, i1)) {
                    let v: $V = $subst(key, j);
                    let h_left = *hc;
                    h = sweep!(@cell $score, first, extend, zero, vmax,
                               h_diag: h_diag, v: v, e: e, f: *fc);
                    *hc = h;
                    h_diag = h_left;
                }
                // H[i1-1][j] and E[i1][j] for the next block.
                (*bh_j, *be_j) = (h, e);
            }
            seqs.finish(&vmax.to_array());
            i0 = i1;
        }
        seqs.into_best()
    }};

    ($V:ty, elem: $elem:ty, neg_inf: $neg_inf:expr, gap: $gap:expr, m: $m:expr, batch: $batch:expr,
     n: $n:expr, skewed, cols: $cols:expr, score: $score:ident,
     rows: $rows:expr, column: $column:expr, subst: $subst:expr) => {{
        let m: usize = $m;
        let n: usize = $n;
        let batch: &sw_swdb::LaneBatch = $batch;
        assert!(n % 2 == 0, "a trip is two steps");
        assert!(
            batch.starts().iter().all(|&(col, _)| col % 2 == 0),
            "a start splits no trip"
        );
        sweep!(@state $V, $elem, $neg_inf, $gap, $score, first, extend, zero, neg_inf);
        // The upper run lags two columns: it takes each start one trip
        // after the lower run.
        let mut seqs = $crate::intertask::SeqMax::new(batch, zero.to_array()[0], 2, 2);
        let mut next_start = seqs.next_col();
        let [h_col, f_col]: &mut [Vec<$V>; 2] = $cols;
        h_col.clear();
        h_col.resize(m, zero);
        f_col.clear();
        f_col.resize(m, neg_inf);
        let mut vmax = zero;
        // What the last row left at the previous trip's two steps — its H
        // and the E it hands down — and the row above the upper run one
        // step before that trip's second (the diagonal of this trip's
        // first).
        let (mut h_last, mut e_last, mut diag_carry) = ([zero; 2], [neg_inf; 2], zero);
        for j in (0..n).step_by(2) {
            $column(j);
            if j == next_start {
                sweep!(@refill $V, $elem, $neg_inf, seqs, j, zero, vmax, h_col, f_col, diag_carry);
                next_start = seqs.next_col();
            }
            let h_top = [h_last[0].shift_halves(zero), h_last[1].shift_halves(zero)];
            let mut e = [e_last[0].shift_halves(neg_inf), e_last[1].shift_halves(neg_inf)];
            let mut h_diag = [diag_carry, h_top[0]];
            diag_carry = h_top[1];
            let cells = h_col.iter_mut().zip(f_col.iter_mut());
            for ((hc, fc), key) in cells.zip($rows) {
                let [va, vb]: [$V; 2] = $subst(key, j);
                let h_left = *hc;
                let mut f = *fc;
                let ha = sweep!(@cell $score, first, extend, zero, vmax,
                                h_diag: h_diag[0], v: va, e: e[0], f: f);
                let hb = sweep!(@cell $score, first, extend, zero, vmax,
                                h_diag: h_diag[1], v: vb, e: e[1], f: f);
                (*hc, *fc) = (hb, f);
                h_diag = [h_left, ha];
                h_last = [ha, hb];
            }
            e_last = e;
        }
        seqs.finish(&vmax.to_array());
        seqs.into_best()
    }};

    // Lane refill before column `$j`: each element a sequence starts in
    // hands its maximum to `$seqs` and restarts at score 0, as do its `H`
    // column and its diagonal carry; its `F` column drops to the gap
    // floor. The column's `E` needs nothing: it starts at every column's
    // first row, and a block boundary row below a start is the new
    // sequence's. Every value the sweep holds is at least score 0 (`H`)
    // or the floor (`F`, or a value as useless to `H ≥ 0`), so one `min`
    // per vector resets the chosen elements and leaves the rest.
    (@refill $V:ty, $elem:ty, $neg_inf:expr, $seqs:ident, $j:expr, $zero:ident, $vmax:ident,
     $h_col:ident, $f_col:ident, $diag:ident) => {{
        let mut keep_h = <$V>::splat(<$elem>::MAX).to_array();
        let mut keep_f = keep_h;
        for s in $seqs.take($j, &$vmax.to_array()) {
            keep_h[s.elem] = $zero.to_array()[0];
            keep_f[s.elem] = $neg_inf;
        }
        let (keep_h, keep_f) = (<$V>::from_array(keep_h), <$V>::from_array(keep_f));
        $vmax = $vmax.min(keep_h);
        $diag = $diag.min(keep_h);
        for (hc, fc) in $h_col.iter_mut().zip($f_col.iter_mut()) {
            *hc = hc.min(keep_h);
            *fc = fc.min(keep_f);
        }
    }};

    // The constants of one sweep: the gap vectors, score 0 (`$zero`) and
    // the gap states' starting value.
    (@state $V:ty, $elem:ty, $neg_inf:expr, $gap:expr, $score:ident,
     $first:ident, $extend:ident, $zero:ident, $ninf:ident) => {
        // `signed`: a penalty at the element maximum already means "never
        // gap" for every lane that is not flagged as saturated, so clamping
        // is exact. `floored`: the caller keeps penalties within the element.
        let $first = <$V>::splat($gap.first().clamp(0, <$elem>::MAX as i32) as $elem);
        let $extend = <$V>::splat($gap.extend.clamp(0, <$elem>::MAX as i32) as $elem);
        let $zero = sweep!(@zero $score, $V, $elem);
        let $ninf = <$V>::splat($neg_inf);
    };
    (@zero signed, $V:ty, $elem:ty) => {
        <$V>::zero()
    };
    (@zero floored, $V:ty, $elem:ty) => {
        <$V>::splat(<$elem>::MIN)
    };

    // One cell — the only H/E/F text in the crate. `$e` and `$f` are places:
    // in, this cell's E and F; out, the E of the cell below and the F of the
    // cell to the right. Evaluates to the cell's H.
    (@cell $score:ident, $first:ident, $extend:ident, $zero:ident, $vmax:ident,
     h_diag: $h_diag:expr, v: $v:expr, e: $e:expr, f: $f:expr) => {{
        let h = sweep!(@floor $score, $h_diag.sat_add($v), $zero).max($f).max($e);
        $vmax = $vmax.max(h);
        let hq = h.sat_sub($first);
        $e = hq.max($e.sat_sub($extend));
        $f = hq.max($f.sat_sub($extend));
        h
    }};
    (@floor signed, $sum:expr, $zero:ident) => {
        $sum.max($zero)
    };
    (@floor floored, $sum:expr, $zero:ident) => {
        $sum
    };
}

/// The query-profile and sequence-profile kernels over vector type `$V`
/// of `$lanes` × `$elem` — one invocation per element width.
macro_rules! profile_kernels {
    (attrs: [$(#[$attr:meta])*], generics: [$($gen:tt)*],
     vec: $V:ty, lanes: $lanes:expr, elem: $elem:ty, neg_inf: $neg_inf:expr,
     qp: $qp_fn:ident($QP:ty), sp: $sp_fn:ident($SP:ty), out: $Out:ty) => {
        /// Query-profile flavour: the substitution vector of a cell is a
        /// *gather* from QP row `i` indexed by the batch's residues at
        /// column `j` — the access pattern whose hardware cost differs
        /// between Xeon (no vector gather) and Phi (paper §V-C).
        ///
        /// # Panics
        /// Panics on a lane-width mismatch or `block_rows == 0`.
        $(#[$attr])*
        pub(crate) fn $qp_fn<$($gen)*>(
            qp: &$QP,
            batch: &sw_swdb::LaneBatch,
            gap: &sw_seq::GapPenalty,
            block_rows: usize,
        ) -> $Out {
            assert_eq!(batch.lanes(), $lanes, "batch lane width must match kernel width");
            let best = sweep!(
                $V, elem: $elem, neg_inf: $neg_inf, gap: gap,
                m: qp.query_len(), batch: batch, block_rows: block_rows,
                score: signed,
                rows: |i0, i1| i0..i1,
                column: |_j| (),
                subst: |i, j| <$V>::gather(qp.row(i), batch.row(j))
            );
            <$Out>::from_best(&best)
        }

        /// Sequence-profile flavour: one contiguous load from the
        /// per-batch profile — the layout the paper finds fastest on both
        /// devices.
        ///
        /// # Panics
        /// Panics on a lane-width or profile/batch shape mismatch, or
        /// `block_rows == 0`.
        $(#[$attr])*
        pub(crate) fn $sp_fn<$($gen)*>(
            query: &[u8],
            sp: &$SP,
            batch: &sw_swdb::LaneBatch,
            gap: &sw_seq::GapPenalty,
            block_rows: usize,
        ) -> $Out {
            assert_eq!(batch.lanes(), $lanes, "batch lane width must match kernel width");
            assert_eq!(sp.lanes(), $lanes, "profile lane width must match kernel width");
            assert_eq!(sp.padded_len(), batch.padded_len(), "profile/batch shape mismatch");
            let best = sweep!(
                $V, elem: $elem, neg_inf: $neg_inf, gap: gap,
                m: query.len(), batch: batch, block_rows: block_rows,
                score: signed,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |_j| (),
                subst: |&q, j| <$V>::load(sp.row(q, j))
            );
            <$Out>::from_best(&best)
        }
    };
}

/// The five kernels of one ISA: `sw_qp_i16` / `sw_sp_i16` / `sw_fused_i16`
/// over `$V16` and `sw_qp_i8` / `sw_sp_i8` over `$V8`. `$attr` carries the
/// ISA's `#[target_feature]` (nothing for the portable vectors, whose
/// lane count is the generic parameter in `$gen` instead), and
/// `$column_scores` is the fused flavour's per-column prologue.
macro_rules! kernels {
    (attrs: [$(#[$attr:meta])*], generics: [$($gen:tt)*],
     v16: $V16:ty, lanes_i16: $l16:expr, v8: $V8:ty, lanes_i8: $l8:expr,
     column_scores: $column_scores:path) => {
        profile_kernels! {
            attrs: [$(#[$attr])*], generics: [$($gen)*],
            vec: $V16, lanes: $l16, elem: i16, neg_inf: $crate::intertask::NEG_INF_I16,
            qp: sw_qp_i16(sw_swdb::QueryProfile), sp: sw_sp_i16(sw_swdb::SequenceProfile),
            out: $crate::intertask::KernelOutput
        }
        profile_kernels! {
            attrs: [$(#[$attr])*], generics: [$($gen)*],
            vec: $V8, lanes: $l8, elem: i8, neg_inf: $crate::intertask::NEG_INF_I8,
            qp: sw_qp_i8(sw_swdb::QueryProfileI8), sp: sw_sp_i8(sw_swdb::SequenceProfileI8),
            out: $crate::intertask::NarrowOutput
        }

        /// Fused sequence-profile flavour: the SP rows of one database
        /// column are derived from `table` into a stack array when the
        /// sweep reaches the column, only for the residue codes the query
        /// contains, and the inner loop picks its vector from that array —
        /// bit-identical to `sw_sp_i16` over `SequenceProfile::build` of
        /// the same batch, without the `|Σ|·N_pad·L` table.
        ///
        /// The array is indexed with `code % 32` after asserting every
        /// query code `< |Σ|`. A batch residue outside the alphabet would
        /// be scored as some other residue, never read out of bounds —
        /// `PreparedDb::prepare` rejects such databases before any kernel
        /// runs.
        ///
        /// # Panics
        /// Panics on a lane-width mismatch, a query code `≥ table.len()`
        /// or `block_rows == 0`.
        $(#[$attr])*
        pub(crate) fn sw_fused_i16<$($gen)*>(
            query: &[u8],
            table: &[[i8; sw_swdb::SCORE_TABLE_COLS]],
            batch: &sw_swdb::LaneBatch,
            gap: &sw_seq::GapPenalty,
            block_rows: usize,
        ) -> $crate::intertask::KernelOutput {
            use sw_swdb::SCORE_TABLE_COLS;
            assert_eq!(batch.lanes(), $l16, "batch lane width must match kernel width");
            assert!(table.len() < SCORE_TABLE_COLS, "table has a pad column");
            assert!(
                query.iter().all(|&q| (q as usize) < table.len()),
                "query residue code outside the score table"
            );
            let present = query.iter().fold(0u32, |set, &q| set | 1 << q);
            let mut col = [<$V16>::zero(); SCORE_TABLE_COLS];
            let best = sweep!(
                $V16, elem: i16, neg_inf: $crate::intertask::NEG_INF_I16, gap: gap,
                m: query.len(), batch: batch, block_rows: block_rows,
                score: signed,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |j| $column_scores(&mut col, table, present, batch.row(j)),
                subst: |&q, _j| col[q as usize % SCORE_TABLE_COLS]
            );
            $crate::intertask::KernelOutput::from_best(&best)
        }
    };
}

/// Fused-kernel column prologue by scalar fill: `col[e]` = SP row `(e, j)`
/// for every residue code `e` in `present`, given the batch column
/// `residues`, each lane looked up in the table row. The prologue of every
/// vector type without a byte shuffle (`pshufb` is SSSE3, past the SSE2
/// baseline).
macro_rules! scalar_column_scores {
    (attrs: [$(#[$attr:meta])*], generics: [$($gen:tt)*], v16: $V16:ty, lanes_i16: $l16:expr) => {
        #[inline]
        $(#[$attr])*
        fn column_scores<$($gen)*>(
            col: &mut [$V16; sw_swdb::SCORE_TABLE_COLS],
            table: &[[i8; sw_swdb::SCORE_TABLE_COLS]],
            present: u32,
            residues: &[u8],
        ) {
            let residues = &residues[..$l16];
            let mut codes = present;
            while codes != 0 {
                let e = codes.trailing_zeros() as usize;
                codes &= codes - 1;
                let row = &table[e];
                let mut buf = [0i16; $l16];
                for (o, &r) in buf.iter_mut().zip(residues) {
                    *o = row[r as usize % sw_swdb::SCORE_TABLE_COLS] as i16;
                }
                col[e] = <$V16>::from_array(buf);
            }
        }
    };
}

/// The portable instantiation: `L` lanes of element loops that LLVM
/// autovectorizes for whatever the build targets — the fallback for every
/// non-x86 target, non-native lane width and forced-portable run.
pub(crate) mod portable {
    use crate::lanes::{I16s, I8s};

    scalar_column_scores! {
        attrs: [], generics: [const L: usize], v16: I16s<L>, lanes_i16: L
    }

    kernels! {
        attrs: [], generics: [const L: usize],
        v16: I16s<L>, lanes_i16: L, v8: I8s<L>, lanes_i8: L,
        column_scores: column_scores
    }
}
