//! The one inter-task sweep, and the kernels cut from it.
//!
//! `sweep!` is the only vector H/E/F recurrence in the crate (SWIPE's
//! scheme, paper §IV): the subject dimension `j` is the outer loop, the
//! query dimension `i` the inner one, per-column state lives in two vector
//! columns (`H` and `F` of the previous column) while the within-column
//! gap state (`E`) and the diagonal travel in registers, and the query is
//! tiled into row blocks with an `N`-long `H`/`E` boundary row carried
//! between them (Fig. 7; one block spanning the query = unblocked). It is
//! written against a vector *type* — anything with `zero`, `splat`,
//! `sat_add`, `sat_sub` and `max` — so the same text is the 16-bit and the
//! 8-bit kernel, signed or biased-unsigned, on SSE2, AVX2 and the portable
//! [`crate::lanes`] vectors.
//!
//! `kernels!` instantiates the five kernels the dispatcher in [`super`]
//! offers for one pair of vector types: query-profile, sequence-profile
//! and fused sequence-profile at i16; query- and sequence-profile at i8.
//! They differ only in where a cell's substitution vector comes from.
//! [`portable`] is the instantiation over `lanes::{I16s<L>, I8s<L>}`;
//! `super::x86` holds the SSE2 and AVX2 ones, and the one kernel that
//! uses the sweep's `skewed` form (AVX2's byte pass).

/// DP sweep over vector type `$V`; evaluates to the lane-wise maximum of
/// `H`. A flavour supplies `$rows` — one key per query row (the row index
/// for QP, the residue code for SP) — `$column(j)`, run once per database
/// column, and `$subst(key, j)`, the substitution vector of one cell. The
/// H/F columns, the boundary rows and the keys are walked in lock step, so
/// the sweep itself indexes nothing.
///
/// `score:` names the arithmetic. `signed` is the textbook recurrence over
/// a signed element: `H = max(0, H_diag + v, E, F)`, gap states starting at
/// `$neg_inf`. `biased(b)` is SWIPE's unsigned form: `$subst` yields
/// `v + b ≥ 0`, `H = max(H_diag + (v + b) − b, E, F)` with both steps
/// saturating — the subtraction *is* the `max(0, ·)`, and `E`/`F` floor at
/// 0 (`$neg_inf`), which `H ≥ 0` makes equivalent to −∞.
///
/// Where the row above a run of rows comes from is the other choice:
///
/// * `block_rows: b` tiles the query into blocks of `b` rows swept one
///   after the other, an `N`-long `H`/`E` boundary row carried from each
///   to the next (`$rows(i0, i1)` yields the keys of one block).
/// * `skewed` sweeps two runs of `m` rows *at once*, in the two halves of
///   one vector, the upper run one column behind the lower: at step `j`
///   the low half is at database column `j` and the high half at `j − 1`,
///   so the row above the upper run is what the lower run finished one
///   step earlier — `shift_halves` moves it across and leaves zero, the
///   row above the lower run, behind. `n` counts steps (one more than
///   columns), `$rows` yields a key pair per row, and the caller folds
///   the two halves of the result.
macro_rules! sweep {
    ($V:ty, elem: $elem:ty, neg_inf: $neg_inf:expr, gap: $gap:expr, m: $m:expr, n: $n:expr,
     block_rows: $block_rows:expr, score: $score:ident $(($bias:expr))?,
     rows: $rows:expr, column: $column:expr, subst: $subst:expr) => {{
        let m: usize = $m;
        let n: usize = $n;
        let block_rows: usize = $block_rows;
        assert!(block_rows > 0, "block_rows must be positive");
        // A penalty at the element maximum already means "never gap" for
        // every lane that is not flagged as saturated, so clamping is exact.
        let first = <$V>::splat($gap.first().clamp(0, <$elem>::MAX as i32) as $elem);
        let extend = <$V>::splat($gap.extend.clamp(0, <$elem>::MAX as i32) as $elem);
        let zero = <$V>::zero();
        let neg_inf = <$V>::splat($neg_inf);
        let mut bh = vec![zero; n]; //   H boundary row between blocks
        let mut be = vec![neg_inf; n]; // E boundary row between blocks
        // One block of H/F column state, reset per block. Allocated once,
        // up front: a call inside the loop nest makes the register
        // allocator keep `vmax` and the gap vectors on the stack.
        let mut h_col = vec![zero; block_rows.min(m)];
        let mut f_col = vec![neg_inf; block_rows.min(m)];
        let mut vmax = zero;
        let mut i0 = 0usize;
        while i0 < m {
            let i1 = i0.saturating_add(block_rows).min(m);
            h_col.fill(zero);
            f_col.fill(neg_inf);
            let mut diag_carry = zero; // H[i0-1][j-1], j = -1 → 0
            for (j, (bh_j, be_j)) in bh.iter_mut().zip(be.iter_mut()).enumerate() {
                $column(j);
                let old_bh = *bh_j; // H[i0-1][j]
                // H[i1-1][j] and E[i1-1][j] for the next block.
                (*bh_j, *be_j) = sweep!(
                    @cells $V, score: $score $(($bias))?, first, extend, zero, vmax,
                    h_col, f_col, $rows(i0, i1), $subst, j,
                    h_diag: diag_carry, h_up: old_bh, e_up: *be_j
                );
                diag_carry = old_bh;
            }
            i0 = i1;
        }
        vmax
    }};

    ($V:ty, elem: $elem:ty, neg_inf: $neg_inf:expr, gap: $gap:expr, m: $m:expr, n: $n:expr,
     skewed, score: $score:ident $(($bias:expr))?,
     rows: $rows:expr, column: $column:expr, subst: $subst:expr) => {{
        let m: usize = $m;
        let n: usize = $n;
        let first = <$V>::splat($gap.first().clamp(0, <$elem>::MAX as i32) as $elem);
        let extend = <$V>::splat($gap.extend.clamp(0, <$elem>::MAX as i32) as $elem);
        let zero = <$V>::zero();
        let neg_inf = <$V>::splat($neg_inf);
        let mut h_col = vec![zero; m];
        let mut f_col = vec![neg_inf; m];
        let mut vmax = zero;
        // The last row's H and E of the previous step, and the row above
        // the upper run as that step saw it (the diagonal of this one).
        let (mut h_last, mut e_last, mut diag_carry) = (zero, neg_inf, zero);
        for j in 0..n {
            $column(j);
            let h_top = h_last.shift_halves();
            (h_last, e_last) = sweep!(
                @cells $V, score: $score $(($bias))?, first, extend, zero, vmax,
                h_col, f_col, $rows, $subst, j,
                h_diag: diag_carry, h_up: h_top, e_up: e_last.shift_halves()
            );
            diag_carry = h_top;
        }
        vmax
    }};

    // One run of rows at one column — the only H/E/F text in the crate.
    // Takes the three values that enter from the row above; evaluates to
    // the last row's `(H, E)`.
    (@cells $V:ty, score: $score:ident $(($bias:expr))?,
     $first:ident, $extend:ident, $zero:ident, $vmax:ident,
     $h_col:ident, $f_col:ident, $keys:expr, $subst:expr, $j:ident,
     h_diag: $h_diag:expr, h_up: $h_up:expr, e_up: $e_up:expr) => {{
        let mut h_diag = $h_diag;
        let mut h_up = $h_up;
        let mut e_run = $e_up;
        let cells = $h_col.iter_mut().zip($f_col.iter_mut());
        for ((hc, fc), key) in cells.zip($keys) {
            let v: $V = $subst(key, $j);
            let h_prev = *hc;
            let f = h_prev.sat_sub($first).max(fc.sat_sub($extend));
            let e = h_up.sat_sub($first).max(e_run.sat_sub($extend));
            let h = sweep!(@h $score $(($bias))?, h_diag, v, e, f, $zero);
            h_diag = h_prev;
            *hc = h;
            *fc = f;
            e_run = e;
            h_up = h;
            $vmax = $vmax.max(h);
        }
        (h_up, e_run)
    }};

    (@h signed, $h_diag:ident, $v:ident, $e:ident, $f:ident, $zero:ident) => {
        $h_diag.sat_add($v).max($e).max($f).max($zero)
    };
    (@h biased($bias:expr), $h_diag:ident, $v:ident, $e:ident, $f:ident, $zero:ident) => {
        $h_diag.sat_add($v).sat_sub($bias).max($e).max($f)
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
            let vmax = sweep!(
                $V, elem: $elem, neg_inf: $neg_inf, gap: gap,
                m: qp.query_len(), n: batch.padded_len(), block_rows: block_rows,
                score: signed,
                rows: |i0, i1| i0..i1,
                column: |_j| (),
                subst: |i, j| <$V>::gather(qp.row(i), batch.row(j))
            );
            <$Out>::from_vmax(&vmax.to_array(), batch.real_lanes())
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
            let vmax = sweep!(
                $V, elem: $elem, neg_inf: $neg_inf, gap: gap,
                m: query.len(), n: batch.padded_len(), block_rows: block_rows,
                score: signed,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |_j| (),
                subst: |&q, j| <$V>::load(sp.row(q, j))
            );
            <$Out>::from_vmax(&vmax.to_array(), batch.real_lanes())
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
            let vmax = sweep!(
                $V16, elem: i16, neg_inf: $crate::intertask::NEG_INF_I16, gap: gap,
                m: query.len(), n: batch.padded_len(), block_rows: block_rows,
                score: signed,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |j| $column_scores(&mut col, table, present, batch.row(j)),
                subst: |&q, _j| col[q as usize % SCORE_TABLE_COLS]
            );
            $crate::intertask::KernelOutput::from_vmax(&vmax.to_array(), batch.real_lanes())
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
