//! The x86_64 intrinsic kernel bodies — SSE2 and AVX2 instantiations of
//! one shared macro.
//!
//! Each ISA module defines two thin vector newtypes (`V16`, `V8`) whose
//! methods are `#[target_feature]`-annotated wrappers over the raw
//! `std::arch` intrinsics, plus the five kernels the dispatcher in
//! [`super`] calls: `sw_qp_i16` / `sw_sp_i16` / `sw_fused_i16`
//! (row-blocked; one block spanning the query = unblocked) and `sw_qp_i8`
//! / `sw_sp_i8` (the narrow tier, unblocked like `crate::narrow`). The DP
//! recurrence is a line-for-line translation of the portable kernels —
//! same saturating ops, same `NEG_INF` sentinels, same `vmax == MAX`
//! overflow flagging — so scores and flags are bit-identical across tiers.
//!
//! The three i16 kernels are one sweep (`dp_i16!`) with three sources of
//! the substitution vector: a gather from the query profile, an aligned
//! load from a materialised sequence profile, or — the fused flavour — a
//! stack array of ≤ 32 score vectors that a per-column prologue
//! (`column_scores`) derives from the batch column and the per-search
//! [`sw_swdb::ScoreTable`], so no `|Σ|·N_pad·L` table is ever stored.
//!
//! # Safety
//!
//! * Every function here carries `#[target_feature]`; the only callers
//!   are the `unsafe` dispatch sites in [`super`], each guarded by the
//!   matching runtime check (AVX2) or the x86_64 baseline ABI (SSE2).
//!   Within a module, calls between same-feature functions are safe.
//! * The raw-pointer loads/stores are wrapped in methods that take
//!   slices/arrays of the exact lane count, so bounds are checked by the
//!   slice layer before the pointer is formed.
//! * `V16::load` / `V8::load` use *aligned* vector loads. Their inputs
//!   are rows of [`sw_swdb::SequenceProfile`] / [`SequenceProfileI8`],
//!   whose storage is 64-byte aligned with rows a multiple of the vector
//!   size apart (the alignment contract documented on
//!   `SequenceProfile::row`), re-checked here with `debug_assert!`. The
//!   contract covers the materialised kernels only: the fused kernel
//!   reads batch columns and table rows with unaligned loads.
//! * The fused kernel indexes its 32-entry score array with `code & 31`
//!   after asserting every query code `< |Σ|`; a shuffle cannot read
//!   outside its 16-byte source register whatever the index byte holds.
//!   A batch residue outside the alphabet would therefore be scored as
//!   some other residue, never read out of bounds — `PreparedDb::prepare`
//!   rejects such databases before any kernel runs.

#![allow(unsafe_code)]

use crate::intertask::{KernelOutput, NEG_INF_I16};
use crate::narrow::{NarrowOutput, NEG_INF_I8};
use sw_seq::GapPenalty;
use sw_swdb::{
    LaneBatch, QueryProfile, QueryProfileI8, SequenceProfile, SequenceProfileI8, SCORE_TABLE_COLS,
};

macro_rules! isa_kernels {
    (
        feature: $feat:literal,
        vec: $vec:ty,
        lanes_i16: $l16:expr,
        lanes_i8: $l8:expr,
        setzero: $setzero:path,
        set1_epi16: $set16:path,
        adds_epi16: $adds16:path,
        subs_epi16: $subs16:path,
        max_epi16: $max16:path,
        set1_epi8: $set8:path,
        adds_epi8: $adds8:path,
        subs_epi8: $subs8:path,
        max_epi8: $max8:path,
        load: $load:path,
        loadu: $loadu:path,
        storeu: $storeu:path,
        column_scores: $column_scores:path,
    ) => {
        /// i16 lanes per vector.
        pub(crate) const LANES_I16: usize = $l16;
        /// i8 lanes per vector.
        pub(crate) const LANES_I8: usize = $l8;

        /// A vector of [`LANES_I16`] × i16.
        #[derive(Clone, Copy)]
        struct V16($vec);

        impl V16 {
            #[inline]
            #[target_feature(enable = $feat)]
            fn zero() -> V16 {
                V16($setzero())
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn splat(v: i16) -> V16 {
                V16($set16(v))
            }

            /// Aligned load of one SP profile row.
            #[inline]
            #[target_feature(enable = $feat)]
            fn load(s: &[i16]) -> V16 {
                let p = s[..LANES_I16].as_ptr();
                debug_assert_eq!(
                    p as usize % std::mem::size_of::<$vec>(),
                    0,
                    "SP row violates the profile alignment contract"
                );
                // SAFETY: the slice index above guarantees LANES_I16
                // readable elements; alignment holds by the profile
                // storage contract (debug-asserted).
                V16(unsafe { $load(p.cast()) })
            }

            /// Gather for the QP flavour: scalar table lookups into a
            /// stack buffer, then one unaligned load. Panics if fewer
            /// than [`LANES_I16`] indices are given (same contract as the
            /// portable `I16s::gather`).
            #[inline]
            #[target_feature(enable = $feat)]
            fn gather(table: &[i16], indices: &[u8]) -> V16 {
                let mut buf = [0i16; LANES_I16];
                for (o, &ix) in buf.iter_mut().zip(&indices[..LANES_I16]) {
                    *o = table[ix as usize];
                }
                // SAFETY: `buf` is exactly one vector of valid memory.
                V16(unsafe { $loadu(buf.as_ptr().cast()) })
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn adds(self, o: V16) -> V16 {
                V16($adds16(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn subs(self, o: V16) -> V16 {
                V16($subs16(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn max(self, o: V16) -> V16 {
                V16($max16(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn store(self, out: &mut [i16; LANES_I16]) {
                // SAFETY: `out` is exactly one vector of writable memory.
                unsafe { $storeu(out.as_mut_ptr().cast(), self.0) }
            }
        }

        /// A vector of [`LANES_I8`] × i8.
        #[derive(Clone, Copy)]
        struct V8($vec);

        impl V8 {
            #[inline]
            #[target_feature(enable = $feat)]
            fn zero() -> V8 {
                V8($setzero())
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn splat(v: i8) -> V8 {
                V8($set8(v))
            }

            /// Aligned load of one narrow SP profile row.
            #[inline]
            #[target_feature(enable = $feat)]
            fn load(s: &[i8]) -> V8 {
                let p = s[..LANES_I8].as_ptr();
                debug_assert_eq!(
                    p as usize % std::mem::size_of::<$vec>(),
                    0,
                    "SP row violates the profile alignment contract"
                );
                // SAFETY: as for `V16::load`.
                V8(unsafe { $load(p.cast()) })
            }

            /// Panics on short `indices`, like the portable gather.
            #[inline]
            #[target_feature(enable = $feat)]
            fn gather(table: &[i8], indices: &[u8]) -> V8 {
                let mut buf = [0i8; LANES_I8];
                for (o, &ix) in buf.iter_mut().zip(&indices[..LANES_I8]) {
                    *o = table[ix as usize];
                }
                // SAFETY: `buf` is exactly one vector of valid memory.
                V8(unsafe { $loadu(buf.as_ptr().cast()) })
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn adds(self, o: V8) -> V8 {
                V8($adds8(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn subs(self, o: V8) -> V8 {
                V8($subs8(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn max(self, o: V8) -> V8 {
                V8($max8(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn store(self, out: &mut [i8; LANES_I8]) {
                // SAFETY: `out` is exactly one vector of writable memory.
                unsafe { $storeu(out.as_mut_ptr().cast(), self.0) }
            }
        }

        #[inline]
        #[target_feature(enable = $feat)]
        fn output_i16(vmax: V16, real_lanes: usize) -> KernelOutput {
            let mut buf = [0i16; LANES_I16];
            vmax.store(&mut buf);
            let mut scores = Vec::with_capacity(real_lanes);
            let mut overflowed = Vec::with_capacity(real_lanes);
            for &v in &buf[..real_lanes] {
                scores.push(v as i64);
                overflowed.push(v == i16::MAX);
            }
            KernelOutput { scores, overflowed }
        }

        #[inline]
        #[target_feature(enable = $feat)]
        fn output_i8(vmax: V8, real_lanes: usize) -> NarrowOutput {
            let mut buf = [0i8; LANES_I8];
            vmax.store(&mut buf);
            let mut scores = Vec::with_capacity(real_lanes);
            let mut saturated = Vec::with_capacity(real_lanes);
            for &v in &buf[..real_lanes] {
                scores.push(v as i64);
                saturated.push(v == i8::MAX);
            }
            NarrowOutput { scores, saturated }
        }

        /// Row-blocked i16 DP sweep, shared by the three i16 kernels
        /// below. A flavour supplies `$rows(i0, i1)` — an iterator of one
        /// key per query row of the block (the row index for QP, the
        /// residue code for SP) — `$column(j)`, run once per database
        /// column of each block, and `$subst(key, j)`, the substitution
        /// vector of one cell. The H/F columns, the block-boundary rows
        /// and the keys are walked in lock step, so the sweep itself
        /// indexes nothing.
        macro_rules! dp_i16 {
            ($m:expr, $n:expr, $batch:expr, $gap:expr, $block_rows:expr,
             rows: $rows:expr, column: $column:expr, subst: $subst:expr) => {{
                let m: usize = $m;
                let n: usize = $n;
                assert!($block_rows > 0, "block_rows must be positive");
                let first = V16::splat($gap.first() as i16);
                let extend = V16::splat($gap.extend as i16);
                let zero = V16::zero();
                let neg_inf = V16::splat(NEG_INF_I16);
                let mut bh = vec![zero; n]; //   H boundary row between blocks
                let mut be = vec![neg_inf; n]; // E boundary row between blocks
                let mut h_col: Vec<V16> = Vec::new();
                let mut f_col: Vec<V16> = Vec::new();
                let mut vmax = zero;
                let mut i0 = 0usize;
                while i0 < m {
                    let i1 = i0.saturating_add($block_rows).min(m);
                    let rows = i1 - i0;
                    h_col.clear();
                    h_col.resize(rows, zero);
                    f_col.clear();
                    f_col.resize(rows, neg_inf);
                    let mut diag_carry = zero; // H[i0-1][j-1], j = -1 → 0
                    for (j, (bh_j, be_j)) in bh.iter_mut().zip(be.iter_mut()).enumerate() {
                        $column(j);
                        let old_bh = *bh_j; // H[i0-1][j]
                        let mut h_diag = diag_carry;
                        let mut h_up = old_bh;
                        let mut e_run = *be_j; // E[i0-1][j]
                        let cells = h_col.iter_mut().zip(f_col.iter_mut());
                        for ((hc, fc), key) in cells.zip($rows(i0, i1)) {
                            let v: V16 = $subst(key, j);
                            let h_prev = *hc;
                            let f = h_prev.subs(first).max(fc.subs(extend));
                            let e = h_up.subs(first).max(e_run.subs(extend));
                            let h = h_diag.adds(v).max(e).max(f).max(zero);
                            h_diag = h_prev;
                            *hc = h;
                            *fc = f;
                            e_run = e;
                            h_up = h;
                            vmax = vmax.max(h);
                        }
                        *bh_j = h_up; //  H[i1-1][j] for the next block
                        *be_j = e_run; // E[i1-1][j]
                        diag_carry = old_bh;
                    }
                    i0 = i1;
                }
                output_i16(vmax, $batch.real_lanes())
            }};
        }

        /// i16 kernel, query-profile flavour (per-column gather).
        #[target_feature(enable = $feat)]
        pub(crate) fn sw_qp_i16(
            qp: &QueryProfile,
            batch: &LaneBatch,
            gap: &GapPenalty,
            block_rows: usize,
        ) -> KernelOutput {
            assert_eq!(
                batch.lanes(),
                LANES_I16,
                "batch lane width must match kernel width"
            );
            dp_i16!(
                qp.query_len(),
                batch.padded_len(),
                batch,
                gap,
                block_rows,
                rows: |i0, i1| i0..i1,
                column: |_j| (),
                subst: |i, j| V16::gather(qp.row(i), batch.row(j))
            )
        }

        /// i16 kernel, sequence-profile flavour (aligned contiguous load).
        #[target_feature(enable = $feat)]
        pub(crate) fn sw_sp_i16(
            query: &[u8],
            sp: &SequenceProfile,
            batch: &LaneBatch,
            gap: &GapPenalty,
            block_rows: usize,
        ) -> KernelOutput {
            assert_eq!(
                batch.lanes(),
                LANES_I16,
                "batch lane width must match kernel width"
            );
            assert_eq!(
                sp.lanes(),
                LANES_I16,
                "profile lane width must match kernel width"
            );
            assert_eq!(
                sp.padded_len(),
                batch.padded_len(),
                "profile/batch shape mismatch"
            );
            dp_i16!(
                query.len(),
                batch.padded_len(),
                batch,
                gap,
                block_rows,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |_j| (),
                subst: |&q, j| V16::load(sp.row(q, j))
            )
        }

        /// i16 kernel, fused sequence-profile flavour: the SP rows of one
        /// database column are shuffled out of `table` into a stack array
        /// when the sweep reaches the column, only for the residue codes
        /// the query contains, and the inner loop picks its vector from
        /// that array — bit-identical to [`sw_sp_i16`] over
        /// `SequenceProfile::build` of the same batch, without the table.
        ///
        /// # Panics
        /// Panics on a lane-width mismatch or a query code `≥ table.len()`.
        #[target_feature(enable = $feat)]
        pub(crate) fn sw_fused_i16(
            query: &[u8],
            table: &[[i8; SCORE_TABLE_COLS]],
            batch: &LaneBatch,
            gap: &GapPenalty,
            block_rows: usize,
        ) -> KernelOutput {
            assert_eq!(
                batch.lanes(),
                LANES_I16,
                "batch lane width must match kernel width"
            );
            assert!(table.len() < SCORE_TABLE_COLS, "table has a pad column");
            assert!(
                query.iter().all(|&q| (q as usize) < table.len()),
                "query residue code outside the score table"
            );
            let present = query.iter().fold(0u32, |set, &q| set | 1 << q);
            let mut col = [V16::zero(); SCORE_TABLE_COLS];
            dp_i16!(
                query.len(),
                batch.padded_len(),
                batch,
                gap,
                block_rows,
                rows: |i0, i1| query[i0..i1].iter(),
                column: |j| $column_scores(&mut col, table, present, batch.row(j)),
                subst: |&q, _j| col[q as usize % SCORE_TABLE_COLS]
            )
        }

        /// Unblocked i8 DP sweep (the narrow tier mirrors
        /// `crate::narrow`, which never blocks); `$rows` and `$subst` as
        /// for `dp_i16!`.
        macro_rules! dp_i8 {
            ($m:expr, $n:expr, $batch:expr, $gap:expr, rows: $rows:expr, subst: $subst:expr) => {{
                let m: usize = $m;
                let n: usize = $n;
                let first = V8::splat($gap.first().clamp(0, 127) as i8);
                let extend = V8::splat($gap.extend.clamp(0, 127) as i8);
                let zero = V8::zero();
                let neg_inf = V8::splat(NEG_INF_I8);
                let mut h_col = vec![zero; m];
                let mut f_col = vec![neg_inf; m];
                let mut vmax = zero;
                for j in 0..n {
                    let mut h_diag = zero;
                    let mut h_up = zero;
                    let mut e_run = neg_inf;
                    let cells = h_col.iter_mut().zip(f_col.iter_mut());
                    for ((hc, fc), key) in cells.zip($rows) {
                        let v: V8 = $subst(key, j);
                        let h_prev = *hc;
                        let f = h_prev.subs(first).max(fc.subs(extend));
                        let e = h_up.subs(first).max(e_run.subs(extend));
                        let h = h_diag.adds(v).max(e).max(f).max(zero);
                        h_diag = h_prev;
                        *hc = h;
                        *fc = f;
                        e_run = e;
                        h_up = h;
                        vmax = vmax.max(h);
                    }
                }
                output_i8(vmax, $batch.real_lanes())
            }};
        }

        /// i8 narrow kernel, query-profile flavour.
        #[target_feature(enable = $feat)]
        pub(crate) fn sw_qp_i8(
            qp8: &QueryProfileI8,
            batch: &LaneBatch,
            gap: &GapPenalty,
        ) -> NarrowOutput {
            assert_eq!(
                batch.lanes(),
                LANES_I8,
                "batch lane width must match kernel width"
            );
            dp_i8!(
                qp8.query_len(),
                batch.padded_len(),
                batch,
                gap,
                rows: 0..qp8.query_len(),
                subst: |i, j| V8::gather(qp8.row(i), batch.row(j))
            )
        }

        /// i8 narrow kernel, sequence-profile flavour.
        #[target_feature(enable = $feat)]
        pub(crate) fn sw_sp_i8(
            query: &[u8],
            sp8: &SequenceProfileI8,
            batch: &LaneBatch,
            gap: &GapPenalty,
        ) -> NarrowOutput {
            assert_eq!(
                batch.lanes(),
                LANES_I8,
                "batch lane width must match kernel width"
            );
            assert_eq!(
                sp8.lanes(),
                LANES_I8,
                "profile lane width must match kernel width"
            );
            assert_eq!(
                sp8.padded_len(),
                batch.padded_len(),
                "profile/batch shape mismatch"
            );
            dp_i8!(
                query.len(),
                batch.padded_len(),
                batch,
                gap,
                rows: query.iter(),
                subst: |&q, j| V8::load(sp8.row(q, j))
            )
        }
    };
}

/// 128-bit SSE2 kernels: 8 × i16, 16 × i8 (SWIPE's original widths).
pub(crate) mod sse2 {
    use super::*;
    use std::arch::x86_64::*;

    /// SSE2 has no signed-byte max (`pmaxsb` is SSE4.1); build it from a
    /// signed compare and bit selection, exactly as SWIPE-era code did.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn max_epi8_sse2(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi8(a, b);
        _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
    }

    /// Fused-kernel column prologue: `col[e]` = SP row `(e, j)` for every
    /// residue code `e` in `present`, given the batch column `residues`.
    /// `pshufb` is SSSE3 and this is the baseline-ABI tier, so the lanes
    /// are filled by scalar lookups into the table row.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn column_scores(
        col: &mut [V16; SCORE_TABLE_COLS],
        table: &[[i8; SCORE_TABLE_COLS]],
        present: u32,
        residues: &[u8],
    ) {
        let residues = &residues[..LANES_I16];
        let mut codes = present;
        while codes != 0 {
            let e = codes.trailing_zeros() as usize;
            codes &= codes - 1;
            let row = &table[e];
            let mut buf = [0i16; LANES_I16];
            for (o, &r) in buf.iter_mut().zip(residues) {
                *o = row[r as usize % SCORE_TABLE_COLS] as i16;
            }
            // SAFETY: `buf` is exactly one vector of valid memory.
            col[e] = V16(unsafe { _mm_loadu_si128(buf.as_ptr().cast()) });
        }
    }

    isa_kernels! {
        feature: "sse2",
        vec: __m128i,
        lanes_i16: 8,
        lanes_i8: 16,
        setzero: _mm_setzero_si128,
        set1_epi16: _mm_set1_epi16,
        adds_epi16: _mm_adds_epi16,
        subs_epi16: _mm_subs_epi16,
        max_epi16: _mm_max_epi16,
        set1_epi8: _mm_set1_epi8,
        adds_epi8: _mm_adds_epi8,
        subs_epi8: _mm_subs_epi8,
        max_epi8: max_epi8_sse2,
        load: _mm_load_si128,
        loadu: _mm_loadu_si128,
        storeu: _mm_storeu_si128,
        column_scores: column_scores,
    }
}

/// 256-bit AVX2 kernels: 16 × i16, 32 × i8 — the paper's AVX lane widths.
pub(crate) mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Fused-kernel column prologue: `col[e]` = SP row `(e, j)` for every
    /// residue code `e` in `present`, given the batch column `residues`.
    ///
    /// A table row is 32 scores but `pshufb` indexes 16, so the index is
    /// split once per column: `paddusb 0x70` keeps codes 0–15 as they are
    /// in the low nibble and pushes 16–31 past 0x7F (bit 7 set → the
    /// shuffle yields 0); `psubb 16` does the opposite, wrapping 0–15 to
    /// 0xF0.. (→ 0) and mapping 16–31 to 0–15. Per residue code: shuffle
    /// each half of its row by its index, `por` the two, sign-extend the
    /// 16 bytes to 16 × i16.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn column_scores(
        col: &mut [V16; SCORE_TABLE_COLS],
        table: &[[i8; SCORE_TABLE_COLS]],
        present: u32,
        residues: &[u8],
    ) {
        // SAFETY: the slice index guarantees LANES_I16 = 16 readable bytes.
        let codes_v = unsafe { _mm_loadu_si128(residues[..LANES_I16].as_ptr().cast()) };
        let lo_ix = _mm_adds_epu8(codes_v, _mm_set1_epi8(0x70));
        let hi_ix = _mm_sub_epi8(codes_v, _mm_set1_epi8(16));
        let mut codes = present;
        while codes != 0 {
            let e = codes.trailing_zeros() as usize;
            codes &= codes - 1;
            let row = &table[e];
            // SAFETY: each half of the 32-byte row is 16 readable bytes.
            let (lo, hi) = unsafe {
                (
                    _mm_loadu_si128(row[..16].as_ptr().cast()),
                    _mm_loadu_si128(row[16..].as_ptr().cast()),
                )
            };
            let scores = _mm_or_si128(_mm_shuffle_epi8(lo, lo_ix), _mm_shuffle_epi8(hi, hi_ix));
            col[e] = V16(_mm256_cvtepi8_epi16(scores));
        }
    }

    isa_kernels! {
        feature: "avx2",
        vec: __m256i,
        lanes_i16: 16,
        lanes_i8: 32,
        setzero: _mm256_setzero_si256,
        set1_epi16: _mm256_set1_epi16,
        adds_epi16: _mm256_adds_epi16,
        subs_epi16: _mm256_subs_epi16,
        max_epi16: _mm256_max_epi16,
        set1_epi8: _mm256_set1_epi8,
        adds_epi8: _mm256_adds_epi8,
        subs_epi8: _mm256_subs_epi8,
        max_epi8: _mm256_max_epi8,
        load: _mm256_load_si256,
        loadu: _mm256_loadu_si256,
        storeu: _mm256_storeu_si256,
        column_scores: column_scores,
    }
}
