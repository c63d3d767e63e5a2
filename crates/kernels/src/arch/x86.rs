//! The x86_64 vector types — SSE2 and AVX2 — and their instantiations of
//! the shared sweep.
//!
//! Each ISA module defines two thin vector newtypes (`V16`, `V8`) from one
//! macro (`vector!`): `#[target_feature]`-annotated wrappers over the raw
//! `std::arch` intrinsics under the method names of the portable
//! `crate::lanes` vectors. `kernels!` (see [`super::sweep`]) then cuts the
//! five kernels the dispatcher in [`super`] calls from the one sweep body,
//! exactly as it does for the portable vectors — same saturating ops, same
//! `NEG_INF` sentinels, same `vmax == MAX` overflow flagging — so scores
//! and flags are bit-identical across all of them. AVX2 adds, over its
//! `V8` and two half-register moves, the fused path's byte pass,
//! `sw_fused_u8`: the same sweep in its `skewed`, `floored` form.
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
//! * `load` uses an *aligned* vector load. Its inputs are rows of
//!   [`sw_swdb::SequenceProfile`] / [`sw_swdb::SequenceProfileI8`], whose
//!   storage is 64-byte aligned with rows a multiple of the vector size
//!   apart (the alignment contract documented on `SequenceProfile::row`),
//!   re-checked here with `debug_assert!`. The contract covers the
//!   materialised kernels only: the fused kernel reads batch columns and
//!   table rows with unaligned loads.
//! * A shuffle cannot read outside its 16-byte source register whatever
//!   the index byte holds, so the AVX2 column prologues are memory-safe
//!   for any batch residue code (see `sw_fused_i16` for what such a code
//!   scores as).

#![allow(unsafe_code)]

/// A vector newtype `$name` = `$lanes` × `$elem` in one `$vec` register:
/// the arithmetic of the sweep and, for the types that read profiles (those
/// given `load:`/`loadu:`), the three ways a row reaches a register.
macro_rules! vector {
    (
        $name:ident: [$elem:ty; $lanes:expr] in $vec:ty,
        feature: $feat:literal,
        setzero: $setzero:path,
        set1: $set1:path,
        adds: $adds:path,
        subs: $subs:path,
        max: $max:path,
        min: $min:path,
        $(load: $load:path,
        loadu: $loadu:path,)?
        storeu: $storeu:path,
    ) => {
        #[derive(Clone, Copy)]
        struct $name($vec);

        impl $name {
            #[inline]
            #[target_feature(enable = $feat)]
            fn zero() -> Self {
                Self($setzero())
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn splat(v: $elem) -> Self {
                Self($set1(v))
            }

            $(
            /// Aligned load of one SP profile row.
            #[inline]
            #[target_feature(enable = $feat)]
            fn load(s: &[$elem]) -> Self {
                let p = s[..$lanes].as_ptr();
                debug_assert_eq!(
                    p as usize % std::mem::size_of::<$vec>(),
                    0,
                    "SP row violates the profile alignment contract"
                );
                // SAFETY: the slice index above guarantees `$lanes`
                // readable elements; alignment holds by the profile
                // storage contract (debug-asserted).
                Self(unsafe { $load(p.cast()) })
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn from_array(a: [$elem; $lanes]) -> Self {
                // SAFETY: `a` is exactly one vector of valid memory.
                Self(unsafe { $loadu(a.as_ptr().cast()) })
            }

            /// Gather for the QP flavour: scalar table lookups into a
            /// stack buffer, then one unaligned load. Panics if fewer
            /// than `$lanes` indices are given (same contract as the
            /// portable gather).
            #[inline]
            #[target_feature(enable = $feat)]
            fn gather(table: &[$elem], indices: &[u8]) -> Self {
                let mut buf = [0; $lanes];
                for (o, &ix) in buf.iter_mut().zip(&indices[..$lanes]) {
                    *o = table[ix as usize];
                }
                Self::from_array(buf)
            }
            )?

            #[inline]
            #[target_feature(enable = $feat)]
            fn sat_add(self, o: Self) -> Self {
                Self($adds(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn sat_sub(self, o: Self) -> Self {
                Self($subs(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn max(self, o: Self) -> Self {
                Self($max(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn min(self, o: Self) -> Self {
                Self($min(self.0, o.0))
            }

            #[inline]
            #[target_feature(enable = $feat)]
            fn to_array(self) -> [$elem; $lanes] {
                let mut out = [0; $lanes];
                // SAFETY: `out` is exactly one vector of writable memory.
                unsafe { $storeu(out.as_mut_ptr().cast(), self.0) }
                out
            }
        }
    };
}

/// 128-bit SSE2 kernels: 8 × i16, 16 × i8 (SWIPE's original widths).
pub(crate) mod sse2 {
    use std::arch::x86_64::*;

    /// i16 lanes per vector.
    pub(crate) const LANES_I16: usize = 8;
    /// i8 lanes per vector.
    pub(crate) const LANES_I8: usize = 16;

    /// SSE2 has no signed-byte max (`pmaxsb` is SSE4.1); build it from a
    /// signed compare and bit selection, exactly as SWIPE-era code did.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn max_epi8_sse2(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi8(a, b);
        _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
    }

    /// The signed-byte min (`pminsb`, SSE4.1) the same way.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn min_epi8_sse2(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi8(a, b);
        _mm_or_si128(_mm_and_si128(gt, b), _mm_andnot_si128(gt, a))
    }

    vector! {
        V16: [i16; LANES_I16] in __m128i,
        feature: "sse2",
        setzero: _mm_setzero_si128,
        set1: _mm_set1_epi16,
        adds: _mm_adds_epi16,
        subs: _mm_subs_epi16,
        max: _mm_max_epi16,
        min: _mm_min_epi16,
        load: _mm_load_si128,
        loadu: _mm_loadu_si128,
        storeu: _mm_storeu_si128,
    }

    vector! {
        V8: [i8; LANES_I8] in __m128i,
        feature: "sse2",
        setzero: _mm_setzero_si128,
        set1: _mm_set1_epi8,
        adds: _mm_adds_epi8,
        subs: _mm_subs_epi8,
        max: max_epi8_sse2,
        min: min_epi8_sse2,
        load: _mm_load_si128,
        loadu: _mm_loadu_si128,
        storeu: _mm_storeu_si128,
    }

    scalar_column_scores! {
        attrs: [#[target_feature(enable = "sse2")]], generics: [],
        v16: V16, lanes_i16: LANES_I16
    }

    kernels! {
        attrs: [#[target_feature(enable = "sse2")]], generics: [],
        v16: V16, lanes_i16: LANES_I16, v8: V8, lanes_i8: LANES_I8,
        column_scores: column_scores
    }
}

/// 256-bit AVX2 kernels: 16 × i16, 32 × i8 — the paper's AVX lane widths.
pub(crate) mod avx2 {
    use std::arch::x86_64::*;
    use std::cell::Cell;
    use sw_swdb::SCORE_TABLE_COLS;

    /// i16 lanes per vector.
    pub(crate) const LANES_I16: usize = 16;
    /// i8 lanes per vector.
    pub(crate) const LANES_I8: usize = 32;

    vector! {
        V16: [i16; LANES_I16] in __m256i,
        feature: "avx2",
        setzero: _mm256_setzero_si256,
        set1: _mm256_set1_epi16,
        adds: _mm256_adds_epi16,
        subs: _mm256_subs_epi16,
        max: _mm256_max_epi16,
        min: _mm256_min_epi16,
        load: _mm256_load_si256,
        loadu: _mm256_loadu_si256,
        storeu: _mm256_storeu_si256,
    }

    vector! {
        V8: [i8; LANES_I8] in __m256i,
        feature: "avx2",
        setzero: _mm256_setzero_si256,
        set1: _mm256_set1_epi8,
        adds: _mm256_adds_epi8,
        subs: _mm256_subs_epi8,
        max: _mm256_max_epi8,
        min: _mm256_min_epi8,
        load: _mm256_load_si256,
        loadu: _mm256_loadu_si256,
        storeu: _mm256_storeu_si256,
    }

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

    kernels! {
        attrs: [#[target_feature(enable = "avx2")]], generics: [],
        v16: V16, lanes_i16: LANES_I16, v8: V8, lanes_i8: LANES_I8,
        column_scores: column_scores
    }

    // The byte pass's view of `V8`: the same 16 sequences in both 128-bit
    // halves.
    impl V8 {
        /// `[low half of fill ‖ low half of self]`: what the lower run of a
        /// skewed sweep finished becomes the row above the upper run, and
        /// `fill` the row above the lower one.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn shift_halves(self, fill: Self) -> Self {
            Self(_mm256_permute2x128_si256::<0x02>(self.0, fill.0))
        }

        /// `[low half of self ‖ high half of o]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn blend_halves(self, o: Self) -> Self {
            Self(_mm256_blend_epi32::<0xF0>(self.0, o.0))
        }
    }

    /// A code that is no residue (a table has fewer than 32 rows). As a
    /// *key* it is the query row appended to an odd query: its `col` entry
    /// is never filled and stays at the floor. As a *residue* it is the
    /// columns before the first and after the last: like the pad column it
    /// holds [`sw_swdb::batch::PAD_SCORE`] in every table row. Either way
    /// the cell scores −128 against everything.
    const NO_RESIDUE: u8 = (SCORE_TABLE_COLS - 1) as u8;

    /// The score vectors of one residue code for the two steps of a trip.
    type TripScores = Cell<[V8; 2]>;

    thread_local! {
        /// [`sw_fused_u8`]'s H/F columns, kept for the thread's next batch:
        /// with two fresh `Vec`s per batch, the heap's high-water mark
        /// follows the order the batches run in.
        static HF_COLS: Cell<[Vec<V8>; 2]> = const { Cell::new([Vec::new(), Vec::new()]) };
    }

    /// Byte-pass column prologue: [`column_scores`] at 256 bits, without
    /// the widening and for both steps of a trip — `col[e]` =
    /// `[row(e, j) ‖ row(e, j − 2)]`, `[row(e, j + 1) ‖ row(e, j − 1)]` of
    /// SP rows, given the residues of columns `j − 2 ..= j + 1` in that
    /// order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn column_scores_i8(
        col: &[TripScores],
        table: &[[i8; SCORE_TABLE_COLS]],
        present: u32,
        residues: [&[u8]; 4],
    ) {
        let indices = |now: &[u8], before: &[u8]| {
            // SAFETY: each slice index guarantees LANES_I16 = 16 readable bytes.
            let codes_v = unsafe {
                _mm256_set_m128i(
                    _mm_loadu_si128(before[..LANES_I16].as_ptr().cast()),
                    _mm_loadu_si128(now[..LANES_I16].as_ptr().cast()),
                )
            };
            (
                _mm256_adds_epu8(codes_v, _mm256_set1_epi8(0x70)),
                _mm256_sub_epi8(codes_v, _mm256_set1_epi8(16)),
            )
        };
        let [(lo_a, hi_a), (lo_b, hi_b)] = [
            indices(residues[2], residues[0]),
            indices(residues[3], residues[1]),
        ];
        let mut codes = present;
        while codes != 0 {
            let e = codes.trailing_zeros() as usize;
            codes &= codes - 1;
            let row = &table[e];
            // SAFETY: each half of the 32-byte row is 16 readable bytes.
            let (lo, hi) = unsafe {
                (
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(row[..16].as_ptr().cast())),
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(row[16..].as_ptr().cast())),
                )
            };
            let scores = |lo_ix, hi_ix| {
                V8(_mm256_or_si256(
                    _mm256_shuffle_epi8(lo, lo_ix),
                    _mm256_shuffle_epi8(hi, hi_ix),
                ))
            };
            col[e].set([scores(lo_a, hi_a), scores(lo_b, hi_b)]);
        }
    }

    /// Whether [`sw_fused_u8`] can run under `gap`: floor-offset bytes
    /// cannot clamp a penalty they cannot hold (a lane at 254 less a clamped
    /// 127 is still positive), so both penalties must fit an `i8`.
    pub(crate) fn gap_fits_byte(gap: &sw_seq::GapPenalty) -> bool {
        gap.first().max(gap.extend) <= i8::MAX as i32
    }

    /// The byte first pass of the fused kernel: 32 floor-offset 8-bit lanes
    /// (an `i8` holding `H − 128`, so scores 0 … 255) over one
    /// **16**-sequence batch. Both halves of a register hold the same 16
    /// sequences; the low half sweeps query rows `0..h` (`h = ⌈m/2⌉`), the
    /// high half rows `h..m` two database columns behind, two columns per
    /// trip through the rows (the `skewed` sweep). A lane's score is the
    /// larger of its two halves, and it is flagged saturated at 255: every
    /// clipped addition lands exactly there, so a lane below it was
    /// computed exactly. One block always — the H/F state is 64 bytes per
    /// row *pair*, half the i16 sweep's, and is read and written once per
    /// two columns.
    ///
    /// `table` is [`sw_swdb::ScoreTable::rows`], the rows the i16 tier
    /// shuffles: a padded cell scores −128 as in the wider types, so its
    /// `H` never exceeds a value a real cell of the same lane already
    /// holds. The same goes for the odd query's extra row and the columns
    /// off either end (see [`NO_RESIDUE`]).
    ///
    /// # Panics
    /// Panics on a lane-width mismatch, a query code `≥ table.len()` or a
    /// gap model [`gap_fits_byte`] refuses (the dispatcher starts such a
    /// search at i16).
    #[target_feature(enable = "avx2")]
    pub(crate) fn sw_fused_u8(
        query: &[u8],
        table: &[[i8; SCORE_TABLE_COLS]],
        batch: &sw_swdb::LaneBatch,
        gap: &sw_seq::GapPenalty,
    ) -> crate::intertask::NarrowOutput {
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
        assert!(gap_fits_byte(gap), "gap penalty beyond a byte");
        let present = query.iter().fold(0u32, |set, &q| set | 1 << q);
        let mut col = [[V8::splat(i8::MIN); 2]; SCORE_TABLE_COLS];
        let col = Cell::from_mut(&mut col[..]).as_slice_of_cells();
        // A query row's key is the *address* of its score vectors, looked up
        // here once per row instead of once per cell; the prologue then
        // rewrites the vectors in place, hence the cells.
        let h = query.len().div_ceil(2);
        let key = |&q: &u8| &col[q as usize];
        let lower: Vec<&TripScores> = query[..h].iter().map(key).collect();
        let mut upper: Vec<&TripScores> = query[h..].iter().map(key).collect();
        upper.resize(h, key(&NO_RESIDUE));
        let n = batch.padded_len();
        let off_end = [NO_RESIDUE; LANES_I16];
        // Steps −2 and −1 wrap far past `n`: off the end either way.
        let residues = |j: usize| if j < n { batch.row(j) } else { &off_end[..] };
        let mut hf_cols = HF_COLS.take();
        let best = sweep!(
            V8, elem: i8, neg_inf: i8::MIN, gap: gap, m: h, batch: batch,
            n: (n + 2).next_multiple_of(2), skewed, cols: &mut hf_cols, score: floored,
            rows: lower.iter().zip(&upper),
            column: |j: usize| column_scores_i8(
                col, table, present,
                [residues(j.wrapping_sub(2)), residues(j.wrapping_sub(1)), residues(j), residues(j + 1)]
            ),
            subst: |(lo, hi): (&&TripScores, &&TripScores), _j| {
                let (lo, hi) = (lo.get(), hi.get());
                [lo[0].blend_halves(hi[0]), lo[1].blend_halves(hi[1])]
            }
        );
        HF_COLS.set(hf_cols);
        crate::intertask::NarrowOutput::from_floored_best(&best)
    }
}
