//! The inter-task vector kernels: one sweep body, four vector types,
//! runtime ISA dispatch.
//!
//! The paper's fastest variants (§IV-C) are one recurrence re-targeted at
//! different vector registers. Here that is literal: `sweep` holds the
//! only H/E/F loop nest, and it is instantiated over hand-written SSE2
//! (8 × i16 / 16 × i8) and AVX2 (16 × i16 / 32 × i8) `std::arch` vectors
//! (`x86`) and over the portable [`crate::lanes`] vectors at any lane
//! width. The `sw_isa_*` functions below pick the instantiation behind
//! [`is_x86_feature_detected!`]; every one offers the same five kernels —
//! QP, SP and fused SP at i16, QP and SP at i8 — and AVX2 a sixth, the
//! fused path's byte pass.
//!
//! Dispatch rules (see also `DESIGN.md`):
//!
//! * [`KernelIsa::detect`] picks the best ISA the host supports from
//!   hardware feature probes alone — it never reads the environment, so
//!   a long-lived daemon can resolve an ISA per request without two
//!   concurrent searches observing different answers. Front-ends
//!   (`--kernel-isa`, or the CLI's startup-time `SW_KERNEL_ISA` read)
//!   force one by threading an explicit [`KernelIsa`] through
//!   `SearchConfig`.
//! * An ISA engages only at its native lane width — AVX2 at 16 × i16 /
//!   32 × i8, SSE2 at 8 × i16 / 16 × i8. An AVX2 selection at SSE width
//!   runs the 128-bit kernels (AVX2 implies SSE2); anything else — another
//!   lane width, a non-x86 target, a forced [`KernelIsa::Portable`] —
//!   runs the portable instantiation.
//! * The default search path runs [`sw_isa_fused_sp`]: the sequence
//!   profile's values without the per-batch table, on every ISA (AVX2
//!   builds a column's score vectors with `pshufb`, SSE2 and portable by
//!   scalar fill). Only a score table without shuffle rows (scores beyond
//!   `i8`, more than 31 residue codes) makes it materialise the profile
//!   and call [`sw_isa_sp`].
//! * [`sw_isa_fused_sp`] is also the first two tiers of the precision
//!   chain, u8 → i16 (→ i64, the caller's [`crate::overflow`] rescue). On
//!   AVX2 at `L = 16`, over a table with shuffle rows and under gap
//!   penalties a byte holds (first gap ≤ 127), a batch is first swept in 32
//!   floor-offset byte lanes (`H − 128` in an `i8`: scores 0 … 255) — the
//!   same 16 sequences in both register halves, two runs of query rows two
//!   columns apart, two columns per trip through the rows — and the i16
//!   sweep re-runs it only if a lane reached 255. SSE2, portable, every
//!   other lane width, larger penalties and the materialised fallback
//!   start at i16. Nothing selects this but the ISA, the lane width, the
//!   scoring scheme and the saturation observed.
//! * Results are **identical** across every path — scores *and*
//!   overflow/saturation flags — enforced by the differential suite in
//!   `tests/isa_differential.rs`, which pins each of them to the scalar
//!   oracle.
//!
//! Safety: the intrinsic bodies live in `#[target_feature]` functions and
//! are reached only through the `unsafe` calls in `dispatch!` and the
//! byte-pass branch of [`sw_isa_fused_sp_stats`], each guarded by the
//! matching runtime/ABI feature check on the same arm.

#![allow(unsafe_code)]

use crate::intertask::{cascade, CascadeStats, KernelOutput, NarrowOutput};
use serde::{Deserialize, Serialize};
use std::fmt;
use sw_seq::GapPenalty;
use sw_swdb::{
    LaneBatch, QueryProfile, QueryProfileI8, ScoreTable, SequenceProfile, SequenceProfileI8,
};

#[macro_use]
mod sweep;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Which instruction set the inter-task kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelIsa {
    /// The portable element-loop kernels (work on every target).
    Portable,
    /// 128-bit SSE2 intrinsics: 8 × i16, 16 × i8.
    Sse2,
    /// 256-bit AVX2 intrinsics: 16 × i16, 32 × i8 — the paper's AVX lane
    /// widths.
    Avx2,
}

impl KernelIsa {
    /// The canonical lower-case name (`portable` / `sse2` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Portable => "portable",
            KernelIsa::Sse2 => "sse2",
            KernelIsa::Avx2 => "avx2",
        }
    }

    /// Parse a canonical name (as accepted by `--kernel-isa`).
    pub fn from_name(name: &str) -> Option<KernelIsa> {
        match name.to_ascii_lowercase().as_str() {
            "portable" => Some(KernelIsa::Portable),
            "sse2" => Some(KernelIsa::Sse2),
            "avx2" => Some(KernelIsa::Avx2),
            _ => None,
        }
    }

    /// True when this ISA can actually run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelIsa::Portable => true,
            // SSE2 is part of the x86_64 ABI baseline — always present.
            KernelIsa::Sse2 => cfg!(target_arch = "x86_64"),
            KernelIsa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The best ISA the host supports, from hardware probes alone.
    ///
    /// Deliberately pure: no environment reads, no globals. Process-level
    /// overrides (`SW_KERNEL_ISA`, `--kernel-isa`) are resolved once at
    /// front-end startup and travel through `SearchConfig`, so the
    /// library path is daemon-safe — concurrent requests can never race
    /// on an env mutation mid-run.
    pub fn detect() -> KernelIsa {
        if KernelIsa::Avx2.is_available() {
            KernelIsa::Avx2
        } else if KernelIsa::Sse2.is_available() {
            KernelIsa::Sse2
        } else {
            KernelIsa::Portable
        }
    }
}

impl Default for KernelIsa {
    fn default() -> Self {
        KernelIsa::detect()
    }
}

impl fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The one dispatch ladder: run `$kernel` from the instantiation `$isa`
/// selects at lane width `$L` — an x86 module when `$L` is its native
/// `$width` (`LANES_I16` or `LANES_I8`), the portable one otherwise.
macro_rules! dispatch {
    ($isa:ident, $L:ident, $width:ident, $kernel:ident($($arg:expr),*)) => {
        match $isa {
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 if $L == x86::avx2::$width && $isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                unsafe { x86::avx2::$kernel($($arg),*) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 | KernelIsa::Sse2 if $L == x86::sse2::$width => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                unsafe { x86::sse2::$kernel($($arg),*) }
            }
            _ => sweep::portable::$kernel::<$L>($($arg),*),
        }
    };
}

/// Effective row-block size: `None` means unblocked, which the sweep
/// expresses as one block spanning the whole query.
fn eff_block(block_rows: Option<usize>, m: usize) -> usize {
    block_rows.unwrap_or(usize::MAX).min(m.max(1))
}

/// i16 inter-task kernel, QP flavour, dispatched on `isa`.
///
/// `block_rows: None` runs unblocked, `Some(b)` row-blocked — scores and
/// overflow flags are identical either way and identical across ISAs.
///
/// # Panics
/// Panics if `batch.lanes() != L` or `block_rows == Some(0)`.
pub fn sw_isa_qp<const L: usize>(
    isa: KernelIsa,
    qp: &QueryProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    let block = eff_block(block_rows, qp.query_len());
    dispatch!(isa, L, LANES_I16, sw_qp_i16(qp, batch, gap, block))
}

/// i16 inter-task kernel, SP flavour, dispatched on `isa`.
///
/// # Panics
/// As [`sw_isa_qp`], and if `sp` was built for a different batch shape.
pub fn sw_isa_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    sp: &SequenceProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    let block = eff_block(block_rows, query.len());
    dispatch!(isa, L, LANES_I16, sw_sp_i16(query, sp, batch, gap, block))
}

/// Inter-task kernel, fused SP flavour, dispatched on `isa`: the result of
/// [`sw_isa_sp`] over `SequenceProfile::build(batch, ..)` without building
/// that profile — each column's SP rows are derived from `table` when the
/// sweep reaches the column.
///
/// AVX2 at `L = 16` runs a byte pass first (32 floor-offset 8-bit lanes
/// over the same 16 sequences, `block_rows` unused) and the i16 sweep only
/// for a batch with a lane at the byte ceiling, 255; every other ISA and
/// width — and a first-gap penalty above 127, which no byte holds — starts
/// at i16. Only a `table` without shuffle rows (scores beyond `i8`, more
/// than 31 residue codes) has the profile materialised and handed to
/// [`sw_isa_sp`]. Scores and overflow flags are identical on every route.
pub fn sw_isa_fused_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    table: &ScoreTable<'_>,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    sw_isa_fused_sp_stats::<L>(isa, query, table, batch, gap, block_rows).0
}

/// [`sw_isa_fused_sp`], and how many lanes its byte pass settled and how
/// many went on to i16 (both 0 where no byte pass ran).
pub fn sw_isa_fused_sp_stats<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    table: &ScoreTable<'_>,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> (KernelOutput, CascadeStats) {
    // Release builds rely on `PreparedDb::prepare` having checked this: the
    // fused kernel scores a stray code as some other residue (memory-safe,
    // but wrong) where the materialised build would panic.
    debug_assert!(
        batch
            .interleaved()
            .iter()
            .all(|&r| r as usize <= table.alphabet().len()),
        "batch residue code outside the alphabet and its pad code"
    );
    let wide = || {
        let Some(rows) = table.rows() else {
            let sp = SequenceProfile::build(batch, table.matrix(), table.alphabet());
            return sw_isa_sp::<L>(isa, query, &sp, batch, gap, block_rows);
        };
        let block = eff_block(block_rows, query.len());
        dispatch!(
            isa,
            L,
            LANES_I16,
            sw_fused_i16(query, rows, batch, gap, block)
        )
    };
    // The byte pass, where there is one: AVX2 at 16 sequences per batch,
    // over a table with shuffle rows, under gap penalties a byte holds.
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx2 && L == x86::avx2::LANES_I16 && isa.is_available() {
        if let Some(rows) = table.rows().filter(|_| x86::avx2::gap_fits_byte(gap)) {
            // SAFETY: AVX2 presence verified by `is_available` above.
            let narrow = unsafe { x86::avx2::sw_fused_u8(query, rows, batch, gap) };
            return cascade(narrow, wide);
        }
    }
    (wide(), CascadeStats::default())
}

/// i8 narrow kernel, QP flavour, dispatched on `isa` — the first tier of
/// SWIPE's dual-precision cascade: the i16 sweep at half the element
/// width, run as one block.
pub fn sw_isa_narrow_qp<const L: usize>(
    isa: KernelIsa,
    qp8: &QueryProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> NarrowOutput {
    let block = eff_block(None, qp8.query_len());
    dispatch!(isa, L, LANES_I8, sw_qp_i8(qp8, batch, gap, block))
}

/// i8 narrow kernel, SP flavour, dispatched on `isa`.
pub fn sw_isa_narrow_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    sp8: &SequenceProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> NarrowOutput {
    let block = eff_block(None, query.len());
    dispatch!(isa, L, LANES_I8, sw_sp_i8(query, sp8, batch, gap, block))
}

/// ISA-dispatched dual-precision cascade, QP flavour: i8 pass for the
/// whole batch, i16 re-pass only if any lane saturated (see
/// [`crate::intertask`]).
pub fn sw_isa_adaptive_qp<const L: usize>(
    isa: KernelIsa,
    qp: &QueryProfile,
    qp8: &QueryProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> (KernelOutput, CascadeStats) {
    let narrow = sw_isa_narrow_qp::<L>(isa, qp8, batch, gap);
    cascade(narrow, || sw_isa_qp::<L>(isa, qp, batch, gap, None))
}

/// ISA-dispatched dual-precision cascade, SP flavour.
pub fn sw_isa_adaptive_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    sp: &SequenceProfile,
    sp8: &SequenceProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> (KernelOutput, CascadeStats) {
    let narrow = sw_isa_narrow_sp::<L>(isa, query, sp8, batch, gap);
    cascade(narrow, || sw_isa_sp::<L>(isa, query, sp, batch, gap, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::SwParams;
    use sw_seq::{Alphabet, SeqId};
    use sw_swdb::batch::pad_code;

    #[test]
    fn isa_names_roundtrip() {
        for isa in [KernelIsa::Portable, KernelIsa::Sse2, KernelIsa::Avx2] {
            assert_eq!(KernelIsa::from_name(isa.name()), Some(isa));
            assert_eq!(isa.to_string(), isa.name());
        }
        assert_eq!(KernelIsa::from_name("AVX2"), Some(KernelIsa::Avx2));
        assert_eq!(KernelIsa::from_name("avx512"), None);
    }

    #[test]
    fn detected_isa_is_available() {
        let isa = KernelIsa::detect();
        assert!(isa.is_available());
        assert!(KernelIsa::Portable.is_available());
        #[cfg(target_arch = "x86_64")]
        assert!(KernelIsa::Sse2.is_available());
    }

    #[test]
    fn detect_is_hardware_only_and_ignores_the_environment() {
        // The env override moved to front-end startup; the library must
        // answer from feature probes alone (daemon-safe, race-free).
        std::env::set_var("SW_KERNEL_ISA", "portable");
        let isa = KernelIsa::detect();
        std::env::remove_var("SW_KERNEL_ISA");
        #[cfg(target_arch = "x86_64")]
        assert_ne!(isa, KernelIsa::Portable, "env must not force the ISA here");
        assert!(isa.is_available());
    }

    #[test]
    fn unavailable_or_unmatched_widths_fall_back_to_portable() {
        // Lane width 4 matches no intrinsic kernel, so every ISA must
        // produce the portable result, blocked and unblocked.
        let a = Alphabet::protein();
        let p = SwParams::paper_default();
        let query = a.encode_strict(b"MKVLITRAWQESTNHYFPGD").unwrap();
        let subject = a.encode_strict(b"MKVLITRAW").unwrap();
        let batch = LaneBatch::pack(4, &[(SeqId(0), &subject[..])], pad_code(&a));
        let qp = QueryProfile::build(&query, &p.matrix, &a);
        let reference = sw_isa_qp::<4>(KernelIsa::Portable, &qp, &batch, &p.gap, None);
        for isa in [KernelIsa::Sse2, KernelIsa::Avx2] {
            for block in [None, Some(5)] {
                let out = sw_isa_qp::<4>(isa, &qp, &batch, &p.gap, block);
                assert_eq!(out, reference, "isa {isa} block {block:?}");
            }
        }
    }
}
