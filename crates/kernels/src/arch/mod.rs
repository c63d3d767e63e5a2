//! Real `std::arch` intrinsic kernels with runtime ISA dispatch.
//!
//! The portable [`crate::lanes`] kernels *hope* LLVM autovectorizes their
//! element loops; this module is the genuine intrinsic tier the paper's
//! fastest variants are built from (§IV-C): hand-written SSE2 (8 × i16 /
//! 16 × i8) and AVX2 (16 × i16 / 32 × i8) inter-task kernels behind
//! [`is_x86_feature_detected!`] runtime dispatch, with the portable
//! kernels as the guaranteed fallback on every other target, lane width,
//! or forced-portable run.
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
//!   runs the 128-bit kernels (AVX2 implies SSE2); anything else falls
//!   back to the portable kernels.
//! * The default search path runs [`sw_isa_fused_sp`]: the sequence
//!   profile's values without the per-batch table. It engages under the
//!   same width rule, and additionally only for a score table with
//!   shuffle rows (scores fit `i8`, ≤ 31 residue codes); otherwise it
//!   materialises the profile and calls [`sw_isa_sp`].
//! * Results are **identical** across every path — scores *and*
//!   overflow/saturation flags — enforced by the differential suite in
//!   `tests/isa_differential.rs`.
//!
//! Safety: the intrinsic bodies live in `#[target_feature]` functions and
//! are reached only through the `unsafe` calls in this module, each
//! guarded by the matching runtime/ABI feature check on the same line.

#![allow(unsafe_code)]

use crate::blocked::{sw_blocked_qp, sw_blocked_sp, BlockedWorkspace};
use crate::intertask::{sw_lanes_qp, sw_lanes_sp, KernelOutput, Workspace};
use crate::narrow::{
    cascade, sw_narrow_qp, sw_narrow_sp, CascadeStats, NarrowOutput, NarrowWorkspace,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use sw_seq::GapPenalty;
use sw_swdb::{
    LaneBatch, QueryProfile, QueryProfileI8, ScoreTable, SequenceProfile, SequenceProfileI8,
};

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

/// Effective row-block size: `None` means unblocked, which the intrinsic
/// kernels express as one block spanning the whole query.
fn eff_block(block_rows: Option<usize>, m: usize) -> usize {
    block_rows.unwrap_or(usize::MAX).min(m.max(1))
}

/// i16 inter-task kernel, QP flavour, dispatched on `isa`.
///
/// `block_rows: None` runs unblocked, `Some(b)` row-blocked — scores and
/// overflow flags are identical either way and identical across ISAs.
pub fn sw_isa_qp<const L: usize>(
    isa: KernelIsa,
    qp: &QueryProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    #[cfg(target_arch = "x86_64")]
    {
        let block = eff_block(block_rows, qp.query_len());
        match isa {
            KernelIsa::Avx2 if L == x86::avx2::LANES_I16 && isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                return unsafe { x86::avx2::sw_qp_i16(qp, batch, gap, block) };
            }
            KernelIsa::Avx2 | KernelIsa::Sse2 if L == x86::sse2::LANES_I16 => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                return unsafe { x86::sse2::sw_qp_i16(qp, batch, gap, block) };
            }
            _ => {}
        }
    }
    match block_rows {
        None => sw_lanes_qp::<L>(qp, batch, gap, &mut Workspace::new()),
        Some(b) => sw_blocked_qp::<L>(qp, batch, gap, b, &mut BlockedWorkspace::new()),
    }
}

/// i16 inter-task kernel, SP flavour, dispatched on `isa`.
pub fn sw_isa_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    sp: &SequenceProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    #[cfg(target_arch = "x86_64")]
    {
        let block = eff_block(block_rows, query.len());
        match isa {
            KernelIsa::Avx2 if L == x86::avx2::LANES_I16 && isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                return unsafe { x86::avx2::sw_sp_i16(query, sp, batch, gap, block) };
            }
            KernelIsa::Avx2 | KernelIsa::Sse2 if L == x86::sse2::LANES_I16 => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                return unsafe { x86::sse2::sw_sp_i16(query, sp, batch, gap, block) };
            }
            _ => {}
        }
    }
    match block_rows {
        None => sw_lanes_sp::<L>(query, sp, batch, gap, &mut Workspace::new()),
        Some(b) => sw_blocked_sp::<L>(query, sp, batch, gap, b, &mut BlockedWorkspace::new()),
    }
}

/// i16 inter-task kernel, fused SP flavour, dispatched on `isa`: the
/// result of [`sw_isa_sp`] over `SequenceProfile::build(batch, ..)`
/// without building that profile. The intrinsic kernels derive each
/// column's SP rows in registers from `table`; where they do not engage —
/// `Portable`, a lane width that is not the ISA's native one, a non-x86
/// target, or a `table` without shuffle rows (scores beyond `i8`, more
/// than 31 residue codes) — the profile is materialised and handed to
/// [`sw_isa_sp`]. Scores and overflow flags are identical either way.
pub fn sw_isa_fused_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    table: &ScoreTable<'_>,
    batch: &LaneBatch,
    gap: &GapPenalty,
    block_rows: Option<usize>,
) -> KernelOutput {
    // Release builds rely on `PreparedDb::prepare` having checked this: a
    // shuffle scores a stray code as some other residue (memory-safe, but
    // wrong) where the materialised build would panic.
    debug_assert!(
        batch
            .interleaved()
            .iter()
            .all(|&r| r as usize <= table.alphabet().len()),
        "batch residue code outside the alphabet and its pad code"
    );
    #[cfg(target_arch = "x86_64")]
    if let Some(rows) = table.rows() {
        let block = eff_block(block_rows, query.len());
        match isa {
            KernelIsa::Avx2 if L == x86::avx2::LANES_I16 && isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                return unsafe { x86::avx2::sw_fused_i16(query, rows, batch, gap, block) };
            }
            KernelIsa::Avx2 | KernelIsa::Sse2 if L == x86::sse2::LANES_I16 => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                return unsafe { x86::sse2::sw_fused_i16(query, rows, batch, gap, block) };
            }
            _ => {}
        }
    }
    let sp = SequenceProfile::build(batch, table.matrix(), table.alphabet());
    sw_isa_sp::<L>(isa, query, &sp, batch, gap, block_rows)
}

/// i8 narrow kernel, QP flavour, dispatched on `isa`.
pub fn sw_isa_narrow_qp<const L: usize>(
    isa: KernelIsa,
    qp8: &QueryProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> NarrowOutput {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            KernelIsa::Avx2 if L == x86::avx2::LANES_I8 && isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                return unsafe { x86::avx2::sw_qp_i8(qp8, batch, gap) };
            }
            KernelIsa::Avx2 | KernelIsa::Sse2 if L == x86::sse2::LANES_I8 => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                return unsafe { x86::sse2::sw_qp_i8(qp8, batch, gap) };
            }
            _ => {}
        }
    }
    sw_narrow_qp::<L>(qp8, batch, gap, &mut NarrowWorkspace::new())
}

/// i8 narrow kernel, SP flavour, dispatched on `isa`.
pub fn sw_isa_narrow_sp<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    sp8: &SequenceProfileI8,
    batch: &LaneBatch,
    gap: &GapPenalty,
) -> NarrowOutput {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            KernelIsa::Avx2 if L == x86::avx2::LANES_I8 && isa.is_available() => {
                // SAFETY: AVX2 presence verified by `is_available` above.
                return unsafe { x86::avx2::sw_sp_i8(query, sp8, batch, gap) };
            }
            KernelIsa::Avx2 | KernelIsa::Sse2 if L == x86::sse2::LANES_I8 => {
                // SAFETY: SSE2 is part of the x86_64 baseline ABI.
                return unsafe { x86::sse2::sw_sp_i8(query, sp8, batch, gap) };
            }
            _ => {}
        }
    }
    sw_narrow_sp::<L>(query, sp8, batch, gap, &mut NarrowWorkspace::new())
}

/// ISA-dispatched dual-precision cascade, QP flavour (the i8 → i16 tiers
/// of `crate::narrow`, each running on `isa`).
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
