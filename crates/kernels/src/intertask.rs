//! Inter-task kernel data — what the paper's `intrinsic-QP` /
//! `intrinsic-SP` variants return, and the constants they share.
//!
//! One lane batch = `L` database sequences aligned against the query
//! simultaneously, one per vector lane (the SWIPE scheme [Rognes 2011] the
//! paper adopts in §IV). The sweep itself lives in [`crate::arch`]: one
//! body, instantiated per vector type. This module is the home of its
//! outputs ([`KernelOutput`], [`NarrowOutput`]), the 8-bit → i16 cascade
//! that combines them, the "minus infinity" sentinels and the
//! cache-blocking tuning rule of Fig. 7.
//!
//! Arithmetic is saturating; a lane whose running maximum reaches the
//! ceiling of its element type (`MAX`; score 255 in the fused kernel's
//! floor-offset byte pass) is flagged and later recomputed at
//! the next precision — an 8-bit lane in i16 (here), an i16 lane in i64
//! (see [`crate::overflow`]). The cascade is exact because saturation is
//! *detected*, never silent.

/// "Minus infinity" for the i16 gap recurrences: negative enough that no
/// path recovers, far enough from `i16::MIN` that saturating subtraction
/// never wraps semantics.
pub const NEG_INF_I16: i16 = i16::MIN / 2;

/// i8 "minus infinity" — low enough that no path recovers, far enough
/// from `i8::MIN` to keep saturating subtraction semantics clean.
pub const NEG_INF_I8: i8 = i8::MIN / 2;

/// Per-lane scores of a column maximum, and which lanes sit at the
/// element type's `max` — exact there or capped, only a recompute tells.
fn scores_and_flags<T: Copy + PartialEq + Into<i64>>(vmax: &[T], max: T) -> (Vec<i64>, Vec<bool>) {
    (
        vmax.iter().map(|&v| v.into()).collect(),
        vmax.iter().map(|&v| v == max).collect(),
    )
}

/// Result of running a kernel over one lane batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutput {
    /// Best score per **real** lane, in batch lane order.
    pub scores: Vec<i64>,
    /// Lanes whose `i16` score saturated and must be recomputed exactly.
    pub overflowed: Vec<bool>,
}

impl KernelOutput {
    /// Scores and flags of the first `real_lanes` lanes of a column
    /// maximum.
    pub(crate) fn from_vmax(vmax: &[i16], real_lanes: usize) -> Self {
        let (scores, overflowed) = scores_and_flags(&vmax[..real_lanes], i16::MAX);
        KernelOutput { scores, overflowed }
    }

    /// True if any real lane saturated.
    pub fn any_overflow(&self) -> bool {
        self.overflowed.iter().any(|&o| o)
    }
}

/// Output of a narrow (8-bit) pass: per-lane scores plus saturation flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NarrowOutput {
    /// Best score per real lane (exact only where `!saturated`).
    pub scores: Vec<i64>,
    /// Lanes that touched the pass's ceiling and need the wide kernel.
    pub saturated: Vec<bool>,
}

impl NarrowOutput {
    /// As [`KernelOutput::from_vmax`], for the i8 sweep.
    pub(crate) fn from_vmax(vmax: &[i8], real_lanes: usize) -> Self {
        let (scores, saturated) = scores_and_flags(&vmax[..real_lanes], i8::MAX);
        NarrowOutput { scores, saturated }
    }

    /// Scores and flags from the column maximum of a skewed floor-offset
    /// byte sweep: lane `l`'s score is the larger of elements `l` and
    /// `half + l` (the two runs of query rows) above the floor `i8::MIN`,
    /// and it is saturated at `i8::MAX` — score 255.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn from_skewed_vmax(vmax: &[i8], real_lanes: usize) -> Self {
        let (lower, upper) = vmax.split_at(vmax.len() / 2);
        let best = lower.iter().zip(upper).map(|(&a, &b)| a.max(b));
        let (scores, saturated) = best
            .take(real_lanes)
            .map(|s| (s as i64 - i8::MIN as i64, s == i8::MAX))
            .unzip();
        NarrowOutput { scores, saturated }
    }

    /// True if any real lane saturated.
    pub fn any_saturated(&self) -> bool {
        self.saturated.iter().any(|&s| s)
    }
}

/// Statistics of one cascade run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Lanes settled by the 8-bit pass.
    pub settled_i8: u64,
    /// Lanes that needed the i16 pass.
    pub widened_i16: u64,
}

/// Dual-precision cascade (SWIPE): keep the 8-bit pass's scores, and run
/// `wide` (the i16 kernel over the same batch) only if some lane
/// saturated. Lanes that also saturate i16 are flagged in the returned
/// [`KernelOutput`] for the caller's i64 rescue.
pub(crate) fn cascade(
    narrow: NarrowOutput,
    wide: impl FnOnce() -> KernelOutput,
) -> (KernelOutput, CascadeStats) {
    let real = narrow.scores.len() as u64;
    if !narrow.any_saturated() {
        let out = KernelOutput {
            overflowed: vec![false; narrow.scores.len()],
            scores: narrow.scores,
        };
        return (
            out,
            CascadeStats {
                settled_i8: real,
                widened_i16: 0,
            },
        );
    }
    // At least one lane needs i16; rerun the batch wide (lanes are
    // computed together anyway) and keep the wide scores for saturated
    // lanes only — the narrow scores are already exact elsewhere and the
    // two must agree, which debug builds assert.
    let wide_out = wide();
    let mut scores = narrow.scores;
    let mut overflowed = vec![false; scores.len()];
    let mut widened = 0u64;
    for lane in 0..scores.len() {
        if narrow.saturated[lane] {
            scores[lane] = wide_out.scores[lane];
            overflowed[lane] = wide_out.overflowed[lane];
            widened += 1;
        } else {
            debug_assert_eq!(
                scores[lane], wide_out.scores[lane],
                "unsaturated narrow score must already be exact"
            );
        }
    }
    // As `rescue_overflows` reports 16 → 64: into whichever worker journal
    // the executor installed on this thread (no-op outside a traced run).
    sw_trace::emit_current(sw_trace::EventKind::OverflowRecompute {
        from_bits: 8,
        to_bits: 16,
        lanes: widened,
    });
    (
        KernelOutput { scores, overflowed },
        CascadeStats {
            settled_i8: real - widened,
            widened_i16: widened,
        },
    )
}

/// Pick a row-block size so the per-block working set (`≈4·rows·L` bytes
/// plus boundary rows) stays within `cache_bytes` — the tuning rule the
/// engine uses per device.
///
/// The unblocked sweep keeps two `M`-long vector columns (`H` and `F`)
/// live across the whole subject sweep: `4·M·L` bytes. For the paper's
/// longest query (5478 residues) that is ~350 KB at `L = 16` and ~700 KB
/// at `L = 32` — past the Xeon's 256 KB L2 and the Phi's 512 KB L2, which
/// is why blocking helps the Phi more (Fig. 7).
pub fn block_rows_for_cache(cache_bytes: usize, lanes: usize) -> usize {
    // H + F columns: 2 arrays × 2 bytes × lanes per row; keep half the
    // cache for profiles and boundary rows.
    let per_row = 4 * lanes;
    ((cache_bytes / 2) / per_row).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_reports_into_ambient_journal() {
        let settled = NarrowOutput {
            scores: vec![3, 250],
            saturated: vec![false, false],
        };
        let promoted = NarrowOutput {
            scores: vec![3, 251, 251],
            saturated: vec![false, true, true],
        };
        let wide = || KernelOutput {
            scores: vec![3, 251, 900],
            overflowed: vec![false; 3],
        };
        let tracer = sw_trace::Tracer::full();
        sw_trace::install(tracer.worker(0, 0));
        let (_, quiet) = cascade(settled, || unreachable!("no lane saturated"));
        let (out, stats) = cascade(promoted, wide);
        drop(sw_trace::uninstall());
        assert_eq!((quiet.settled_i8, quiet.widened_i16), (2, 0));
        assert_eq!((stats.settled_i8, stats.widened_i16), (1, 2));
        assert_eq!(out.scores, [3, 251, 900]);
        let tl = tracer.timeline();
        assert_eq!(tl.count("overflow_recompute"), 1, "only the promoted batch");
        let (_, _, ev) = tl.events_sorted()[0];
        assert!(matches!(
            ev.kind,
            sw_trace::EventKind::OverflowRecompute {
                from_bits: 8,
                to_bits: 16,
                lanes: 2
            }
        ));
    }

    #[test]
    fn block_rows_for_cache_sizing() {
        // Phi-like 512 KB L2 at 32 lanes: 256 KB / 128 B = 2048 rows.
        assert_eq!(block_rows_for_cache(512 * 1024, 32), 2048);
        // Xeon-like 256 KB L2 at 16 lanes: 128 KB / 64 B = 2048 rows.
        assert_eq!(block_rows_for_cache(256 * 1024, 16), 2048);
        // Degenerate small cache still yields a workable floor.
        assert_eq!(block_rows_for_cache(1024, 64), 64);
    }
}
