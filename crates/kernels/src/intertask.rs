//! Inter-task kernel data — what the paper's `intrinsic-QP` /
//! `intrinsic-SP` variants return, and the constants they share.
//!
//! One lane batch = `L` vector lanes of database sequences aligned against
//! the query simultaneously (the SWIPE scheme [Rognes 2011] the paper
//! adopts in §IV), a lane taking the next sequence where its last one ends.
//! The sweep itself lives in [`crate::arch`]: one body, instantiated per
//! vector type. This module is the home of its per-sequence bookkeeping
//! (`SeqMax`) and outputs ([`KernelOutput`], [`NarrowOutput`]), the 8-bit
//! → i16 cascade that combines them, the "minus infinity" sentinels and
//! the cache-blocking tuning rule of Fig. 7.
//!
//! Arithmetic is saturating; a sequence whose maximum reaches the
//! ceiling of its element type (`MAX`; score 255 in the fused kernel's
//! floor-offset byte pass) is flagged and later recomputed at
//! the next precision — an 8-bit score in i16 (here), an i16 one in i64
//! (see [`crate::overflow`]). The cascade is exact because saturation is
//! *detected*, never silent.

/// "Minus infinity" for the i16 gap recurrences: negative enough that no
/// path recovers, far enough from `i16::MIN` that saturating subtraction
/// never wraps semantics.
pub const NEG_INF_I16: i16 = i16::MIN / 2;

/// i8 "minus infinity" — low enough that no path recovers, far enough
/// from `i8::MIN` to keep saturating subtraction semantics clean.
pub const NEG_INF_I8: i8 = i8::MIN / 2;

/// Per-sequence scores of a sweep, and which sit at the element type's
/// `max` — exact there or capped, only a recompute tells.
fn scores_and_flags<T: Copy + PartialEq + Into<i64>>(best: &[T], max: T) -> (Vec<i64>, Vec<bool>) {
    (
        best.iter().map(|&v| v.into()).collect(),
        best.iter().map(|&v| v == max).collect(),
    )
}

/// One sequence start as a sweep sees it: before column `col`, vector
/// element `elem` stops holding its sequence and starts sequence `seq`
/// (an index into the batch's `ids()`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Start {
    pub(crate) col: usize,
    pub(crate) elem: usize,
    seq: usize,
}

/// The lane-refill bookkeeping of one sweep: which sequence each vector
/// element holds, where that changes, and the best `H` each sequence
/// reached.
///
/// Element `c·L + l` serves lane `l` of an `L`-lane batch, `c·lag`
/// columns behind element `l` (one copy per lane but in the skewed byte
/// pass, whose upper half runs two columns behind its lower). At a start
/// the sweep hands the element's running maximum to [`Self::take`], which
/// credits the sequence that ends there, and resets the element.
#[derive(Debug)]
pub(crate) struct SeqMax<T> {
    /// Every start of every copy, ascending by column.
    starts: Vec<Start>,
    /// The sequence each element holds at column 0 (`None`: an empty lane).
    first: Vec<Option<usize>>,
    holder: Vec<Option<usize>>,
    next: usize,
    best: Vec<T>,
}

impl<T: Copy + Ord> SeqMax<T> {
    /// `copies` elements per lane of `batch`, copy `c` running `c·lag`
    /// columns behind; every sequence's best starts at `zero`.
    pub(crate) fn new(batch: &sw_swdb::LaneBatch, zero: T, copies: usize, lag: usize) -> Self {
        let (lanes, occupied) = (batch.lanes(), batch.occupied_lanes());
        let first: Vec<Option<usize>> = (0..copies * lanes)
            .map(|e| Some(e % lanes).filter(|&l| l < occupied))
            .collect();
        let mut starts: Vec<Start> = (0..copies)
            .flat_map(|c| {
                batch
                    .starts()
                    .iter()
                    .enumerate()
                    .map(move |(k, &(col, lane))| Start {
                        col: col as usize + c * lag,
                        elem: c * lanes + lane as usize,
                        seq: occupied + k,
                    })
            })
            .collect();
        starts.sort_by_key(|s| s.col);
        SeqMax {
            starts,
            holder: first.clone(),
            first,
            next: 0,
            best: vec![zero; batch.n_seqs()],
        }
    }

    /// Back to column 0: a blocked sweep's next row block.
    pub(crate) fn restart(&mut self) {
        self.holder.clone_from(&self.first);
        self.next = 0;
    }

    /// The column of the next start not yet taken (`usize::MAX`: none).
    #[inline]
    pub(crate) fn next_col(&self) -> usize {
        self.starts.get(self.next).map_or(usize::MAX, |s| s.col)
    }

    /// The starts before column `j`: each element's maximum in `vmax`
    /// goes to the sequence it held, and it holds the next one. Returns
    /// them — the elements the sweep must now reset.
    pub(crate) fn take(&mut self, j: usize, vmax: &[T]) -> &[Start] {
        let from = self.next;
        while let Some(&s) = self.starts.get(self.next).filter(|s| s.col == j) {
            self.fold(s.elem, vmax[s.elem]);
            self.holder[s.elem] = Some(s.seq);
            self.next += 1;
        }
        &self.starts[from..self.next]
    }

    /// The end of a pass over the columns: every element's maximum goes to
    /// the sequence it holds.
    pub(crate) fn finish(&mut self, vmax: &[T]) {
        for (e, &v) in vmax.iter().enumerate() {
            self.fold(e, v);
        }
    }

    fn fold(&mut self, elem: usize, v: T) {
        if let Some(s) = self.holder[elem] {
            self.best[s] = self.best[s].max(v);
        }
    }

    /// The best `H` of every sequence, in the batch's `ids()` order.
    pub(crate) fn into_best(self) -> Vec<T> {
        self.best
    }
}

/// Result of running a kernel over one lane batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutput {
    /// Best score per sequence, in the batch's `ids()` order.
    pub scores: Vec<i64>,
    /// Sequences whose `i16` score saturated and must be recomputed
    /// exactly.
    pub overflowed: Vec<bool>,
}

impl KernelOutput {
    /// Scores and flags of every sequence's best `H`.
    pub(crate) fn from_best(best: &[i16]) -> Self {
        let (scores, overflowed) = scores_and_flags(best, i16::MAX);
        KernelOutput { scores, overflowed }
    }

    /// True if any sequence saturated.
    pub fn any_overflow(&self) -> bool {
        self.overflowed.iter().any(|&o| o)
    }
}

/// Output of a narrow (8-bit) pass: per-sequence scores plus saturation
/// flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NarrowOutput {
    /// Best score per sequence (exact only where `!saturated`), in the
    /// batch's `ids()` order.
    pub scores: Vec<i64>,
    /// Sequences that touched the pass's ceiling and need the wide kernel.
    pub saturated: Vec<bool>,
}

impl NarrowOutput {
    /// As [`KernelOutput::from_best`], for the i8 sweep.
    pub(crate) fn from_best(best: &[i8]) -> Self {
        let (scores, saturated) = scores_and_flags(best, i8::MAX);
        NarrowOutput { scores, saturated }
    }

    /// Scores and flags of a floor-offset byte sweep: a sequence's score
    /// is its best element above the floor `i8::MIN`, and it is saturated
    /// at `i8::MAX` — score 255.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn from_floored_best(best: &[i8]) -> Self {
        let (scores, saturated) = best
            .iter()
            .map(|&s| (s as i64 - i8::MIN as i64, s == i8::MAX))
            .unzip();
        NarrowOutput { scores, saturated }
    }

    /// True if any sequence saturated.
    pub fn any_saturated(&self) -> bool {
        self.saturated.iter().any(|&s| s)
    }
}

/// Statistics of one cascade run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Sequences settled by the 8-bit pass.
    pub settled_i8: u64,
    /// Sequences that needed the i16 pass.
    pub widened_i16: u64,
}

/// Dual-precision cascade (SWIPE): keep the 8-bit pass's scores, and run
/// `wide` (the i16 kernel over the same batch) only if some sequence
/// saturated. Sequences that also saturate i16 are flagged in the returned
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
    // At least one sequence needs i16; rerun the batch wide (lanes are
    // computed together anyway) and keep the wide scores for saturated
    // sequences only — the narrow scores are already exact elsewhere and
    // the two must agree, which debug builds assert.
    let wide_out = wide();
    let mut scores = narrow.scores;
    let mut overflowed = vec![false; scores.len()];
    let mut widened = 0u64;
    for s in 0..scores.len() {
        if narrow.saturated[s] {
            scores[s] = wide_out.scores[s];
            overflowed[s] = wide_out.overflowed[s];
            widened += 1;
        } else {
            debug_assert_eq!(
                scores[s], wide_out.scores[s],
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
