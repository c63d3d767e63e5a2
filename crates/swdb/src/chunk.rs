//! Contiguous batch ranges — the unit of scheduling and of the
//! heterogeneous split.
//!
//! Algorithm 2 of the paper splits the sorted database between host and
//! accelerator with a *static distribution*; Fig. 8 sweeps the fraction of
//! workload offloaded. [`split_by_cells`] implements that split in terms
//! of DP cells (the workload metric GCUPS is defined over), not sequence
//! counts — with a length-sorted database the two differ substantially.

use crate::batch::LaneBatch;
use serde::{Deserialize, Serialize};

/// A half-open range `[start, end)` of batch indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BatchRange {
    /// First batch index.
    pub start: usize,
    /// One past the last batch index.
    pub end: usize,
}

impl BatchRange {
    /// Number of batches in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range contains no batches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Iterate the batch indices.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }
}

/// Split the batch list at the point where the *prefix* holds as close as
/// possible to `fraction` of the total padded DP cells for a query of
/// length `query_len`.
///
/// Returns `(prefix, suffix)`. Algorithm 2 assigns one side to the host
/// and the other to the accelerator; Fig. 8's abscissa is `fraction` of
/// the side sent to the Phi.
pub fn split_by_cells(
    batches: &[LaneBatch],
    query_len: usize,
    fraction: f64,
) -> (BatchRange, BatchRange) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be within [0, 1]"
    );
    let total: u64 = batches.iter().map(|b| b.padded_cells(query_len)).sum();
    let target = (total as f64 * fraction).round() as u64;
    let mut acc = 0u64;
    let mut split = batches.len();
    let mut best_err = u64::MAX;
    let mut running = 0u64;
    for (i, b) in batches.iter().enumerate() {
        // Consider splitting *before* batch i (prefix = 0..i).
        let err = running.abs_diff(target);
        if err < best_err {
            best_err = err;
            split = i;
        }
        running += b.padded_cells(query_len);
        acc = running;
    }
    // Also consider the full prefix.
    if acc.abs_diff(target) < best_err {
        split = batches.len();
    }
    (
        BatchRange {
            start: 0,
            end: split,
        },
        BatchRange {
            start: split,
            end: batches.len(),
        },
    )
}

/// Total padded cells of a batch range (workload measure).
pub fn range_cells(batches: &[LaneBatch], range: BatchRange, query_len: usize) -> u64 {
    batches[range.start..range.end]
        .iter()
        .map(|b| b.padded_cells(query_len))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::{Alphabet, SeqId};

    fn batches_with_lens(lens: &[usize]) -> Vec<LaneBatch> {
        let a = Alphabet::protein();
        let pad = crate::batch::pad_code(&a);
        lens.iter()
            .enumerate()
            .map(|(i, &l)| {
                let residues = vec![0u8; l];
                LaneBatch::pack(1, &[(SeqId(i as u32), &residues[..])], pad)
            })
            .collect()
    }

    #[test]
    fn split_by_cells_half() {
        // Lengths 1..=4 → cells 1,2,3,4 per unit query; total 10.
        let b = batches_with_lens(&[1, 2, 3, 4]);
        let (pre, suf) = split_by_cells(&b, 1, 0.5);
        // Prefix {1,2}=3 vs {1,2,3}=6: closest to 5 is 6.
        assert_eq!(pre.end, 3);
        assert_eq!(range_cells(&b, pre, 1), 6);
        assert_eq!(range_cells(&b, suf, 1), 4);
    }

    #[test]
    fn split_by_cells_extremes() {
        let b = batches_with_lens(&[5, 5, 5]);
        let (pre, suf) = split_by_cells(&b, 10, 0.0);
        assert!(pre.is_empty());
        assert_eq!(suf.len(), 3);
        let (pre, suf) = split_by_cells(&b, 10, 1.0);
        assert_eq!(pre.len(), 3);
        assert!(suf.is_empty());
    }

    #[test]
    fn split_preserves_partition() {
        let b = batches_with_lens(&[3, 1, 4, 1, 5, 9, 2, 6]);
        for f in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let (pre, suf) = split_by_cells(&b, 7, f);
            assert_eq!(pre.end, suf.start);
            assert_eq!(pre.start, 0);
            assert_eq!(suf.end, b.len());
            let total = range_cells(&b, pre, 7) + range_cells(&b, suf, 7);
            let expect: u64 = b.iter().map(|x| x.padded_cells(7)).sum();
            assert_eq!(total, expect);
        }
    }

    #[test]
    fn split_fraction_accuracy() {
        // Many equal batches: the split fraction should be achievable within
        // one batch of cells.
        let b = batches_with_lens(&[10; 100]);
        let (pre, _) = split_by_cells(&b, 1, 0.55);
        assert_eq!(pre.len(), 55);
    }

    #[test]
    fn empty_batch_list() {
        let b = batches_with_lens(&[]);
        let (pre, suf) = split_by_cells(&b, 1, 0.5);
        assert!(pre.is_empty() && suf.is_empty());
    }
}
