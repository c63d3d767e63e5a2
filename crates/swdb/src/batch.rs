//! Lane batching for inter-task SIMD parallelism.
//!
//! The paper (§IV) adopts the inter-task scheme of Rognes' SWIPE: *"when
//! aligning several pairs in parallel, we avoid the data dependences that
//! limit the performance of intra-task approaches."* A [`LaneBatch`] packs
//! `L` similar-length database sequences (L = vector lane count: 16 for
//! 256-bit AVX, 32 for the Phi's 512-bit unit, at 16-bit scores), residues
//! interleaved position-major so that the `L` residues needed at database
//! position `j` are one contiguous, aligned vector load.
//!
//! [`LaneBatcher`] cuts the length-sorted order into batches from the long
//! end: every batch is full except batch 0, which holds the `n mod L`
//! shortest sequences. A batch costs `L ×` its longest member, and in any
//! grouping the `k`-th most expensive batch has a longest member no shorter
//! than sorted rank `n − 1 − kL` (the `kL` longer ranks fill at most `k`
//! batches), so this layout sweeps the fewest padded cells that one
//! sequence per lane allows.
//!
//! Shorter sequences within a batch are padded with [`pad_code`], a
//! sentinel residue that scores no better than any real one, so a padded
//! cell's `H` never exceeds what the real cells of its lane already
//! reached — padding can therefore never influence a reported score.
//! Every kernel gets there the blunt way, the byte pass included: the pad
//! scores [`PAD_SCORE`], so a padded cell holds 128 less than its diagonal
//! neighbour or what a gap carries in less the penalty — in practice zero
//! throughout the padded region.

use crate::preprocess::SortedDb;
use serde::{Deserialize, Serialize};
use sw_seq::{Alphabet, SeqId};

/// The pad code is `alphabet.len() + PAD_CODE_OFFSET` (i.e. one past the
/// last real residue code).
pub const PAD_CODE_OFFSET: u8 = 0;

/// Substitution score assigned to the pad residue against everything, in
/// every signed profile and table.
///
/// Any value `≤ -(max substitution score)` keeps `H` at zero in the padded
/// region because `H ≥ 0` clamps the recurrence; -128 also fits an `i8` for
/// narrow-score kernels and the byte pass. What correctness needs is
/// weaker, and any negative pad score gives it: a padded cell never exceeds
/// the maximum of its lane's real cells.
pub const PAD_SCORE: i32 = -128;

/// Pad residue code for a given alphabet (one past the last real code).
#[inline]
pub fn pad_code(alphabet: &Alphabet) -> u8 {
    alphabet.len() as u8 + PAD_CODE_OFFSET
}

/// Number of residue codes a profile must cover (alphabet + pad).
#[inline]
pub fn profile_codes(alphabet: &Alphabet) -> usize {
    alphabet.len() + 1
}

/// `L` similar-length sequences packed lane-wise.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneBatch {
    /// Vector lane count `L`.
    lanes: u32,
    /// Padded (maximum) sequence length in this batch.
    padded_len: u32,
    /// Interleaved residues: `interleaved[j * lanes + lane]` is the residue
    /// of lane `lane` at position `j` (or the pad code).
    interleaved: Vec<u8>,
    /// Original ids of the real sequences (≤ `lanes` entries; the first
    /// batch of a database may not fill every lane).
    ids: Vec<SeqId>,
    /// Real lengths, parallel to `ids`.
    lens: Vec<u32>,
}

impl LaneBatch {
    /// Pack `seqs` (id, residues) into one batch of `lanes` lanes.
    ///
    /// # Panics
    /// Panics if `seqs` is empty or holds more than `lanes` sequences.
    pub fn pack(lanes: usize, seqs: &[(SeqId, &[u8])], pad: u8) -> Self {
        assert!(!seqs.is_empty(), "a batch needs at least one sequence");
        assert!(seqs.len() <= lanes, "more sequences than lanes");
        let padded_len = seqs.iter().map(|(_, r)| r.len()).max().expect("non-empty");
        let mut interleaved = vec![pad; padded_len * lanes];
        for (lane, (_, residues)) in seqs.iter().enumerate() {
            for (j, &r) in residues.iter().enumerate() {
                interleaved[j * lanes + lane] = r;
            }
        }
        LaneBatch {
            lanes: lanes as u32,
            padded_len: padded_len as u32,
            interleaved,
            ids: seqs.iter().map(|(id, _)| *id).collect(),
            lens: seqs.iter().map(|(_, r)| r.len() as u32).collect(),
        }
    }

    /// Vector lane count `L`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Padded sequence length (`N_pad`).
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.padded_len as usize
    }

    /// Number of real (non-pad) sequences.
    #[inline]
    pub fn real_lanes(&self) -> usize {
        self.ids.len()
    }

    /// Original ids of the real sequences.
    #[inline]
    pub fn ids(&self) -> &[SeqId] {
        &self.ids
    }

    /// Real lengths, parallel to [`Self::ids`].
    #[inline]
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// The interleaved residue buffer.
    #[inline]
    pub fn interleaved(&self) -> &[u8] {
        &self.interleaved
    }

    /// The `L` residues at database position `j` (one per lane).
    #[inline]
    pub fn row(&self, j: usize) -> &[u8] {
        let s = j * self.lanes as usize;
        &self.interleaved[s..s + self.lanes as usize]
    }

    /// Residue of `lane` at position `j`.
    #[inline]
    pub fn residue(&self, j: usize, lane: usize) -> u8 {
        self.interleaved[j * self.lanes as usize + lane]
    }

    /// Real DP cells for a query of length `m` (what GCUPS counts).
    #[inline]
    pub fn real_cells(&self, m: usize) -> u64 {
        m as u64 * self.lens.iter().map(|&l| l as u64).sum::<u64>()
    }

    /// Padded DP cells for a query of length `m` (what the kernel actually
    /// computes and what execution time is proportional to).
    #[inline]
    pub fn padded_cells(&self, m: usize) -> u64 {
        m as u64 * self.padded_len as u64 * self.lanes as u64
    }

    /// Padding efficiency: real / padded cells (1.0 = no waste). When no
    /// cells are computed at all (`m == 0` or an empty batch) there is no
    /// waste to report, so the ratio is 1.0 rather than NaN.
    pub fn pad_efficiency(&self, m: usize) -> f64 {
        let padded = self.padded_cells(m);
        if padded == 0 {
            return 1.0;
        }
        self.real_cells(m) as f64 / padded as f64
    }
}

/// Splits a sorted database into consecutive [`LaneBatch`]es.
#[derive(Debug, Clone)]
pub struct LaneBatcher {
    lanes: usize,
    pad: u8,
}

impl LaneBatcher {
    /// A batcher producing `lanes`-wide batches for `alphabet`.
    pub fn new(lanes: usize, alphabet: &Alphabet) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        LaneBatcher {
            lanes,
            pad: pad_code(alphabet),
        }
    }

    /// Batch the whole sorted database into `⌈n / L⌉` batches of
    /// consecutive ranks, in ascending length order. Full batches are cut
    /// from the long end, so only batch 0 may be partial and it holds the
    /// `n mod L` shortest sequences: the minimum padded cells of any
    /// one-sequence-per-lane grouping (see the module doc).
    pub fn batch(&self, sorted: &SortedDb) -> Vec<LaneBatch> {
        let n = sorted.len();
        let mut out = Vec::with_capacity(n.div_ceil(self.lanes));
        let mut rank = 0usize;
        let mut end = match n % self.lanes {
            0 => self.lanes,
            partial => partial,
        };
        while rank < n {
            let group: Vec<(SeqId, &[u8])> = (rank..end)
                .map(|r| (sorted.id_at(r), sorted.seq_at(r).residues))
                .collect();
            out.push(LaneBatch::pack(self.lanes, &group, self.pad));
            rank = end;
            end += self.lanes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SequenceDatabase;
    use sw_seq::EncodedSeq;

    fn sorted_db(lens: &[usize]) -> SortedDb {
        let a = Alphabet::protein();
        SortedDb::new(SequenceDatabase::from_sequences(
            lens.iter()
                .enumerate()
                .map(|(i, &l)| {
                    // Use distinct residues per sequence so interleaving is testable.
                    let c = b"ARNDCQEGHILKMFPSTWYV"[i % 20];
                    EncodedSeq::from_text(&format!("s{i}"), &vec![c; l], &a).unwrap()
                })
                .collect(),
        ))
    }

    #[test]
    fn pack_interleaves_and_pads() {
        let a = Alphabet::protein();
        let pad = pad_code(&a);
        let s0 = [0u8, 1, 2];
        let s1 = [5u8, 6];
        let b = LaneBatch::pack(4, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad);
        assert_eq!(b.lanes(), 4);
        assert_eq!(b.padded_len(), 3);
        assert_eq!(b.real_lanes(), 2);
        assert_eq!(b.row(0), &[0, 5, pad, pad]);
        assert_eq!(b.row(1), &[1, 6, pad, pad]);
        assert_eq!(b.row(2), &[2, pad, pad, pad]);
        assert_eq!(b.residue(1, 1), 6);
    }

    #[test]
    fn cells_accounting() {
        let a = Alphabet::protein();
        let pad = pad_code(&a);
        let s0 = [0u8; 10];
        let s1 = [1u8; 6];
        let b = LaneBatch::pack(2, &[(SeqId(0), &s0[..]), (SeqId(1), &s1[..])], pad);
        assert_eq!(b.real_cells(100), 100 * (10 + 6));
        assert_eq!(b.padded_cells(100), 100 * 10 * 2);
        let eff = b.pad_efficiency(100);
        assert!((eff - 16.0 / 20.0).abs() < 1e-12);
        // A zero-length query computes no cells: efficiency is the neutral
        // 1.0, not NaN (regression for the 0/0 division).
        assert_eq!(b.pad_efficiency(0), 1.0);
    }

    #[test]
    fn batcher_covers_every_sequence_once() {
        let sorted = sorted_db(&[9, 2, 5, 7, 3, 1, 8]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].lens(), &[1, 2, 3]);
        let mut ids: Vec<u32> = batches
            .iter()
            .flat_map(|b| b.ids().iter().map(|id| id.0))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_batching_minimises_padding() {
        let sorted = sorted_db(&[1, 2, 3, 4, 100, 101, 102, 103]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        // Lengths 1-4 land together, 100-103 together: padded lens 4 and 103.
        assert_eq!(batches[0].padded_len(), 4);
        assert_eq!(batches[1].padded_len(), 103);
        assert!(batches[0].pad_efficiency(1) >= 0.6);
        assert!(batches[1].pad_efficiency(1) >= 0.98);
    }

    #[test]
    fn first_batch_holds_the_remainder() {
        let sorted = sorted_db(&[5, 9, 1, 5, 5]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        assert_eq!(batches.len(), 2);
        // The one partial batch is the shortest sequence alone; the full
        // batch takes the long end. Cutting from the short end instead
        // would pad the 9 into a batch of one: 4·5 + 4·9 = 56 cells.
        assert_eq!(batches[0].lens(), &[1]);
        assert_eq!(batches[1].lens(), &[5, 5, 5, 9]);
        let padded: u64 = batches.iter().map(|b| b.padded_cells(1)).sum();
        assert_eq!(padded, 4 + 4 * 9);
        // Pad lanes are entirely pad code.
        let pad = pad_code(&Alphabet::protein());
        for lane in 1..4 {
            assert_eq!(batches[0].residue(0, lane), pad);
        }
    }

    #[test]
    fn batch_lengths_match_source() {
        let sorted = sorted_db(&[9, 2, 5]);
        let batches = LaneBatcher::new(8, &Alphabet::protein()).batch(&sorted);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].lens(), &[2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn empty_pack_panics() {
        LaneBatch::pack(4, &[], 24);
    }

    #[test]
    fn pad_score_bounds() {
        // PAD_SCORE must be at least as negative as any bundled matrix's
        // maximum is positive, so one padded step can never lift H above 0.
        let m = sw_seq::SubstMatrix::blosum62();
        assert!(PAD_SCORE <= -m.max_score());
    }

    #[test]
    fn empty_database_yields_no_batches() {
        let sorted = sorted_db(&[]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        assert!(batches.is_empty());
    }
}
