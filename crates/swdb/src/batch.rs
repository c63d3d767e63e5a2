//! Lane batching for inter-task SIMD parallelism.
//!
//! The paper (§IV) adopts the inter-task scheme of Rognes' SWIPE: *"when
//! aligning several pairs in parallel, we avoid the data dependences that
//! limit the performance of intra-task approaches."* A [`LaneBatch`] packs
//! database sequences into `L` lanes (L = vector lane count: 16 for
//! 256-bit AVX, 32 for the Phi's 512-bit unit, at 16-bit scores), residues
//! interleaved position-major so that the `L` residues needed at database
//! position `j` are one contiguous, aligned vector load.
//!
//! A lane holds one or more sequences back to back — SWIPE's lane refill:
//! where a lane's sequence ends, the next one starts, and the kernels reset
//! that lane's DP state there (a *start*, listed by [`LaneBatch::starts`]).
//! A stacked sequence starts at the next **even** column, so a kernel that
//! takes two database columns per trip (the AVX2 byte pass) never finds a
//! start between the two.
//!
//! [`LaneBatcher`] packs the length-sorted database from the long end. A
//! batch's capacity is the longest unplaced sequence; the `L` longest
//! unplaced sequences open its lanes (the shortest of them in lane 0),
//! then each lane in lane order — the roomiest first — takes the longest
//! unplaced sequence that fits after its last one until none does.
//! The `k`-th batch so cut opens with the `L` longest sequences left after
//! `k − 1` batches placed at least `(k − 1)L`, so its capacity is never
//! above sorted rank `n − 1 − (k − 1)L` — the `k`-th most expensive batch
//! of one sequence per lane, cut from the long end — and refill never pads
//! more cells than that layout. Only the shortest batch (stored first) can
//! leave lanes empty.
//!
//! The padding — empty lanes, lane tails, and the odd column before an
//! even start — holds [`pad_code`], a sentinel residue that scores no
//! better than any real one, so a padded cell's `H` never exceeds what the
//! real cells of its lane already reached: padding can never influence a
//! reported score. Every kernel gets there the blunt way, the byte pass
//! included: the pad scores [`PAD_SCORE`], so a padded cell holds 128 less
//! than its diagonal neighbour or what a gap carries in less the penalty —
//! in practice zero throughout the padded region.

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

/// Database sequences packed into `L` lanes, one or more per lane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneBatch {
    /// Vector lane count `L`.
    lanes: u32,
    /// Padded length: the column after the last residue of any lane.
    padded_len: u32,
    /// Interleaved residues: `interleaved[j * lanes + lane]` is the residue
    /// of lane `lane` at position `j` (or the pad code).
    interleaved: Vec<u8>,
    /// Original ids: each occupied lane's first sequence in lane order, then
    /// the stacked ones in `starts` order.
    ids: Vec<SeqId>,
    /// Real lengths, parallel to `ids`.
    lens: Vec<u32>,
    /// `(column, lane)` where each stacked sequence starts, ascending, in
    /// `ids` order after the first sequences.
    starts: Vec<(u32, u32)>,
}

impl LaneBatch {
    /// Pack `seqs` (id, residues) into one batch of `lanes` lanes, one
    /// sequence per lane.
    ///
    /// # Panics
    /// Panics if `seqs` is empty or holds more than `lanes` sequences.
    pub fn pack(lanes: usize, seqs: &[(SeqId, &[u8])], pad: u8) -> Self {
        let lane_seqs: Vec<Vec<(SeqId, &[u8])>> = seqs.iter().map(|&s| vec![s]).collect();
        Self::stack(lanes, &lane_seqs, pad)
    }

    /// Pack `lane_seqs[lane]` back to back into lane `lane`: the first
    /// sequence at column 0, each next one at the even column at or after
    /// the end of the one before.
    ///
    /// # Panics
    /// Panics if `lane_seqs` is empty, holds more than `lanes` lanes or an
    /// empty lane, or stacks an empty sequence after another.
    pub fn stack(lanes: usize, lane_seqs: &[Vec<(SeqId, &[u8])>], pad: u8) -> Self {
        assert!(!lane_seqs.is_empty(), "a batch needs at least one sequence");
        assert!(
            lane_seqs.len() <= lanes,
            "more lanes filled than the batch has"
        );
        // Each sequence's (start column, lane, id, residues), first ones
        // first.
        let mut placed = Vec::new();
        let mut stacked = Vec::new();
        for (lane, seqs) in lane_seqs.iter().enumerate() {
            let (first, rest) = seqs
                .split_first()
                .expect("every filled lane has a sequence");
            placed.push((0, lane, *first));
            let mut end = first.1.len();
            for &(id, residues) in rest {
                assert!(!residues.is_empty(), "a stacked sequence is not empty");
                let start = end.next_multiple_of(2);
                stacked.push((start, lane, (id, residues)));
                end = start + residues.len();
            }
        }
        stacked.sort_unstable_by_key(|&(start, lane, _)| (start, lane));
        placed.extend(stacked);
        let padded_len = placed
            .iter()
            .map(|(start, _, (_, r))| start + r.len())
            .max()
            .expect("non-empty");
        let mut interleaved = vec![pad; padded_len * lanes];
        for &(start, lane, (_, residues)) in &placed {
            for (j, &r) in residues.iter().enumerate() {
                interleaved[(start + j) * lanes + lane] = r;
            }
        }
        LaneBatch {
            lanes: lanes as u32,
            padded_len: padded_len as u32,
            interleaved,
            ids: placed.iter().map(|(_, _, (id, _))| *id).collect(),
            lens: placed.iter().map(|(_, _, (_, r))| r.len() as u32).collect(),
            starts: placed[lane_seqs.len()..]
                .iter()
                .map(|&(start, lane, _)| (start as u32, lane as u32))
                .collect(),
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

    /// Number of sequences in the batch.
    #[inline]
    pub fn n_seqs(&self) -> usize {
        self.ids.len()
    }

    /// Number of lanes holding a sequence: lanes `0..occupied_lanes()`,
    /// whose first sequences are the first entries of [`Self::ids`].
    #[inline]
    pub fn occupied_lanes(&self) -> usize {
        self.ids.len() - self.starts.len()
    }

    /// Original ids: each occupied lane's first sequence in lane order,
    /// then the stacked sequences in [`Self::starts`] order.
    #[inline]
    pub fn ids(&self) -> &[SeqId] {
        &self.ids
    }

    /// Real lengths, parallel to [`Self::ids`].
    #[inline]
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// `(column, lane)` of every stacked sequence, ascending: the sequence
    /// at `ids()[occupied_lanes() + k]` starts at column `starts()[k].0`
    /// of lane `starts()[k].1`, always an even column.
    #[inline]
    pub fn starts(&self) -> &[(u32, u32)] {
        &self.starts
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

/// Packs a sorted database into [`LaneBatch`]es.
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

    /// Pack the whole sorted database with lane refill (see the module
    /// doc), batches ascending by padded length. `O(n log n)`: rank order
    /// is length order, so "the longest unplaced sequence of at most `k`
    /// residues" is a binary search for the rank bound and one union-find
    /// lookup.
    pub fn batch(&self, sorted: &SortedDb) -> Vec<LaneBatch> {
        let n = sorted.len();
        let lens: Vec<usize> = (0..n).map(|r| sorted.len_at(r)).collect();
        let seq = |rank: usize| (sorted.id_at(rank), sorted.seq_at(rank).residues);
        let mut unplaced = Unplaced::new(n);
        let mut out = Vec::new();
        while let Some(longest) = unplaced.below(n) {
            let capacity = lens[longest];
            // The `L` longest open the lanes, shortest in lane 0: lanes
            // fill in lane order, the roomiest first.
            let mut lane_seqs: Vec<Vec<(SeqId, &[u8])>> = Vec::with_capacity(self.lanes);
            let mut ends = Vec::with_capacity(self.lanes);
            while let Some(rank) = unplaced.below(n).filter(|_| ends.len() < self.lanes) {
                unplaced.take(rank);
                lane_seqs.push(vec![seq(rank)]);
                ends.push(lens[rank]);
            }
            lane_seqs.reverse();
            ends.reverse();
            for (lane, mut end) in lane_seqs.iter_mut().zip(ends) {
                loop {
                    let start = end.next_multiple_of(2);
                    let fits = lens.partition_point(|&l| l + start <= capacity);
                    // The longest unplaced sequence that fits; an empty one
                    // is never stacked.
                    match unplaced.below(fits) {
                        Some(rank) if lens[rank] > 0 => {
                            unplaced.take(rank);
                            lane.push(seq(rank));
                            end = start + lens[rank];
                        }
                        _ => break,
                    }
                }
            }
            out.push(LaneBatch::stack(self.lanes, &lane_seqs, self.pad));
        }
        // Cut from the long end; capacities never rise from one batch to
        // the next.
        out.reverse();
        out
    }
}

/// The sorted ranks not yet placed in a batch: a union-find in which a
/// placed rank links to the one below it, so the largest unplaced rank
/// under a bound is one path-compressed walk.
struct Unplaced {
    /// `link[r + 1]` leads towards the largest unplaced rank `≤ r`:
    /// itself while `r` is unplaced; `link[0] = 0` is "none".
    link: Vec<usize>,
}

impl Unplaced {
    fn new(n: usize) -> Self {
        Unplaced {
            link: (0..=n).collect(),
        }
    }

    /// The largest unplaced rank `< bound`.
    fn below(&mut self, bound: usize) -> Option<usize> {
        let mut root = bound;
        while self.link[root] != root {
            root = self.link[root];
        }
        let mut at = bound;
        while self.link[at] != root {
            let next = self.link[at];
            self.link[at] = root;
            at = next;
        }
        root.checked_sub(1)
    }

    fn take(&mut self, rank: usize) {
        self.link[rank + 1] = rank;
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
                    let c = a.encode_byte(b"ARNDCQEGHILKMFPSTWYV"[i % 20]).unwrap();
                    EncodedSeq {
                        header: format!("s{i}").into(),
                        residues: vec![c; l],
                    }
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
        assert_eq!(b.n_seqs(), 2);
        assert_eq!(b.occupied_lanes(), 2);
        assert!(b.starts().is_empty());
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
    fn stack_starts_stacked_sequences_on_even_columns() {
        let pad = pad_code(&Alphabet::protein());
        let (s0, s1, s2) = ([0u8, 1, 2], [5u8, 6, 7, 8], [3u8, 4]);
        let b = LaneBatch::stack(
            2,
            &[
                vec![(SeqId(0), &s0[..]), (SeqId(2), &s2[..])],
                vec![(SeqId(1), &s1[..])],
            ],
            pad,
        );
        // Lane 0 ends at column 3; its second sequence starts at 4.
        assert_eq!(b.padded_len(), 6);
        assert_eq!(b.ids(), &[SeqId(0), SeqId(1), SeqId(2)]);
        assert_eq!(b.lens(), &[3, 4, 2]);
        assert_eq!(b.starts(), &[(4, 0)]);
        assert_eq!((b.n_seqs(), b.occupied_lanes()), (3, 2));
        assert_eq!(b.row(3), &[pad, 8]);
        assert_eq!(b.row(4), &[3, pad]);
        assert_eq!(b.row(5), &[4, pad]);
        assert_eq!(b.real_cells(1), 9);
        assert_eq!(b.padded_cells(1), 12);
    }

    #[test]
    #[should_panic(expected = "a stacked sequence is not empty")]
    fn stacking_an_empty_sequence_panics() {
        let s0 = [0u8, 1];
        LaneBatch::stack(2, &[vec![(SeqId(0), &s0[..]), (SeqId(1), &[][..])]], 24);
    }

    #[test]
    fn batcher_stacks_short_sequences_after_long_ones() {
        let sorted = sorted_db(&[9, 2, 5, 7, 3, 1, 8]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        // Capacity 9: lanes open with 5, 7, 8, 9 (the roomiest first); the
        // 5 takes the 3 at column 6, the 7 the 1 at column 8. The 2 fits
        // nowhere and opens the next batch.
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].lens(), &[2]);
        assert_eq!(batches[1].lens(), &[5, 7, 8, 9, 3, 1]);
        assert_eq!(batches[1].starts(), &[(6, 0), (8, 1)]);
        assert_eq!(batches[1].padded_len(), 9);
        // One sequence per lane would pad 4·3 + 4·9 = 48 cells.
        let padded: u64 = batches.iter().map(|b| b.padded_cells(1)).sum();
        assert_eq!(padded, 4 * 2 + 4 * 9);
    }

    #[test]
    fn refill_pads_less_than_one_sequence_per_lane() {
        let sorted = sorted_db(&[1, 2, 3, 4, 100, 101, 102, 103]);
        let batches = LaneBatcher::new(4, &Alphabet::protein()).batch(&sorted);
        assert_eq!(batches[0].lens(), &[2, 4]);
        assert_eq!(batches[1].lens(), &[100, 101, 102, 103, 3, 1]);
        assert_eq!(batches[1].padded_len(), 103);
        assert!(batches[1].pad_efficiency(1) >= 0.99);
        // Pad lanes are entirely pad code.
        let pad = pad_code(&Alphabet::protein());
        for lane in 2..4 {
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

    /// The packer's invariants over seeded random length sets: every
    /// sequence lands exactly once with its residues where `starts` says,
    /// no lane runs past its batch, stacked starts are even and ascend,
    /// batches ascend by padded length, and the padded cells are never
    /// more than one sequence per lane cut from the long end would pad.
    #[test]
    fn packer_invariants_over_random_length_sets() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let a = Alphabet::protein();
        let pad = pad_code(&a);
        let mut rng = SmallRng::seed_from_u64(0x5EF1_1111);
        for case in 0..60 {
            let lanes = [4usize, 8, 16][case % 3];
            let n = rng.gen_range(1usize..120);
            let spread = [8usize, 60, 600][rng.gen_range(0usize..3)];
            let lens: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=spread)).collect();
            let sorted = sorted_db(&lens);
            let batches = LaneBatcher::new(lanes, &a).batch(&sorted);
            let mut seen = vec![0u32; n];
            for (bi, b) in batches.iter().enumerate() {
                let label = format!("case {case}, batch {bi}");
                let lane_of = |k: usize| match k.checked_sub(b.occupied_lanes()) {
                    None => (0, k),
                    Some(s) => (b.starts()[s].0 as usize, b.starts()[s].1 as usize),
                };
                let mut covered = vec![false; b.padded_len() * lanes];
                for (k, (&id, &len)) in b.ids().iter().zip(b.lens()).enumerate() {
                    seen[id.0 as usize] += 1;
                    let (start, lane) = lane_of(k);
                    assert_eq!(start % 2, 0, "{label}: odd start");
                    assert!(lane < lanes, "{label}");
                    assert!(
                        start + len as usize <= b.padded_len(),
                        "{label}: lane overrun"
                    );
                    let residues = sorted.db().seq(id).residues;
                    assert_eq!(residues.len(), len as usize, "{label}");
                    for (j, &r) in residues.iter().enumerate() {
                        assert_eq!(b.residue(start + j, lane), r, "{label}");
                        let cell = &mut covered[(start + j) * lanes + lane];
                        assert!(!*cell, "{label}: two sequences share a cell");
                        *cell = true;
                    }
                }
                for (cell, &real) in covered.iter().enumerate() {
                    if !real {
                        assert_eq!(b.interleaved()[cell], pad, "{label}");
                    }
                }
                assert!(
                    b.starts().windows(2).all(|w| w[0] < w[1]),
                    "{label}: starts ascend"
                );
                assert!(
                    bi == 0 || b.occupied_lanes() == lanes,
                    "{label}: only the shortest batch leaves lanes empty"
                );
            }
            assert!(seen.iter().all(|&c| c == 1), "case {case}: each once");
            assert!(
                batches
                    .windows(2)
                    .all(|w| w[0].padded_len() <= w[1].padded_len()),
                "case {case}: batches ascend"
            );
            let padded: u64 = batches.iter().map(|b| b.padded_cells(1)).sum();
            let one_per_lane: u64 = (0..n)
                .rev()
                .step_by(lanes)
                .map(|rank| (lanes * sorted.len_at(rank)) as u64)
                .sum();
            assert!(padded <= one_per_lane, "case {case}");
            assert!(batches.len() <= n.div_ceil(lanes), "case {case}");
        }
    }

    #[test]
    fn empty_sequences_open_lanes_but_never_stack() {
        let sorted = sorted_db(&[0, 0, 6, 1]);
        let batches = LaneBatcher::new(2, &Alphabet::protein()).batch(&sorted);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].lens(), &[0, 0]);
        assert_eq!(batches[1].lens(), &[1, 6]);
        assert!(batches.iter().all(|b| b.starts().is_empty()));
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
