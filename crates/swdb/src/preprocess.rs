//! Length sorting — the paper's load-balance preprocessing.
//!
//! §IV: *"A straightforward optimisation consists in pre-processing the
//! reference database and sorting its sequences by length in advance. This
//! way, consecutive alignments operations take similar time."*
//!
//! [`SortedDb`] wraps a [`SequenceDatabase`] with a length-sorted
//! permutation. Sorting is *stable* ascending by length so (a) adjacent
//! lane-batches waste minimal padding, and (b) results are reproducible
//! for equal-length sequences.

use crate::db::SequenceDatabase;
use serde::{Deserialize, Serialize};
use sw_seq::{SeqId, SeqView};

/// A database plus its length-sorted view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SortedDb {
    db: SequenceDatabase,
    /// `order[rank]` = original id of the sequence at sorted position `rank`.
    order: Vec<SeqId>,
}

impl SortedDb {
    /// Sort `db` by ascending sequence length (stable).
    pub fn new(db: SequenceDatabase) -> Self {
        let mut order: Vec<SeqId> = (0..db.len() as u32).map(SeqId).collect();
        order.sort_by_key(|&id| db.seq_len(id));
        SortedDb { db, order }
    }

    /// The underlying database (original id order).
    #[inline]
    pub fn db(&self) -> &SequenceDatabase {
        &self.db
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Original id of the sequence at sorted `rank`.
    #[inline]
    pub fn id_at(&self, rank: usize) -> SeqId {
        self.order[rank]
    }

    /// Residues of the sequence at sorted `rank`.
    #[inline]
    pub fn seq_at(&self, rank: usize) -> SeqView<'_> {
        self.db.seq(self.order[rank])
    }

    /// Length of the sequence at sorted `rank`.
    #[inline]
    pub fn len_at(&self, rank: usize) -> usize {
        self.db.seq_len(self.order[rank])
    }

    /// The full sorted permutation (`rank -> original id`).
    pub fn order(&self) -> &[SeqId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::{Alphabet, EncodedSeq};

    fn db_with_lens(lens: &[usize]) -> SequenceDatabase {
        let a = Alphabet::protein();
        SequenceDatabase::from_sequences(
            lens.iter()
                .enumerate()
                .map(|(i, &l)| EncodedSeq::from_text(&format!("s{i}"), &vec![b'A'; l], &a).unwrap())
                .collect(),
        )
    }

    #[test]
    fn sorts_ascending_by_length() {
        let sorted = SortedDb::new(db_with_lens(&[5, 1, 9, 3]));
        let lens: Vec<usize> = (0..4).map(|r| sorted.len_at(r)).collect();
        assert_eq!(lens, vec![1, 3, 5, 9]);
    }

    #[test]
    fn permutation_maps_back_to_original_ids() {
        let sorted = SortedDb::new(db_with_lens(&[5, 1, 9, 3]));
        let ids: Vec<u32> = (0..4).map(|r| sorted.id_at(r).0).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn stable_for_equal_lengths() {
        let sorted = SortedDb::new(db_with_lens(&[4, 4, 4]));
        let ids: Vec<u32> = sorted.order().iter().map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn order_is_a_permutation() {
        let sorted = SortedDb::new(db_with_lens(&[2, 7, 7, 1, 10, 3]));
        let mut ids: Vec<u32> = sorted.order().iter().map(|id| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn empty_db() {
        let sorted = SortedDb::new(db_with_lens(&[]));
        assert!(sorted.is_empty());
        assert!(sorted.order().is_empty());
    }
}
