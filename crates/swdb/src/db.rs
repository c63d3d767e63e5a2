//! Flat, cache-friendly storage for an encoded sequence database.
//!
//! All residues live in one contiguous buffer with an offsets table — the
//! layout every kernel and the snapshot format share. Headers are kept in
//! a parallel `Vec<Arc<str>>` so cloning a database (e.g. to hand one copy
//! to the accelerator runtime) is cheap.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use sw_seq::{EncodedSeq, SeqId, SeqView};

/// A read-only database of encoded sequences in flat storage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceDatabase {
    /// All residues, concatenated in id order.
    residues: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is sequence `i`; length = n_seqs + 1.
    offsets: Vec<u64>,
    /// Headers, parallel to sequences.
    headers: Vec<Arc<str>>,
}

impl SequenceDatabase {
    /// Build from owned encoded sequences.
    pub fn from_sequences(seqs: Vec<EncodedSeq>) -> Self {
        let total: usize = seqs.iter().map(EncodedSeq::len).sum();
        let mut residues = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(seqs.len() + 1);
        let mut headers = Vec::with_capacity(seqs.len());
        offsets.push(0u64);
        for s in seqs {
            residues.extend_from_slice(&s.residues);
            offsets.push(residues.len() as u64);
            headers.push(s.header);
        }
        SequenceDatabase {
            residues,
            offsets,
            headers,
        }
    }

    /// Reassemble from raw parts (used by the snapshot loader).
    ///
    /// # Panics
    /// Panics if the offsets table is malformed.
    pub fn from_raw_parts(residues: Vec<u8>, offsets: Vec<u64>, headers: Vec<Arc<str>>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least the initial 0"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            offsets.len(),
            headers.len() + 1,
            "offsets/headers length mismatch"
        );
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            residues.len(),
            "last offset must equal residue buffer length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        SequenceDatabase {
            residues,
            offsets,
            headers,
        }
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when the database holds no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Total residue count across all sequences.
    #[inline]
    pub fn total_residues(&self) -> u64 {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Length of sequence `id` in residues.
    #[inline]
    pub fn seq_len(&self, id: SeqId) -> usize {
        let i = id.0 as usize;
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Borrow the residues of sequence `id`.
    #[inline]
    pub fn seq(&self, id: SeqId) -> SeqView<'_> {
        let i = id.0 as usize;
        SeqView::new(&self.residues[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Header of sequence `id`.
    #[inline]
    pub fn header(&self, id: SeqId) -> &str {
        &self.headers[id.0 as usize]
    }

    /// Iterate `(SeqId, SeqView)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqId, SeqView<'_>)> + '_ {
        (0..self.len() as u32).map(move |i| (SeqId(i), self.seq(SeqId(i))))
    }

    /// The sequences as owned [`EncodedSeq`]s in id order — the inverse of
    /// [`SequenceDatabase::from_sequences`], for callers that reload a
    /// snapshot and hand its content to `PreparedDb`.
    pub fn to_sequences(&self) -> Vec<EncodedSeq> {
        self.iter()
            .map(|(id, v)| EncodedSeq {
                header: self.headers[id.0 as usize].clone(),
                residues: v.residues.to_vec(),
            })
            .collect()
    }

    /// The raw concatenated residue buffer (snapshot writer).
    pub fn raw_residues(&self) -> &[u8] {
        &self.residues
    }

    /// The raw offsets table (snapshot writer).
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The headers table (snapshot writer).
    pub fn raw_headers(&self) -> &[Arc<str>] {
        &self.headers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::Alphabet;

    fn sample_db() -> SequenceDatabase {
        let a = Alphabet::protein();
        SequenceDatabase::from_sequences(vec![
            EncodedSeq::from_text("s0", b"ARND", &a).unwrap(),
            EncodedSeq::from_text("s1", b"WW", &a).unwrap(),
            EncodedSeq::from_text("s2", b"MKVLITR", &a).unwrap(),
        ])
    }

    #[test]
    fn lengths_and_totals() {
        let db = sample_db();
        assert_eq!(db.len(), 3);
        assert_eq!(db.total_residues(), 13);
        assert_eq!(db.seq_len(SeqId(0)), 4);
        assert_eq!(db.seq_len(SeqId(1)), 2);
        assert_eq!(db.seq_len(SeqId(2)), 7);
    }

    #[test]
    fn seq_views_are_correct_slices() {
        let db = sample_db();
        let a = Alphabet::protein();
        assert_eq!(a.decode(db.seq(SeqId(1)).residues), b"WW".to_vec());
        assert_eq!(a.decode(db.seq(SeqId(2)).residues), b"MKVLITR".to_vec());
    }

    #[test]
    fn headers_preserved() {
        let db = sample_db();
        assert_eq!(db.header(SeqId(0)), "s0");
        assert_eq!(db.header(SeqId(2)), "s2");
    }

    #[test]
    fn iteration_in_id_order() {
        let db = sample_db();
        let ids: Vec<u32> = db.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_database() {
        let db = SequenceDatabase::from_sequences(vec![]);
        assert!(db.is_empty());
        assert_eq!(db.total_residues(), 0);
        assert_eq!(db.iter().count(), 0);
    }

    #[test]
    fn to_sequences_inverts_from_sequences() {
        let db = sample_db();
        assert_eq!(SequenceDatabase::from_sequences(db.to_sequences()), db);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let db = sample_db();
        let rebuilt = SequenceDatabase::from_raw_parts(
            db.raw_residues().to_vec(),
            db.raw_offsets().to_vec(),
            db.raw_headers().to_vec(),
        );
        assert_eq!(rebuilt, db);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn raw_parts_validates_first_offset() {
        SequenceDatabase::from_raw_parts(vec![0, 1], vec![1, 2], vec!["x".into()]);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn raw_parts_validates_last_offset() {
        SequenceDatabase::from_raw_parts(vec![0, 1], vec![0, 3], vec!["x".into()]);
    }
}
