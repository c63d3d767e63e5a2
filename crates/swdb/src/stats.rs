//! Database statistics — the numbers the paper reports in §V-B.

use crate::db::SequenceDatabase;
use serde::{Deserialize, Serialize};
use std::fmt;
use sw_seq::SeqId;

/// Summary statistics of a sequence database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbStats {
    /// Sequence count.
    pub n_seqs: u64,
    /// Total residues.
    pub total_residues: u64,
    /// Shortest sequence length.
    pub min_len: u64,
    /// Longest sequence length (35 213 for Swiss-Prot 2013_11).
    pub max_len: u64,
    /// Mean length.
    pub mean_len: f64,
    /// Median length.
    pub median_len: u64,
    /// Histogram over power-of-two length buckets: entry `k` counts
    /// sequences with `2^k <= len < 2^(k+1)`.
    pub log2_histogram: Vec<u64>,
}

impl DbStats {
    /// Compute statistics over `db`.
    pub fn compute(db: &SequenceDatabase) -> Self {
        let mut lens: Vec<u64> = (0..db.len() as u32)
            .map(|i| db.seq_len(SeqId(i)) as u64)
            .collect();
        lens.sort_unstable();
        let n = lens.len() as u64;
        if n == 0 {
            return DbStats {
                n_seqs: 0,
                total_residues: 0,
                min_len: 0,
                max_len: 0,
                mean_len: 0.0,
                median_len: 0,
                log2_histogram: Vec::new(),
            };
        }
        let total: u64 = lens.iter().sum();
        let max = *lens.last().expect("non-empty");
        let mut hist = vec![0u64; (64 - max.leading_zeros()) as usize];
        for &l in &lens {
            if l > 0 {
                hist[(63 - l.leading_zeros()) as usize] += 1;
            }
        }
        DbStats {
            n_seqs: n,
            total_residues: total,
            min_len: lens[0],
            max_len: max,
            mean_len: total as f64 / n as f64,
            median_len: lens[lens.len() / 2],
            log2_histogram: hist,
        }
    }
}

impl fmt::Display for DbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sequences:      {}", self.n_seqs)?;
        writeln!(f, "residues:       {}", self.total_residues)?;
        writeln!(f, "length min/max: {} / {}", self.min_len, self.max_len)?;
        writeln!(f, "length mean:    {:.1}", self.mean_len)?;
        write!(f, "length median:  {}", self.median_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::{Alphabet, EncodedSeq};

    fn db(lens: &[usize]) -> SequenceDatabase {
        let a = Alphabet::protein();
        SequenceDatabase::from_sequences(
            lens.iter()
                .enumerate()
                .map(|(i, &l)| EncodedSeq::from_text(&format!("s{i}"), &vec![b'A'; l], &a).unwrap())
                .collect(),
        )
    }

    #[test]
    fn basic_stats() {
        let s = DbStats::compute(&db(&[4, 2, 10]));
        assert_eq!(s.n_seqs, 3);
        assert_eq!(s.total_residues, 16);
        assert_eq!(s.min_len, 2);
        assert_eq!(s.max_len, 10);
        assert!((s.mean_len - 16.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.median_len, 4);
    }

    #[test]
    fn histogram_buckets() {
        let s = DbStats::compute(&db(&[1, 2, 3, 4, 8, 9]));
        // len 1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 8,9 -> bucket 3.
        assert_eq!(s.log2_histogram, vec![1, 2, 1, 2]);
        let total: u64 = s.log2_histogram.iter().sum();
        assert_eq!(total, s.n_seqs);
    }

    #[test]
    fn empty_db_stats() {
        let s = DbStats::compute(&db(&[]));
        assert_eq!(s.n_seqs, 0);
        assert_eq!(s.total_residues, 0);
        assert!(s.log2_histogram.is_empty());
    }

    #[test]
    fn display_renders() {
        let s = DbStats::compute(&db(&[5, 5]));
        let text = s.to_string();
        assert!(text.contains("sequences:      2"));
        assert!(text.contains("5 / 5"));
    }

    #[test]
    fn synthetic_swissprot_stats_match_spec() {
        // A scaled synthetic database must land near the Swiss-Prot shape.
        let spec = sw_seq::gen::DbSpec {
            n_seqs: 5000,
            mean_len: 355.4,
            max_len: 35213,
            seed: 2,
        };
        let seqs = sw_seq::gen::generate_database(&spec);
        let s = DbStats::compute(&SequenceDatabase::from_sequences(seqs));
        assert_eq!(s.n_seqs, 5000);
        assert!(
            (s.mean_len - 355.4).abs() / 355.4 < 0.1,
            "mean {}",
            s.mean_len
        );
        assert!(
            s.median_len < s.mean_len as u64,
            "log-normal: median < mean"
        );
    }
}
