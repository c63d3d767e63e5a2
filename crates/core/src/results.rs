//! Search results — pipeline step (4): scores sorted in descending order.

use serde::{Deserialize, Serialize};
use std::time::Duration;
use sw_kernels::{CellCount, Gcups};
use sw_seq::SeqId;

/// One database hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hit {
    /// Original database sequence id.
    pub id: SeqId,
    /// Exact Smith-Waterman score.
    pub score: i64,
}

/// The outcome of one query's database search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResults {
    /// All hits, sorted by descending score (ties by ascending id).
    pub hits: Vec<Hit>,
    /// Wall-clock of the alignment loop.
    pub elapsed: Duration,
    /// Cell accounting.
    pub cells: CellCount,
    /// Vector lanes that saturated and were recomputed exactly.
    pub lanes_rescued: u64,
    /// True when a device pool died during the search and the run
    /// degraded to the surviving pool. Hits are still exact and complete
    /// — degradation costs time, never correctness.
    pub degraded: bool,
}

impl SearchResults {
    /// Assemble results: sorts hits descending by score, ascending by id
    /// on ties (deterministic output for equal scores).
    pub fn new(
        mut hits: Vec<Hit>,
        elapsed: Duration,
        cells: CellCount,
        lanes_rescued: u64,
    ) -> Self {
        hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
        SearchResults {
            hits,
            elapsed,
            cells,
            lanes_rescued,
            degraded: false,
        }
    }

    /// Same results, flagged as produced by a degraded run.
    pub fn with_degraded(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }

    /// The `k` best hits.
    pub fn top(&self, k: usize) -> &[Hit] {
        &self.hits[..k.min(self.hits.len())]
    }

    /// Measured throughput over real cells.
    pub fn gcups(&self) -> Gcups {
        Gcups::from_cells(self.cells.real, self.elapsed)
    }

    /// Merge two result sets (Algorithm 2 line 15: host + device scores)
    /// into one descending-sorted set.
    pub fn merge(self, other: SearchResults) -> SearchResults {
        let mut hits = self.hits;
        hits.extend(other.hits);
        let mut cells = self.cells;
        cells.add(other.cells);
        SearchResults::new(
            hits,
            self.elapsed.max(other.elapsed),
            cells,
            self.lanes_rescued + other.lanes_rescued,
        )
        .with_degraded(self.degraded || other.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u32, score: i64) -> Hit {
        Hit {
            id: SeqId(id),
            score,
        }
    }

    #[test]
    fn sorted_descending_with_stable_ties() {
        let r = SearchResults::new(
            vec![hit(3, 10), hit(1, 50), hit(2, 10), hit(0, 99)],
            Duration::from_secs(1),
            CellCount::default(),
            0,
        );
        let order: Vec<(u32, i64)> = r.hits.iter().map(|h| (h.id.0, h.score)).collect();
        assert_eq!(order, vec![(0, 99), (1, 50), (2, 10), (3, 10)]);
    }

    #[test]
    fn top_k_clamps() {
        let r = SearchResults::new(
            vec![hit(0, 5), hit(1, 3)],
            Duration::from_secs(1),
            CellCount::default(),
            0,
        );
        assert_eq!(r.top(1).len(), 1);
        assert_eq!(r.top(10).len(), 2);
        assert_eq!(r.top(0).len(), 0);
    }

    #[test]
    fn merge_combines_and_resorts() {
        let a = SearchResults::new(
            vec![hit(0, 10)],
            Duration::from_secs(2),
            CellCount {
                real: 100,
                padded: 120,
            },
            1,
        );
        let b = SearchResults::new(
            vec![hit(1, 20)],
            Duration::from_secs(3),
            CellCount {
                real: 50,
                padded: 60,
            },
            0,
        );
        let m = a.merge(b);
        assert_eq!(m.hits[0].id.0, 1);
        assert_eq!(m.cells.real, 150);
        assert_eq!(m.elapsed, Duration::from_secs(3));
        assert_eq!(m.lanes_rescued, 1);
    }

    #[test]
    fn degraded_flag_survives_merge() {
        let clean = SearchResults::new(vec![hit(0, 1)], Duration::ZERO, CellCount::default(), 0);
        assert!(!clean.degraded, "fresh results are not degraded");
        let bad = SearchResults::new(vec![hit(1, 2)], Duration::ZERO, CellCount::default(), 0)
            .with_degraded(true);
        assert!(clean.clone().merge(bad.clone()).degraded);
        assert!(bad.merge(clean.clone()).degraded);
        assert!(!clean.clone().merge(clean).degraded);
    }

    #[test]
    fn gcups_uses_real_cells() {
        let r = SearchResults::new(
            vec![],
            Duration::from_secs(1),
            CellCount {
                real: 2_000_000_000,
                padded: 4_000_000_000,
            },
            0,
        );
        assert!((r.gcups().value() - 2.0).abs() < 1e-9);
    }
}
