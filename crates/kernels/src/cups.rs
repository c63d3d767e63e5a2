//! GCUPS accounting — the paper's performance metric.
//!
//! §V-C: *"performance results are expressed in GCUPS"* — giga cell
//! updates per second, `M × N / t / 10⁹` summed over all alignments. Only
//! **real** cells count (padding is wasted work, not throughput).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A GCUPS measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gcups(pub f64);

impl Gcups {
    /// From a cell count and elapsed wall-clock time. A zero elapsed time
    /// (an empty device share, a search over zero batches) reports zero
    /// throughput rather than panicking — no work happened in no time.
    pub fn from_cells(cells: u64, elapsed: Duration) -> Self {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return Gcups(0.0);
        }
        Gcups(cells as f64 / secs / 1e9)
    }

    /// Raw value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl fmt::Display for Gcups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GCUPS", self.0)
    }
}

/// Running tally of DP cells, split into the real cells GCUPS counts and
/// the padded cells time is spent on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCount {
    /// Cells over real residues (the numerator of GCUPS).
    pub real: u64,
    /// Cells actually computed, including lane padding.
    pub padded: u64,
}

impl CellCount {
    /// Add another tally.
    pub fn add(&mut self, other: CellCount) {
        self.real += other.real;
        self.padded += other.padded;
    }

    /// Padding overhead ratio (`padded / real`, 1.0 = no waste). An empty
    /// tally is 1.0; a tally that is *all* padding has no real work to
    /// amortise it and reports infinite overhead, not perfect efficiency.
    pub fn overhead(&self) -> f64 {
        match (self.real, self.padded) {
            (0, 0) => 1.0,
            (0, _) => f64::INFINITY,
            _ => self.padded as f64 / self.real as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcups_from_cells() {
        let g = Gcups::from_cells(30_400_000_000, Duration::from_secs(1));
        assert!((g.value() - 30.4).abs() < 1e-9);
        assert_eq!(g.to_string(), "30.4 GCUPS");
    }

    #[test]
    fn gcups_from_duration() {
        let g = Gcups::from_cells(2_000_000_000, Duration::from_millis(500));
        assert!((g.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_reports_zero_throughput() {
        // An empty device share has elapsed == ZERO; that is zero
        // throughput, not an error (regression for the old 1 ns sentinel).
        let g = Gcups::from_cells(1_000_000, Duration::ZERO);
        assert_eq!(g.value(), 0.0);
        assert_eq!(Gcups::from_cells(0, Duration::ZERO).value(), 0.0);
    }

    #[test]
    fn cell_count_math() {
        let mut c = CellCount {
            real: 80,
            padded: 100,
        };
        c.add(CellCount {
            real: 20,
            padded: 20,
        });
        assert_eq!(c.real, 100);
        assert_eq!(c.padded, 120);
        assert!((c.overhead() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_cell_count_overhead_is_one() {
        assert_eq!(CellCount::default().overhead(), 1.0);
    }

    #[test]
    fn all_padding_overhead_is_infinite() {
        // real == 0 with padded > 0 is pure waste, not "no waste".
        let c = CellCount { real: 0, padded: 7 };
        assert!(c.overhead().is_infinite());
    }
}
