//! # sw-bench — figure harness shared code
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation
//! (§V) as a markdown table on stdout plus a CSV in `results/`. This
//! module holds the common workload construction, the paper's published
//! reference numbers, table rendering, and [`striped`] — the intra-task
//! comparator only the `ablation` binary runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper;
pub mod striped;
pub mod table;
pub mod workload;

pub use table::Table;
pub use workload::Workload;
