//! # sw-core — Smith-Waterman database search on heterogeneous systems
//!
//! The paper's primary contribution, assembled from the workspace
//! substrates. The pipeline is §IV's four steps:
//!
//! 1. Load query and database sequences (`sw-seq`).
//! 2. Pre-process: sort by length, lane-batch (`sw-swdb`), via
//!    [`prepare::PreparedDb`].
//! 3. Perform SW alignments in parallel (`sw-kernels` under `sw-sched`),
//!    via [`engine::SearchEngine`] — Algorithm 1.
//! 4. Sort all scores in descending order ([`results::SearchResults`]).
//!
//! [`hetero::HeteroEngine`] is Algorithm 2: the database is split between
//! two devices, the accelerator share dispatched asynchronously, and
//! score lists merged.
//!
//! Execution comes in two modes:
//!
//! * **Real** — the kernels actually run, multithreaded, on the host
//!   ([`engine`], [`hetero`]); scores are exact and wall-clock GCUPS are
//!   measured.
//! * **Simulated** — per-task costs from `sw-device`'s calibrated model
//!   are replayed through `sw-sched`'s discrete-event scheduler
//!   ([`simulate`]); this regenerates the paper's figures at the full
//!   Swiss-Prot scale and on the paper's hardware, which this machine
//!   does not have.
//!
//! [`verify`] cross-checks every kernel variant against the scalar
//! reference — the repository's central correctness property.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod hetero;
pub mod prepare;
pub mod report;
pub mod results;
pub mod simulate;
pub mod stats;
pub mod verify;

pub use checkpoint::{BatchResult, Checkpoint, CheckpointError, RecoveryTotals, SearchFingerprint};
pub use config::{HeteroSearchConfig, RecoveryConfig, SearchConfig, TraceConfig};
pub use engine::SearchEngine;
pub use hetero::{
    BatchQuery, BatchQueryOutcome, BatchSearchOutcome, DurableOptions, DurableSearchError,
    DurableSearchOutcome, DynamicSearchOutcome, HeteroEngine, SplitPlan,
};
pub use prepare::{PreparedDb, ResidueOutOfRange};
pub use results::{Hit, SearchResults};
pub use simulate::{
    simulate_hetero, simulate_hetero_dynamic, simulate_search, HeteroDynReport, HeteroReport,
    SimConfig, SimReport,
};
