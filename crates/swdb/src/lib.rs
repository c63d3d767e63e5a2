//! # sw-swdb — sequence database preprocessing
//!
//! Step (2) of the paper's pipeline: *"Pre-process database sequences."*
//!
//! The preprocessing chain is:
//!
//! 1. [`db::SequenceDatabase`] — a flat, cache-friendly store of encoded
//!    sequences (one concatenated residue buffer + offsets).
//! 2. [`preprocess::SortedDb`] — the database sorted by sequence length
//!    (the paper: *"pre-processing the reference database and sorting its
//!    sequences by length in advance … consecutive alignment operations
//!    take similar time"*), carrying the permutation so results can be
//!    reported against original ids.
//! 3. [`batch::LaneBatcher`] — groups of `L` similar-length sequences,
//!    residues interleaved lane-wise and padded, ready for the inter-task
//!    SIMD kernels (the SWIPE scheme the paper builds on).
//! 4. [`profile`] — the paper's two substitution-score layouts: the *query
//!    profile* (QP, built once per query) and the *sequence profile* (SP,
//!    built per batch) — plus the per-search *score table* the fused
//!    kernel shuffles instead of materialising the SP.
//! 5. [`chunk`] — contiguous batch ranges for scheduling and for the
//!    CPU/accelerator split of Algorithm 2.
//! 6. [`stats`] — the database statistics the paper reports in §V-B.
//! 7. [`snapshot`] — a compact binary snapshot format so a preprocessed
//!    database can be built once and reloaded by tools, with per-section
//!    CRC32s and a content digest ([`integrity`]) so durable searches can
//!    verify a checkpoint belongs to the database they reloaded.

#![warn(missing_docs)]
#![deny(unsafe_code)] // `allow`ed only in `aligned`, with SAFETY comments

pub mod aligned;
pub mod batch;
pub mod chunk;
pub mod db;
pub mod integrity;
pub mod preprocess;
pub mod profile;
pub mod shard;
pub mod snapshot;
pub mod stats;

pub use batch::{LaneBatch, LaneBatcher};
pub use chunk::{split_by_cells, BatchRange};
pub use db::SequenceDatabase;
pub use preprocess::SortedDb;
pub use profile::{
    QueryProfile, QueryProfileI8, ScoreTable, SequenceProfile, SequenceProfileI8, SCORE_TABLE_COLS,
};
pub use shard::{PlacementEntry, PlacementPlan, ShardManifest, ShardMeta};
pub use stats::DbStats;
