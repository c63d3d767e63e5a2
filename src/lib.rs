//! # swhetero — Smith-Waterman on heterogeneous systems
//!
//! A Rust reproduction of Rucci, De Giusti, Naiouf, Botella, García,
//! Prieto-Matías: *"Smith-Waterman Algorithm on Heterogeneous Systems: A
//! Case Study"* (IEEE CLUSTER 2014) — exact protein database search with
//! inter-task SIMD kernels, query/sequence substitution profiles, cache
//! blocking, OpenMP-style scheduling, and CPU + coprocessor execution.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`seq`] — alphabets, FASTA, substitution matrices, synthetic
//!   Swiss-Prot generator.
//! * [`swdb`] — database preprocessing: sorting, lane batching, profiles.
//! * [`kernels`] — the alignment kernels: the scalar reference, the
//!   compiler-guided loops and the one explicit-SIMD inter-task sweep
//!   (SSE2, AVX2, portable; optionally cache-blocked; bytes first where
//!   AVX2 has the lanes), with an exact rescue of saturated lanes.
//! * [`device`] — simulated device models of the paper's testbed, the
//!   calibrated cost model, the offload runtime and the energy model.
//! * [`sched`] — static/dynamic/guided scheduling, simulated and real.
//! * [`core`] — the assembled pipeline: `SearchEngine` (Algorithm 1)
//!   and `HeteroEngine` (Algorithm 2), plus figure simulation.
//!
//! ## Quickstart
//!
//! ```
//! use swhetero::prelude::*;
//!
//! // A synthetic Swiss-Prot-like database and a query.
//! let alphabet = Alphabet::protein();
//! let seqs = generate_database(&DbSpec::tiny(42));
//! let db = PreparedDb::prepare(seqs, 8, &alphabet);
//! let query = generate_query(100, 7);
//!
//! // Search with the paper's best configuration (intrinsic-SP, blocked).
//! let engine = SearchEngine::paper_default();
//! let results = engine.search(&query.residues, &db, &SearchConfig::best(2));
//!
//! assert_eq!(results.hits.len(), db.n_seqs());
//! assert!(results.hits.windows(2).all(|w| w[0].score >= w[1].score));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sw_core as core;
pub use sw_device as device;
pub use sw_kernels as kernels;
pub use sw_sched as sched;
pub use sw_seq as seq;
pub use sw_swdb as swdb;

/// The most common imports in one place.
pub mod prelude {
    pub use sw_core::{
        simulate_hetero, simulate_search, HeteroEngine, HeteroSearchConfig, Hit, PreparedDb,
        SearchConfig, SearchEngine, SearchResults, SimConfig,
    };
    pub use sw_device::{CostModel, DeviceSpec};
    pub use sw_kernels::{Gcups, KernelVariant, ProfileMode, SwParams, Vectorization};
    pub use sw_sched::Policy;
    pub use sw_seq::gen::{generate_database, generate_query, generate_query_set, DbSpec};
    pub use sw_seq::{Alphabet, EncodedSeq, FastaReader, GapPenalty, SeqId, SubstMatrix};
    pub use sw_swdb::{LaneBatcher, QueryProfile, SequenceDatabase, SequenceProfile, SortedDb};
}
