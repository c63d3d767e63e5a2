//! # sw-heuristic — BLAST-like seed-and-extend search
//!
//! The paper's introduction motivates exact Smith-Waterman by contrasting
//! it with heuristics: *"BLAST … increase\[s\] speed at the cost of reduced
//! sensitivity. This algorithm keeps the position of each k-length
//! subsequence (k-mer) of a query sequence in a hash table … and scans
//! the reference database sequences looking for k-mer identical matches,
//! which are the so-called seeds. Once those seeds have been identified,
//! BLAST performs seed extensions … (first without gaps), and then it
//! refines them using again the classic SW algorithm."*
//!
//! This crate implements exactly that seed-and-extend structure so the
//! speed/sensitivity trade-off can be *measured* against the exact
//! engine (`cargo run -p sw-bench --bin sensitivity`):
//!
//! 1. [`kmer::KmerIndex`] — hash table of the query's k-mers (exact
//!    seeding; BLAST's neighbourhood words are a documented
//!    simplification away).
//! 2. [`extend`] — X-drop ungapped extension of each seed into an HSP.
//! 3. [`search::HeuristicEngine`] — database scan: candidate pairs whose
//!    best HSP clears a threshold are re-scored with the *exact* SW
//!    kernel; everything else is skipped (that skip is where both the
//!    speed and the lost sensitivity come from).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extend;
pub mod kmer;
pub mod search;

pub use kmer::KmerIndex;
pub use search::{HeuristicEngine, HeuristicHit, HeuristicOpts, HeuristicResults};
