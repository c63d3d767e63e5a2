//! # sw-seq — biological sequence substrate
//!
//! Foundation crate for the `swhetero` workspace, the Rust reproduction of
//! Rucci et al., *"Smith-Waterman Algorithm on Heterogeneous Systems: A Case
//! Study"* (IEEE CLUSTER 2014).
//!
//! This crate owns everything that exists *before* an alignment starts:
//!
//! * [`alphabet`] — residue alphabets (20-letter amino acids plus ambiguity
//!   codes, nucleotides) and the dense `u8` encoding used by every kernel.
//! * [`sequence`] — encoded sequences and zero-copy views.
//! * [`fasta`] — a strict-but-forgiving FASTA reader/writer.
//! * [`matrices`] — substitution matrices: BLOSUM 45/50/62/80/90,
//!   PAM 30/70/250, identity/custom, and an NCBI-format text parser.
//! * [`gap`] — the affine gap model `g(x) = q + r·x` of the paper's Eq. 5.
//! * [`gen`] — synthetic protein database generator calibrated to the
//!   Swiss-Prot release 2013_11 summary statistics used by the paper.
//! * [`swissprot`] — constants describing that release and the paper's
//!   20-query evaluation set.
//!
//! The paper benchmarks against the real Swiss-Prot database, which is not
//! redistributable here; [`gen`] produces a database with the same sequence
//! count, residue count, length distribution tail and background residue
//! frequencies, which is what the evaluated metrics (GCUPS vs. threads,
//! query length, split ratio) actually depend on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alphabet;
pub mod dna;
pub mod error;
pub mod fasta;
pub mod gap;
pub mod gen;
pub mod matrices;
pub mod sequence;
pub mod swissprot;

pub use alphabet::{Alphabet, AlphabetKind};
pub use error::{FastaIssue, SeqError};
pub use fasta::{
    read_encoded_quarantined, FastaReader, FastaRecord, FastaWriter, QuarantineReport,
};
pub use gap::GapPenalty;
pub use matrices::SubstMatrix;
pub use sequence::{EncodedSeq, SeqId, SeqView};
