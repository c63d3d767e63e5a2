//! # sw-kernels — the Smith-Waterman alignment kernels
//!
//! Step (3) of the paper's pipeline: *"Perform SW alignments in parallel."*
//! This crate holds every kernel variant the paper evaluates, plus the
//! reference implementation they are verified against:
//!
//! | paper label | module | what it models |
//! |---|---|---|
//! | `no-vec` | [`scalar`] | one pair at a time, no SIMD |
//! | `simd-QP` / `simd-SP` | [`guided`] | compiler-guided vectorization (`#pragma omp simd`) |
//! | `intrinsic-QP` / `intrinsic-SP` | [`intertask`] | hand-tuned vector code over [`lanes`] |
//! | blocking on/off | [`blocked`] | the cache-blocking optimisation of Fig. 7 |
//! | Farrar striped | [`striped`] | the intra-task comparator the paper cites as \[13\] |
//!
//! All variants are *inter-task* (SWIPE-style, one database sequence per
//! vector lane) except [`striped`], and all must produce identical scores —
//! the cross-variant equivalence tests in this crate and in the workspace
//! `tests/` directory are the central correctness property.
//!
//! Scores are computed in saturating `i16` (the paper's vector element
//! width) with automatic detection of saturation and an exact `i64`
//! scalar rescue ([`overflow`]), so reported scores are always exact.
//!
//! Beyond the paper's variants: [`narrow`] (SWIPE-style i8→i16→i64
//! adaptive precision), [`banded`] (diagonal-band refinement), and
//! [`modes`] (global / semi-global alignment).

#![warn(missing_docs)]
#![deny(unsafe_code)] // `allow`ed only in `arch`, with SAFETY comments

pub mod arch;
pub mod banded;
pub mod blocked;
pub mod cups;
pub mod guided;
pub mod intertask;
pub mod lanes;
pub mod modes;
pub mod narrow;
pub mod overflow;
pub mod scalar;
pub mod striped;
pub mod traceback;
pub mod variant;

pub use arch::KernelIsa;
pub use cups::{CellCount, Gcups};
pub use scalar::{sw_score_scalar, SwParams};
pub use traceback::{AlignOp, Alignment};
pub use variant::{KernelVariant, ProfileMode, Vectorization};
