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
//! | `intrinsic-QP` / `intrinsic-SP` | [`arch`] | hand-tuned vector code: one sweep over SSE2, AVX2 and portable [`lanes`] vectors |
//! | blocking on/off | [`arch`] (`block_rows`) | the cache-blocking optimisation of Fig. 7 — the same sweep, tiled |
//!
//! All variants are *inter-task* (SWIPE-style, one database sequence per
//! vector lane) and all must produce identical scores — the cross-variant
//! equivalence tests in this crate and in the workspace `tests/` directory
//! are the central correctness property. (The intra-task comparator the
//! paper cites as \[13\], Farrar's striped kernel, lives beside the one
//! experiment that times it: `sw_bench::striped`.)
//!
//! Scores are computed in saturating `i16` (the paper's vector element
//! width) — after a floor-offset byte pass where AVX2 offers 32 byte
//! lanes for the same 16 sequences — with automatic detection of
//! saturation at each width and an exact `i64` scalar rescue
//! ([`overflow`]), so reported scores are always exact; [`intertask`]
//! holds what the sweep returns and the SWIPE-style 8-bit → i16 cascade
//! over it.
//!
//! Beyond the paper's variants: [`traceback`] (alignment recovery for
//! reported hits).

#![warn(missing_docs)]
#![deny(unsafe_code)] // `allow`ed only in `arch`, with SAFETY comments

pub mod arch;
pub mod cups;
pub mod guided;
pub mod intertask;
pub mod lanes;
pub mod overflow;
pub mod scalar;
pub mod traceback;
pub mod variant;

pub use arch::KernelIsa;
pub use cups::{CellCount, Gcups};
pub use scalar::{sw_score_scalar, SwParams};
pub use traceback::{AlignOp, Alignment};
pub use variant::{KernelVariant, ProfileMode, Vectorization};
