//! Adaptive score precision — saturation detection and exact rescue.
//!
//! The vector kernels score in saturating `i16` (the element width the
//! paper's intrinsic code uses). Real protein hits can exceed 32 767 —
//! e.g. a titin self-hit scores ~200 000 — so, SWIPE-style, any lane whose
//! running maximum reaches `i16::MAX` is recomputed exactly with the
//! scalar `i64` kernel. The rescue is rare (large scores need ≥ ~3 000
//! aligned residues) and therefore cheap in aggregate, but without it
//! reported scores would silently cap.

use crate::intertask::KernelOutput;
use crate::scalar::{sw_score_scalar, SwParams};
use sw_swdb::LaneBatch;

/// Statistics of a rescue pass (exposed so engines can report how often
/// the slow path ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RescueStats {
    /// Lanes recomputed exactly.
    pub lanes_rescued: u64,
    /// Extra DP cells spent in the scalar recompute.
    pub rescue_cells: u64,
}

/// Replace saturated scores with exact `i64` recomputations.
///
/// `lane_seqs` must yield the residues of each sequence of the batch in
/// `batch.ids()` order (typically via the original database).
pub fn rescue_overflows(
    out: &mut KernelOutput,
    query: &[u8],
    batch: &LaneBatch,
    lane_seqs: &[&[u8]],
    params: &SwParams,
) -> RescueStats {
    assert_eq!(
        lane_seqs.len(),
        batch.n_seqs(),
        "need the residues of every sequence in the batch"
    );
    let mut stats = RescueStats::default();
    for (k, &seq) in lane_seqs.iter().enumerate() {
        if out.overflowed[k] {
            out.scores[k] = sw_score_scalar(query, seq, params);
            out.overflowed[k] = false;
            stats.lanes_rescued += 1;
            stats.rescue_cells += query.len() as u64 * seq.len() as u64;
        }
    }
    if stats.lanes_rescued > 0 {
        // Report into whichever worker journal the executor installed on
        // this thread (no-op outside a traced run): the kernel layer has
        // no tracer handle of its own.
        sw_trace::emit_current(sw_trace::EventKind::OverflowRecompute {
            from_bits: 16,
            to_bits: 64,
            lanes: stats.lanes_rescued,
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{sw_isa_qp, KernelIsa};
    use sw_seq::{Alphabet, SeqId};
    use sw_swdb::batch::pad_code;
    use sw_swdb::QueryProfile;

    #[test]
    fn rescue_produces_exact_scores() {
        let a = Alphabet::protein();
        let p = SwParams::paper_default();
        // 3100 tryptophans self-align to 3100 × 11 = 34 100 > i16::MAX.
        let long = vec![a.encode_byte(b'W').unwrap(); 3100];
        let short = a.encode_strict(b"MKVLITRAW").unwrap();
        let batch = LaneBatch::pack(
            4,
            &[(SeqId(0), &long[..]), (SeqId(1), &short[..])],
            pad_code(&a),
        );
        let qp = QueryProfile::build(&long, &p.matrix, &a);
        let mut out = sw_isa_qp::<4>(KernelIsa::detect(), &qp, &batch, &p.gap, None);
        assert!(out.overflowed[0]);
        assert!(!out.overflowed[1]);

        let lane_seqs: Vec<&[u8]> = vec![&long, &short];
        let stats = rescue_overflows(&mut out, &long, &batch, &lane_seqs, &p);
        assert_eq!(stats.lanes_rescued, 1);
        assert_eq!(out.scores[0], 3100 * 11);
        assert!(!out.any_overflow());
        // Unaffected lane keeps its vector score.
        assert_eq!(out.scores[1], sw_score_scalar(&long, &short, &p));
    }

    #[test]
    fn rescue_noop_without_overflow() {
        let a = Alphabet::protein();
        let p = SwParams::paper_default();
        let q = a.encode_strict(b"MKVLITRAW").unwrap();
        let batch = LaneBatch::pack(2, &[(SeqId(0), &q[..])], pad_code(&a));
        let qp = QueryProfile::build(&q, &p.matrix, &a);
        let mut out = sw_isa_qp::<2>(KernelIsa::detect(), &qp, &batch, &p.gap, None);
        let before = out.clone();
        let lane_seqs: Vec<&[u8]> = vec![&q];
        let stats = rescue_overflows(&mut out, &q, &batch, &lane_seqs, &p);
        assert_eq!(stats, RescueStats::default());
        assert_eq!(out, before);
    }

    #[test]
    fn rescue_reports_into_ambient_journal() {
        let a = Alphabet::protein();
        let p = SwParams::paper_default();
        let long = vec![a.encode_byte(b'W').unwrap(); 3100];
        let batch = LaneBatch::pack(4, &[(SeqId(0), &long[..])], pad_code(&a));
        let qp = QueryProfile::build(&long, &p.matrix, &a);
        let mut out = sw_isa_qp::<4>(KernelIsa::detect(), &qp, &batch, &p.gap, None);
        assert!(out.overflowed[0]);

        let tracer = sw_trace::Tracer::full();
        sw_trace::install(tracer.worker(0, 0));
        let lane_seqs: Vec<&[u8]> = vec![&long];
        let stats = rescue_overflows(&mut out, &long, &batch, &lane_seqs, &p);
        drop(sw_trace::uninstall());
        assert_eq!(stats.lanes_rescued, 1);
        let tl = tracer.timeline();
        assert_eq!(tl.count("overflow_recompute"), 1);
        let (_, _, ev) = tl.events_sorted()[0];
        assert!(matches!(
            ev.kind,
            sw_trace::EventKind::OverflowRecompute {
                from_bits: 16,
                to_bits: 64,
                lanes: 1
            }
        ));
    }
}
