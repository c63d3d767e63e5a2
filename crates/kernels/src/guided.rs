//! "Guided vectorization" kernels — the paper's `simd-QP` / `simd-SP`
//! variants.
//!
//! In the paper these are the portable code paths: the same C loop nest
//! annotated with `#pragma omp simd`, leaving vectorization to the
//! compiler. The Rust analogue is the idiomatic flat-slice loop written so
//! LLVM *may* autovectorize it: per-lane inner loops over `&[i16]` slices,
//! no explicit vector values, no hand-scheduled gathers. Semantically the
//! result is identical to the intrinsic sweep in [`crate::arch`] — the
//! equivalence tests enforce that — but the code *shape* is the
//! compiler-guided one, and the performance model charges it the
//! compiler-vectorization efficiency the paper measured (≈½ of intrinsic
//! on the Xeon, ≈0.4× on the Phi).

use crate::intertask::{KernelOutput, SeqMax, NEG_INF_I16};
use sw_seq::GapPenalty;
use sw_swdb::{LaneBatch, QueryProfile, SequenceProfile};

/// Flat scratch arrays for the guided kernels (lane-major rows of `L`).
#[derive(Debug, Default)]
pub struct GuidedWorkspace {
    h_col: Vec<i16>,
    f_col: Vec<i16>,
    h_diag: Vec<i16>,
    h_up: Vec<i16>,
    e_run: Vec<i16>,
    v_row: Vec<i16>,
    vmax: Vec<i16>,
}

impl GuidedWorkspace {
    /// Fresh empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, m: usize, lanes: usize) {
        self.h_col.clear();
        self.h_col.resize(m * lanes, 0);
        self.f_col.clear();
        self.f_col.resize(m * lanes, NEG_INF_I16);
        self.h_diag.clear();
        self.h_diag.resize(lanes, 0);
        self.h_up.clear();
        self.h_up.resize(lanes, 0);
        self.e_run.clear();
        self.e_run.resize(lanes, NEG_INF_I16);
        self.v_row.clear();
        self.v_row.resize(lanes, 0);
        self.vmax.clear();
        self.vmax.resize(lanes, 0);
    }

    /// Lane refill before column `j`: every lane a sequence starts in
    /// hands its maximum to `seqs` and starts over as at column 0 —
    /// `vmax` and `H` at 0, `F` at minus infinity.
    fn refill(&mut self, seqs: &mut SeqMax<i16>, j: usize) {
        let lanes = self.vmax.len();
        for s in seqs.take(j, &self.vmax) {
            self.vmax[s.elem] = 0;
            for i in (s.elem..self.h_col.len()).step_by(lanes) {
                self.h_col[i] = 0;
                self.f_col[i] = NEG_INF_I16;
            }
        }
    }

    fn output(&self, mut seqs: SeqMax<i16>) -> KernelOutput {
        seqs.finish(&self.vmax);
        KernelOutput::from_best(&seqs.into_best())
    }
}

/// One DP step for every lane — the loop the compiler is expected to
/// vectorize (`#pragma omp simd` in the paper's Algorithm 1, line 27).
#[inline]
#[allow(clippy::too_many_arguments)]
fn lane_step(
    v_row: &[i16],
    h_col: &mut [i16],
    f_col: &mut [i16],
    h_diag: &mut [i16],
    h_up: &mut [i16],
    e_run: &mut [i16],
    vmax: &mut [i16],
    first: i16,
    extend: i16,
) {
    for lane in 0..v_row.len() {
        let h_prev = h_col[lane];
        let f = (h_prev.saturating_sub(first)).max(f_col[lane].saturating_sub(extend));
        let e = (h_up[lane].saturating_sub(first)).max(e_run[lane].saturating_sub(extend));
        let h = h_diag[lane]
            .saturating_add(v_row[lane])
            .max(e)
            .max(f)
            .max(0);
        h_diag[lane] = h_prev;
        h_col[lane] = h;
        f_col[lane] = f;
        e_run[lane] = e;
        h_up[lane] = h;
        vmax[lane] = vmax[lane].max(h);
    }
}

/// Guided kernel, query-profile flavour (`simd-QP`).
pub fn sw_guided_qp(
    qp: &QueryProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    ws: &mut GuidedWorkspace,
) -> KernelOutput {
    let m = qp.query_len();
    let n = batch.padded_len();
    let lanes = batch.lanes();
    let first = gap.first() as i16;
    let extend = gap.extend as i16;
    ws.reset(m, lanes);
    let mut seqs = SeqMax::new(batch, 0, 1, 0);
    for j in 0..n {
        if j == seqs.next_col() {
            ws.refill(&mut seqs, j);
        }
        let residues = batch.row(j);
        ws.h_diag.iter_mut().for_each(|v| *v = 0);
        ws.h_up.iter_mut().for_each(|v| *v = 0);
        ws.e_run.iter_mut().for_each(|v| *v = NEG_INF_I16);
        for i in 0..m {
            let row = qp.row(i);
            // The gather: scalar indexed loads, exactly what the compiler
            // emits for `#pragma omp simd` code with indirect indexing on
            // hardware without vgather.
            for (v, &r) in ws.v_row.iter_mut().zip(residues.iter()) {
                *v = row[r as usize];
            }
            lane_step(
                &ws.v_row,
                &mut ws.h_col[i * lanes..(i + 1) * lanes],
                &mut ws.f_col[i * lanes..(i + 1) * lanes],
                &mut ws.h_diag,
                &mut ws.h_up,
                &mut ws.e_run,
                &mut ws.vmax,
                first,
                extend,
            );
        }
    }
    ws.output(seqs)
}

/// Guided kernel, sequence-profile flavour (`simd-SP`).
pub fn sw_guided_sp(
    query: &[u8],
    sp: &SequenceProfile,
    batch: &LaneBatch,
    gap: &GapPenalty,
    ws: &mut GuidedWorkspace,
) -> KernelOutput {
    assert_eq!(sp.lanes(), batch.lanes(), "profile/batch lane mismatch");
    assert_eq!(
        sp.padded_len(),
        batch.padded_len(),
        "profile/batch shape mismatch"
    );
    let m = query.len();
    let n = batch.padded_len();
    let lanes = batch.lanes();
    let first = gap.first() as i16;
    let extend = gap.extend as i16;
    ws.reset(m, lanes);
    let mut seqs = SeqMax::new(batch, 0, 1, 0);
    for j in 0..n {
        if j == seqs.next_col() {
            ws.refill(&mut seqs, j);
        }
        ws.h_diag.iter_mut().for_each(|v| *v = 0);
        ws.h_up.iter_mut().for_each(|v| *v = 0);
        ws.e_run.iter_mut().for_each(|v| *v = NEG_INF_I16);
        for (i, &q) in query.iter().enumerate() {
            let v_row = sp.row(q, j);
            lane_step(
                v_row,
                &mut ws.h_col[i * lanes..(i + 1) * lanes],
                &mut ws.f_col[i * lanes..(i + 1) * lanes],
                &mut ws.h_diag,
                &mut ws.h_up,
                &mut ws.e_run,
                &mut ws.vmax,
                first,
                extend,
            );
        }
    }
    ws.output(seqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{sw_isa_qp, sw_isa_sp, KernelIsa};
    use crate::scalar::{sw_score_scalar, SwParams};
    use sw_seq::{Alphabet, SeqId};
    use sw_swdb::batch::pad_code;

    fn setup() -> (Alphabet, SwParams) {
        (Alphabet::protein(), SwParams::paper_default())
    }

    fn make_batch(a: &Alphabet, lanes: usize, seqs: &[Vec<u8>]) -> LaneBatch {
        let refs: Vec<(SeqId, &[u8])> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| (SeqId(i as u32), s.as_slice()))
            .collect();
        LaneBatch::pack(lanes, &refs, pad_code(a))
    }

    #[test]
    fn guided_matches_scalar_and_intrinsic() {
        let (a, p) = setup();
        let query = a.encode_strict(b"MKVLITRAWQESTNHY").unwrap();
        let subjects: Vec<Vec<u8>> = [
            &b"MKVLITRAWQ"[..],
            &b"QWARTILVKM"[..],
            &b"AAAA"[..],
            &b"MKVITRWQESTNHYMKVITRWQ"[..],
        ]
        .iter()
        .map(|s| a.encode_strict(s).unwrap())
        .collect();
        let batch = make_batch(&a, 4, &subjects);
        let qp = QueryProfile::build(&query, &p.matrix, &a);
        let sp = SequenceProfile::build(&batch, &p.matrix, &a);

        let mut gws = GuidedWorkspace::new();
        let g_qp = sw_guided_qp(&qp, &batch, &p.gap, &mut gws);
        let g_sp = sw_guided_sp(&query, &sp, &batch, &p.gap, &mut gws);
        assert_eq!(g_qp, g_sp);

        let isa = KernelIsa::detect();
        let i_qp = sw_isa_qp::<4>(isa, &qp, &batch, &p.gap, None);
        let i_sp = sw_isa_sp::<4>(isa, &query, &sp, &batch, &p.gap, None);
        assert_eq!(g_qp, i_qp);
        assert_eq!(g_sp, i_sp);

        for (lane, s) in subjects.iter().enumerate() {
            assert_eq!(g_qp.scores[lane], sw_score_scalar(&query, s, &p));
        }
    }

    #[test]
    fn guided_fuzz_against_scalar() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (a, p) = setup();
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        for _ in 0..20 {
            let m = rng.gen_range(1..50);
            let query: Vec<u8> = (0..m).map(|_| rng.gen_range(0..20u8)).collect();
            let lanes = [1usize, 2, 4, 8, 16][rng.gen_range(0usize..5)];
            let n_seqs = rng.gen_range(1..=lanes);
            let subjects: Vec<Vec<u8>> = (0..n_seqs)
                .map(|_| {
                    let n = rng.gen_range(1..70);
                    (0..n).map(|_| rng.gen_range(0..20u8)).collect()
                })
                .collect();
            let batch = make_batch(&a, lanes, &subjects);
            let qp = QueryProfile::build(&query, &p.matrix, &a);
            let mut ws = GuidedWorkspace::new();
            let out = sw_guided_qp(&qp, &batch, &p.gap, &mut ws);
            for (lane, s) in subjects.iter().enumerate() {
                assert_eq!(out.scores[lane], sw_score_scalar(&query, s, &p));
            }
        }
    }

    #[test]
    fn guided_works_at_odd_lane_counts() {
        // Unlike the const-generic intrinsic kernel, the guided kernel is
        // width-agnostic — mirroring how compiler vectorization handles any
        // trip count.
        let (a, p) = setup();
        let query = a.encode_strict(b"MKVLIT").unwrap();
        let subjects = vec![a.encode_strict(b"MKVLIT").unwrap(); 3];
        let batch = make_batch(&a, 5, &subjects);
        let qp = QueryProfile::build(&query, &p.matrix, &a);
        let mut ws = GuidedWorkspace::new();
        let out = sw_guided_qp(&qp, &batch, &p.gap, &mut ws);
        assert_eq!(out.scores.len(), 3);
        for s in &out.scores {
            assert_eq!(*s, sw_score_scalar(&query, &query, &p));
        }
    }

    #[test]
    fn guided_saturation_flagged() {
        let (a, p) = setup();
        let long = vec![a.encode_byte(b'W').unwrap(); 3100];
        let batch = make_batch(&a, 2, std::slice::from_ref(&long));
        let qp = QueryProfile::build(&long, &p.matrix, &a);
        let mut ws = GuidedWorkspace::new();
        let out = sw_guided_qp(&qp, &batch, &p.gap, &mut ws);
        assert!(out.any_overflow());
    }
}
