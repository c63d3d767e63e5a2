//! Property-style tests of the core invariants, driven by seeded
//! pseudo-random case loops (the offline dependency budget excludes
//! proptest; every case here is deterministic and replayable from the
//! seed in the failure message).
//!
//! The central property is cross-variant score equivalence: every kernel
//! the paper evaluates must return exactly the scalar-reference score.
//! Around it: mathematical invariants of Smith-Waterman itself, of the
//! preprocessing/scheduling substrates, and of the dynamic dual-pool
//! scheduler (which must reproduce the static split's results exactly).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swhetero::kernels::arch::{sw_isa_qp, sw_isa_sp, KernelIsa};
use swhetero::kernels::guided::{sw_guided_qp, sw_guided_sp, GuidedWorkspace};
use swhetero::kernels::scalar::sw_score_scalar;
use swhetero::kernels::traceback::sw_align;
use swhetero::prelude::*;
use swhetero::swdb::batch::pad_code;
use swhetero::swdb::LaneBatch;

fn residues(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0u8..20)).collect()
}

fn gap_params(rng: &mut SmallRng) -> SwParams {
    let open = rng.gen_range(0i32..12);
    let extend = rng.gen_range(1i32..4);
    SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(open, extend))
}

/// All vector kernels equal the scalar reference on random batches.
#[test]
fn all_kernels_agree_with_scalar() {
    let a = Alphabet::protein();
    let mut rng = SmallRng::seed_from_u64(0xA11E);
    for case in 0..48 {
        let query = residues(&mut rng, 48);
        let n_subjects = rng.gen_range(1usize..8);
        let subjects: Vec<Vec<u8>> = (0..n_subjects).map(|_| residues(&mut rng, 64)).collect();
        let params = gap_params(&mut rng);
        let refs: Vec<(SeqId, &[u8])> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| (SeqId(i as u32), s.as_slice()))
            .collect();
        let batch = LaneBatch::pack(8, &refs, pad_code(&a));
        let qp = QueryProfile::build(&query, &params.matrix, &a);
        let sp = SequenceProfile::build(&batch, &params.matrix, &a);

        let isa = KernelIsa::detect();
        let mut gws = GuidedWorkspace::new();
        let o1 = sw_isa_qp::<8>(isa, &qp, &batch, &params.gap, None);
        let o2 = sw_isa_sp::<8>(isa, &query, &sp, &batch, &params.gap, None);
        let o3 = sw_guided_qp(&qp, &batch, &params.gap, &mut gws);
        let o4 = sw_guided_sp(&query, &sp, &batch, &params.gap, &mut gws);
        let o5 = sw_isa_qp::<8>(isa, &qp, &batch, &params.gap, Some(7));

        for (lane, s) in subjects.iter().enumerate() {
            let expect = sw_score_scalar(&query, s, &params);
            assert_eq!(
                o1.scores[lane], expect,
                "case {case} lane {lane} intrinsic-QP"
            );
            assert_eq!(
                o2.scores[lane], expect,
                "case {case} lane {lane} intrinsic-SP"
            );
            assert_eq!(o3.scores[lane], expect, "case {case} lane {lane} guided-QP");
            assert_eq!(o4.scores[lane], expect, "case {case} lane {lane} guided-SP");
            assert_eq!(
                o5.scores[lane], expect,
                "case {case} lane {lane} blocked-QP"
            );
        }
    }
}

/// SW score is symmetric under a symmetric matrix.
#[test]
fn score_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0x5E11);
    for case in 0..48 {
        let a = residues(&mut rng, 40);
        let b = residues(&mut rng, 40);
        let params = gap_params(&mut rng);
        assert_eq!(
            sw_score_scalar(&a, &b, &params),
            sw_score_scalar(&b, &a, &params),
            "case {case}"
        );
    }
}

/// Local alignment scores are never negative and never exceed the
/// perfect-diagonal upper bound.
#[test]
fn score_bounds() {
    let params = SwParams::paper_default();
    let mut rng = SmallRng::seed_from_u64(0xB0B0);
    for case in 0..48 {
        let a = residues(&mut rng, 40);
        let b = residues(&mut rng, 40);
        let s = sw_score_scalar(&a, &b, &params);
        assert!(s >= 0, "case {case}: negative score {s}");
        let bound = a.len().min(b.len()) as i64 * params.matrix.max_score() as i64;
        assert!(s <= bound, "case {case}: score {s} exceeds bound {bound}");
    }
}

/// Appending residues to the subject never lowers the score
/// (local alignment can only gain candidate segments).
#[test]
fn subject_extension_monotone() {
    let params = SwParams::paper_default();
    let mut rng = SmallRng::seed_from_u64(0x40F0);
    for case in 0..48 {
        let q = residues(&mut rng, 30);
        let s = residues(&mut rng, 30);
        let extra = residues(&mut rng, 10);
        let base = sw_score_scalar(&q, &s, &params);
        let mut longer = s.clone();
        longer.extend_from_slice(&extra);
        assert!(sw_score_scalar(&q, &longer, &params) >= base, "case {case}");
    }
}

/// Self-alignment equals the sum of diagonal scores (all BLOSUM62
/// diagonals are positive, so the perfect path has no reason to stop).
#[test]
fn self_alignment_is_diagonal_sum() {
    let params = SwParams::paper_default();
    let mut rng = SmallRng::seed_from_u64(0xD1A6);
    for case in 0..48 {
        let q = residues(&mut rng, 40);
        let expect: i64 = q.iter().map(|&r| params.matrix.score(r, r) as i64).sum();
        assert_eq!(sw_score_scalar(&q, &q, &params), expect, "case {case}");
    }
}

/// Traceback consistency: recomputing the alignment path's score
/// reproduces the reported score, and ranges are in bounds.
#[test]
fn traceback_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x7BAC);
    for case in 0..48 {
        let q = residues(&mut rng, 32);
        let s = residues(&mut rng, 32);
        let params = gap_params(&mut rng);
        if let Some(al) = sw_align(&q, &s, &params) {
            assert_eq!(al.recompute_score(&q, &s, &params), al.score, "case {case}");
            assert_eq!(al.score, sw_score_scalar(&q, &s, &params), "case {case}");
            assert!(al.query_range.1 <= q.len(), "case {case}");
            assert!(al.subject_range.1 <= s.len(), "case {case}");
            assert!(al.query_range.0 <= al.query_range.1, "case {case}");
        } else {
            assert_eq!(sw_score_scalar(&q, &s, &params), 0, "case {case}");
        }
    }
}

/// Engine-level: hits cover every sequence exactly once and come back
/// sorted, for random small databases.
#[test]
fn engine_hit_set_is_a_sorted_permutation() {
    let alphabet = Alphabet::protein();
    let engine = SearchEngine::paper_default();
    let mut rng = SmallRng::seed_from_u64(0xE46E);
    for case in 0..24u64 {
        let n = rng.gen_range(1usize..25);
        let mut g = swhetero::seq::gen::SwissProtGen::new(50.0, case);
        let seqs: Vec<EncodedSeq> = (0..n)
            .map(|i| g.sequence(&format!("s{i}"), rng.gen_range(1u32..60)))
            .collect();
        let db = PreparedDb::prepare(seqs, 4, &alphabet);
        let query = g.sequence("q", 30);
        let res = engine.search(&query.residues, &db, &SearchConfig::best(1));
        assert_eq!(res.hits.len(), n, "case {case}");
        let mut ids: Vec<u32> = res.hits.iter().map(|h| h.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "case {case}");
        assert!(
            res.hits.windows(2).all(|w| w[0].score >= w[1].score),
            "case {case}"
        );
    }
}

/// The dynamic dual-pool scheduler returns hit lists *identical* to the
/// static-split search — same ids, same scores, same order — for random
/// databases, seed fractions, and worker counts.
#[test]
fn dynamic_scheduler_matches_static_split() {
    let alphabet = Alphabet::protein();
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let mut rng = SmallRng::seed_from_u64(0xDC4A);
    for case in 0..16u64 {
        let n = rng.gen_range(1usize..40);
        let mut g = swhetero::seq::gen::SwissProtGen::new(60.0, case);
        let seqs: Vec<EncodedSeq> = (0..n)
            .map(|i| g.sequence(&format!("s{i}"), rng.gen_range(1u32..120)))
            .collect();
        let db = PreparedDb::prepare(seqs, 4, &alphabet);
        let query = g.sequence("q", rng.gen_range(8u32..64)).residues;
        let frac = rng.gen_range(0.0f64..1.0);
        let plan = hetero.plan_split(&db, query.len(), frac);
        let cfg = SearchConfig::best(1);
        let static_res = hetero.search(&query, &db, &plan, &cfg, &cfg);
        let cpu_workers = rng.gen_range(1usize..4);
        let accel_workers = rng.gen_range(1usize..4);
        let dyn_cfg = HeteroSearchConfig::best(cpu_workers, accel_workers);
        let dynamic = hetero.search_dynamic(&query, &db, &plan, &dyn_cfg);
        assert_eq!(
            dynamic.results.hits, static_res.hits,
            "case {case}: frac {frac:.3}, workers {cpu_workers}+{accel_workers}"
        );
    }
}

/// Batching invariant: every sequence appears in exactly one batch,
/// padding is never counted as real cells, only batch 0 may be partial,
/// and the padded cells are the minimum any one-sequence-per-lane
/// grouping can reach — never more than the paper model's grouping.
#[test]
fn batching_conserves_sequences() {
    use swhetero::core::prepare::shapes_from_lengths;
    let alphabet = Alphabet::protein();
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    for case in 0..32 {
        let n = rng.gen_range(1usize..40);
        let lanes = rng.gen_range(1usize..33);
        let mut g = swhetero::seq::gen::SwissProtGen::new(50.0, 3);
        let seqs: Vec<EncodedSeq> = (0..n)
            .map(|i| g.sequence(&format!("s{i}"), rng.gen_range(1u32..200)))
            .collect();
        let total_res: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        let sorted = SortedDb::new(SequenceDatabase::from_sequences(seqs));
        let batches = LaneBatcher::new(lanes, &alphabet).batch(&sorted);
        let seen: usize = batches.iter().map(|b| b.n_seqs()).sum();
        assert_eq!(seen, n, "case {case}");
        let real: u64 = batches.iter().map(|b| b.real_cells(1)).sum();
        assert_eq!(real, total_res, "case {case}");
        let padded: u64 = batches.iter().map(|b| b.padded_cells(1)).sum();
        assert!(padded >= real, "case {case}");
        // The k-th most expensive batch of one sequence per lane pads to
        // at least sorted rank n − 1 − kL; lane refill never pads more.
        let one_per_lane: u64 = (0..n)
            .rev()
            .step_by(lanes)
            .map(|rank| (lanes * sorted.len_at(rank)) as u64)
            .sum();
        assert!(padded <= one_per_lane, "case {case}: lanes {lanes}, n {n}");
        let lens: Vec<u32> = (0..n).map(|r| sorted.len_at(r) as u32).collect();
        let model: u64 = shapes_from_lengths(&lens, lanes, 1)
            .iter()
            .map(|s| s.padded_cells())
            .sum();
        assert!(padded <= model, "case {case}: lanes {lanes}, n {n}");
        assert!(
            batches[1..].iter().all(|b| b.occupied_lanes() == lanes),
            "case {case}: only batch 0 may leave lanes empty"
        );
    }
}

/// Scheduling invariant: for any cost vector and worker count, the
/// simulated makespan respects the lower bound and conserves work.
#[test]
fn desim_respects_bounds() {
    use swhetero::sched::desim::{makespan_lower_bound, simulate};
    let mut rng = SmallRng::seed_from_u64(0xDE51);
    for case in 0..32 {
        let n = rng.gen_range(1usize..200);
        let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..10.0)).collect();
        let workers = rng.gen_range(1usize..64);
        for policy in [Policy::Static, Policy::dynamic(), Policy::guided()] {
            let r = simulate(&costs, workers, policy);
            let total: f64 = costs.iter().sum();
            assert!(
                (r.total_busy() - total).abs() < 1e-6 * total.max(1.0),
                "case {case}"
            );
            assert!(
                r.makespan >= makespan_lower_bound(&costs, workers) - 1e-9,
                "case {case}: makespan below bound"
            );
            assert!(r.makespan <= total + 1e-9, "case {case}");
        }
    }
}

/// Split invariant: for any fraction, the two shares partition the
/// lengths and accel takes the suffix of the sorted order.
#[test]
fn hetero_split_partitions() {
    use swhetero::core::simulate::split_lengths;
    let mut rng = SmallRng::seed_from_u64(0x5B11);
    for case in 0..48 {
        let n = rng.gen_range(1usize..300);
        let lens: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..5000)).collect();
        let frac = rng.gen_range(0.0f64..1.0);
        let (cpu, accel) = split_lengths(&lens, frac);
        assert_eq!(cpu.len() + accel.len(), lens.len(), "case {case}");
        let total: u64 = lens.iter().map(|&l| l as u64).sum();
        let got: u64 = cpu.iter().chain(accel.iter()).map(|&l| l as u64).sum();
        assert_eq!(got, total, "case {case}");
        // Every accel sequence is at least as long as every cpu sequence
        // (suffix of the sorted order).
        if let (Some(&cpu_max), Some(&accel_min)) = (cpu.last(), accel.first()) {
            assert!(accel_min >= cpu_max, "case {case}");
        }
    }
}
