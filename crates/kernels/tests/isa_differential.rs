//! Differential suite for the intrinsic tier (`sw_kernels::arch`).
//!
//! Every ISA the dispatcher can select — portable, SSE2, AVX2 — must
//! produce **identical** results for identical inputs: the scores *and*
//! the overflow/saturation flags, for both profile flavours (QP/SP), both
//! element widths (i16/i8), every supported lane width, blocked and
//! unblocked, and for the adaptive i8→i16 cascade. The portable kernels
//! are additionally pinned to the scalar reference on non-overflowed
//! lanes, so agreement here is agreement with ground truth.
//!
//! The fused SP kernel (`sw_isa_fused_sp`, the default search path) is
//! one more flavour of every such comparison: it must equal `sw_isa_sp`
//! over the materialised profile of the same batch — where its intrinsic
//! bodies engage (8/16 lanes on SSE2/AVX2) and where it falls back.
//!
//! The inputs deliberately include mixed-length batches (padding lanes in
//! play), batches with fewer sequences than lanes, and sequences tuned to
//! land *exactly* on `i8::MAX` / `i16::MAX` — the boundary where a capped
//! score is indistinguishable from an exact one and only the flag tells.

use sw_kernels::arch::{self, KernelIsa};
use sw_kernels::{sw_score_scalar, SwParams};
use sw_seq::{Alphabet, SeqId};
use sw_swdb::batch::pad_code;
use sw_swdb::{
    LaneBatch, QueryProfile, QueryProfileI8, ScoreTable, SequenceProfile, SequenceProfileI8,
};

/// Deterministic LCG so failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn seq(&mut self, a: &Alphabet, len: usize) -> Vec<u8> {
        const LETTERS: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
        let raw: Vec<u8> = (0..len)
            .map(|_| LETTERS[(self.next() as usize) % LETTERS.len()])
            .collect();
        a.encode_strict(&raw).unwrap()
    }

    /// Codes drawn from the whole alphabet — `B Z X *` (codes 20–23)
    /// included, so codes 16–23 exercise the high shuffle half.
    fn seq_all_codes(&mut self, a: &Alphabet, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| (self.next() as usize % a.len()) as u8)
            .collect()
    }
}

fn make_batch(lanes: usize, a: &Alphabet, seqs: &[Vec<u8>]) -> LaneBatch {
    let refs: Vec<(SeqId, &[u8])> = seqs
        .iter()
        .enumerate()
        .map(|(i, s)| (SeqId(i as u32), s.as_slice()))
        .collect();
    LaneBatch::pack(lanes, &refs, pad_code(a))
}

fn isas() -> Vec<KernelIsa> {
    [KernelIsa::Portable, KernelIsa::Sse2, KernelIsa::Avx2]
        .into_iter()
        .filter(|i| i.is_available())
        .collect()
}

/// Run every kernel flavour at lane width `L` under every available ISA
/// and assert bit-identical outputs; pin portable to the scalar reference.
fn check_width<const L: usize>(
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    subjects: &[Vec<u8>],
    label: &str,
) {
    let batch = make_batch(L, a, subjects);
    let qp = QueryProfile::build(query, &p.matrix, a);
    let sp = SequenceProfile::build(&batch, &p.matrix, a);
    let qp8 = QueryProfileI8::from_wide(&qp);
    let sp8 = SequenceProfileI8::from_wide(&sp);
    let table = ScoreTable::build(&p.matrix, a);

    let base = arch::sw_isa_qp::<L>(KernelIsa::Portable, &qp, &batch, &p.gap, None);
    for (lane, s) in subjects.iter().enumerate() {
        if !base.overflowed[lane] {
            assert_eq!(
                base.scores[lane],
                sw_score_scalar(query, s, p),
                "{label}: portable lane {lane} vs scalar reference"
            );
        }
    }
    let base8 = arch::sw_isa_narrow_qp::<L>(KernelIsa::Portable, &qp8, &batch, &p.gap);
    let base_ad = arch::sw_isa_adaptive_qp::<L>(KernelIsa::Portable, &qp, &qp8, &batch, &p.gap);

    for isa in isas() {
        for block in [None, Some(1), Some(7), Some(query.len() + 3)] {
            let o = arch::sw_isa_qp::<L>(isa, &qp, &batch, &p.gap, block);
            assert_eq!(o, base, "{label}: qp i16 {isa} block {block:?}");
            let o = arch::sw_isa_sp::<L>(isa, query, &sp, &batch, &p.gap, block);
            assert_eq!(o, base, "{label}: sp i16 {isa} block {block:?}");
            let o = arch::sw_isa_fused_sp::<L>(isa, query, &table, &batch, &p.gap, block);
            assert_eq!(o, base, "{label}: fused sp i16 {isa} block {block:?}");
        }
        let o = arch::sw_isa_narrow_qp::<L>(isa, &qp8, &batch, &p.gap);
        assert_eq!(o, base8, "{label}: qp i8 {isa}");
        let o = arch::sw_isa_narrow_sp::<L>(isa, query, &sp8, &batch, &p.gap);
        assert_eq!(o, base8, "{label}: sp i8 {isa}");
        let o = arch::sw_isa_adaptive_qp::<L>(isa, &qp, &qp8, &batch, &p.gap);
        assert_eq!(o, base_ad, "{label}: adaptive qp {isa}");
        let o = arch::sw_isa_adaptive_sp::<L>(isa, query, &sp, &sp8, &batch, &p.gap);
        assert_eq!(o, base_ad, "{label}: adaptive sp {isa}");
    }
}

#[test]
fn fuzz_mixed_length_batches_all_widths() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let mut rng = Rng(0x5eed_5eed);
    for round in 0..3 {
        let qlen = 8 + (rng.next() as usize) % 40;
        let query = rng.seq(&a, qlen);
        // Mixed lengths (1..=60) and deliberately fewer sequences than the
        // widest lane count, so padding lanes and short tails are live.
        let n_seqs = 1 + (rng.next() as usize) % 24;
        let subjects: Vec<Vec<u8>> = (0..n_seqs)
            .map(|_| {
                let len = 1 + (rng.next() as usize) % 60;
                rng.seq(&a, len)
            })
            .collect();
        check_width::<4>(
            &a,
            &p,
            &query,
            &subjects[..n_seqs.min(4)],
            &format!("r{round} L4"),
        );
        check_width::<8>(
            &a,
            &p,
            &query,
            &subjects[..n_seqs.min(8)],
            &format!("r{round} L8"),
        );
        check_width::<16>(
            &a,
            &p,
            &query,
            &subjects[..n_seqs.min(16)],
            &format!("r{round} L16"),
        );
        check_width::<32>(&a, &p, &query, &subjects, &format!("r{round} L32"));
    }
}

/// Ragged batches over the *whole* alphabet: a partial last batch (fewer
/// sequences than lanes → pad lanes), length-1 sequences beside long
/// ones (pad tails), queries and subjects using all 24 codes. The fused
/// kernel's two shuffle halves, its pad column and its present-code set
/// are all live; `check_width` compares it with `sw_isa_sp`, the other
/// flavours and the scalar reference at every lane width.
#[test]
fn fused_kernel_over_the_whole_alphabet_and_ragged_batches() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let mut rng = Rng(0xf00d_cafe);
    let all: Vec<u8> = (0..a.len() as u8).collect();
    for round in 0..3 {
        // Round 0: the query holds every code once; later rounds draw a
        // subset, so some codes are absent from the present-code set.
        let query = if round == 0 {
            all.clone()
        } else {
            rng.seq_all_codes(&a, 5 + round * 9)
        };
        let mut subjects: Vec<Vec<u8>> = vec![all.clone(), vec![23], vec![16]];
        for _ in 0..(2 + round * 5) {
            let len = 1 + (rng.next() as usize) % 50;
            subjects.push(rng.seq_all_codes(&a, len));
        }
        let n = subjects.len();
        check_width::<4>(&a, &p, &query, &subjects[..4], &format!("all r{round} L4"));
        check_width::<8>(
            &a,
            &p,
            &query,
            &subjects[..n.min(8)],
            &format!("all r{round} L8"),
        );
        check_width::<16>(
            &a,
            &p,
            &query,
            &subjects[..n.min(16)],
            &format!("all r{round} L16"),
        );
        check_width::<32>(&a, &p, &query, &subjects, &format!("all r{round} L32"));
    }
}

/// A matrix whose scores do not fit `i8` has no shuffle rows: the fused
/// dispatcher must materialise the profile and agree with `sw_isa_sp`
/// and the scalar reference under every ISA (scores here overflow i16
/// for the long pair, so the flags are compared too).
#[test]
fn fused_dispatcher_falls_back_when_scores_do_not_fit_i8() {
    let a = Alphabet::protein();
    let p = SwParams::new(
        sw_seq::SubstMatrix::match_mismatch(&a, 200, -200),
        SwParams::paper_default().gap,
    );
    let table = ScoreTable::build(&p.matrix, &a);
    assert!(table.rows().is_none());
    let mut rng = Rng(0xbead);
    let query = rng.seq_all_codes(&a, 170);
    let mut subjects: Vec<Vec<u8>> = (0..5).map(|i| rng.seq_all_codes(&a, 3 + 7 * i)).collect();
    subjects.push(query.clone()); // 170 · 200 > i16::MAX
    let check = |isa: KernelIsa, lanes: usize, o: sw_kernels::intertask::KernelOutput| {
        assert!(o.overflowed[5], "{isa} L{lanes}: the long pair saturates");
        for (lane, s) in subjects.iter().enumerate() {
            if !o.overflowed[lane] {
                assert_eq!(
                    o.scores[lane],
                    sw_score_scalar(&query, s, &p),
                    "{isa} L{lanes}"
                );
            }
        }
    };
    for isa in isas() {
        let b8 = make_batch(8, &a, &subjects);
        let sp = SequenceProfile::build(&b8, &p.matrix, &a);
        let o = arch::sw_isa_fused_sp::<8>(isa, &query, &table, &b8, &p.gap, Some(7));
        assert_eq!(
            o,
            arch::sw_isa_sp::<8>(isa, &query, &sp, &b8, &p.gap, Some(7))
        );
        check(isa, 8, o);
        let b16 = make_batch(16, &a, &subjects);
        let sp = SequenceProfile::build(&b16, &p.matrix, &a);
        let o = arch::sw_isa_fused_sp::<16>(isa, &query, &table, &b16, &p.gap, None);
        assert_eq!(
            o,
            arch::sw_isa_sp::<16>(isa, &query, &sp, &b16, &p.gap, None)
        );
        check(isa, 16, o);
    }
}

/// Eleven Ws and one G self-align to 11·11 + 6 = 127 = `i8::MAX` exactly:
/// every ISA must both report 127 *and* raise the saturation flag.
#[test]
fn i8_max_boundary_flags_identical_across_isas() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let w = a.encode_byte(b'W').unwrap();
    let g = a.encode_byte(b'G').unwrap();
    let mut seq = vec![w; 11];
    seq.push(g);
    let short = a.encode_strict(b"MKVLITRAW").unwrap();
    let subjects = vec![seq.clone(), short];
    let qp8 = QueryProfileI8::from_wide(&QueryProfile::build(&seq, &p.matrix, &a));

    for isa in isas() {
        // SSE2's native i8 width (16) and AVX2's (32).
        let b16 = make_batch(16, &a, &subjects);
        let o16 = arch::sw_isa_narrow_qp::<16>(isa, &qp8, &b16, &p.gap);
        let b32 = make_batch(32, &a, &subjects);
        let o32 = arch::sw_isa_narrow_qp::<32>(isa, &qp8, &b32, &p.gap);
        for o in [&o16, &o32] {
            assert_eq!(o.scores[0], 127, "{isa}");
            assert!(o.saturated[0], "{isa}: exact i8::MAX must be flagged");
            assert!(!o.saturated[1], "{isa}: unsaturated lane must stay clean");
        }
    }
}

/// 2975 Ws and seven Gs self-align to 2975·11 + 7·6 = 32 767 = `i16::MAX`
/// exactly: the wide kernels must flag the lane as overflowed under every
/// ISA (one i16 pass per native width — kept lean, the sweep is large).
#[test]
fn i16_max_boundary_flags_identical_across_isas() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let w = a.encode_byte(b'W').unwrap();
    let g = a.encode_byte(b'G').unwrap();
    let mut seq = vec![w; 2975];
    seq.extend(std::iter::repeat_n(g, 7));
    let subjects = vec![seq.clone()];
    let qp = QueryProfile::build(&seq, &p.matrix, &a);
    let table = ScoreTable::build(&p.matrix, &a);

    let b8 = make_batch(8, &a, &subjects);
    let base = arch::sw_isa_qp::<8>(KernelIsa::Portable, &qp, &b8, &p.gap, None);
    assert_eq!(base.scores[0], i16::MAX as i64);
    assert!(base.overflowed[0], "exact i16::MAX must be flagged");

    for isa in isas() {
        if isa == KernelIsa::Portable {
            continue;
        }
        let o = arch::sw_isa_qp::<8>(isa, &qp, &b8, &p.gap, None);
        assert_eq!(o, base, "{isa} at L=8");
        let o = arch::sw_isa_fused_sp::<8>(isa, &seq, &table, &b8, &p.gap, None);
        assert_eq!(o, base, "{isa} fused at L=8");
        if isa == KernelIsa::Avx2 {
            let b16 = make_batch(16, &a, &subjects);
            let o = arch::sw_isa_qp::<16>(isa, &qp, &b16, &p.gap, None);
            let pb = arch::sw_isa_qp::<16>(KernelIsa::Portable, &qp, &b16, &p.gap, None);
            assert_eq!(o, pb, "avx2 at its native L=16");
            assert!(o.overflowed[0]);
            let o = arch::sw_isa_fused_sp::<16>(isa, &seq, &table, &b16, &p.gap, None);
            assert_eq!(o, pb, "avx2 fused at its native L=16");
        }
    }
}

/// The detected ISA must be available, and forcing portable must always
/// be accepted — the pair the CLI's `--kernel-isa` flag relies on.
#[test]
fn detection_sanity() {
    assert!(KernelIsa::detect().is_available());
    assert!(KernelIsa::Portable.is_available());
    assert_eq!(KernelIsa::from_name("AVX2"), Some(KernelIsa::Avx2));
    assert_eq!(KernelIsa::from_name("nope"), None);
}
