//! Differential suite for the inter-task kernels (`sw_kernels::arch`).
//!
//! Every instantiation of the sweep the dispatcher can select — portable,
//! SSE2, AVX2 — must produce **identical** results for identical inputs:
//! the scores *and* the overflow/saturation flags, for every flavour (QP,
//! SP, fused SP), both element widths (i16/i8), every supported lane
//! width, blocked and unblocked, and for the adaptive i8→i16 cascade.
//! They all share one body, so agreement among them proves little; each
//! output is instead compared with what the scalar reference
//! (`sw_score_scalar`) says it must be — the exact score where it fits
//! the element type, the type's `MAX` and a raised flag where it does not.
//!
//! The inputs deliberately include single-lane and partial batches
//! (padding lanes in play), mixed lengths, lanes that score zero, a gap
//! that spans a row-block boundary, scores forced past both element
//! widths, and sequences tuned to land *exactly* on `i8::MAX` /
//! `i16::MAX` — the boundary where a capped score is indistinguishable
//! from an exact one and only the flag tells.

use sw_kernels::arch::{self, KernelIsa};
use sw_kernels::intertask::{CascadeStats, KernelOutput, NarrowOutput};
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

/// What an i16 kernel must return for `subjects`, by the scalar
/// reference: a lane is exact below `i16::MAX`, capped and flagged from
/// there on.
fn expect_i16(p: &SwParams, query: &[u8], subjects: &[Vec<u8>]) -> KernelOutput {
    let exact: Vec<i64> = subjects
        .iter()
        .map(|s| sw_score_scalar(query, s, p))
        .collect();
    KernelOutput {
        scores: exact.iter().map(|&s| s.min(i16::MAX as i64)).collect(),
        overflowed: exact.iter().map(|&s| s >= i16::MAX as i64).collect(),
    }
}

/// As [`expect_i16`] for the narrow kernels, from the exact scores of the
/// lanes that fit i16 (`wide`; a lane past i16 is past i8 as well).
fn expect_i8(wide: &KernelOutput) -> NarrowOutput {
    NarrowOutput {
        scores: wide.scores.iter().map(|&s| s.min(i8::MAX as i64)).collect(),
        saturated: wide.scores.iter().map(|&s| s >= i8::MAX as i64).collect(),
    }
}

/// Run every kernel flavour at lane width `L` under every available ISA,
/// blocked and unblocked, and pin each output — scores, flags and cascade
/// statistics — to the scalar reference.
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
    let table = ScoreTable::build(&p.matrix, a);
    let want = expect_i16(p, query, subjects);
    let m = query.len();
    for isa in isas() {
        for block in [None, Some(1), Some(7), Some(m), Some(m + 3)] {
            let o = arch::sw_isa_qp::<L>(isa, &qp, &batch, &p.gap, block);
            assert_eq!(o, want, "{label}: qp i16 {isa} block {block:?}");
            let o = arch::sw_isa_sp::<L>(isa, query, &sp, &batch, &p.gap, block);
            assert_eq!(o, want, "{label}: sp i16 {isa} block {block:?}");
            let o = arch::sw_isa_fused_sp::<L>(isa, query, &table, &batch, &p.gap, block);
            assert_eq!(o, want, "{label}: fused sp i16 {isa} block {block:?}");
        }
    }
    check_cascade::<L>(a, p, query, subjects, label);
}

/// The narrow half of [`check_width`]: both i8 kernels and both i8 → i16
/// cascades under every available ISA.
fn check_cascade<const L: usize>(
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
    let want = expect_i16(p, query, subjects);
    let want8 = expect_i8(&want);
    let widened = want8.saturated.iter().filter(|&&s| s).count() as u64;
    let want_ad = (
        want,
        CascadeStats {
            settled_i8: subjects.len() as u64 - widened,
            widened_i16: widened,
        },
    );
    for isa in isas() {
        let o = arch::sw_isa_narrow_qp::<L>(isa, &qp8, &batch, &p.gap);
        assert_eq!(o, want8, "{label}: qp i8 {isa}");
        let o = arch::sw_isa_narrow_sp::<L>(isa, query, &sp8, &batch, &p.gap);
        assert_eq!(o, want8, "{label}: sp i8 {isa}");
        let o = arch::sw_isa_adaptive_qp::<L>(isa, &qp, &qp8, &batch, &p.gap);
        assert_eq!(o, want_ad, "{label}: adaptive qp {isa}");
        let o = arch::sw_isa_adaptive_sp::<L>(isa, query, &sp, &sp8, &batch, &p.gap);
        assert_eq!(o, want_ad, "{label}: adaptive sp {isa}");
    }
}

/// [`check_width`] at all four lane widths, each on as many of `subjects`
/// as fit one batch.
fn check_all_widths(a: &Alphabet, p: &SwParams, query: &[u8], subjects: &[Vec<u8>], label: &str) {
    let n = subjects.len();
    check_width::<4>(a, p, query, &subjects[..n.min(4)], &format!("{label} L4"));
    check_width::<8>(a, p, query, &subjects[..n.min(8)], &format!("{label} L8"));
    check_width::<16>(a, p, query, &subjects[..n.min(16)], &format!("{label} L16"));
    check_width::<32>(a, p, query, &subjects[..n.min(32)], &format!("{label} L32"));
}

/// The batch shapes the per-kernel unit suites used to probe one by one:
/// a single real lane, a full batch, a partial batch (pad lanes), lanes
/// of very different lengths (pad tails must never leak score), lanes
/// with no positive match at all (exactly 0), and every lane of the two
/// widest vectors in use.
#[test]
fn hand_picked_batch_shapes_all_widths() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let check = |label: &str, query: &[u8], subjects: &[&[u8]]| {
        let query = a.encode_strict(query).unwrap();
        let subjects: Vec<Vec<u8>> = subjects
            .iter()
            .map(|s| a.encode_strict(s).unwrap())
            .collect();
        check_all_widths(&a, &p, &query, &subjects, label);
    };
    check("single lane", b"MKVLITRAW", &[b"MKVLITRAW"]);
    check(
        "full batch of four",
        b"MKVLITRAWQ",
        &[b"MKVLITRAWQ", b"QWARTILVKM", b"AAAA", b"MKVITRWQ"],
    );
    check(
        "partial batch",
        b"ARNDCQEGHILK",
        &[b"ARND", b"CQEGHILK", b"WWWWWWWWWWWW"],
    );
    check(
        "mixed lengths",
        b"MKVLITRAWQESTNHYFPG",
        &[b"M", b"MKVLITRAWQESTNHYFPG", b"PP", b"MKVLITRAW"],
    );
    check(
        "zero-score lanes",
        b"WWWW",
        &[b"PPPP", b"GGGG", b"WWWW", b"PGPG"],
    );
    let query = a.encode_strict(b"MKVLITRAW").unwrap();
    let same = vec![a.encode_strict(b"MKRLIW").unwrap(); 32];
    check_all_widths(&a, &p, &query, &same, "every lane live");
}

/// Cheap gaps force a long vertical gap across row-block boundaries: the
/// boundary `E` row must carry the extension state correctly. Query:
/// motif, 20 junk rows, motif again; subject: motif twice. `check_width`
/// runs blocks of 1, 7, `m` and `> m` rows beside the unblocked sweep.
#[test]
fn gap_spanning_block_boundary() {
    let a = Alphabet::protein();
    let p = SwParams::new(
        sw_seq::SubstMatrix::blosum62(),
        sw_seq::GapPenalty::new(2, 1),
    );
    let mut qtext = b"MKVLITRAW".to_vec();
    qtext.extend_from_slice(&[b'G'; 20]);
    qtext.extend_from_slice(b"MKVLITRAW");
    let query = a.encode_strict(&qtext).unwrap();
    let subject = a.encode_strict(b"MKVLITRAWMKVLITRAW").unwrap();
    let gapless = sw_score_scalar(&query[..9], &subject[..9], &p);
    assert!(
        sw_score_scalar(&query, &subject, &p) > gapless,
        "construction: the best alignment bridges the junk rows with a gap"
    );
    check_all_widths(&a, &p, &query, &[subject], "bridged gap");
}

/// Scores forced past both element widths in one batch: at +127 per
/// match, one lane settles in i8 (no match at all), one sits exactly on
/// `i8::MAX` (one match), one needs i16 (three), one saturates even that
/// (259 matches ≈ 32 900). The cascade must keep the narrow score for the
/// first, widen the next two, flag the last — under every ISA, pinned to
/// the scalar reference — and the i64 rescue must then make the flagged
/// lane exact. (Narrow kernels and cascades only, at the widths where an
/// x86 body runs one of the two passes: the sweep is large.)
#[test]
fn cascade_is_exact_on_forced_overflow() {
    let a = Alphabet::protein();
    let p = SwParams::new(
        sw_seq::SubstMatrix::match_mismatch(&a, 127, -127),
        SwParams::paper_default().gap,
    );
    let w = a.encode_byte(b'W').unwrap();
    let g = a.encode_byte(b'G').unwrap();
    let query = vec![w; 259];
    let subjects = vec![vec![g; 5], vec![g, w, g], vec![w; 3], vec![w; 259]];
    let want = expect_i16(&p, &query, &subjects);
    assert_eq!(want.scores, [0, 127, 381, i16::MAX as i64]);
    assert_eq!(want.overflowed, [false, false, false, true]);
    check_cascade::<8>(&a, &p, &query, &subjects, "forced overflow L8");
    check_cascade::<16>(&a, &p, &query, &subjects, "forced overflow L16");
    check_cascade::<32>(&a, &p, &query, &subjects, "forced overflow L32");

    let batch = make_batch(16, &a, &subjects);
    let sp = SequenceProfile::build(&batch, &p.matrix, &a);
    let sp8 = SequenceProfileI8::from_wide(&sp);
    let lane_seqs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
    let (mut out, stats) =
        arch::sw_isa_adaptive_sp::<16>(KernelIsa::detect(), &query, &sp, &sp8, &batch, &p.gap);
    assert_eq!((stats.settled_i8, stats.widened_i16), (1, 3));
    let rescue = sw_kernels::overflow::rescue_overflows(&mut out, &query, &batch, &lane_seqs, &p);
    assert_eq!(rescue.lanes_rescued, 1);
    assert_eq!(out.scores, [0, 127, 381, 259 * 127]);
    assert!(!out.any_overflow());
}

/// Misuse is refused by every instantiation, not only the x86 ones: a
/// batch packed for another lane width, and a zero row-block size.
#[test]
fn lane_width_mismatch_and_zero_block_rows_panic() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let q = a.encode_strict(b"MKV").unwrap();
    let qp = QueryProfile::build(&q, &p.matrix, &a);
    let b8 = make_batch(8, &a, std::slice::from_ref(&q));
    let b16 = make_batch(16, &a, std::slice::from_ref(&q));
    let panics = |f: &dyn Fn() -> KernelOutput| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    };
    for isa in isas() {
        assert!(
            panics(&|| arch::sw_isa_qp::<8>(isa, &qp, &b16, &p.gap, None)),
            "{isa}: 16-lane batch into the 8-lane kernel"
        );
        assert!(
            panics(&|| arch::sw_isa_qp::<16>(isa, &qp, &b8, &p.gap, None)),
            "{isa}: 8-lane batch into the 16-lane kernel"
        );
        assert!(
            panics(&|| arch::sw_isa_qp::<8>(isa, &qp, &b8, &p.gap, Some(0))),
            "{isa}: block_rows = 0"
        );
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
        check_all_widths(&a, &p, &query, &subjects, &format!("r{round}"));
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
        check_all_widths(&a, &p, &query, &subjects, &format!("all r{round}"));
    }
}

/// A matrix whose scores do not fit `i8` has no shuffle rows: the fused
/// dispatcher must materialise the profile and still agree with the
/// scalar reference under every ISA (scores here overflow i16 for the
/// long pair, so the flags are compared too).
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
    let want = expect_i16(&p, &query, &subjects);
    assert!(want.overflowed[5], "the long pair saturates");
    for isa in isas() {
        let b8 = make_batch(8, &a, &subjects);
        let o = arch::sw_isa_fused_sp::<8>(isa, &query, &table, &b8, &p.gap, Some(7));
        assert_eq!(o, want, "{isa} L8");
        let b16 = make_batch(16, &a, &subjects);
        let o = arch::sw_isa_fused_sp::<16>(isa, &query, &table, &b16, &p.gap, None);
        assert_eq!(o, want, "{isa} L16");
    }
}

/// Eleven Ws and one G self-align to 11·11 + 6 = 127 = `i8::MAX` exactly.
/// A lane at exactly 127 is indistinguishable from a capped one, so every
/// narrow kernel must both report 127 *and* raise the saturation flag,
/// and the cascade must widen the lane and still return the exact score.
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
    let want = expect_i16(&p, &seq, &subjects);
    assert_eq!(
        want.scores[0],
        i8::MAX as i64,
        "construction lands on i8::MAX"
    );
    assert!(!want.overflowed[0], "127 fits comfortably in i16");
    let want8 = expect_i8(&want);
    assert!(want8.saturated[0], "exact i8::MAX must be flagged");
    assert!(!want8.saturated[1], "unsaturated lane must stay clean");
    // 16 and 32 lanes are SSE2's and AVX2's native i8 widths.
    check_all_widths(&a, &p, &seq, &subjects, "i8::MAX");
}

/// 1057 matches at +31 self-align to 32 767 = `i16::MAX` exactly: the wide
/// kernels must flag the lane as overflowed under every ISA, the cascade
/// must pass the flag on, and the i64 rescue must agree with the scalar
/// reference (a few passes per native width — kept lean, the sweep is
/// large).
#[test]
fn i16_max_boundary_flags_identical_across_isas() {
    let a = Alphabet::protein();
    let p = SwParams::new(
        sw_seq::SubstMatrix::match_mismatch(&a, 31, -31),
        SwParams::paper_default().gap,
    );
    let seq = vec![a.encode_byte(b'W').unwrap(); 1057];
    let subjects = vec![seq.clone()];
    let want = expect_i16(&p, &seq, &subjects);
    assert_eq!(
        sw_score_scalar(&seq, &seq, &p),
        i16::MAX as i64,
        "construction lands on i16::MAX"
    );
    assert!(want.overflowed[0], "exact i16::MAX must be flagged");
    let qp = QueryProfile::build(&seq, &p.matrix, &a);
    let table = ScoreTable::build(&p.matrix, &a);
    let b8 = make_batch(8, &a, &subjects);
    let b16 = make_batch(16, &a, &subjects);
    let sp = SequenceProfile::build(&b16, &p.matrix, &a);
    let sp8 = SequenceProfileI8::from_wide(&sp);

    for isa in isas() {
        let o = arch::sw_isa_qp::<8>(isa, &qp, &b8, &p.gap, None);
        assert_eq!(o, want, "{isa} qp at L=8");
        let o = arch::sw_isa_fused_sp::<8>(isa, &seq, &table, &b8, &p.gap, Some(100));
        assert_eq!(o, want, "{isa} fused at L=8");
        let o = arch::sw_isa_fused_sp::<16>(isa, &seq, &table, &b16, &p.gap, None);
        assert_eq!(o, want, "{isa} fused at L=16");
        let (mut o, stats) = arch::sw_isa_adaptive_sp::<16>(isa, &seq, &sp, &sp8, &b16, &p.gap);
        assert_eq!(o, want, "{isa} cascade at L=16");
        assert_eq!(stats.widened_i16, 1, "{isa}");
        let rescue = sw_kernels::overflow::rescue_overflows(&mut o, &seq, &b16, &[&seq], &p);
        assert_eq!(rescue.lanes_rescued, 1, "{isa}");
        assert_eq!(
            o.scores[0],
            i16::MAX as i64,
            "{isa}: rescue agrees with scalar"
        );
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
