//! Differential suite for the inter-task kernels (`sw_kernels::arch`).
//!
//! Every instantiation of the sweep the dispatcher can select — portable,
//! SSE2, AVX2 — must produce **identical** results for identical inputs:
//! the scores *and* the overflow/saturation flags, for every flavour (QP,
//! SP, fused SP), every element width (i16, i8 and the fused kernel's
//! floor-offset byte first pass), every supported lane width, blocked and
//! unblocked, and for the narrow → i16 cascades. They all share one body,
//! so agreement among them proves little; each output is instead compared
//! with what the scalar reference (`sw_score_scalar`) says it must be —
//! the exact score where it fits the element type, the type's `MAX` and a
//! raised flag where it does not.
//!
//! The inputs deliberately include single-lane and partial batches
//! (padding lanes in play), mixed lengths, lanes that score zero, a gap
//! that spans a row-block boundary, scores forced past every element
//! width, and sequences tuned to land *exactly* on `i8::MAX`, `i16::MAX`
//! and the byte pass's 255 — the boundaries where a capped score is
//! indistinguishable from an exact one and only the flag tells.

use sw_kernels::arch::{self, KernelIsa};
use sw_kernels::intertask::{CascadeStats, KernelOutput, NarrowOutput};
use sw_kernels::{sw_score_scalar, SwParams};
use sw_seq::gen::SwissProtGen;
use sw_seq::{Alphabet, GapPenalty, SeqId, SubstMatrix};
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

/// What the fused kernel must report beside `want`: under AVX2 at 16 lanes
/// (a matrix the score table holds, a first-gap penalty a byte holds) its
/// byte pass settles every lane below 255 and promotes the rest; no other
/// route has one.
fn expect_fused_stats<const L: usize>(
    isa: KernelIsa,
    p: &SwParams,
    want: &KernelOutput,
) -> CascadeStats {
    let (min, max) = (p.matrix.min_score(), p.matrix.max_score());
    let fits_i8 = i8::try_from(min).is_ok() && i8::try_from(max).is_ok();
    let gap_fits = p.gap.first() <= i8::MAX as i32;
    if !(isa == KernelIsa::Avx2 && L == 16 && fits_i8 && gap_fits) {
        return CascadeStats::default();
    }
    let widened = want.scores.iter().filter(|&&s| s >= 255).count() as u64;
    CascadeStats {
        settled_i8: want.scores.len() as u64 - widened,
        widened_i16: widened,
    }
}

/// `subjects` (indexed by `SeqId`) in the order `batch.ids()` lists them:
/// the order of every kernel output over `batch`.
fn in_id_order(batch: &LaneBatch, subjects: &[Vec<u8>]) -> Vec<Vec<u8>> {
    batch
        .ids()
        .iter()
        .map(|id| subjects[id.0 as usize].clone())
        .collect()
}

/// The fused kernel under each of `isas` × `blocks`: output pinned to the
/// scalar reference, byte-pass statistics to [`expect_fused_stats`].
/// Returns the statistics of the last ISA.
fn check_fused<const L: usize>(
    isas: &[KernelIsa],
    blocks: &[Option<usize>],
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    subjects: &[Vec<u8>],
    label: &str,
) -> CascadeStats {
    let batch = make_batch(L, a, subjects);
    check_fused_of::<L>(isas, blocks, a, p, query, &batch, subjects, label)
}

/// [`check_fused`] over a given batch of `subjects`.
#[allow(clippy::too_many_arguments)]
fn check_fused_of<const L: usize>(
    isas: &[KernelIsa],
    blocks: &[Option<usize>],
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    batch: &LaneBatch,
    subjects: &[Vec<u8>],
    label: &str,
) -> CascadeStats {
    let table = ScoreTable::build(&p.matrix, a);
    let want = expect_i16(p, query, &in_id_order(batch, subjects));
    let mut stats = CascadeStats::default();
    for &isa in isas {
        stats = expect_fused_stats::<L>(isa, p, &want);
        for &block in blocks {
            let o = arch::sw_isa_fused_sp::<L>(isa, query, &table, batch, &p.gap, block);
            assert_eq!(
                o,
                (want.clone(), stats),
                "{label}: fused sp {isa} block {block:?}"
            );
        }
    }
    stats
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
    check_width_of::<L>(a, p, query, &make_batch(L, a, subjects), subjects, label);
}

/// [`check_width`] over a given batch of `subjects`.
fn check_width_of<const L: usize>(
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    batch: &LaneBatch,
    subjects: &[Vec<u8>],
    label: &str,
) {
    let qp = QueryProfile::build(query, &p.matrix, a);
    let sp = SequenceProfile::build(batch, &p.matrix, a);
    let want = expect_i16(p, query, &in_id_order(batch, subjects));
    let m = query.len();
    let blocks = [
        None,
        Some(1),
        Some(7),
        Some(m.div_ceil(2)),
        Some(m),
        Some(m + 3),
    ];
    for isa in isas() {
        for block in blocks {
            let o = arch::sw_isa_qp::<L>(isa, &qp, batch, &p.gap, block);
            assert_eq!(o, want, "{label}: qp i16 {isa} block {block:?}");
            let o = arch::sw_isa_sp::<L>(isa, query, &sp, batch, &p.gap, block);
            assert_eq!(o, want, "{label}: sp i16 {isa} block {block:?}");
        }
    }
    check_fused_of::<L>(&isas(), &blocks, a, p, query, batch, subjects, label);
    check_cascade_of::<L>(a, p, query, batch, subjects, label);
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
    check_cascade_of::<L>(a, p, query, &make_batch(L, a, subjects), subjects, label);
}

/// [`check_cascade`] over a given batch of `subjects`.
fn check_cascade_of<const L: usize>(
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    batch: &LaneBatch,
    subjects: &[Vec<u8>],
    label: &str,
) {
    let qp = QueryProfile::build(query, &p.matrix, a);
    let sp = SequenceProfile::build(batch, &p.matrix, a);
    let qp8 = QueryProfileI8::from_wide(&qp);
    let sp8 = SequenceProfileI8::from_wide(&sp);
    let want = expect_i16(p, query, &in_id_order(batch, subjects));
    let want8 = expect_i8(&want);
    let widened = want8.saturated.iter().filter(|&&s| s).count() as u64;
    let want_ad = (
        want,
        CascadeStats {
            settled_i8: batch.n_seqs() as u64 - widened,
            widened_i16: widened,
        },
    );
    for isa in isas() {
        let o = arch::sw_isa_narrow_qp::<L>(isa, &qp8, batch, &p.gap);
        assert_eq!(o, want8, "{label}: qp i8 {isa}");
        let o = arch::sw_isa_narrow_sp::<L>(isa, query, &sp8, batch, &p.gap);
        assert_eq!(o, want8, "{label}: sp i8 {isa}");
        let o = arch::sw_isa_adaptive_qp::<L>(isa, &qp, &qp8, batch, &p.gap);
        assert_eq!(o, want_ad, "{label}: adaptive qp {isa}");
        let o = arch::sw_isa_adaptive_sp::<L>(isa, query, &sp, &sp8, batch, &p.gap);
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
        let (o, _) = arch::sw_isa_fused_sp::<8>(isa, &query, &table, &b8, &p.gap, Some(7));
        assert_eq!(o, want, "{isa} L8");
        let b16 = make_batch(16, &a, &subjects);
        let (o, _) = arch::sw_isa_fused_sp::<16>(isa, &query, &table, &b16, &p.gap, None);
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
        let (o, _) = arch::sw_isa_fused_sp::<8>(isa, &seq, &table, &b8, &p.gap, Some(100));
        assert_eq!(o, want, "{isa} fused at L=8");
        let (o, _) = arch::sw_isa_fused_sp::<16>(isa, &seq, &table, &b16, &p.gap, None);
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

/// A sequence whose self-alignment scores exactly `target` under `p`
/// (coin change over the residues' self-scores, checked by the oracle).
fn self_scoring(p: &SwParams, target: i64) -> Vec<u8> {
    let self_score = |r: u8| p.matrix.score(r, r) as usize;
    // last[t]: a residue ending some sequence whose diagonal sums to t.
    let mut last: Vec<Option<u8>> = vec![None; target as usize + 1];
    for t in 1..last.len() {
        last[t] = (0..20u8).find(|&r| {
            let s = self_score(r);
            s == t || (s < t && last[t - s].is_some())
        });
    }
    let mut seq = Vec::new();
    let mut t = target as usize;
    while t > 0 {
        let r = last[t].expect("every target past a few points is reachable");
        seq.push(r);
        t -= self_score(r);
    }
    assert_eq!(sw_score_scalar(&seq, &seq, p), target, "construction");
    seq
}

/// The statistics of the AVX2 fused kernel over `subjects` (pinned, like its
/// output, by [`check_fused`]); `None` on a host without AVX2.
fn avx2_stats(
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    subjects: &[Vec<u8>],
    label: &str,
) -> Option<(u64, u64)> {
    KernelIsa::Avx2.is_available().then(|| {
        let stats = check_fused::<16>(&[KernelIsa::Avx2], &[None], a, p, query, subjects, label);
        (stats.settled_i8, stats.widened_i16)
    })
}

/// The byte pass's own boundary, the same for every matrix: a lane at 254
/// is settled in bytes, a lane at 255 — exact or clipped, the byte cannot
/// tell — is promoted, and either way the score comes back exact. BLOSUM62
/// self-hits at 253…257; then every value 244…266 under +1/−4 and under
/// the non-negative +1/0 (whose mismatches cost nothing to cross), two
/// batches' worth, so each value sits beside settled and promoted lanes.
#[test]
fn byte_ceiling_settles_254_and_promotes_255() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let short = a.encode_strict(b"MKVLITRAW").unwrap();
    for target in 253..=257 {
        let seq = self_scoring(&p, target);
        let subjects = vec![seq.clone(), short.clone()];
        let label = format!("blosum62 {target}");
        check_width::<16>(&a, &p, &seq, &subjects, &label);
        if let Some(stats) = avx2_stats(&a, &p, &seq, &subjects, &label) {
            let promoted = u64::from(target >= 255);
            assert_eq!(stats, (2 - promoted, promoted), "{label}");
        }
    }

    let w = a.encode_byte(b'W').unwrap();
    let query = vec![w; 266];
    let subjects: Vec<Vec<u8>> = (244..=266).map(|len| vec![w; len]).collect();
    for mismatch in [-4, 0] {
        let p = SwParams::new(SubstMatrix::match_mismatch(&a, 1, mismatch), p.gap);
        let want = expect_i16(&p, &query, &subjects);
        assert_eq!(
            want.scores,
            (244..=266).collect::<Vec<i64>>(),
            "construction"
        );
        // The fused kernel alone: 266 rows through every flavour is slow.
        let (low, high) = (&subjects[..16], &subjects[7..]);
        let label = format!("+1/{mismatch} 244..259");
        check_fused::<16>(&isas(), &[None], &a, &p, &query, low, &label);
        if let Some(stats) = avx2_stats(&a, &p, &query, low, &label) {
            assert_eq!(stats, (11, 5), "{label}: 244…254 settle, 255…259 promote");
        }
        let label = format!("+1/{mismatch} 251..266");
        check_fused::<16>(&isas(), &[Some(100)], &a, &p, &query, high, &label);
        if let Some(stats) = avx2_stats(&a, &p, &query, high, &label) {
            assert_eq!(stats, (4, 12), "{label}: 251…254 settle, 255…266 promote");
        }
    }
}

/// The two ends of the score range a byte must add. A non-negative matrix
/// (+3/0): padded cells score −128 like everywhere else, real mismatches 0,
/// so `H` crosses a mismatch run undiminished. `match_mismatch(127, −128)`
/// fills the `i8`: one match is 127 from the floor, two are 254 and settle,
/// and three bridged by a gap of 126 land on 255 exactly — promoted, with
/// the largest additions and (almost) the largest penalty a byte can hold.
#[test]
fn byte_ceiling_is_255_for_non_negative_and_full_range_matrices() {
    let a = Alphabet::protein();
    let gap = SwParams::paper_default().gap;
    let w = a.encode_byte(b'W').unwrap();
    let g = a.encode_byte(b'G').unwrap();

    let p = SwParams::new(SubstMatrix::match_mismatch(&a, 3, 0), gap);
    let subjects: Vec<Vec<u8>> = [1, 30, 84, 85, 86, 90].map(|len| vec![w; len]).into();
    let want = expect_i16(&p, &[w; 90], &subjects);
    assert_eq!(want.scores, [3, 90, 252, 255, 258, 270], "construction");
    check_width::<16>(&a, &p, &[w; 90], &subjects, "+3/0");
    if let Some(stats) = avx2_stats(&a, &p, &[w; 90], &subjects, "+3/0") {
        assert_eq!(stats, (3, 3), "252 settles, 255 promotes");
    }

    let p = SwParams::new(
        SubstMatrix::match_mismatch(&a, 127, -128),
        GapPenalty::new(124, 2),
    );
    let subjects = vec![
        vec![g; 5],
        vec![g, w, g],
        vec![w; 2],
        vec![w, g, w, w],
        vec![w; 3],
    ];
    let want = expect_i16(&p, &[w; 3], &subjects);
    assert_eq!(want.scores, [0, 127, 254, 255, 381], "construction");
    check_width::<16>(&a, &p, &[w; 3], &subjects, "+127/-128");
    if let Some(stats) = avx2_stats(&a, &p, &[w; 3], &subjects, "+127/-128") {
        assert_eq!(stats, (3, 2), "254 settles, 255 promotes");
    }
}

/// The byte pass's shape parameters, crossed: query lengths 1 to 5 (one to
/// three row pairs, odd ones with a dummy upper row), 17 and 24; an even
/// and an odd `padded_len` (the step count `padded_len + 2` is rounded up
/// to whole two-column trips, so the odd one ends on an off-the-end
/// column); every count of real lanes 1…16 with ragged pad tails; all 24
/// codes; gap models 0/0 (a gap is free) and the paper's 10/2 in turn.
#[test]
fn byte_pass_query_lengths_step_parities_and_lane_counts() {
    let a = Alphabet::protein();
    let mut rng = Rng(0xb17e_5eed);
    let mut round = 0;
    for m in [1usize, 2, 3, 4, 5, 17, 24] {
        for longest in [40usize, 41] {
            for real in 1..=16 {
                let (open, extend) = [(0, 0), (10, 2)][round % 2];
                round += 1;
                let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(open, extend));
                let query = rng.seq_all_codes(&a, m);
                let subjects: Vec<Vec<u8>> = (0..real)
                    .map(|lane| {
                        let len = 1 + (rng.next() as usize) % longest;
                        rng.seq_all_codes(&a, if lane == 0 { longest } else { len })
                    })
                    .collect();
                let label = format!("m {m} n {longest} gap {open}/{extend} lanes {real}");
                let blocks = [None, Some(3)];
                check_fused::<16>(&isas(), &blocks, &a, &p, &query, &subjects, &label);
            }
        }
    }
}

/// Floor-offset bytes cannot clamp a penalty they cannot hold (a lane at
/// 254 less a clamped 127 is still positive), so the gap model decides the
/// first tier: a first-gap penalty of 127 runs the byte pass, 128 — and
/// 300/300, which the wider types clamp to "never gap" — start at i16 with
/// no byte statistics, and every one of them returns the oracle's scores,
/// across every flavour. The query's two motifs sit 3 junk rows apart, so a
/// cheap gap bridges them and the dear ones must not.
#[test]
fn gap_first_127_runs_the_byte_pass_and_128_starts_at_i16() {
    let a = Alphabet::protein();
    let mut rng = Rng(0x9a9_5eed);
    let query = a.encode_strict(b"MKVLITRAWGGGMKVLITRAW").unwrap();
    let mut subjects = vec![a.encode_strict(b"MKVLITRAWMKVLITRAW").unwrap()];
    subjects.extend((0..6).map(|i| rng.seq_all_codes(&a, 5 + 9 * i)));
    let lanes = subjects.len() as u64;
    let mut scores = Vec::new();
    for (open, extend, bytes) in [
        (1, 1, true),
        (125, 2, true),
        (126, 2, false),
        (0, 128, false),
        (300, 300, false),
    ] {
        let p = SwParams::new(SubstMatrix::blosum62(), GapPenalty::new(open, extend));
        let label = format!("gap {open}/{extend}");
        check_width::<16>(&a, &p, &query, &subjects, &label);
        scores.push(expect_i16(&p, &query, &subjects).scores);
        if let Some(stats) = avx2_stats(&a, &p, &query, &subjects, &label) {
            let want = if bytes { (lanes, 0) } else { (0, 0) };
            assert_eq!(stats, want, "{label}");
        }
    }
    assert!(scores[0][0] > scores[1][0], "construction: 1/1 bridges");
    assert!(
        scores[1..].iter().all(|s| *s == scores[1]),
        "construction: from 127 on no gap pays"
    );
}

/// The pad rule, which the byte pass shares with the wider types: a padded
/// cell scores −128, so `H` *can* be positive inside a pad tail — carried
/// in by a gap, or along the diagonal from above 128 — but never above what
/// the lane's real cells reached. Short lanes here end in a run of W
/// against a query whose own W run goes on: the highest `H` of the lane
/// sits on its last real column, right where the tail begins, with query
/// rows still to come. Under BLOSUM62 it decays into the tail; under free
/// gaps it is carried along undiminished. Every lane must still score what
/// the scalar reference says for the sequence alone.
#[test]
fn padded_cells_never_exceed_their_lane() {
    let a = Alphabet::protein();
    let mut rng = Rng(0x9ad_7a11);
    let w = a.encode_byte(b'W').unwrap();
    let mut query = rng.seq(&a, 9);
    query.extend(vec![w; 12]);
    query.extend(rng.seq(&a, 14));
    let subjects: Vec<Vec<u8>> = [(0usize, 3usize), (4, 5), (11, 8), (2, 12), (60, 0), (75, 0)]
        .iter()
        .map(|&(head, run)| {
            let mut s = rng.seq(&a, head);
            s.extend(vec![w; run]);
            s
        })
        .collect();
    let blosum = SubstMatrix::blosum62;
    for (matrix, gap) in [
        (blosum(), GapPenalty::paper_default()),
        (blosum(), GapPenalty::new(0, 0)),
        (
            SubstMatrix::match_mismatch(&a, 2, 0),
            GapPenalty::paper_default(),
        ),
    ] {
        let label = format!("pad tails {} gap {}/{}", matrix.name, gap.open, gap.extend);
        let p = SwParams::new(matrix, gap);
        let want = expect_i16(&p, &query, &subjects);
        assert!(want.scores[2] >= 8 * p.matrix.score(w, w) as i64, "{label}");
        check_width::<16>(&a, &p, &query, &subjects, &label);
    }
}

/// One lane through all three precisions: 3 200 W against themselves
/// score 35 200 — past the byte ceiling, past `i16::MAX`. The byte pass
/// must promote the lane, the i16 sweep flag it, the scalar rescue make it
/// exact; the 20-W neighbour is re-swept with the batch and keeps the score
/// the byte pass settled.
#[test]
fn self_hit_walks_every_precision_tier() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let w = a.encode_byte(b'W').unwrap();
    let giant = vec![w; 3200];
    let subjects = vec![giant.clone(), vec![w; 20]];
    let isa = KernelIsa::detect();
    let batch = make_batch(16, &a, &subjects);
    let table = ScoreTable::build(&p.matrix, &a);
    let (mut out, stats) =
        arch::sw_isa_fused_sp::<16>(isa, &giant, &table, &batch, &p.gap, Some(2048));
    assert_eq!(out, expect_i16(&p, &giant, &subjects));
    assert_eq!(out.overflowed, [true, false]);
    if isa == KernelIsa::Avx2 {
        assert_eq!((stats.settled_i8, stats.widened_i16), (1, 1));
    }
    let lane_seqs: Vec<&[u8]> = subjects.iter().map(|s| s.as_slice()).collect();
    let rescue = sw_kernels::overflow::rescue_overflows(&mut out, &giant, &batch, &lane_seqs, &p);
    assert_eq!(rescue.lanes_rescued, 1);
    assert_eq!(out.scores, [3200 * 11, 20 * 11]);
}

/// 600 seeded batches of planted homologs — each lane a mutated copy of
/// the query (identity 40–100 %, indels 0–10 %) between random flanks, or
/// plain background — so scores spread over both sides of the byte
/// ceiling: AVX2 (bytes first), portable (i16 first) and the scalar
/// reference must agree on every lane, and the run must have seen batches
/// the byte pass settled outright as well as batches it promoted.
#[test]
fn fuzz_planted_homolog_batches() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let mut rng = Rng(0x600_ba7c);
    let mut g = SwissProtGen::new(355.4, 0x600);
    let (mut settled, mut promoted) = (0, 0);
    // Portable first: the statistics that come back are AVX2's, if it runs.
    let both: Vec<KernelIsa> = [KernelIsa::Portable, KernelIsa::Avx2]
        .into_iter()
        .filter(|isa| isa.is_available())
        .collect();
    for round in 0..600 {
        let m = 20 + (rng.next() % 70) as u32;
        let query = g.sequence("q", m).residues;
        let lanes = 1 + (rng.next() as usize) % 16;
        let subjects: Vec<Vec<u8>> = (0..lanes)
            .map(|_| {
                if rng.next().is_multiple_of(4) {
                    return g.sequence("bg", 1 + (rng.next() % 90) as u32).residues;
                }
                let identity = 0.4 + 0.1 * (rng.next() % 7) as f64;
                let indel = 0.05 * (rng.next() % 3) as f64;
                let mut s = g.sequence("head", (rng.next() % 12) as u32).residues;
                s.extend(g.mutated_copy("h", &query, identity, indel).residues);
                s.extend(g.sequence("tail", (rng.next() % 12) as u32).residues);
                s
            })
            .collect();
        let label = format!("planted r{round}");
        let stats = check_fused::<16>(&both, &[None], &a, &p, &query, &subjects, &label);
        if KernelIsa::Avx2.is_available() {
            settled += u32::from(stats.widened_i16 == 0);
            promoted += u32::from(stats.widened_i16 > 0);
        }
    }
    if KernelIsa::Avx2.is_available() {
        assert_eq!(settled + promoted, 600);
        assert!(
            settled >= 100 && promoted >= 100,
            "{settled} settled, {promoted} promoted"
        );
    }
}

/// A batch of `lanes` lanes, lane `l` holding the `subjects` named by
/// `stacks[l]` back to back (each `SeqId` is its index into `subjects`).
fn make_stacked(
    lanes: usize,
    a: &Alphabet,
    subjects: &[Vec<u8>],
    stacks: &[Vec<usize>],
) -> LaneBatch {
    let lane_seqs: Vec<Vec<(SeqId, &[u8])>> = stacks
        .iter()
        .map(|lane| {
            lane.iter()
                .map(|&i| (SeqId(i as u32), subjects[i].as_slice()))
                .collect()
        })
        .collect();
    LaneBatch::stack(lanes, &lane_seqs, pad_code(a))
}

/// [`check_width_of`] over `stacks` at all four lane widths.
fn check_stacked_all_widths(
    a: &Alphabet,
    p: &SwParams,
    query: &[u8],
    subjects: &[Vec<u8>],
    stacks: &[Vec<usize>],
    label: &str,
) {
    let batch = |lanes| make_stacked(lanes, a, subjects, stacks);
    check_width_of::<4>(a, p, query, &batch(4), subjects, &format!("{label} L4"));
    check_width_of::<8>(a, p, query, &batch(8), subjects, &format!("{label} L8"));
    check_width_of::<16>(a, p, query, &batch(16), subjects, &format!("{label} L16"));
    check_width_of::<32>(a, p, query, &batch(32), subjects, &format!("{label} L32"));
}

/// Lane refill resets a lane where its next sequence starts, and nothing
/// of the sequence before may leak across: not its `H` column (the next
/// sequence's diagonal), not its `F` column (a cheap gap would carry a
/// high score over), not the diagonal carried down a row-block boundary or
/// across the byte pass's two halves. The query is motif A then motif B
/// (plus one row for the odd query), so with `m = 18` the row blocks of
/// `⌈m/2⌉` and the byte pass's halves split it exactly between A and B: a
/// sequence ending in A beside the next one starting with B scores A + B
/// if anything leaks, and each alone if nothing does. Old sequences of odd
/// and even length put starts right after them and one pad column later;
/// a start falls in each half's trips of the skewed pass.
#[test]
fn stacked_lanes_reset_at_every_start() {
    let a = Alphabet::protein();
    let enc = |t: &[u8]| a.encode_strict(t).unwrap();
    let (motif_a, motif_b) = (b"MKVLITRAW", b"WHYCFPEDQ");
    let subjects: Vec<Vec<u8>> = vec![
        enc(motif_a),               // 0: 9, odd
        enc(motif_b),               // 1
        enc(b"GGMKVLITRAW"),        // 2: 11, A at its end
        enc(b"WHYCFPEDQGG"),        // 3: B first
        enc(b"PMKVLITRAW"),         // 4: 10, even
        enc(b"G"),                  // 5
        enc(b"WHYC"),               // 6
        enc(b"MKVLITRAWWHYCFPEDQ"), // 7: A then B in one sequence
    ];
    let stacks = vec![vec![0, 1, 5], vec![2, 3], vec![4, 1, 6], vec![7, 0]];
    for extra in [&b""[..], b"K"] {
        let mut query = enc(motif_a);
        query.extend(enc(motif_b));
        query.extend(enc(extra));
        // 300/300 can leave the i16 `F` below the floor a reset writes
        // (and starts at i16: no byte pass).
        for gap in [
            GapPenalty::paper_default(),
            GapPenalty::new(1, 1),
            GapPenalty::new(300, 300),
        ] {
            let label = format!("m {} gap {}/{}", query.len(), gap.open, gap.extend);
            let p = SwParams::new(SubstMatrix::blosum62(), gap);
            let want = expect_i16(&p, &query, &subjects);
            assert!(
                want.scores[7] > want.scores[0] + 20,
                "construction: A+B pays"
            );
            check_stacked_all_widths(&a, &p, &query, &subjects, &stacks, &label);
        }
    }
}

/// A stacked sequence past the byte ceiling is promoted alone — its lane
/// neighbours before and after it keep the scores the byte pass settled —
/// and one past `i16::MAX` is flagged alone and rescued exactly, by its
/// place in `ids()`.
#[test]
fn stacked_sequences_saturating_bytes_and_i16() {
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let w = a.encode_byte(b'W').unwrap();
    let subjects = vec![vec![w; 5], vec![w; 30], vec![w; 4], vec![w; 24], vec![w; 2]];
    let stacks = vec![vec![0, 1, 2], vec![3, 4]];
    let query = vec![w; 30];
    let want = expect_i16(&p, &query, &subjects);
    assert_eq!(want.scores, [55, 330, 44, 264, 22], "construction");
    check_stacked_all_widths(&a, &p, &query, &subjects, &stacks, "bytes");
    if let Some(stats) = KernelIsa::Avx2.is_available().then(|| {
        let batch = make_stacked(16, &a, &subjects, &stacks);
        check_fused_of::<16>(
            &[KernelIsa::Avx2],
            &[None],
            &a,
            &p,
            &query,
            &batch,
            &subjects,
            "bytes",
        )
    }) {
        assert_eq!((stats.settled_i8, stats.widened_i16), (3, 2));
    }

    let giant = vec![w; 3000];
    let subjects = vec![vec![w; 20], giant.clone(), vec![w; 7]];
    let batch = make_stacked(16, &a, &subjects, &[vec![0, 1], vec![2]]);
    assert_eq!(batch.starts(), &[(20, 0)]);
    let ordered = in_id_order(&batch, &subjects);
    let table = ScoreTable::build(&p.matrix, &a);
    // The detected ISA only: the sweep is large, and the small batches
    // above pin every ISA to the same resets.
    let isa = KernelIsa::detect();
    let want = expect_i16(&p, &giant, &ordered);
    for block in [None, Some(1024)] {
        let (mut out, _) = arch::sw_isa_fused_sp::<16>(isa, &giant, &table, &batch, &p.gap, block);
        assert_eq!(out, want, "{isa} block {block:?}");
        assert_eq!(out.overflowed, [false, false, true]);
        let lane_seqs: Vec<&[u8]> = ordered.iter().map(|s| s.as_slice()).collect();
        let rescue =
            sw_kernels::overflow::rescue_overflows(&mut out, &giant, &batch, &lane_seqs, &p);
        assert_eq!(rescue.lanes_rescued, 1);
        assert_eq!(out.scores, [20 * 11, 7 * 11, 3000 * 11]);
    }
}

/// Seeded databases with a wide length spread, packed by the engine's own
/// `LaneBatcher` at every lane width: every batch, stacked lanes and all,
/// through every flavour, ISA and block size against the oracle.
#[test]
fn fuzz_refilled_batches_all_widths() {
    use sw_swdb::{LaneBatcher, SequenceDatabase, SortedDb};
    let a = Alphabet::protein();
    let p = SwParams::paper_default();
    let mut rng = Rng(0x4ef1_11ed);
    fn check<const L: usize>(
        a: &Alphabet,
        p: &SwParams,
        query: &[u8],
        sorted: &SortedDb,
        subjects: &[Vec<u8>],
        label: &str,
    ) {
        let batches = LaneBatcher::new(L, a).batch(sorted);
        assert!(
            batches.iter().any(|b| !b.starts().is_empty()),
            "{label}: nothing stacked"
        );
        for (bi, batch) in batches.iter().enumerate() {
            check_width_of::<L>(
                a,
                p,
                query,
                batch,
                subjects,
                &format!("{label} L{L} batch {bi}"),
            );
        }
    }
    for round in 0..3 {
        let m = 7 + (rng.next() as usize) % 30;
        let query = rng.seq(&a, m);
        let subjects: Vec<Vec<u8>> = (0..40)
            .map(|_| {
                let len = 1 + (rng.next() as usize) % 70;
                rng.seq_all_codes(&a, len)
            })
            .collect();
        let sorted = SortedDb::new(SequenceDatabase::from_sequences(
            subjects
                .iter()
                .map(|s| sw_seq::EncodedSeq {
                    header: "s".into(),
                    residues: s.clone(),
                })
                .collect(),
        ));
        let label = format!("r{round}");
        check::<4>(&a, &p, &query, &sorted, &subjects, &label);
        check::<8>(&a, &p, &query, &sorted, &subjects, &label);
        check::<16>(&a, &p, &query, &sorted, &subjects, &label);
        check::<32>(&a, &p, &query, &sorted, &subjects, &label);
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
