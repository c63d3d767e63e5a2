//! Farrar's striped intra-task kernel — the paper's reference \[13\].
//!
//! The paper contrasts its inter-task scheme with *"fine-grained
//! vectorization schemes \[13\] that are able to exploit the simd
//! parallelism available within a single sequence alignment"* and argues
//! inter-task usually wins for short sequences. This module implements
//! that comparator so the claim can actually be measured — it lives here,
//! beside the `ablation` binary that times it, because no search path
//! runs it: M. Farrar, *"Striped Smith-Waterman speeds database
//! searches six times over other SIMD implementations"*, Bioinformatics
//! 23(2), 2007.
//!
//! One query is striped across lanes: query position `i` lives at stripe
//! `i % seg`, lane `i / seg` with `seg = ceil(M / L)`. The vertical gap
//! (`F`) dependency that crosses lanes is resolved with Farrar's *lazy-F*
//! correction loop. This implementation additionally refreshes `E` inside
//! the lazy loop, which makes it exact for all inputs (verified against
//! the scalar reference by fuzzing).

use sw_kernels::intertask::NEG_INF_I16;
use sw_kernels::lanes::I16s;
use sw_kernels::SwParams;

/// Horizontal maximum across lanes.
#[inline(always)]
fn hmax<const L: usize>(v: I16s<L>) -> i16 {
    v.0.into_iter().fold(i16::MIN, i16::max)
}

/// Shift lanes up by one, inserting `x` at lane 0 (the cross-lane carry:
/// `out[0] = x`, `out[l] = v[l-1]`).
#[inline(always)]
fn shift_in<const L: usize>(v: I16s<L>, x: i16) -> I16s<L> {
    let mut out = [0i16; L];
    out[0] = x;
    out[1..L].copy_from_slice(&v.0[..L - 1]);
    I16s(out)
}

/// True if any lane of `a` is strictly greater than the same lane of `b`
/// (the lazy-F continuation test).
#[inline(always)]
fn any_gt<const L: usize>(a: I16s<L>, b: I16s<L>) -> bool {
    a.0.iter().zip(b.0.iter()).any(|(a, b)| a > b)
}

/// Striped query profile: `codes × seg` vectors.
#[derive(Debug, Clone)]
pub struct StripedProfile<const L: usize> {
    seg: usize,
    query_len: usize,
    codes: usize,
    /// `data[c * seg + k]` = scores of subject residue `c` against the
    /// query positions of stripe `k` (phantom positions score `-∞`).
    data: Vec<I16s<L>>,
}

impl<const L: usize> StripedProfile<L> {
    /// Build the striped profile of `query` under `params`.
    ///
    /// # Panics
    /// Panics if the query is empty.
    pub fn build(query: &[u8], params: &SwParams) -> Self {
        assert!(!query.is_empty(), "striped profile needs a non-empty query");
        let m = query.len();
        let seg = m.div_ceil(L);
        let codes = params.matrix.len();
        let mut data = vec![I16s::<L>::splat(NEG_INF_I16); codes * seg];
        for c in 0..codes {
            for k in 0..seg {
                let mut v = [NEG_INF_I16; L];
                for (lane, slot) in v.iter_mut().enumerate() {
                    let i = lane * seg + k;
                    if i < m {
                        *slot = params.matrix.score(query[i], c as u8) as i16;
                    }
                }
                data[c * seg + k] = I16s(v);
            }
        }
        StripedProfile {
            seg,
            query_len: m,
            codes,
            data,
        }
    }

    /// Stripe count (`ceil(M / L)`).
    #[inline]
    pub fn seg(&self) -> usize {
        self.seg
    }

    /// Query length.
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    #[inline]
    fn rows(&self, c: u8) -> &[I16s<L>] {
        let s = c as usize * self.seg;
        &self.data[s..s + self.seg]
    }
}

/// Result of a striped alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedScore {
    /// Best local score (exact unless `overflowed`).
    pub score: i64,
    /// The i16 arithmetic saturated; recompute with the scalar kernel.
    pub overflowed: bool,
}

/// Striped Smith-Waterman of one (query-profile, subject) pair.
pub fn sw_striped<const L: usize>(
    profile: &StripedProfile<L>,
    subject: &[u8],
    params: &SwParams,
) -> StripedScore {
    let seg = profile.seg;
    let first = I16s::<L>::splat(params.gap.first() as i16);
    let extend = I16s::<L>::splat(params.gap.extend as i16);
    let mut h_store = vec![I16s::<L>::zero(); seg];
    let mut h_load = vec![I16s::<L>::zero(); seg];
    let mut e = vec![I16s::<L>::splat(NEG_INF_I16); seg];
    let mut vmax = I16s::<L>::zero();

    for &d in subject {
        assert!(
            (d as usize) < profile.codes,
            "subject residue outside matrix"
        );
        let prof = profile.rows(d);
        let mut f = I16s::<L>::splat(NEG_INF_I16);
        // Diagonal for stripe 0: previous column's last stripe, shifted one
        // lane up (lane 0's predecessor is the i = -1 boundary, H = 0).
        let mut h = shift_in(h_store[seg - 1], 0);
        std::mem::swap(&mut h_load, &mut h_store);
        for k in 0..seg {
            h = h.sat_add(prof[k]).max(e[k]).max(f).max(I16s::zero());
            vmax = vmax.max(h);
            h_store[k] = h;
            let h_open = h.sat_sub(first);
            e[k] = e[k].sat_sub(extend).max(h_open);
            f = f.sat_sub(extend).max(h_open);
            h = h_load[k];
        }
        // Lazy-F: propagate the vertical-gap state across the lane
        // boundary until it can no longer improve anything.
        let mut k = 0usize;
        f = shift_in(f, NEG_INF_I16);
        while any_gt(f, h_store[k].sat_sub(first)) {
            let improved = h_store[k].max(f);
            h_store[k] = improved;
            vmax = vmax.max(improved);
            // Refresh E so a horizontal gap opened after this vertical gap
            // is scored from the corrected H (exactness fix over the
            // classic formulation).
            e[k] = e[k].max(improved.sat_sub(first));
            f = f.sat_sub(extend);
            k += 1;
            if k == seg {
                k = 0;
                f = shift_in(f, NEG_INF_I16);
            }
        }
    }
    let best = hmax(vmax);
    StripedScore {
        score: best as i64,
        overflowed: best == i16::MAX,
    }
}

/// Convenience: build the profile and align one pair.
pub fn sw_striped_pair<const L: usize>(
    query: &[u8],
    subject: &[u8],
    params: &SwParams,
) -> StripedScore {
    if query.is_empty() || subject.is_empty() {
        return StripedScore {
            score: 0,
            overflowed: false,
        };
    }
    let profile = StripedProfile::<L>::build(query, params);
    sw_striped(&profile, subject, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_kernels::sw_score_scalar;
    use sw_seq::Alphabet;

    fn enc(s: &[u8]) -> Vec<u8> {
        Alphabet::protein().encode_strict(s).unwrap()
    }

    #[test]
    fn cross_lane_helpers() {
        let v = I16s::<8>([-3, 7, 2, -9, 7, 0, 1, 5]);
        assert_eq!(hmax(v), 7);
        assert_eq!(hmax(I16s::<4>::splat(i16::MIN)), i16::MIN);
        assert_eq!(shift_in(I16s::<4>([1, 2, 3, 4]), 9).0, [9, 1, 2, 3]);
        assert!(any_gt(I16s::<4>([0, 0, 1, 0]), I16s::zero()));
        assert!(!any_gt(I16s::<4>([0, -1, 0, 0]), I16s::zero()));
    }

    /// The seeded pairs of the root suite's `all_kernels_agree_with_scalar`
    /// (`tests/properties.rs`): same seed, same draws, same gap range.
    #[test]
    fn agrees_with_scalar_on_the_property_suite_pairs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        fn residues(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
            let len = rng.gen_range(1..max_len);
            (0..len).map(|_| rng.gen_range(0u8..20)).collect()
        }
        let mut rng = SmallRng::seed_from_u64(0xA11E);
        for case in 0..48 {
            let query = residues(&mut rng, 48);
            let n_subjects = rng.gen_range(1usize..8);
            let subjects: Vec<Vec<u8>> = (0..n_subjects).map(|_| residues(&mut rng, 64)).collect();
            let open = rng.gen_range(0i32..12);
            let extend = rng.gen_range(1i32..4);
            let params = SwParams::new(
                sw_seq::SubstMatrix::blosum62(),
                sw_seq::GapPenalty::new(open, extend),
            );
            for (lane, s) in subjects.iter().enumerate() {
                assert_eq!(
                    sw_striped_pair::<8>(&query, s, &params).score,
                    sw_score_scalar(&query, s, &params),
                    "case {case} lane {lane} striped"
                );
            }
        }
    }

    #[test]
    fn matches_scalar_on_basic_pairs() {
        let p = SwParams::paper_default();
        let cases: [(&[u8], &[u8]); 6] = [
            (b"MKVLITRAW", b"MKVLITRAW"),
            (b"MKVLITRAW", b"MKRLIW"),
            (b"AAAA", b"AAGGAA"),
            (b"A", b"A"),
            (b"W", b"P"),
            (b"ARNDCQEGHILKMFPSTWYV", b"VYWTSPFMKLIHGEQCDNRA"),
        ];
        for (q, d) in cases {
            let (qe, de) = (enc(q), enc(d));
            let expect = sw_score_scalar(&qe, &de, &p);
            let got = sw_striped_pair::<8>(&qe, &de, &p);
            assert!(!got.overflowed);
            assert_eq!(got.score, expect, "q={q:?} d={d:?}");
        }
    }

    #[test]
    fn query_shorter_than_lane_count() {
        // seg = 1: the whole query fits one stripe.
        let p = SwParams::paper_default();
        let q = enc(b"MKV");
        let d = enc(b"MKVLIT");
        assert_eq!(
            sw_striped_pair::<8>(&q, &d, &p).score,
            sw_score_scalar(&q, &d, &p)
        );
    }

    #[test]
    fn lazy_f_with_cheap_gaps() {
        // Cheap gap extension stresses the lazy-F propagation across lanes.
        let p = SwParams::new(
            sw_seq::SubstMatrix::blosum62(),
            sw_seq::GapPenalty::new(1, 1),
        );
        let q = enc(b"WWWWWWWWWWWWWWWW");
        let d = enc(b"WWWWAAAAAAAAWWWWWWWWWWWW");
        assert_eq!(
            sw_striped_pair::<4>(&q, &d, &p).score,
            sw_score_scalar(&q, &d, &p)
        );
    }

    #[test]
    fn fuzz_against_scalar_all_widths() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x57121D);
        for round in 0..60 {
            // Mix cheap and default gaps to exercise lazy-F heavily.
            let p = if round % 2 == 0 {
                SwParams::paper_default()
            } else {
                SwParams::new(
                    sw_seq::SubstMatrix::blosum62(),
                    sw_seq::GapPenalty::new(rng.gen_range(0..4), rng.gen_range(1..3)),
                )
            };
            let m = rng.gen_range(1..70);
            let n = rng.gen_range(1..70);
            let q: Vec<u8> = (0..m).map(|_| rng.gen_range(0..20u8)).collect();
            let d: Vec<u8> = (0..n).map(|_| rng.gen_range(0..20u8)).collect();
            let expect = sw_score_scalar(&q, &d, &p);
            assert_eq!(
                sw_striped_pair::<4>(&q, &d, &p).score,
                expect,
                "L=4 round={round}"
            );
            assert_eq!(
                sw_striped_pair::<8>(&q, &d, &p).score,
                expect,
                "L=8 round={round}"
            );
            assert_eq!(
                sw_striped_pair::<16>(&q, &d, &p).score,
                expect,
                "L=16 round={round}"
            );
        }
    }

    #[test]
    fn profile_reuse_across_subjects() {
        let p = SwParams::paper_default();
        let q = enc(b"MKVLITRAWQESTNHY");
        let profile = StripedProfile::<8>::build(&q, &p);
        for d in [&b"MKVLITRAW"[..], &b"QQQQ"[..], &b"MKVITRWQESTNHY"[..]] {
            let de = enc(d);
            assert_eq!(
                sw_striped(&profile, &de, &p).score,
                sw_score_scalar(&q, &de, &p)
            );
        }
    }

    #[test]
    fn overflow_detected() {
        let p = SwParams::paper_default();
        let long = vec![Alphabet::protein().encode_byte(b'W').unwrap(); 3100];
        let out = sw_striped_pair::<8>(&long, &long, &p);
        assert!(out.overflowed);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let p = SwParams::paper_default();
        assert_eq!(sw_striped_pair::<8>(&[], &enc(b"AAA"), &p).score, 0);
        assert_eq!(sw_striped_pair::<8>(&enc(b"AAA"), &[], &p).score, 0);
    }

    #[test]
    fn seg_math() {
        let p = SwParams::paper_default();
        let q = enc(b"MKVLITRAW"); // 9 residues
        let prof = StripedProfile::<4>::build(&q, &p);
        assert_eq!(prof.seg(), 3); // ceil(9/4)
        assert_eq!(prof.query_len(), 9);
    }
}
