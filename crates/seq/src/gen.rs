//! Synthetic protein database generator calibrated to Swiss-Prot.
//!
//! The paper benchmarks against Swiss-Prot release 2013_11 (541 561
//! sequences, 192 480 382 residues, max length 35 213). That database
//! cannot be redistributed here, so this module synthesises a stand-in with
//! the same *performance-relevant* structure:
//!
//! * sequence **lengths** follow a log-normal distribution calibrated to
//!   the release's mean (≈ 355) with the empirical Swiss-Prot shape
//!   (σ ≈ 0.72), truncated to `[MIN_LEN, max_len]`, and the single longest
//!   sequence is pinned to exactly `max_len` — length distribution is what
//!   drives load balance, batching and cache behaviour;
//! * **residues** are drawn i.i.d. from the Swiss-Prot background
//!   frequencies ([`crate::swissprot::AA_BACKGROUND_FREQ`]) — residue
//!   composition is what drives profile-lookup behaviour.
//!
//! Generation is deterministic given the seed. DESIGN.md §2 documents this
//! substitution.

use crate::sequence::EncodedSeq;
use crate::swissprot::{self, QuerySpec, AA_BACKGROUND_FREQ, QUERY_SET};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Smallest sequence the generator will emit (Swiss-Prot's shortest
/// entries are short peptides of a few residues).
pub const MIN_LEN: u32 = 8;

/// Log-normal σ fitted to the Swiss-Prot length histogram.
const LENGTH_SIGMA: f64 = 0.72;

/// Parameters of a synthetic database.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbSpec {
    /// Number of sequences to generate.
    pub n_seqs: u32,
    /// Target mean sequence length.
    pub mean_len: f64,
    /// Maximum sequence length; the longest generated sequence is pinned
    /// to exactly this value (mirroring Swiss-Prot's single 35 213-residue
    /// titin entry).
    pub max_len: u32,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl DbSpec {
    /// The full Swiss-Prot 2013_11 scale (541 561 sequences — about 190 M
    /// residues). Only use this on machines with several GB of memory.
    pub fn swissprot_full(seed: u64) -> Self {
        DbSpec {
            n_seqs: swissprot::SWISSPROT_2013_11_SEQS as u32,
            mean_len: swissprot::swissprot_mean_len(),
            max_len: swissprot::SWISSPROT_2013_11_MAX_LEN,
            seed,
        }
    }

    /// A scaled-down Swiss-Prot: `fraction` of the sequence count with the
    /// same length distribution (max length scales with the square root of
    /// the fraction so small databases are not dominated by one huge
    /// outlier).
    pub fn swissprot_scaled(fraction: f64, seed: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let n = ((swissprot::SWISSPROT_2013_11_SEQS as f64 * fraction).round() as u32).max(1);
        let max = ((swissprot::SWISSPROT_2013_11_MAX_LEN as f64 * fraction.sqrt()).round() as u32)
            .max(MIN_LEN * 4);
        DbSpec {
            n_seqs: n,
            mean_len: swissprot::swissprot_mean_len(),
            max_len: max,
            seed,
        }
    }

    /// A tiny database for unit tests (deterministic, a few hundred
    /// sequences).
    pub fn tiny(seed: u64) -> Self {
        DbSpec {
            n_seqs: 200,
            mean_len: 120.0,
            max_len: 600,
            seed,
        }
    }
}

/// Deterministic synthetic protein generator.
pub struct SwissProtGen {
    rng: SmallRng,
    /// Cumulative residue distribution over the 20 standard amino acids.
    cum_freq: [f64; 20],
    /// μ of the length log-normal.
    mu: f64,
}

impl SwissProtGen {
    /// Create a generator for the given target mean length.
    pub fn new(mean_len: f64, seed: u64) -> Self {
        assert!(mean_len >= MIN_LEN as f64, "mean length too small");
        let mut cum = [0.0f64; 20];
        let mut acc = 0.0;
        let total: f64 = AA_BACKGROUND_FREQ.iter().sum();
        for (i, &f) in AA_BACKGROUND_FREQ.iter().enumerate() {
            acc += f / total;
            cum[i] = acc;
        }
        cum[19] = 1.0; // guard against floating-point shortfall
                       // E[lognormal(μ, σ)] = exp(μ + σ²/2)  ⇒  μ = ln(mean) − σ²/2.
        let mu = mean_len.ln() - LENGTH_SIGMA * LENGTH_SIGMA / 2.0;
        SwissProtGen {
            rng: SmallRng::seed_from_u64(seed),
            cum_freq: cum,
            mu,
        }
    }

    /// One standard-normal variate (Box–Muller; we only need the cosine
    /// branch).
    fn std_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Sample one sequence length, truncated to `[MIN_LEN, max_len]`.
    pub fn sample_len(&mut self, max_len: u32) -> u32 {
        let z = self.std_normal();
        let l = (self.mu + LENGTH_SIGMA * z).exp();
        (l.round() as i64).clamp(MIN_LEN as i64, max_len as i64) as u32
    }

    /// Sample one encoded residue from the background distribution.
    #[inline]
    pub fn sample_residue(&mut self) -> u8 {
        let u: f64 = self.rng.gen();
        // 20 entries: a linear scan is faster than binary search at this size.
        for (code, &c) in self.cum_freq.iter().enumerate() {
            if u < c {
                return code as u8;
            }
        }
        19
    }

    /// Generate an encoded sequence of exactly `len` residues.
    pub fn sequence(&mut self, header: &str, len: u32) -> EncodedSeq {
        let residues = (0..len).map(|_| self.sample_residue()).collect();
        EncodedSeq {
            header: header.into(),
            residues,
        }
    }

    /// A homolog of `parent`: walking the parent, each position is first
    /// hit by an indel with probability `indel` (half deletions, half
    /// insertions of a background residue before it), and a surviving
    /// residue is kept with probability `identity`, otherwise redrawn from
    /// the background (so the realised identity is slightly above
    /// `identity`: a redraw can repeat the residue).
    pub fn mutated_copy(
        &mut self,
        header: &str,
        parent: &[u8],
        identity: f64,
        indel: f64,
    ) -> EncodedSeq {
        let mut residues = Vec::with_capacity(parent.len() + parent.len() / 8);
        for &r in parent {
            if self.rng.gen::<f64>() < indel {
                if self.rng.gen::<f64>() < 0.5 {
                    continue;
                }
                residues.push(self.sample_residue());
            }
            let keep = self.rng.gen::<f64>() < identity;
            residues.push(if keep { r } else { self.sample_residue() });
        }
        EncodedSeq {
            header: header.into(),
            residues,
        }
    }
}

/// Append `count` homologs of `queries` (taken in turn) to `db` — the tail
/// of true positives the i.i.d. background lacks: against it no score
/// leaves the byte range, against a close homolog every precision tier
/// runs. The copies are graded: the `k`-th keeps identity 100 % → 40 % in
/// tenths (`k mod 7`) and starts over, its indel rate going 0 → 5 % → 10 %
/// with each pass through those seven steps (see
/// [`SwissProtGen::mutated_copy`]). Deterministic in `seed`; `db`'s
/// existing sequences are untouched.
///
/// # Panics
/// Panics if `count > 0` and `queries` is empty.
pub fn plant_homologs(db: &mut Vec<EncodedSeq>, queries: &[EncodedSeq], count: usize, seed: u64) {
    let mut g = SwissProtGen::new(
        swissprot::swissprot_mean_len(),
        seed ^ 0x484f_4d4f_4c4f_4721,
    );
    for k in 0..count {
        let parent = &queries[k % queries.len()];
        let (identity, indel) = (1.0 - 0.1 * (k % 7) as f64, 0.05 * ((k / 7) % 3) as f64);
        let header = format!("syn|H{:07}|HOMOLOG of {}", k + 1, parent.header);
        db.push(g.mutated_copy(&header, &parent.residues, identity, indel));
    }
}

/// Generate a full synthetic database per `spec`.
///
/// Headers follow the UniProt style: `syn|S0000001|SYNTH`.
pub fn generate_database(spec: &DbSpec) -> Vec<EncodedSeq> {
    let mut g = SwissProtGen::new(spec.mean_len, spec.seed);
    let mut out = Vec::with_capacity(spec.n_seqs as usize);
    let mut longest_idx = 0usize;
    let mut longest_len = 0u32;
    for i in 0..spec.n_seqs {
        let len = g.sample_len(spec.max_len);
        if len > longest_len {
            longest_len = len;
            longest_idx = i as usize;
        }
        out.push(g.sequence(&format!("syn|S{:07}|SYNTH", i + 1), len));
    }
    // Pin the longest sequence to exactly max_len (Swiss-Prot's titin).
    if let Some(seq) = out.get_mut(longest_idx) {
        if seq.residues.len() < spec.max_len as usize {
            let extra = spec.max_len as usize - seq.residues.len();
            seq.residues.extend((0..extra).map(|_| g.sample_residue()));
        }
    }
    out
}

/// Generate only the sequence *lengths* of a database per `spec` — the
/// cheap path for full-scale performance simulation, where residue content
/// is irrelevant and 190 M residues need not be materialised.
///
/// Uses the same length distribution as [`generate_database`] (including
/// pinning the longest sequence to `max_len`), but is **not** guaranteed to
/// produce the identical per-sequence lengths, because the full generator
/// interleaves residue sampling with length sampling.
pub fn generate_lengths(spec: &DbSpec) -> Vec<u32> {
    let mut g = SwissProtGen::new(spec.mean_len, spec.seed);
    let mut out: Vec<u32> = (0..spec.n_seqs)
        .map(|_| g.sample_len(spec.max_len))
        .collect();
    if let Some(m) = out.iter_mut().max() {
        *m = spec.max_len;
    }
    out
}

/// Generate the paper's 20-query evaluation set (same accession labels and
/// lengths as §V-B, synthetic residues).
pub fn generate_query_set(seed: u64) -> Vec<EncodedSeq> {
    let mut g = SwissProtGen::new(swissprot::swissprot_mean_len(), seed ^ 0x5157_5345_5421);
    QUERY_SET
        .iter()
        .map(|QuerySpec { accession, len }| g.sequence(&format!("sp|{accession}|QUERY"), *len))
        .collect()
}

/// Generate a single synthetic query of the given length.
pub fn generate_query(len: u32, seed: u64) -> EncodedSeq {
    let mut g = SwissProtGen::new(swissprot::swissprot_mean_len(), seed);
    g.sequence(&format!("syn|QUERY{len}|SYNTH"), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    /// Every generated residue decodes under the protein alphabet.
    fn decodes_cleanly(seqs: &[EncodedSeq]) -> bool {
        let a = Alphabet::protein();
        seqs.iter()
            .all(|s| s.residues.iter().all(|&r| (r as usize) < a.len()))
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = DbSpec::tiny(7);
        let a = generate_database(&spec);
        let b = generate_database(&spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_database(&DbSpec::tiny(1));
        let b = generate_database(&DbSpec::tiny(2));
        assert_ne!(a, b);
    }

    #[test]
    fn lengths_within_bounds() {
        let spec = DbSpec::tiny(3);
        let db = generate_database(&spec);
        assert_eq!(db.len(), spec.n_seqs as usize);
        for s in &db {
            assert!(s.len() >= MIN_LEN as usize);
            assert!(s.len() <= spec.max_len as usize);
        }
    }

    #[test]
    fn longest_sequence_pinned_to_max() {
        let spec = DbSpec {
            n_seqs: 500,
            mean_len: 355.4,
            max_len: 2000,
            seed: 11,
        };
        let db = generate_database(&spec);
        let max = db.iter().map(EncodedSeq::len).max().unwrap();
        assert_eq!(max, spec.max_len as usize);
    }

    #[test]
    fn mean_length_close_to_target() {
        let spec = DbSpec {
            n_seqs: 20_000,
            mean_len: 355.4,
            max_len: 35_213,
            seed: 5,
        };
        let db = generate_database(&spec);
        let total: usize = db.iter().map(EncodedSeq::len).sum();
        let mean = total as f64 / db.len() as f64;
        // Truncation biases the mean slightly; ±10 % is the contract.
        assert!((mean - 355.4).abs() / 355.4 < 0.10, "mean = {mean}");
    }

    #[test]
    fn residue_composition_close_to_background() {
        let mut g = SwissProtGen::new(355.4, 9);
        let mut counts = [0u64; 20];
        let n = 200_000;
        for _ in 0..n {
            counts[g.sample_residue() as usize] += 1;
        }
        for (code, &freq) in AA_BACKGROUND_FREQ.iter().enumerate() {
            let observed = counts[code] as f64 / n as f64;
            assert!(
                (observed - freq).abs() < 0.01,
                "residue {code}: observed {observed:.4}, expected {freq:.4}"
            );
        }
    }

    #[test]
    fn residues_are_standard_amino_acids() {
        let db = generate_database(&DbSpec::tiny(1));
        assert!(decodes_cleanly(&db));
        // Only the 20 standard residues are generated (no B/Z/X/*).
        assert!(db.iter().all(|s| s.residues.iter().all(|&r| r < 20)));
    }

    #[test]
    fn planted_homologs_are_seeded_graded_copies() {
        let queries = [generate_query(300, 1), generate_query(120, 2)];
        let background = generate_database(&DbSpec::tiny(5));
        let mut db = background.clone();
        plant_homologs(&mut db, &queries, 21, 9);
        assert_eq!(
            db[..background.len()],
            background[..],
            "a tail, not an edit"
        );
        assert_eq!(db.len(), background.len() + 21);
        let mut again = background.clone();
        plant_homologs(&mut again, &queries, 21, 9);
        assert_eq!(db, again, "deterministic in the seed");
        assert!(decodes_cleanly(&db));

        let tail = &db[background.len()..];
        // Copy 0 is the parent itself; copy 6 (40 %, no indels) keeps the
        // length and roughly that share of positions.
        assert_eq!(tail[0].residues, queries[0].residues);
        let (far, parent) = (&tail[6].residues, &queries[0].residues);
        assert_eq!(far.len(), parent.len());
        let same = far.iter().zip(parent).filter(|(a, b)| a == b).count();
        let share = same as f64 / parent.len() as f64;
        assert!((0.3..0.6).contains(&share), "identity {share}");
        // From copy 7 on indels are in play: some length changes.
        assert!(tail[7..]
            .iter()
            .enumerate()
            .any(|(k, h)| h.len() != queries[(k + 7) % 2].len()));
    }

    #[test]
    fn query_set_has_paper_lengths() {
        let qs = generate_query_set(42);
        assert_eq!(qs.len(), 20);
        for (q, spec) in qs.iter().zip(QUERY_SET.iter()) {
            assert_eq!(q.len(), spec.len as usize);
            assert!(q.header.contains(spec.accession));
        }
    }

    #[test]
    fn scaled_spec_shrinks() {
        let s = DbSpec::swissprot_scaled(0.01, 1);
        assert_eq!(s.n_seqs, 5416);
        assert!(s.max_len < swissprot::SWISSPROT_2013_11_MAX_LEN);
        assert!(s.max_len > 1000);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn scaled_rejects_zero() {
        DbSpec::swissprot_scaled(0.0, 1);
    }

    #[test]
    fn lengths_only_path_matches_distribution() {
        let spec = DbSpec {
            n_seqs: 20_000,
            mean_len: 355.4,
            max_len: 35_213,
            seed: 5,
        };
        let lens = generate_lengths(&spec);
        assert_eq!(lens.len(), 20_000);
        let mean = lens.iter().map(|&l| l as u64).sum::<u64>() as f64 / lens.len() as f64;
        assert!((mean - 355.4).abs() / 355.4 < 0.10, "mean = {mean}");
        assert_eq!(*lens.iter().max().unwrap(), spec.max_len);
        assert!(lens.iter().all(|&l| l >= MIN_LEN));
    }

    #[test]
    fn lengths_deterministic() {
        let spec = DbSpec::tiny(9);
        assert_eq!(generate_lengths(&spec), generate_lengths(&spec));
    }

    #[test]
    fn single_query_generation() {
        let q = generate_query(144, 3);
        assert_eq!(q.len(), 144);
        let q2 = generate_query(144, 3);
        assert_eq!(q, q2);
    }
}
