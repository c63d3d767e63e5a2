//! The search engine — Algorithm 1, real execution.
//!
//! ```text
//! 1: Q  = read_file(queries)          (caller, via sw-seq)
//! 4: vD = sort_by_length(D)           (PreparedDb)
//! 9: G  = SW_core(Q, vD, SUBMAT)      (this module: parallel kernel loop)
//! 11: scores = sort(G)                (SearchResults)
//! ```
//!
//! The flat search has no loop of its own. [`SearchEngine::search_many`]
//! — the paper's `for t ≤ |Q| · |vD|`, one task per `(query, lane
//! batch)` pair — is the crate's one region body ([`crate::hetero`]) run
//! as a CPU-only region over every batch: `threads` CPU workers, no
//! accelerator pool, no fault injector and no durability hooks.
//! [`SearchEngine::search`] is that with one query. What this module owns
//! is the task itself, `SearchEngine::run_batch`'s kernel dispatch, and
//! the exact recomputation of saturated lanes before reporting.
//!
//! Workers claim chunks from the front of the region's claim order — the
//! task list for one query, the shortest query first and each query's
//! largest batches first for several — sized by the region's
//! guided-style `adaptive_chunk` (half the remaining tasks over the
//! worker count) rather than the paper's `dynamic(1)`. Hits do not
//! depend on the order or the chunking, and no pinned benchmark workload
//! runs a flat search on more than one thread.
//!
//! Per search the engine builds one [`ScoreTable`], and one
//! [`QueryProfile`] per query only where a query-profile variant runs;
//! per batch task, on the default `intrinsic-SP` path, it
//! builds nothing — `sw_isa_fused_sp` derives the sequence profile's
//! values column by column inside the kernel, and is itself the precision
//! chain's first two tiers: on AVX2 at 16 lanes a batch is swept in
//! unsigned bytes and re-swept in i16 only if a lane reached the byte
//! ceiling (elsewhere i16 is the first pass); lanes that saturate i16 too
//! are the ones `run_batch` hands to the scalar rescue. The paper's
//! "these profiles cannot be constructed in the pre-processing stage"
//! (§IV) per-batch `SequenceProfile::build` survives in the guided arm
//! and as the comparator the fused kernel is tested against.

use crate::config::SearchConfig;
use crate::hetero::one_pool_region;
use crate::prepare::PreparedDb;
use crate::results::{Hit, SearchResults};
use sw_kernels::arch::{sw_isa_fused_sp, sw_isa_qp};
use sw_kernels::guided::{sw_guided_qp, sw_guided_sp, GuidedWorkspace};
use sw_kernels::intertask::KernelOutput;
use sw_kernels::overflow::rescue_overflows;
use sw_kernels::scalar::{sw_score_scalar, sw_score_scalar_qp};
use sw_kernels::{CellCount, ProfileMode, SwParams, Vectorization};
use sw_sched::DEVICE_CPU;
use sw_swdb::{BatchRange, LaneBatch, QueryProfile, ScoreTable, SequenceProfile};

/// What a query-profile variant run without its profile panics with.
const NO_QP: &str = "a query-profile variant is given the query profile";

/// The Smith-Waterman database search engine.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    /// Scoring parameters (matrix + gaps).
    pub params: SwParams,
}

impl SearchEngine {
    /// Engine with explicit parameters.
    pub fn new(params: SwParams) -> Self {
        SearchEngine { params }
    }

    /// Engine with the paper's parameters (BLOSUM62, 10/2).
    pub fn paper_default() -> Self {
        SearchEngine {
            params: SwParams::paper_default(),
        }
    }

    /// Search `query` against a prepared database (Algorithm 1) — the
    /// one-query case of [`Self::search_many`].
    ///
    /// Scores are exact for every database sequence; hits come back
    /// sorted descending.
    pub fn search(&self, query: &[u8], db: &PreparedDb, config: &SearchConfig) -> SearchResults {
        assert!(!query.is_empty(), "query must not be empty");
        self.search_many(&[query], db, config)
            .pop()
            .expect("one result per query")
    }

    /// Search several queries in **one** parallel region — the literal
    /// loop of the paper's Algorithm 1, line 19: `for t ≤ |Q| · |vD|`.
    ///
    /// Pooling the product space is what gives the paper's measured
    /// steady-state GCUPS: long-query tail batches of one query overlap
    /// other queries' work instead of serialising the run.
    ///
    /// Results come back per query, each sorted descending, identical to
    /// running [`Self::search`] once per query. The region is CPU-only
    /// with `config.threads` workers (zero is clamped to one), seeded
    /// with no accelerator share; each query's `elapsed` is its
    /// padded-cell share of the region's wall clock.
    ///
    /// # Panics
    /// Panics when a query is empty, or with the first failing
    /// `(query, batch)` pair when a kernel task panicked.
    pub fn search_many(
        &self,
        queries: &[&[u8]],
        db: &PreparedDb,
        config: &SearchConfig,
    ) -> Vec<SearchResults> {
        let all = BatchRange {
            start: 0,
            end: db.batches.len(),
        };
        one_pool_region(self, queries, db, all, DEVICE_CPU, config)
    }

    /// Execute one lane batch under the configured variant. `qp` is the
    /// query's profile, which only the query-profile variants read.
    ///
    /// # Panics
    /// Panics if a query-profile variant gets no `qp`.
    pub(crate) fn run_batch(
        &self,
        query: &[u8],
        qp: Option<&QueryProfile>,
        table: &ScoreTable<'_>,
        db: &PreparedDb,
        batch: &LaneBatch,
        config: &SearchConfig,
    ) -> (Vec<Hit>, CellCount, u64) {
        let gap = &self.params.gap;
        let m = query.len();
        let cells = CellCount {
            real: batch.real_cells(m),
            padded: batch.padded_cells(m),
        };

        let mut out = match config.variant.vec {
            Vectorization::NoVec => self.run_batch_scalar(query, qp, db, batch, config),
            Vectorization::Guided => {
                let mut ws = GuidedWorkspace::new();
                match config.variant.profile {
                    ProfileMode::Query => sw_guided_qp(qp.expect(NO_QP), batch, gap, &mut ws),
                    ProfileMode::Sequence => {
                        let sp = SequenceProfile::build(batch, &self.params.matrix, &db.alphabet);
                        sw_guided_sp(query, &sp, batch, gap, &mut ws)
                    }
                }
            }
            Vectorization::Intrinsic => self.run_batch_intrinsic(query, qp, table, batch, config),
        };

        // Exact rescue of saturated lanes.
        let mut rescued = 0u64;
        if out.any_overflow() {
            let lane_seqs: Vec<&[u8]> = batch
                .ids()
                .iter()
                .map(|&id| db.sorted.db().seq(id).residues)
                .collect();
            let stats = rescue_overflows(&mut out, query, batch, &lane_seqs, &self.params);
            rescued = stats.lanes_rescued;
        }

        let hits = batch
            .ids()
            .iter()
            .zip(out.scores.iter())
            .map(|(&id, &score)| Hit { id, score })
            .collect();
        (hits, cells, rescued)
    }

    /// The `no-vec` path: one pair at a time.
    fn run_batch_scalar(
        &self,
        query: &[u8],
        qp: Option<&QueryProfile>,
        db: &PreparedDb,
        batch: &LaneBatch,
        config: &SearchConfig,
    ) -> KernelOutput {
        let scores: Vec<i64> = batch
            .ids()
            .iter()
            .map(|&id| {
                let subject = db.sorted.db().seq(id).residues;
                match config.variant.profile {
                    ProfileMode::Query => {
                        sw_score_scalar_qp(qp.expect(NO_QP), subject, &self.params.gap)
                    }
                    ProfileMode::Sequence => sw_score_scalar(query, subject, &self.params),
                }
            })
            .collect();
        let overflowed = vec![false; scores.len()];
        KernelOutput { scores, overflowed }
    }

    /// The `intrinsic` path: explicit-lane kernels, monomorphised per
    /// supported lane width and dispatched to the configured ISA
    /// (`sw_kernels::arch`) — real SSE2/AVX2 intrinsics at their native
    /// widths, the portable kernels everywhere else. The `Sequence` arm
    /// builds no profile: the fused kernel works from the per-search
    /// `table`.
    fn run_batch_intrinsic(
        &self,
        query: &[u8],
        qp: Option<&QueryProfile>,
        table: &ScoreTable<'_>,
        batch: &LaneBatch,
        config: &SearchConfig,
    ) -> KernelOutput {
        macro_rules! dispatch {
            ($lanes:literal) => {{
                let gap = &self.params.gap;
                let isa = config.isa;
                let block = config
                    .variant
                    .blocking
                    .then(|| config.effective_block_rows($lanes));
                match config.variant.profile {
                    ProfileMode::Query => {
                        sw_isa_qp::<$lanes>(isa, qp.expect(NO_QP), batch, gap, block)
                    }
                    ProfileMode::Sequence => {
                        sw_isa_fused_sp::<$lanes>(isa, query, table, batch, gap, block)
                    }
                }
            }};
        }
        match batch.lanes() {
            4 => dispatch!(4),
            8 => dispatch!(8),
            16 => dispatch!(16),
            32 => dispatch!(32),
            other => panic!(
                "intrinsic kernels are monomorphised for 4/8/16/32 lanes, got {other}; \
                 use the guided variant for arbitrary widths"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_kernels::KernelVariant;
    use sw_seq::gen::{generate_database, generate_query, DbSpec};
    use sw_seq::Alphabet;

    fn small_db(lanes: usize) -> PreparedDb {
        let a = Alphabet::protein();
        let seqs = generate_database(&DbSpec::tiny(42));
        PreparedDb::prepare(seqs, lanes, &a)
    }

    fn reference_scores(query: &[u8], db: &PreparedDb) -> Vec<(u32, i64)> {
        reference_scores_under(query, db, &SwParams::paper_default())
    }

    fn reference_scores_under(query: &[u8], db: &PreparedDb, p: &SwParams) -> Vec<(u32, i64)> {
        let mut v: Vec<(u32, i64)> = db
            .sorted
            .db()
            .iter()
            .map(|(id, s)| (id.0, sw_score_scalar(query, s.residues, p)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    #[test]
    fn all_variants_agree_with_reference() {
        let db = small_db(8);
        let query = generate_query(120, 7);
        let engine = SearchEngine::paper_default();
        let expect = reference_scores(&query.residues, &db);
        for variant in KernelVariant::fig3_set() {
            let cfg = SearchConfig::best(2).with_variant(variant);
            let res = engine.search(&query.residues, &db, &cfg);
            let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
            assert_eq!(got, expect, "variant {variant}");
        }
    }

    #[test]
    fn unblocked_variants_agree_too() {
        let db = small_db(4);
        let query = generate_query(80, 9);
        let engine = SearchEngine::paper_default();
        let expect = reference_scores(&query.residues, &db);
        for mut variant in KernelVariant::fig3_set() {
            variant.blocking = false;
            let cfg = SearchConfig::best(1).with_variant(variant);
            let res = engine.search(&query.residues, &db, &cfg);
            let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
            assert_eq!(got, expect, "variant {variant}");
        }
    }

    #[test]
    fn every_database_sequence_is_scored_once() {
        let db = small_db(16);
        let query = generate_query(60, 3);
        let engine = SearchEngine::paper_default();
        let res = engine.search(&query.residues, &db, &SearchConfig::best(3));
        assert_eq!(res.hits.len(), db.n_seqs());
        let mut ids: Vec<u32> = res.hits.iter().map(|h| h.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), db.n_seqs());
    }

    #[test]
    fn results_sorted_descending() {
        let db = small_db(8);
        let query = generate_query(90, 5);
        let engine = SearchEngine::paper_default();
        let res = engine.search(&query.residues, &db, &SearchConfig::best(2));
        assert!(res.hits.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(res.cells.real, db.total_cells(90));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Zero threads is the region's clamp to one CPU worker.
        let db = small_db(8);
        let query = generate_query(70, 11);
        let engine = SearchEngine::paper_default();
        let expect = reference_scores(&query.residues, &db);
        for threads in [0, 1, 4] {
            let res = engine.search(&query.residues, &db, &SearchConfig::best(threads));
            let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn overflow_rescue_in_engine() {
        // A database containing a huge self-similar sequence saturates i16
        // and must come back exact.
        let a = Alphabet::protein();
        let w = a.encode_byte(b'W').unwrap();
        let giant = sw_seq::EncodedSeq {
            header: "giant".into(),
            residues: vec![w; 3200],
        };
        let small = sw_seq::EncodedSeq {
            header: "small".into(),
            residues: vec![w; 10],
        };
        let db = PreparedDb::prepare(vec![giant.clone(), small], 4, &a);
        let engine = SearchEngine::paper_default();
        let res = engine.search(&giant.residues, &db, &SearchConfig::best(1));
        assert_eq!(res.lanes_rescued, 1);
        assert_eq!(res.hits[0].score, 3200 * 11);
        assert_eq!(res.hits[1].score, 10 * 11);
    }

    #[test]
    fn search_many_equals_individual_searches() {
        let db = small_db(8);
        let engine = SearchEngine::paper_default();
        let queries: Vec<Vec<u8>> = [60u32, 144, 222]
            .iter()
            .map(|&l| generate_query(l, l as u64).residues)
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let cfg = SearchConfig::best(3);
        let pooled = engine.search_many(&refs, &db, &cfg);
        assert_eq!(pooled.len(), 3);
        for (q, pooled_res) in queries.iter().zip(&pooled) {
            let single = engine.search(q, &db, &cfg);
            assert_eq!(pooled_res.hits, single.hits);
            assert_eq!(pooled_res.cells, single.cells);
        }
    }

    #[test]
    fn search_many_splits_wall_clock_across_queries() {
        // One pooled region, one wall clock: the per-query elapsed values
        // are shares of it, so their sum can never exceed the wall time —
        // the bug this guards against charged the FULL pooled time to
        // every query, inflating aggregate GCUPS ~|Q|×.
        let db = small_db(8);
        let engine = SearchEngine::paper_default();
        let queries: Vec<Vec<u8>> = [50u32, 100, 400, 800]
            .iter()
            .map(|&l| generate_query(l, l as u64).residues)
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let start = std::time::Instant::now();
        let pooled = engine.search_many(&refs, &db, &SearchConfig::best(2));
        let wall = start.elapsed();
        let sum: std::time::Duration = pooled.iter().map(|r| r.elapsed).sum();
        assert!(
            sum <= wall,
            "per-query elapsed must partition the pooled wall clock \
             (sum {sum:?} > wall {wall:?})"
        );
        assert!(
            pooled.iter().all(|r| r.elapsed > std::time::Duration::ZERO),
            "every query with work gets a nonzero share"
        );
        // Longer queries (more padded cells) are charged a larger share.
        assert!(pooled[3].elapsed >= pooled[0].elapsed);
    }

    #[test]
    fn search_many_empty_database() {
        let a = Alphabet::protein();
        let db = PreparedDb::prepare(Vec::new(), 8, &a);
        let engine = SearchEngine::paper_default();
        let q = generate_query(50, 1).residues;
        let out = engine.search_many(&[&q, &q], &db, &SearchConfig::best(1));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.hits.is_empty()));
    }

    /// A database whose scores against `query` (a run of 3 200 W) span all
    /// three precisions at `lanes = 16`: background sequences settle in
    /// the byte pass, a 60-W run (660) needs i16, the query itself
    /// (35 200) the scalar rescue.
    fn precision_mix() -> (PreparedDb, Vec<u8>) {
        let a = Alphabet::protein();
        let w = a.encode_byte(b'W').unwrap();
        let mut seqs = generate_database(&DbSpec::tiny(42));
        for (header, len) in [("mid", 60), ("giant", 3200)] {
            seqs.push(sw_seq::EncodedSeq {
                header: header.into(),
                residues: vec![w; len],
            });
        }
        (PreparedDb::prepare(seqs, 16, &a), vec![w; 3200])
    }

    #[test]
    fn adaptive_precision_identical_results() {
        // The default path is the precision cascade; it must equal the
        // scalar oracle where its tiers hand over (u8 → i16 → i64).
        let (db, query) = precision_mix();
        let engine = SearchEngine::paper_default();
        let res = engine.search(&query, &db, &SearchConfig::best(2));
        let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
        assert_eq!(got, reference_scores(&query, &db));
        assert_eq!(got[0].1, 3200 * 11);
        assert_eq!(got[1].1, 60 * 11);
        assert!(got[2].1 < 255, "the background settles in bytes");
        assert_eq!(res.lanes_rescued, 1);
    }

    #[test]
    fn adaptive_precision_with_giant_scores() {
        // The cascade must chain all the way to the i64 rescue.
        let a = Alphabet::protein();
        let w = a.encode_byte(b'W').unwrap();
        let giant = sw_seq::EncodedSeq {
            header: "giant".into(),
            residues: vec![w; 3200],
        };
        let db = PreparedDb::prepare(vec![giant.clone()], 16, &a);
        let engine = SearchEngine::paper_default();
        let res = engine.search(&giant.residues, &db, &SearchConfig::best(1));
        assert_eq!(res.hits[0].score, 3200 * 11);
        assert_eq!(res.lanes_rescued, 1);
    }

    #[test]
    fn forced_portable_matches_detected_isa_exactly() {
        // The CLI contract: `--kernel-isa portable` reproduces the
        // detected-ISA hit list byte for byte. Exercise both SSE2-native
        // (8 × i16) and AVX2-native (16 × i16) lane widths, blocked and
        // unblocked, plus a database with scores on both sides of the byte
        // ceiling (portable starts at i16, AVX2 in bytes).
        use sw_kernels::KernelIsa;
        let engine = SearchEngine::paper_default();
        let query = generate_query(100, 17);
        for lanes in [8usize, 16] {
            let db = small_db(lanes);
            for variant in KernelVariant::fig3_set() {
                if variant.vec != Vectorization::Intrinsic {
                    continue;
                }
                let cfg = SearchConfig::best(2).with_variant(variant);
                let detected = engine.search(&query.residues, &db, &cfg);
                let portable =
                    engine.search(&query.residues, &db, &cfg.with_isa(KernelIsa::Portable));
                assert_eq!(
                    detected.hits, portable.hits,
                    "lanes {lanes} variant {variant}"
                );
            }
        }
        // A short W query keeps the portable sweep cheap: the two W runs
        // still leave the byte range, nothing leaves i16.
        let (db, query) = precision_mix();
        let cfg = SearchConfig::best(2);
        let detected = engine.search(&query[..80], &db, &cfg);
        let portable = engine.search(&query[..80], &db, &cfg.with_isa(KernelIsa::Portable));
        assert_eq!(detected.hits, portable.hits, "precision mix");
        assert_eq!(detected.hits[0].score, 80 * 11);
    }

    #[test]
    fn wide_matrix_falls_back_to_the_materialised_profile() {
        // ±200 does not fit the fused kernel's i8 score table, so the
        // default path must build the sequence profile per batch — same
        // hits as the scalar oracle, at SSE2's and AVX2's native widths.
        let a = Alphabet::protein();
        let params = SwParams::new(
            sw_seq::SubstMatrix::match_mismatch(&a, 200, -200),
            SwParams::paper_default().gap,
        );
        assert!(ScoreTable::build(&params.matrix, &a).rows().is_none());
        let engine = SearchEngine::new(params.clone());
        let query = generate_query(90, 23).residues;
        for lanes in [8usize, 16] {
            let db = small_db(lanes);
            let res = engine.search(&query, &db, &SearchConfig::best(2));
            let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
            assert_eq!(
                got,
                reference_scores_under(&query, &db, &params),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "database search failed (query 0 batch")]
    fn kernel_panic_names_the_query_and_batch() {
        // The intrinsic kernels exist for 4/8/16/32 lanes only, so every
        // task of a 5-lane database panics in `run_batch`.
        let db = small_db(5);
        let query = generate_query(40, 2).residues;
        SearchEngine::paper_default().search(&query, &db, &SearchConfig::best(1));
    }

    #[test]
    #[should_panic(expected = "query must not be empty")]
    fn empty_query_rejected() {
        let db = small_db(4);
        SearchEngine::paper_default().search(&[], &db, &SearchConfig::best(1));
    }
}
