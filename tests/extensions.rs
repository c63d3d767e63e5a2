//! Integration tests of the extension features: DNA search, the
//! precision cascade, alignment statistics and the pooled multi-query
//! engine.

use swhetero::core::stats::KarlinParams;
use swhetero::kernels::scalar::sw_score_scalar;
use swhetero::prelude::*;

/// The engine is alphabet-generic: DNA search with a match/mismatch
/// matrix end to end.
#[test]
fn dna_search_end_to_end() {
    let dna = Alphabet::dna();
    let matrix = SubstMatrix::match_mismatch(&dna, 5, -4);
    let params = SwParams::new(matrix, GapPenalty::new(10, 2));
    let engine = SearchEngine::new(params.clone());

    let seqs: Vec<EncodedSeq> = [
        &b"ACGTACGTACGTACGT"[..],
        &b"TTTTTTTTTTTT"[..],
        &b"ACGTACGAACGT"[..],
        &b"GGGGCCCCGGGG"[..],
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| EncodedSeq::from_text(&format!("d{i}"), s, &dna).unwrap())
    .collect();
    let db = PreparedDb::prepare(seqs.clone(), 4, &dna);
    let query = dna.encode_strict(b"ACGTACGTACGT").unwrap();
    let res = engine.search(&query, &db, &SearchConfig::best(2));

    // Reference check for every sequence.
    for hit in &res.hits {
        let expect = sw_score_scalar(&query, db.sorted.db().seq(hit.id).residues, &params);
        assert_eq!(hit.score, expect);
    }
    // The perfect prefix match ranks first.
    assert_eq!(res.hits[0].id.0, 0);
    assert_eq!(res.hits[0].score, 12 * 5);
}

/// The default path's precision chain through the public engine — bytes
/// first, i16 for a batch with a lane at the byte ceiling, the scalar
/// rescue past i16 — equals the scalar oracle on a workload with a mix of
/// small, medium and saturating scores.
#[test]
fn adaptive_precision_engine_equivalence() {
    let a = Alphabet::protein();
    let w = a.encode_byte(b'W').unwrap();
    let mut seqs = generate_database(&DbSpec::tiny(31));
    seqs.push(EncodedSeq {
        header: "mid".into(),
        residues: vec![w; 60],
    });
    seqs.push(EncodedSeq {
        header: "giant".into(),
        residues: vec![w; 3100],
    });
    let db = PreparedDb::prepare(seqs, 16, &a);
    let query = vec![w; 3100];
    let engine = SearchEngine::paper_default();
    let res = engine.search(&query, &db, &SearchConfig::best(2));
    for hit in &res.hits {
        let expect = sw_score_scalar(&query, db.sorted.db().seq(hit.id).residues, &engine.params);
        assert_eq!(hit.score, expect, "sequence {}", hit.id.0);
    }
    assert_eq!(res.hits[0].score, 3100 * 11);
    assert_eq!(res.hits[1].score, 60 * 11);
    assert_eq!(res.lanes_rescued, 1);
}

/// E-values integrate consistently with engine scores: the top hit of a
/// planted-homolog search is overwhelmingly significant, random decoys
/// are not.
#[test]
fn evalues_separate_signal_from_noise() {
    let a = Alphabet::protein();
    let query = generate_query(300, 5);
    let mut seqs = generate_database(&DbSpec {
        n_seqs: 100,
        mean_len: 300.0,
        max_len: 900,
        seed: 9,
    });
    seqs.push(query.clone()); // plant an identical copy
    let db = PreparedDb::prepare(seqs, 8, &a);
    let engine = SearchEngine::paper_default();
    let res = engine.search(&query.residues, &db, &SearchConfig::best(2));
    let karlin = KarlinParams::gapped_approx(&engine.params.matrix);
    let db_res = db.stats.total_residues;

    let top_e = karlin.evalue(res.hits[0].score, query.residues.len(), db_res);
    assert!(
        top_e < 1e-100,
        "self-hit E-value must be negligible: {top_e}"
    );
    // Median decoy has E-value around or above 1 (not significant).
    let mid = res.hits[res.hits.len() / 2];
    let mid_e = karlin.evalue(mid.score, query.residues.len(), db_res);
    assert!(
        mid_e > 1e-4,
        "typical decoy must not look significant: {mid_e}"
    );
    // Bit scores order like raw scores.
    assert!(karlin.bit_score(res.hits[0].score) > karlin.bit_score(mid.score));
}

/// Pooled multi-query search over the whole paper query set matches
/// per-query searches.
#[test]
fn pooled_query_set_matches_individual() {
    let a = Alphabet::protein();
    let seqs = generate_database(&DbSpec {
        n_seqs: 40,
        mean_len: 100.0,
        max_len: 300,
        seed: 8,
    });
    let db = PreparedDb::prepare(seqs, 16, &a);
    let engine = SearchEngine::paper_default();
    let queries: Vec<EncodedSeq> = generate_query_set(3).into_iter().take(6).collect();
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.residues.as_slice()).collect();
    let pooled = engine.search_many(&refs, &db, &SearchConfig::best(4));
    for (q, pooled_res) in queries.iter().zip(&pooled) {
        let single = engine.search(&q.residues, &db, &SearchConfig::best(1));
        assert_eq!(pooled_res.hits, single.hits, "query {}", q.header);
    }
}

/// The KNL projection presets behave like devices (sanity of the future
/// study's inputs).
#[test]
fn knl_presets_are_coherent() {
    use swhetero::device::presets;
    let knc = presets::xeon_phi_60c();
    let knl = presets::xeon_phi_knl_7210();
    assert!(knl.max_threads() > knc.max_threads());
    assert!(knl.pcie.is_none(), "KNL is self-hosted");
    // Out-of-order single-thread issue is no longer halved.
    let p1 = knl.place_threads(64);
    assert!(knl.issue_eff(p1) >= 1.0);
    let costs = presets::knl_costs();
    assert!(costs.cpv_intr_sp < presets::phi_costs().cpv_intr_sp);
}
