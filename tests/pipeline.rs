//! Integration tests spanning the whole workspace: FASTA → preprocess →
//! search → results, across kernel variants, lane widths and engines.

use std::io::Cursor;
use swhetero::kernels::scalar::sw_score_scalar;
use swhetero::prelude::*;
use swhetero::seq::fasta::read_encoded;
use swhetero::swdb::snapshot;

fn reference_ranking(query: &[u8], db: &PreparedDb, params: &SwParams) -> Vec<(u32, i64)> {
    let mut v: Vec<(u32, i64)> = db
        .sorted
        .db()
        .iter()
        .map(|(id, s)| (id.0, sw_score_scalar(query, s.residues, params)))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[test]
fn full_pipeline_matches_reference_at_all_lane_widths() {
    let alphabet = Alphabet::protein();
    let query = generate_query(222, 5);
    let engine = SearchEngine::paper_default();
    // 113 = 7·16 + 1: batch 0 holds one sequence at 4, 8 and 16 lanes.
    for n_seqs in [120, 113] {
        let seqs = generate_database(&DbSpec {
            n_seqs,
            mean_len: 150.0,
            max_len: 700,
            seed: 77,
        });
        for lanes in [4usize, 8, 16, 32] {
            let db = PreparedDb::prepare(seqs.clone(), lanes, &alphabet);
            let expect = reference_ranking(&query.residues, &db, &engine.params);
            let res = engine.search(&query.residues, &db, &SearchConfig::best(2));
            let got: Vec<(u32, i64)> = res.hits.iter().map(|h| (h.id.0, h.score)).collect();
            assert_eq!(got, expect, "n = {n_seqs}, lanes = {lanes}");
        }
    }
}

#[test]
fn fasta_snapshot_search_roundtrip() {
    // FASTA text → encode → snapshot bytes → reload → search: identical
    // hits either way.
    let alphabet = Alphabet::protein();
    let fasta = b">a first\nMKVLITRAWQESTNHY\n>b second\nMVLSPADKTNVKAAW\n>c third\nKVFERCELARTLKRLGMDGYRGISLANW\n";
    let seqs = read_encoded(Cursor::new(&fasta[..]), &alphabet).unwrap();
    let direct = PreparedDb::prepare(seqs.clone(), 4, &alphabet);

    let store = SequenceDatabase::from_sequences(seqs);
    let bytes = snapshot::write(&store);
    let reloaded = snapshot::read(&bytes).unwrap();
    let via_snapshot = PreparedDb::prepare(
        reloaded
            .iter()
            .map(|(id, v)| EncodedSeq {
                header: reloaded.header(id).into(),
                residues: v.residues.to_vec(),
            })
            .collect(),
        4,
        &alphabet,
    );

    let engine = SearchEngine::paper_default();
    let q = read_encoded(Cursor::new(&b">q\nMKVLITRAW\n"[..]), &alphabet)
        .unwrap()
        .remove(0);
    let r1 = engine.search(&q.residues, &direct, &SearchConfig::best(1));
    let r2 = engine.search(&q.residues, &via_snapshot, &SearchConfig::best(1));
    assert_eq!(r1.hits, r2.hits);
}

#[test]
fn hetero_engine_equals_single_engine_across_splits_and_variants() {
    let alphabet = Alphabet::protein();
    let seqs = generate_database(&DbSpec {
        n_seqs: 90,
        mean_len: 120.0,
        max_len: 500,
        seed: 8,
    });
    let db = PreparedDb::prepare(seqs, 8, &alphabet);
    let query = generate_query(189, 2);
    let engine = SearchEngine::paper_default();
    let expect = engine
        .search(&query.residues, &db, &SearchConfig::best(1))
        .hits;

    let hetero = HeteroEngine::new(engine);
    let cpu_cfg = SearchConfig::best(2).with_variant(KernelVariant {
        vec: Vectorization::Guided,
        profile: ProfileMode::Sequence,
        blocking: true,
    });
    let accel_cfg = SearchConfig::best(2);
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let plan = hetero.plan_split(&db, query.residues.len(), frac);
        let res = hetero.search(&query.residues, &db, &plan, &cpu_cfg, &accel_cfg);
        assert_eq!(res.hits, expect, "frac = {frac}");
    }
}

#[test]
fn paper_query_set_runs_end_to_end() {
    // All 20 paper queries against a small synthetic database: results
    // complete, sorted, and cells accounted exactly.
    let alphabet = Alphabet::protein();
    let seqs = generate_database(&DbSpec {
        n_seqs: 60,
        mean_len: 100.0,
        max_len: 400,
        seed: 31,
    });
    let db = PreparedDb::prepare(seqs, 16, &alphabet);
    let engine = SearchEngine::paper_default();
    for q in generate_query_set(1) {
        let res = engine.search(&q.residues, &db, &SearchConfig::best(2));
        assert_eq!(res.hits.len(), 60, "query {}", q.header);
        assert!(res.hits.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(res.cells.real, db.total_cells(q.residues.len()));
    }
}

#[test]
fn score_overflow_rescued_end_to_end() {
    let alphabet = Alphabet::protein();
    let w = alphabet.encode_byte(b'W').unwrap();
    let mut seqs = generate_database(&DbSpec {
        n_seqs: 30,
        mean_len: 80.0,
        max_len: 300,
        seed: 4,
    });
    seqs.push(EncodedSeq {
        header: "titin-like".into(),
        residues: vec![w; 3500],
    });
    let db = PreparedDb::prepare(seqs, 8, &alphabet);
    let query = EncodedSeq {
        header: "q".into(),
        residues: vec![w; 3500],
    };
    let engine = SearchEngine::paper_default();
    let res = engine.search(&query.residues, &db, &SearchConfig::best(2));
    assert!(
        res.lanes_rescued >= 1,
        "the titin-like pair must saturate i16"
    );
    assert_eq!(res.hits[0].score, 3500 * 11, "rescued score must be exact");
    assert!(db.sorted.db().header(res.hits[0].id).contains("titin"));
}

#[test]
fn empty_database_is_handled() {
    let alphabet = Alphabet::protein();
    let db = PreparedDb::prepare(Vec::new(), 8, &alphabet);
    let engine = SearchEngine::paper_default();
    let query = generate_query(50, 1);
    let res = engine.search(&query.residues, &db, &SearchConfig::best(2));
    assert!(res.hits.is_empty());
    assert_eq!(res.cells.real, 0);
}

#[test]
fn single_sequence_database() {
    let alphabet = Alphabet::protein();
    let seqs = vec![EncodedSeq::from_text("only", b"MKVLITRAW", &alphabet).unwrap()];
    let db = PreparedDb::prepare(seqs, 32, &alphabet);
    let engine = SearchEngine::paper_default();
    let res = engine.search(
        &alphabet.encode_strict(b"MKVLITRAW").unwrap(),
        &db,
        &SearchConfig::best(1),
    );
    assert_eq!(res.hits.len(), 1);
    assert!(res.hits[0].score > 0);
}

#[test]
fn cross_variant_self_test_all_widths() {
    for lanes in [4usize, 8, 16, 32] {
        let report = swhetero::core::verify::self_test(lanes, 1);
        assert!(
            report.passed(),
            "lanes {lanes}: {:?}",
            report.first_mismatch
        );
    }
}
