//! Hit reporting — turning a score list into the per-hit record a
//! production tool prints: header, bit score, E-value, traceback
//! alignment and its column statistics.

use crate::prepare::PreparedDb;
use crate::results::SearchResults;
use crate::stats::KarlinParams;
use serde::Serialize;
use sw_kernels::traceback::{sw_align, AlignStats, Alignment};
use sw_kernels::SwParams;
use sw_seq::SeqId;

/// Full per-hit record for the top of a result list.
#[derive(Debug, Clone, Serialize)]
pub struct HitReport {
    /// Database sequence id.
    pub id: SeqId,
    /// Database header.
    pub header: String,
    /// Subject length.
    pub subject_len: usize,
    /// Raw Smith-Waterman score.
    pub score: i64,
    /// Normalised bit score.
    pub bits: f64,
    /// Expect value against this database.
    pub evalue: f64,
    /// Alignment path (None when the score is 0).
    pub alignment: Option<Alignment>,
    /// Column statistics of the alignment.
    pub stats: Option<AlignStats>,
}

impl HitReport {
    /// One line of BLAST "outfmt 6"-style tabular output:
    /// `query subject %identity length mismatches gapopens qstart qend sstart send evalue bits`.
    pub fn tabular(&self, query_label: &str) -> String {
        match (&self.alignment, &self.stats) {
            (Some(a), Some(s)) => format!(
                "{query_label}\t{}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
                self.header,
                s.pct_identity(),
                s.columns,
                s.columns - s.identities - s.gap_columns,
                s.gap_opens,
                a.query_range.0 + 1,
                a.query_range.1,
                a.subject_range.0 + 1,
                a.subject_range.1,
                self.evalue,
                self.bits
            ),
            _ => format!(
                "{query_label}\t{}\t0.0\t0\t0\t0\t0\t0\t0\t0\t{:.2e}\t{:.1}",
                self.header, self.evalue, self.bits
            ),
        }
    }
}

/// Build full reports for the top `k` hits of `results`.
pub fn report_top_hits(
    query: &[u8],
    db: &PreparedDb,
    results: &SearchResults,
    params: &SwParams,
    karlin: &KarlinParams,
    k: usize,
) -> Vec<HitReport> {
    results
        .top(k)
        .iter()
        .map(|hit| {
            let subject = db.sorted.db().seq(hit.id);
            let alignment = sw_align(query, subject.residues, params);
            let stats = alignment
                .as_ref()
                .map(|a| a.stats(query, subject.residues, params));
            if let Some(a) = &alignment {
                debug_assert_eq!(a.score, hit.score, "traceback must agree with the kernel");
            }
            HitReport {
                id: hit.id,
                header: db.sorted.db().header(hit.id).to_string(),
                subject_len: subject.len(),
                score: hit.score,
                bits: karlin.bit_score(hit.score),
                evalue: karlin.evalue(hit.score, query.len(), db.stats.total_residues),
                alignment,
                stats,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::engine::SearchEngine;
    use sw_seq::gen::{generate_database, generate_query, DbSpec};
    use sw_seq::Alphabet;

    fn setup() -> (PreparedDb, Vec<u8>, SearchEngine) {
        let a = Alphabet::protein();
        let mut seqs = generate_database(&DbSpec::tiny(19));
        let query = generate_query(90, 4);
        seqs.push(query.clone()); // plant a perfect hit
        let db = PreparedDb::prepare(seqs, 8, &a);
        (db, query.residues, SearchEngine::paper_default())
    }

    #[test]
    fn reports_are_consistent_with_results() {
        let (db, query, engine) = setup();
        let res = engine.search(&query, &db, &SearchConfig::best(2));
        let karlin = KarlinParams::gapped_approx(&engine.params.matrix);
        let reports = report_top_hits(&query, &db, &res, &engine.params, &karlin, 5);
        assert_eq!(reports.len(), 5);
        for (r, h) in reports.iter().zip(res.top(5)) {
            assert_eq!(r.id, h.id);
            assert_eq!(r.score, h.score);
            if let Some(a) = &r.alignment {
                assert_eq!(a.score, h.score);
            }
        }
        // The planted self-hit: 100 % identity, minuscule E-value.
        let top = &reports[0];
        assert_eq!(top.stats.as_ref().unwrap().pct_identity(), 100.0);
        assert!(top.evalue < 1e-30);
    }

    #[test]
    fn tabular_format_shape() {
        let (db, query, engine) = setup();
        let res = engine.search(&query, &db, &SearchConfig::best(1));
        let karlin = KarlinParams::gapped_approx(&engine.params.matrix);
        let reports = report_top_hits(&query, &db, &res, &engine.params, &karlin, 1);
        let line = reports[0].tabular("query1");
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 12, "outfmt-6 has 12 columns: {line}");
        assert_eq!(fields[0], "query1");
        assert_eq!(fields[2], "100.0");
    }

    #[test]
    fn zero_score_hits_report_without_alignment() {
        let a = Alphabet::protein();
        // A database sequence that cannot align (all prolines vs all
        // tryptophans).
        let w = a.encode_byte(b'W').unwrap();
        let p = a.encode_byte(b'P').unwrap();
        let db = PreparedDb::prepare(
            vec![sw_seq::EncodedSeq {
                header: "nohit".into(),
                residues: vec![p; 30],
            }],
            4,
            &a,
        );
        let engine = SearchEngine::paper_default();
        let query = vec![w; 30];
        let res = engine.search(&query, &db, &SearchConfig::best(1));
        assert_eq!(res.hits[0].score, 0);
        let karlin = KarlinParams::gapped_approx(&engine.params.matrix);
        let reports = report_top_hits(&query, &db, &res, &engine.params, &karlin, 1);
        assert!(reports[0].alignment.is_none());
        assert!(reports[0].tabular("q").contains("nohit"));
    }
}
