//! Sensitivity experiment — quantifying the paper's motivation.
//!
//! §I: *"BLAST … increase\[s\] speed at the cost of reduced sensitivity"*
//! and exact SW *"guarantees the optimal alignment, which is essential in
//! some applications."* This binary measures that trade-off: a family of
//! homologs is planted into a decoy database at increasing mutation
//! rates; the exact engine recovers all of them by construction, while
//! the seed-and-extend heuristic's recall decays — exactly the loss the
//! paper's acceleration of exact SW exists to avoid.

use sw_bench::Table;
use sw_core::{PreparedDb, SearchConfig, SearchEngine};
use sw_heuristic::HeuristicEngine;
use sw_seq::gen::SwissProtGen;
use sw_seq::{Alphabet, EncodedSeq};
use sw_swdb::SequenceDatabase;

const N_HOMOLOGS: usize = 40;
const N_DECOYS: usize = 400;
const QUERY_LEN: u32 = 300;
/// Homology is confined to a short domain — the hard case for seeding:
/// a 42-residue conserved region inside otherwise unrelated sequence.
const DOMAIN_LEN: usize = 42;
const DOMAIN_AT: usize = 120;

fn mutate(seq: &[u8], rate: f64, rng: &mut impl rand_like::RngLike) -> Vec<u8> {
    seq.iter()
        .map(|&r| if rng.chance(rate) { rng.residue() } else { r })
        .collect()
}

/// Minimal deterministic RNG facade so this binary needs no extra deps.
mod rand_like {
    pub trait RngLike {
        fn next_u64(&mut self) -> u64;
        fn chance(&mut self, p: f64) -> bool {
            (self.next_u64() as f64 / u64::MAX as f64) < p
        }
        fn residue(&mut self) -> u8 {
            (self.next_u64() % 20) as u8
        }
    }
    /// SplitMix64.
    pub struct Mix(pub u64);
    impl RngLike for Mix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

fn main() {
    let alphabet = Alphabet::protein();
    let mut g = SwissProtGen::new(300.0, 77);
    let query = g.sequence("query", QUERY_LEN);
    let domain = &query.residues[DOMAIN_AT..DOMAIN_AT + DOMAIN_LEN];

    let mut t = Table::new(
        "Sensitivity — exact SW vs seed-and-extend (paper §I motivation)",
        &[
            "mutation_%",
            "sw_recall",
            "heuristic_recall",
            "work_saved_%",
        ],
    );

    for &rate in &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
        let mut rng = rand_like::Mix((rate * 1e6) as u64);
        let mut seqs: Vec<EncodedSeq> = Vec::new();
        // Homologs first (ids 0..N_HOMOLOGS): random sequence carrying a
        // mutated copy of the query's domain.
        for i in 0..N_HOMOLOGS {
            let mut residues = g.sequence("tmp", 300).residues;
            let mutated = mutate(domain, rate, &mut rng);
            residues[100..100 + DOMAIN_LEN].copy_from_slice(&mutated);
            seqs.push(EncodedSeq {
                header: format!("hom{i}").into(),
                residues,
            });
        }
        for i in 0..N_DECOYS {
            seqs.push(g.sequence(&format!("decoy{i}"), 300));
        }

        // Both engines rank by exact SW score; recall@40 = planted
        // homologs retrieved in the top 40. The heuristic can only lose
        // candidates it skipped, so heuristic recall <= exact recall.
        let exact_engine = SearchEngine::paper_default();
        let db = PreparedDb::prepare(seqs.clone(), 8, &alphabet);
        let exact = exact_engine.search(&query.residues, &db, &SearchConfig::best(2));
        let sw_recall = exact
            .top(N_HOMOLOGS)
            .iter()
            .filter(|h| h.id.0 < N_HOMOLOGS as u32)
            .count() as f64
            / N_HOMOLOGS as f64;

        let flat_db = SequenceDatabase::from_sequences(seqs);
        let heuristic = HeuristicEngine::paper_default();
        let h = heuristic.search(&query.residues, &flat_db);
        let found = h
            .hits
            .iter()
            .take(N_HOMOLOGS)
            .filter(|x| x.id.0 < N_HOMOLOGS as u32)
            .count();
        t.row(vec![
            format!("{:.0}", rate * 100.0),
            format!("{sw_recall:.2}"),
            format!("{:.2}", found as f64 / N_HOMOLOGS as f64),
            format!("{:.0}", h.work_saved() * 100.0),
        ]);
    }
    t.emit("sensitivity");
    println!(
        "Exact SW pays the full DP cost for guaranteed recall; the heuristic\n\
         trades recall for skipped work as homology gets more remote — the\n\
         trade-off the paper's exact-SW acceleration exists to avoid."
    );
}
