//! Inter-task vs intra-task ablation — the paper's §IV design choice,
//! measured on this machine with the real kernels.
//!
//! *"the inter-task approach usually outperform the intra-task
//! counterpart, especially when aligning short sequences. Essentially,
//! when aligning several pairs in parallel, we avoid the data dependences
//! that limit the performance of intra-task approaches"* — the paper's
//! justification for adopting SWIPE's scheme over Farrar's. Both kernels
//! exist in this repository, so the claim is directly measurable: this
//! binary sweeps database sequence length and times both on identical
//! workloads, single thread. The inter-task side is the kernel the
//! engine dispatches to (`sw_isa_fused_sp`), once on the detected ISA and
//! once forced to `portable`; the intra-task side is the striped kernel
//! over the portable `I16s` vectors, so `portable` vs `intra` isolates the
//! *scheme* and the detected-ISA column shows what the engine really runs.
//!
//! A second table prices the precision cascade inside that kernel. On
//! AVX2 the default path sweeps a batch in bytes and re-sweeps it in i16
//! when a lane reaches the byte ceiling, so a promoted batch costs both
//! sweeps. The generator's i.i.d. background never
//! promotes (nor do the pinned benchmark's inputs); the table therefore
//! runs the same search over that background with ≈ 1 % and ≈ 10 %
//! planted homologs of the queries (`sw_seq::gen::plant_homologs`) and
//! reports throughput beside the share of batches and lanes promoted.

use std::time::Instant;
use sw_bench::striped::{sw_striped, StripedProfile};
use sw_bench::Table;
use sw_core::{PreparedDb, SearchConfig, SearchEngine};
use sw_kernels::arch::sw_isa_fused_sp;
use sw_kernels::{KernelIsa, SwParams};
use sw_seq::gen::{generate_database, generate_query, plant_homologs, DbSpec, SwissProtGen};
use sw_seq::{Alphabet, SeqId};
use sw_swdb::batch::pad_code;
use sw_swdb::{LaneBatch, ScoreTable};

const LANES: usize = 16;
/// Total database residues per configuration (constant work).
const DB_RESIDUES: usize = 400_000;

/// Seconds and score checksum of the inter-task scheme on `isa`: pack
/// lane batches, run the fused SP kernel over each.
fn inter_task(
    isa: KernelIsa,
    query: &[u8],
    seqs: &[Vec<u8>],
    a: &Alphabet,
    params: &SwParams,
) -> (f64, i64) {
    let table = ScoreTable::build(&params.matrix, a);
    let t0 = Instant::now();
    let mut checksum = 0i64;
    for group in seqs.chunks(LANES) {
        let refs: Vec<(SeqId, &[u8])> = group
            .iter()
            .enumerate()
            .map(|(i, s)| (SeqId(i as u32), s.as_slice()))
            .collect();
        let batch = LaneBatch::pack(LANES, &refs, pad_code(a));
        let (out, _) = sw_isa_fused_sp::<LANES>(isa, query, &table, &batch, &params.gap, None);
        checksum += out.scores.iter().sum::<i64>();
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

/// The price of the rescue: the default search (one thread, detected ISA)
/// over an i.i.d. background and over the same background with planted
/// homologs of the queries.
fn rescue_price(a: &Alphabet) {
    const BACKGROUND: u32 = 4000;
    let engine = SearchEngine::paper_default();
    let config = SearchConfig::best(1);
    let table = ScoreTable::build(&engine.params.matrix, a);
    let queries = [144u32, 375, 1000].map(|len| generate_query(len, len as u64));
    let spec = DbSpec {
        n_seqs: BACKGROUND,
        mean_len: 355.4,
        max_len: 3000,
        seed: 21,
    };

    let mut t = Table::new(
        &format!(
            "Price of the precision cascade: default search on {}, one thread, queries 144/375/1000",
            config.isa
        ),
        &[
            "input",
            "sequences",
            "GCUPS",
            "vs_iid",
            "promoted_batches",
            "promoted_cells",
            "promoted_lanes",
            "rescued_lanes",
        ],
    );
    let inputs: Vec<(&str, PreparedDb)> =
        [("iid", 0), ("planted_1pct", 40), ("planted_10pct", 400)]
            .into_iter()
            .map(|(label, planted)| {
                let mut seqs = generate_database(&spec);
                plant_homologs(&mut seqs, &queries, planted, 21);
                (label, PreparedDb::prepare(seqs, LANES, a))
            })
            .collect();

    // Throughput: what a search delivers. The inputs take turns within
    // each round, so a slow spell of a shared host falls on all of them;
    // the median round of each is reported.
    const ROUNDS: usize = 9;
    let mut runs: Vec<Vec<(f64, u64)>> = vec![Vec::new(); inputs.len()];
    for _ in 0..ROUNDS {
        for ((_, db), runs) in inputs.iter().zip(&mut runs) {
            let t0 = Instant::now();
            let mut rescued = 0;
            for q in &queries {
                rescued += engine.search(&q.residues, db, &config).lanes_rescued;
            }
            runs.push((t0.elapsed().as_secs_f64(), rescued));
        }
    }

    let mut iid_gcups = 0.0;
    for ((label, db), mut runs) in inputs.iter().zip(runs) {
        runs.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (secs, rescued) = runs[ROUNDS / 2];
        let real_cells: u64 = queries.iter().map(|q| db.total_cells(q.len())).sum();
        let gcups = real_cells as f64 / secs / 1e9;
        if *label == "iid" {
            iid_gcups = gcups;
        }

        // Promotions: the same (query, batch) tasks, counted untimed.
        let (mut batches, mut cells, mut lanes) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
        let block = Some(config.effective_block_rows(LANES));
        for q in &queries {
            for batch in &db.batches {
                let (_, stats) = sw_isa_fused_sp::<LANES>(
                    config.isa,
                    &q.residues,
                    &table,
                    batch,
                    &engine.params.gap,
                    block,
                );
                let promoted = u64::from(stats.widened_i16 > 0);
                let padded = batch.padded_cells(q.len());
                batches = (batches.0 + promoted, batches.1 + 1);
                cells = (cells.0 + promoted * padded, cells.1 + padded);
                lanes = (lanes.0 + stats.widened_i16, lanes.1 + batch.n_seqs() as u64);
            }
        }
        let share = |(hit, all): (u64, u64)| format!("{:.4}", hit as f64 / all as f64);
        t.row(vec![
            label.to_string(),
            db.n_seqs().to_string(),
            format!("{gcups:.2}"),
            format!("{:.2}x", gcups / iid_gcups),
            share(batches),
            share(cells),
            share(lanes),
            rescued.to_string(),
        ]);
    }
    t.emit("ablation_rescue");
    println!(
        "Reading: a promoted batch is swept twice (bytes, then i16 at two to\n\
         three times the cost), so `promoted_cells` — the share of DP cells that sit\n\
         in promoted batches; homologs of a long query are long, so it runs\n\
         ahead of the batch count — is what the slowdown follows, and the\n\
         cascade stays ahead of an i16-only first pass until more than half\n\
         the cells promote. The pinned benchmark's four workloads draw i.i.d.\n\
         residues and sit at the first row: promotion fraction 0.\n"
    );
}

fn main() {
    let a = Alphabet::protein();
    let params = SwParams::paper_default();
    let mut g = SwissProtGen::new(355.4, 5);
    let detected = KernelIsa::detect();

    let mut t = Table::new(
        "Inter-task (SWIPE-style) vs intra-task (Farrar striped), single thread, this host",
        &[
            "query_len",
            "seq_len",
            &format!("inter_{detected}_Mcells/s"),
            "inter_portable_Mcells/s",
            "intra_Mcells/s",
            &format!("{detected}/intra"),
            "portable/intra",
        ],
    );

    for &(qlen, len) in &[
        (100u32, 50usize),
        (100, 355),
        (400, 50),
        (400, 355),
        (400, 3000),
        (2000, 355),
        (2000, 3000),
    ] {
        let query = g.sequence("q", qlen).residues;
        let n_seqs = (DB_RESIDUES / len).max(LANES);
        let seqs: Vec<Vec<u8>> = (0..n_seqs)
            .map(|_| g.sequence("s", len as u32).residues)
            .collect();
        let cells = (query.len() * len * n_seqs) as f64;

        let (native_s, native_sum) = inter_task(detected, &query, &seqs, &a, &params);
        let (portable_s, portable_sum) =
            inter_task(KernelIsa::Portable, &query, &seqs, &a, &params);

        // --- intra-task: striped kernel, one pair at a time ------------
        let t0 = Instant::now();
        let profile = StripedProfile::<LANES>::build(&query, &params);
        let mut intra_sum = 0i64;
        for s in &seqs {
            intra_sum += sw_striped(&profile, s, &params).score;
        }
        let intra_s = t0.elapsed().as_secs_f64();

        assert_eq!(native_sum, intra_sum, "both schemes must score identically");
        assert_eq!(portable_sum, intra_sum, "both ISAs must score identically");
        let rate = |secs: f64| cells / secs / 1e6;
        t.row(vec![
            qlen.to_string(),
            len.to_string(),
            format!("{:.0}", rate(native_s)),
            format!("{:.0}", rate(portable_s)),
            format!("{:.0}", rate(intra_s)),
            format!("{:.2}x", intra_s / native_s),
            format!("{:.2}x", intra_s / portable_s),
        ]);
    }
    t.emit("ablation");
    println!(
        "Reproduction note: `portable/intra` compares the two schemes over\n\
         the same element-loop vectors; the {detected} column is the kernel\n\
         the engine runs. The paper's §IV expectation — inter-task ahead,\n\
         most on short sequences — is what this host measures when both\n\
         ratios are above 1. Scores from both schemes and both ISAs are\n\
         asserted identical.\n"
    );
    rescue_price(&a);
}
