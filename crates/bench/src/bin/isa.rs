//! ISA comparison: measured GCUPS of the intrinsic kernels under each
//! dispatchable instruction set (portable / SSE2 / AVX2) at both vector
//! widths and profile flavours, on this host, single-threaded.
//!
//! Unlike the `fig*` binaries this one does **not** simulate — it times
//! the real kernels on a synthetic Swiss-Prot-like workload, so the table
//! shows what the `std::arch` tier actually buys over the autovectorized
//! portable kernels. Results land in `results/isa.csv`.
//!
//! `intrinsic-SP` is the engine's default path — the fused kernel, which
//! derives the sequence profile column by column in registers.
//! `SP-materialised` is the paper's layout as published: one
//! `SequenceProfile::build` per lane batch, then `sw_isa_sp` over the
//! table (a bare loop over the batches, no rescue, no sort).
//!
//! Usage: `isa [scale]` — scale multiplies the database size (default 1).

use std::time::Instant;
use sw_bench::{table, Table};
use sw_core::{PreparedDb, SearchConfig, SearchEngine};
use sw_kernels::arch::sw_isa_sp;
use sw_kernels::{KernelIsa, KernelVariant, ProfileMode, SwParams, Vectorization};
use sw_seq::gen::{generate_database, generate_query, DbSpec};
use sw_seq::Alphabet;
use sw_swdb::SequenceProfile;

/// GCUPS of the materialised sequence-profile layout over `db`.
fn materialised_sp_gcups<const L: usize>(
    isa: KernelIsa,
    query: &[u8],
    db: &PreparedDb,
    config: &SearchConfig,
) -> f64 {
    let p = SwParams::paper_default();
    let block = Some(config.effective_block_rows(L));
    let start = Instant::now();
    for batch in &db.batches {
        let sp = SequenceProfile::build(batch, &p.matrix, &db.alphabet);
        std::hint::black_box(sw_isa_sp::<L>(isa, query, &sp, batch, &p.gap, block));
    }
    db.total_cells(query.len()) as f64 / start.elapsed().as_secs_f64() / 1e9
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let alphabet = Alphabet::protein();
    let spec = DbSpec {
        n_seqs: ((400.0 * scale) as u32).max(16),
        mean_len: 355.4,
        max_len: 5_000,
        seed: 42,
    };
    let seqs = generate_database(&spec);
    let query = generate_query(300, 7);
    let engine = SearchEngine::paper_default();
    let detected = KernelIsa::detect();
    println!("# detected isa: {detected}\n");

    let mut t = Table::new(
        "Kernel ISA comparison — measured GCUPS (1 thread, this host)",
        &[
            "isa",
            "lanes",
            "intrinsic-QP",
            "intrinsic-SP",
            "SP-materialised",
        ],
    );
    for isa in [KernelIsa::Portable, KernelIsa::Sse2, KernelIsa::Avx2] {
        if !isa.is_available() {
            println!("(skipping {isa}: not supported on this host)");
            continue;
        }
        // 8 × i16 is SSE2's native width, 16 × i16 is AVX2's; each ISA
        // also runs the other width through its widest engaged kernel.
        for lanes in [8usize, 16] {
            let prepared = PreparedDb::prepare(seqs.clone(), lanes, &alphabet);
            let mut row = vec![isa.name().to_string(), lanes.to_string()];
            for profile in [ProfileMode::Query, ProfileMode::Sequence] {
                let cfg = SearchConfig::best(1)
                    .with_variant(KernelVariant {
                        vec: Vectorization::Intrinsic,
                        profile,
                        blocking: true,
                    })
                    .with_isa(isa);
                // Best of two runs smooths scheduler warm-up noise.
                let g = (0..2)
                    .map(|_| {
                        engine
                            .search(&query.residues, &prepared, &cfg)
                            .gcups()
                            .value()
                    })
                    .fold(0.0f64, f64::max);
                row.push(table::gcups(g));
            }
            let cfg = SearchConfig::best(1);
            let g = (0..2)
                .map(|_| match lanes {
                    8 => materialised_sp_gcups::<8>(isa, &query.residues, &prepared, &cfg),
                    _ => materialised_sp_gcups::<16>(isa, &query.residues, &prepared, &cfg),
                })
                .fold(0.0f64, f64::max);
            row.push(table::gcups(g));
            t.row(row);
        }
    }
    t.emit("isa");
}
