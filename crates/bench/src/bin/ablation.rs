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

use std::time::Instant;
use sw_bench::Table;
use sw_kernels::arch::sw_isa_fused_sp;
use sw_kernels::striped::{sw_striped, StripedProfile};
use sw_kernels::{KernelIsa, SwParams};
use sw_seq::gen::SwissProtGen;
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
        let out = sw_isa_fused_sp::<LANES>(isa, query, &table, &batch, &params.gap, None);
        checksum += out.scores.iter().sum::<i64>();
    }
    (t0.elapsed().as_secs_f64(), checksum)
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
         asserted identical."
    );
}
