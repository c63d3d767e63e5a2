//! Micro-benchmarks of the real kernels on the host (std-only harness,
//! see `sw_bench::micro`).
//!
//! These measure *this machine's* throughput (cells/s) for every kernel
//! variant — the host-measured complement to the simulated device
//! figures. They also demonstrate the orderings the paper relies on:
//! profile layouts matter, explicit-lane code beats scalar by a wide
//! margin, and blocking is free for short queries.
//!
//! The intrinsic rows go through the `sw_isa_*` dispatchers the engine
//! calls, once on the ISA this host detects and once forced to
//! `portable`, each labelled with the ISA it ran on. `intrinsic-SP` is
//! the engine's default path, the fused sequence profile.

use sw_bench::micro;
use sw_kernels::arch::{sw_isa_adaptive_sp, sw_isa_fused_sp, sw_isa_qp, KernelIsa};
use sw_kernels::banded::sw_banded;
use sw_kernels::guided::{sw_guided_qp, sw_guided_sp, GuidedWorkspace};
use sw_kernels::scalar::{sw_score_scalar, SwParams};
use sw_kernels::striped::{sw_striped, StripedProfile};
use sw_seq::gen::SwissProtGen;
use sw_seq::{Alphabet, SeqId};
use sw_swdb::batch::pad_code;
use sw_swdb::{LaneBatch, QueryProfile, ScoreTable, SequenceProfile, SequenceProfileI8};

const LANES: usize = 16;
const QUERY_LEN: u32 = 400;
const SUBJECT_LEN: u32 = 360;

struct Fixture {
    params: SwParams,
    query: Vec<u8>,
    subjects: Vec<Vec<u8>>,
    batch: LaneBatch,
    qp: QueryProfile,
    sp: SequenceProfile,
    cells: u64,
}

fn fixture() -> Fixture {
    let a = Alphabet::protein();
    let params = SwParams::paper_default();
    let mut g = SwissProtGen::new(355.4, 99);
    let query = g.sequence("q", QUERY_LEN).residues;
    let subjects: Vec<Vec<u8>> = (0..LANES)
        .map(|_| g.sequence("s", SUBJECT_LEN).residues)
        .collect();
    let refs: Vec<(SeqId, &[u8])> = subjects
        .iter()
        .enumerate()
        .map(|(i, s)| (SeqId(i as u32), s.as_slice()))
        .collect();
    let batch = LaneBatch::pack(LANES, &refs, pad_code(&a));
    let qp = QueryProfile::build(&query, &params.matrix, &a);
    let sp = SequenceProfile::build(&batch, &params.matrix, &a);
    let cells = batch.real_cells(query.len());
    Fixture {
        params,
        query,
        subjects,
        batch,
        qp,
        sp,
        cells,
    }
}

fn main() {
    let f = fixture();
    micro::section("kernels (cells/s as elem/s)");

    micro::run("scalar (no-vec)", f.cells, || {
        let mut total = 0i64;
        for s in &f.subjects {
            total += sw_score_scalar(&f.query, s, &f.params);
        }
        total
    });

    let mut gws = GuidedWorkspace::new();
    micro::run("guided-QP", f.cells, || {
        sw_guided_qp(&f.qp, &f.batch, &f.params.gap, &mut gws)
    });
    let mut gws = GuidedWorkspace::new();
    micro::run("guided-SP", f.cells, || {
        sw_guided_sp(&f.query, &f.sp, &f.batch, &f.params.gap, &mut gws)
    });

    let a = Alphabet::protein();
    let table = ScoreTable::build(&f.params.matrix, &a);
    let sp8 = SequenceProfileI8::from_wide(&f.sp);
    let gap = &f.params.gap;
    let mut isas = vec![KernelIsa::detect(), KernelIsa::Portable];
    isas.dedup();
    for isa in isas {
        micro::run(&format!("intrinsic-QP [{isa}]"), f.cells, || {
            sw_isa_qp::<LANES>(isa, &f.qp, &f.batch, gap, None)
        });
        micro::run(&format!("intrinsic-SP [{isa}]"), f.cells, || {
            sw_isa_fused_sp::<LANES>(isa, &f.query, &table, &f.batch, gap, None)
        });
        // 128-row blocks tile the 400-residue query; a block ≥ the query
        // would be the unblocked row again. (Under AVX2 the byte pass
        // ignores blocking and this workload never leaves it, so the row
        // repeats the one above; the portable row really tiles.)
        micro::run(&format!("blocked-SP [{isa}]"), f.cells, || {
            sw_isa_fused_sp::<LANES>(isa, &f.query, &table, &f.batch, gap, Some(128))
        });
        micro::run(&format!("adaptive i8->i16 [{isa}]"), f.cells, || {
            sw_isa_adaptive_sp::<LANES>(isa, &f.query, &f.sp, &sp8, &f.batch, gap)
        });
    }

    micro::run("banded r=32 (per pair)", f.cells, || {
        let mut total = 0i64;
        for s in &f.subjects {
            total += sw_banded(&f.query, s, &f.params, 0, 32);
        }
        total
    });

    let profile = StripedProfile::<LANES>::build(&f.query, &f.params);
    micro::run("striped (intra-task)", f.cells, || {
        let mut total = 0i64;
        for s in &f.subjects {
            total += sw_striped(&profile, s, &f.params).score;
        }
        total
    });
}
