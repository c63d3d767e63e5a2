//! Workload-distribution strategies — the paper's §VI future work:
//! *"we plan to analyze other workload distribution strategies."*
//!
//! Three strategies over the same workload, per query length:
//!
//! 1. **static-swept** — Fig. 8's approach: try every split fraction,
//!    keep the best (an oracle; needs a full sweep per configuration).
//! 2. **static-calibrated** — one-shot: set the fraction from the device
//!    models' predicted rates `α = r_accel / (r_cpu + r_accel)`.
//! 3. **dynamic** — no fraction at all: every hardware thread of both
//!    devices pulls sequence groups from one shared queue.
//!
//! The punchline the table shows: dynamic *dominates* every static
//! strategy at every query length with zero tuning — a static split,
//! even optimally swept, still suffers boundary imbalance inside each
//! device's share, while global pulling absorbs it.

use sw_bench::{table, Table, Workload};
use sw_core::{
    simulate_hetero, simulate_hetero_dynamic, DurableOptions, HeteroEngine, HeteroSearchConfig,
    SearchConfig, SearchEngine, SimConfig,
};
use sw_device::CostModel;
use sw_kernels::KernelVariant;
use sw_sched::{FaultInjector, FaultKind, FaultPlan, FaultSpec, DEVICE_ACCEL};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let workload = if scale >= 1.0 {
        Workload::paper_scale(1)
    } else {
        Workload::scaled(scale, 1)
    };
    let xeon = CostModel::xeon();
    let phi = CostModel::phi();
    let cpu_cfg = SimConfig::streamed(32, 8);
    let phi_cfg = SimConfig::streamed(240, 8);

    // One-shot calibrated fraction from model rates.
    let v = KernelVariant::best();
    let r_cpu = xeon.peak_gcups(v, 32, 2000);
    let r_phi = phi.peak_gcups(v, 240, 2000);
    let calibrated = r_phi / (r_cpu + r_phi);
    println!(
        "calibrated one-shot fraction: {:.1}% Phi (model rates {:.1} + {:.1})\n",
        calibrated * 100.0,
        r_cpu,
        r_phi
    );

    let mut t = Table::new(
        "Workload-distribution strategies (paper §VI) — GCUPS per query length",
        &[
            "query_len",
            "static_swept",
            "swept_frac_%",
            "static_calibrated",
            "dynamic",
        ],
    );
    for &q in &[144usize, 464, 1000, 2000, 5478] {
        // Oracle: sweep 21 fractions.
        let mut best = (0.0f64, 0.0f64);
        for step in 0..=20 {
            let f = step as f64 / 20.0;
            let r = simulate_hetero((&xeon, &cpu_cfg), (&phi, &phi_cfg), &workload.db_lens, q, f);
            if r.gcups > best.1 {
                best = (f, r.gcups);
            }
        }
        let cal = simulate_hetero(
            (&xeon, &cpu_cfg),
            (&phi, &phi_cfg),
            &workload.db_lens,
            q,
            calibrated,
        );
        let dyn_ =
            simulate_hetero_dynamic((&xeon, &cpu_cfg), (&phi, &phi_cfg), &workload.db_lens, q);
        t.row(vec![
            q.to_string(),
            table::gcups(best.1),
            format!("{:.0}", best.0 * 100.0),
            table::gcups(cal.gcups),
            table::gcups(dyn_.gcups),
        ]);
    }
    t.emit("dynsplit");
    println!(
        "Dynamic pulling beats every static strategy at every query length\n\
         with zero tuning: a static split, even optimally swept, keeps the\n\
         boundary imbalance inside each device's share, while the shared\n\
         queue absorbs it. The calibrated one-shot static fraction is a\n\
         close, cheap second.\n"
    );

    // Real execution: the instrumented dual-pool scheduler on host
    // threads (both pools run host kernels — exact scores; the metrics
    // show the realised split and per-device throughput).
    let alphabet = sw_seq::Alphabet::protein();
    let n_seqs = ((2_000.0 * scale.max(0.05)) as u32).max(200);
    let spec = sw_seq::gen::DbSpec {
        n_seqs,
        mean_len: 355.4,
        max_len: 5_000,
        seed: 42,
    };
    let prepared =
        sw_core::PreparedDb::prepare(sw_seq::gen::generate_database(&spec), 8, &alphabet);
    let query = sw_seq::gen::generate_query(464, 7);
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&prepared, query.residues.len(), 0.5);
    let cfg = HeteroSearchConfig::new(SearchConfig::best(2), SearchConfig::best(2));
    let outcome = hetero.search_dynamic(&query.residues, &prepared, &plan, &cfg);

    let mut r = Table::new(
        "Real dual-pool run (host threads, 2 + 2 workers, seed split 50%)",
        &[
            "pool", "workers", "tasks", "chunks", "busy_s", "cells", "gcups",
        ],
    );
    for (label, m) in [("cpu", &outcome.cpu), ("accel", &outcome.accel)] {
        r.row(vec![
            label.to_string(),
            m.workers.to_string(),
            m.tasks.to_string(),
            m.chunks.to_string(),
            format!("{:.3}", m.busy.as_secs_f64()),
            m.cells.to_string(),
            format!("{:.2}", m.gcups()),
        ]);
    }
    r.emit("dynsplit-real");
    println!(
        "pools met at batch {} of {}; emergent accel share {:.1}% \
         (seeded {:.1}%); merged {} hits at {:.2} GCUPS\n",
        outcome.boundary,
        prepared.batches.len(),
        outcome.accel_cell_fraction * 100.0,
        plan.accel_cell_fraction * 100.0,
        outcome.results.hits.len(),
        outcome.results.gcups().value()
    );

    // Fault-injection drill: kill the whole accel pool as it starts its
    // first chunk and let the lease/requeue machinery degrade the run to
    // CPU-only. The table contrasts the clean and killed runs; the hit
    // lists must be identical — recovery costs time, never correctness.
    let injector = FaultInjector::new(FaultPlan::single(FaultSpec {
        device: DEVICE_ACCEL,
        chunk: 0,
        kind: FaultKind::KillPool,
    }));
    let killed = hetero
        .search_dynamic_resumable(
            &query.residues,
            &prepared,
            &plan,
            &cfg,
            &injector,
            &DurableOptions::default(),
        )
        .expect("degraded run still completes on the surviving pool")
        .outcome
        .expect("no drain signal: the run completes");

    let mut f = Table::new(
        "Fault drill — accel pool killed at its first chunk (kill-pool@0)",
        &[
            "run", "pool", "tasks", "requeues", "failures", "degraded", "hits",
        ],
    );
    for (run, o) in [("clean", &outcome), ("killed", &killed)] {
        for (label, m) in [("cpu", &o.cpu), ("accel", &o.accel)] {
            f.row(vec![
                run.to_string(),
                label.to_string(),
                m.tasks.to_string(),
                m.requeues.to_string(),
                m.failures.to_string(),
                m.degraded.to_string(),
                o.results.hits.len().to_string(),
            ]);
        }
    }
    f.emit("dynsplit-fault");
    assert_eq!(
        outcome.results.hits, killed.results.hits,
        "degraded run must produce the identical hit list"
    );
    println!(
        "accel pool killed at chunk 0: {} chunk(s) requeued, run degraded to \
         CPU-only, hit list identical to the clean run ({} hits).",
        killed.accel.requeues,
        killed.results.hits.len()
    );

    // Traced replay of the same real run: the split-estimator drift the
    // scheduler saw, one row per fresh chunk grab (a Perfetto counter
    // track shows the same series from `--trace-out`).
    let traced_cfg = cfg.with_trace(sw_core::TraceConfig::full());
    let traced = hetero.search_dynamic(&query.residues, &prepared, &plan, &traced_cfg);
    let tl = traced
        .timeline
        .as_ref()
        .expect("full tracing yields a timeline");
    let mut d = Table::new(
        "Split-estimator drift — accel share at each fresh chunk grab",
        &["t_us", "accel_share"],
    );
    for (t_us, share) in tl.rebalances() {
        d.row(vec![t_us.to_string(), format!("{share:.4}")]);
    }
    d.emit("dynsplit-drift");
    println!(
        "traced run: {} events on {} worker tracks ({} dropped), \
         {} rebalance samples\n",
        tl.total_events(),
        tl.tracks.len(),
        tl.total_dropped(),
        tl.rebalances().len()
    );
}
