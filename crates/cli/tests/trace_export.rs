//! Trace and metrics artifacts. A clean dynamic run and a fault-drilled
//! one both export the JSONL event log and the Prometheus snapshot, and
//! `trace-check` re-validates them from disk (schema header, monotonic
//! timestamps per track, balanced begin/end spans, strict Prometheus
//! text). A path that is not `.jsonl` gets Chrome trace JSON.

mod common;

use common::{head, ok, trace_check, WorkDir};
use std::time::Duration;
use sw_core::{
    DurableOptions, HeteroEngine, HeteroSearchConfig, PreparedDb, SearchEngine, TraceConfig,
};
use sw_sched::{FaultInjector, FaultKind, FaultPlan, FaultSpec, DEVICE_ACCEL, DEVICE_CPU};
use sw_seq::gen::{generate_database, DbSpec};
use sw_seq::Alphabet;

/// The drill database: longest sequence 2 000, because with the default
/// titin lane refill packs the whole database into one batch and there
/// is no accelerator chunk to drill.
const DB: DbSpec = DbSpec {
    n_seqs: 200,
    mean_len: 300.0,
    max_len: 2000,
    seed: 4,
};

/// `gendb` of [`DB`] and its first line of residues as the query.
fn drill_files(dir: &WorkDir) -> (String, String) {
    let db = dir.path("db.fasta");
    ok(&[
        "gendb",
        "--seqs",
        &DB.n_seqs.to_string(),
        "--out",
        &db,
        "--seed",
        &DB.seed.to_string(),
        "--mean-len",
        &DB.mean_len.to_string(),
        "--max-len",
        &DB.max_len.to_string(),
    ]);
    let query = dir.write("q.fasta", &head(&dir.read("db.fasta"), 2));
    (db, query)
}

#[test]
fn clean_and_drilled_runs_export_valid_artifacts() {
    let dir = WorkDir::new("trace-artifacts");
    let (db, query) = drill_files(&dir);
    let common = [
        "hetero",
        "--query",
        &query,
        "--db",
        &db,
        "--dynamic",
        "--threads",
        "2",
        "--accel-threads",
        "1",
        "--accel-timeout-ms",
        "100",
    ];
    for (name, drill) in [
        ("clean", &[][..]),
        ("drill", &["--inject-fault", "kill@0"][..]),
    ] {
        let (trace, metrics) = (
            dir.path(&format!("{name}.jsonl")),
            dir.path(&format!("{name}.prom")),
        );
        let exports = ["--trace-out", &trace, "--metrics-out", &metrics];
        ok(&[&common[..], drill, &exports].concat());
        trace_check(&["--trace", &trace, "--metrics", &metrics]);
    }
}

/// The drilled run's recovery shows in its trace on any host. The CLI
/// cannot choose who claims first: on a fast host its two CPU workers
/// drain the drill database before the accelerator worker's thread is
/// up, and `kill@0` never fires. So this is the CLI drill's region in
/// process with each CPU worker's first chunk held 200 ms: the
/// accelerator worker claims a chunk, dies, and its lease is requeued.
#[test]
fn killed_accel_chunk_is_requeued_in_a_valid_trace() {
    let seqs = generate_database(&DB);
    // `gendb` wraps FASTA at 60 columns: the drill's query is the first
    // record's first 60 residues.
    let query = seqs[0].residues[..60].to_vec();
    let db = PreparedDb::prepare(seqs, 16, &Alphabet::protein());
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&db, query.len(), 0.55);
    let mut cfg = HeteroSearchConfig::best(2, 1).with_trace(TraceConfig::full());
    cfg.recovery.accel_timeout_ms = Some(100);
    let kill = FaultSpec::parse("kill@0", DEVICE_ACCEL).expect("the CLI drill's spec");
    let hold = |chunk| FaultSpec {
        device: DEVICE_CPU,
        chunk,
        kind: FaultKind::Delay(Duration::from_millis(200)),
    };
    let drilled = FaultInjector::new(FaultPlan {
        specs: vec![kill, hold(0), hold(1)],
    });
    let run = |injector: &FaultInjector| {
        hetero
            .search_dynamic_resumable(
                &query,
                &db,
                &plan,
                &cfg,
                injector,
                &DurableOptions::default(),
            )
            .expect("the run recovers")
            .outcome
            .expect("no drain signal: the run completes")
    };
    let clean = run(&FaultInjector::none());
    let outcome = run(&drilled);
    assert_eq!(outcome.results.hits, clean.results.hits);

    let timeline = outcome.timeline.as_ref().expect("traced run");
    let jsonl = sw_trace::export::jsonl(timeline);
    sw_trace::validate::validate_jsonl(&jsonl).expect("trace-check accepts the trace");
    assert!(jsonl.contains("\"lease_requeued\""), "{jsonl}");
    let prom = sw_trace::export::prometheus(
        timeline,
        &[outcome.cpu, outcome.accel],
        sw_trace::export::DEFAULT_GCUPS_WINDOW_US,
        cfg.cpu.isa.name(),
    );
    sw_trace::validate::validate_prometheus_strict(&prom).expect("trace-check accepts the scrape");
}

#[test]
fn chrome_trace_export_is_trace_event_json() {
    let dir = WorkDir::new("trace-chrome");
    let (db, query) = drill_files(&dir);
    let trace = dir.path("run.trace.json");
    ok(&[
        "hetero",
        "--query",
        &query,
        "--db",
        &db,
        "--dynamic",
        "--threads",
        "2",
        "--accel-threads",
        "1",
        "--trace-out",
        &trace,
    ]);
    assert!(dir.read("run.trace.json").contains("\"traceEvents\""));
}
