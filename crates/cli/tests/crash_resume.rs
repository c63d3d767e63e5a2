//! Whole-process crash/resume harness.
//!
//! The in-process matrix (`sw-core/tests/resume.rs`) interrupts runs
//! cooperatively; this harness kills the real `swsearch` binary the hard
//! way — `--kill-after-chunks` aborts the process mid-search exactly as
//! SIGKILL would, destructors and all — and then asserts the resumed
//! search completes with a hit list identical to an uninterrupted run.

mod common;

use common::{head, hit_lines, ok, run, stdout, trace_check, WorkDir};
use std::path::Path;

struct Fixture {
    db: String,
    query: String,
}

fn fixture(test: &str) -> (WorkDir, Fixture) {
    let dir = WorkDir::new(&format!("crash-{test}"));
    let db = dir.path("db.fasta");
    // Longest sequence 2 000, not the default titin: lane refill would
    // pack this whole database into the titin's 4-lane batch, one task
    // with no chunk boundary to die at.
    let o = run(&[
        "gendb",
        "--seqs",
        "240",
        "--out",
        &db,
        "--seed",
        "7",
        "--mean-len",
        "150",
        "--max-len",
        "2000",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    // Query = the first line of the first db record. Generated lengths
    // are log-normal with a heavy tail, so a fresh `gendb --seqs 1` can
    // draw a pathologically long query; a fixed 60-residue slice keeps
    // the unoptimized test binary fast and deterministic.
    let query = dir.write("query.fasta", &head(&dir.read("db.fasta"), 2));
    (dir, Fixture { db, query })
}

fn hetero_args<'a>(f: &'a Fixture, ckpt: &'a str) -> Vec<&'a str> {
    vec![
        "hetero",
        "--query",
        &f.query,
        "--db",
        &f.db,
        "--dynamic",
        "--threads",
        "2",
        "--accel-threads",
        "1",
        "--lanes",
        "4",
        "--frac",
        "0.5",
        "--top",
        "5",
        "--checkpoint",
        ckpt,
    ]
}

#[test]
fn killed_process_resumes_to_identical_hits() {
    let (dir, f) = fixture("kill");

    // Reference: one uninterrupted durable run.
    let ckpt_ref = dir.path("ref.ckpt");
    let o = run(&hetero_args(&f, &ckpt_ref));
    assert!(o.status.success(), "{}", stdout(&o));
    let reference = hit_lines(&stdout(&o));
    assert!(!reference.is_empty(), "{}", stdout(&o));
    assert!(
        !Path::new(&ckpt_ref).exists(),
        "clean run must delete its checkpoint"
    );

    // Kill the process at scattered points through the run (240 seqs at
    // 4 lanes = 60 batches; adaptive chunks are 1–15 batches, so every
    // run commits comfortably more than 10 chunks). One point varies by
    // PID so repeated CI runs sample different crash sites.
    let varied = (std::process::id() % 7 + 2).to_string();
    for kill_at in ["1", "3", "6", "10", varied.as_str()] {
        let ckpt = dir.path(&format!("kill{kill_at}.ckpt"));
        let mut args = hetero_args(&f, &ckpt);
        args.extend_from_slice(&["--kill-after-chunks", kill_at]);
        let o = run(&args);
        assert!(
            !o.status.success(),
            "kill@{kill_at}: the process must die mid-run: {}",
            stdout(&o)
        );
        assert!(
            Path::new(&ckpt).exists(),
            "kill@{kill_at}: a checkpoint survives the crash"
        );

        let mut args = hetero_args(&f, &ckpt);
        args.push("--resume");
        let o = run(&args);
        let text = stdout(&o);
        assert!(o.status.success(), "kill@{kill_at}: resume failed: {text}");
        assert!(
            text.contains("# resume: loaded"),
            "kill@{kill_at}: resume must load prior progress: {text}"
        );
        assert_eq!(
            hit_lines(&text),
            reference,
            "kill@{kill_at}: resumed hits differ from the uninterrupted run:\n{text}"
        );
        assert!(
            !Path::new(&ckpt).exists(),
            "kill@{kill_at}: completion deletes the checkpoint"
        );
    }
}

#[test]
fn resumed_run_exports_a_valid_trace() {
    let (dir, f) = fixture("trace");
    let ckpt = dir.path("traced.ckpt");
    let trace = dir.path("resumed.jsonl");
    let metrics = dir.path("resumed.prom");

    let reference = hit_lines(&ok(&hetero_args(&f, &ckpt)));
    let mut args = hetero_args(&f, &ckpt);
    args.extend_from_slice(&["--kill-after-chunks", "6"]);
    let o = run(&args);
    assert!(!o.status.success(), "{}", stdout(&o));
    assert!(Path::new(&ckpt).exists());

    let mut args = hetero_args(&f, &ckpt);
    args.extend_from_slice(&["--resume", "--trace-out", &trace, "--metrics-out", &metrics]);
    let o = run(&args);
    let text = stdout(&o);
    assert!(o.status.success(), "{text}");
    assert!(text.contains("# resume: loaded"), "{text}");
    assert_eq!(hit_lines(&text), reference, "{text}");

    // The resumed run's own artifacts must carry the resume and pass the
    // same validation as every exported artifact.
    let jtext = dir.read("resumed.jsonl");
    assert!(jtext.contains("\"resume_loaded\""), "{jtext}");
    let ptext = dir.read("resumed.prom");
    assert!(ptext.contains("sw_resumes_total"), "{ptext}");
    trace_check(&["--trace", &trace, "--metrics", &metrics]);
}

#[test]
fn resume_with_swapped_database_is_refused() {
    let (dir, f) = fixture("swap");
    let ckpt = dir.path("swap.ckpt");
    let mut args = hetero_args(&f, &ckpt);
    args.extend_from_slice(&["--kill-after-chunks", "4"]);
    let o = run(&args);
    assert!(!o.status.success(), "{}", stdout(&o));
    assert!(Path::new(&ckpt).exists());

    // A different database under the same path → typed refusal, not a
    // silently wrong merge.
    let other_db = dir.path("other.fasta");
    let o = run(&[
        "gendb",
        "--seqs",
        "240",
        "--out",
        &other_db,
        "--seed",
        "8",
        "--mean-len",
        "150",
        "--max-len",
        "2000",
    ]);
    assert!(o.status.success());
    let f2 = Fixture {
        db: other_db,
        query: f.query.clone(),
    };
    let mut args = hetero_args(&f2, &ckpt);
    args.push("--resume");
    let o = run(&args);
    let text = stdout(&o);
    assert_eq!(o.status.code(), Some(1), "{text}");
    assert!(
        text.contains("checkpoint does not belong to this search")
            && text.contains("database digest"),
        "{text}"
    );
}
