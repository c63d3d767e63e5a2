//! Whole-process crash/resume harness.
//!
//! The in-process matrix (`sw-core/tests/resume.rs`) interrupts runs
//! cooperatively; this harness kills the real `swsearch` binary the hard
//! way — `--kill-after-chunks` aborts the process mid-search exactly as
//! SIGKILL would, destructors and all — and then asserts the resumed
//! search completes with a hit list identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsearch")
}

/// One directory per test: the tests run concurrently, and a shared
/// `db.fasta` rewritten by one test's fixture under another's search is
/// read half-written.
fn work_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsearch-crash-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn swsearch")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// The `merged N hits; top K:` block — the user-visible hit list.
fn hit_lines(text: &str) -> Vec<String> {
    text.lines()
        .skip_while(|l| !l.starts_with("merged"))
        .map(str::to_string)
        .collect()
}

struct Fixture {
    db: String,
    query: String,
    dir: PathBuf,
}

fn fixture(test: &str) -> Fixture {
    let dir = work_dir(test);
    let db = dir.join("db.fasta").to_string_lossy().into_owned();
    let query = dir.join("query.fasta").to_string_lossy().into_owned();
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
    let db_text = std::fs::read_to_string(&db).expect("read db");
    let head: Vec<&str> = db_text.lines().take(2).collect();
    std::fs::write(&query, format!("{}\n{}\n", head[0], head[1])).expect("write query");
    Fixture { db, query, dir }
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
        "--checkpoint-interval-chunks",
        "1",
    ]
}

#[test]
fn killed_process_resumes_to_identical_hits() {
    let f = fixture("kill");

    // Reference: one uninterrupted durable run.
    let ckpt_ref = f.dir.join("ref.ckpt").to_string_lossy().into_owned();
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
        let ckpt = f
            .dir
            .join(format!("kill{kill_at}.ckpt"))
            .to_string_lossy()
            .into_owned();
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
    let f = fixture("trace");
    let ckpt = f.dir.join("traced.ckpt").to_string_lossy().into_owned();
    let trace = f.dir.join("resumed.jsonl").to_string_lossy().into_owned();
    let metrics = f.dir.join("resumed.prom").to_string_lossy().into_owned();

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

    // The resumed run's own trace must carry the resume marker and pass
    // the same validation CI applies to every exported artifact.
    let jtext = std::fs::read_to_string(&trace).expect("trace file");
    assert!(jtext.contains("\"resume_loaded\""), "{jtext}");
    let o = run(&["trace-check", "--trace", &trace, "--metrics", &metrics]);
    let checked = stdout(&o);
    assert!(o.status.success(), "{checked}");
    assert_eq!(checked.matches(": OK (").count(), 2, "{checked}");
}

#[test]
fn resume_with_swapped_database_is_refused() {
    let f = fixture("swap");
    let ckpt = f.dir.join("swap.ckpt").to_string_lossy().into_owned();
    let mut args = hetero_args(&f, &ckpt);
    args.extend_from_slice(&["--kill-after-chunks", "4"]);
    let o = run(&args);
    assert!(!o.status.success(), "{}", stdout(&o));
    assert!(Path::new(&ckpt).exists());

    // A different database under the same path → typed refusal, not a
    // silently wrong merge.
    let other_db = f.dir.join("other.fasta").to_string_lossy().into_owned();
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
        dir: f.dir.clone(),
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
