//! The fault matrix against the live CLI: a dynamic run with a killed,
//! delayed or wedged accelerator chunk, or a killed accelerator pool,
//! recovers on the surviving workers and prints the clean run's hit list.

mod common;

use common::{head, hit_lines, ok, WorkDir};

fn assert_drill_keeps_hits(test: &str, fault: &str) {
    let dir = WorkDir::new(test);
    let db = dir.path("db.fasta");
    // Longest sequence 2 000: with the default titin, lane refill packs
    // the whole database into one batch and there is no accelerator
    // chunk to drill.
    ok(&[
        "gendb",
        "--seqs",
        "200",
        "--out",
        &db,
        "--seed",
        "4",
        "--mean-len",
        "300",
        "--max-len",
        "2000",
    ]);
    let query = dir.write("q.fasta", &head(&dir.read("db.fasta"), 2));
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
    let clean = ok(&common);
    let drilled = ok(&[&common[..], &["--inject-fault", fault]].concat());
    assert!(!hit_lines(&clean).is_empty(), "{clean}");
    assert_eq!(
        hit_lines(&drilled),
        hit_lines(&clean),
        "hit list moved under {fault}:\n{drilled}"
    );
}

#[test]
fn killed_chunk_keeps_the_hit_list() {
    assert_drill_keeps_hits("fault-kill", "kill@0");
}

#[test]
fn delayed_chunk_keeps_the_hit_list() {
    assert_drill_keeps_hits("fault-delay", "delay@0:50");
}

#[test]
fn wedged_chunk_keeps_the_hit_list() {
    assert_drill_keeps_hits("fault-wedge", "wedge@0");
}

#[test]
fn killed_pool_keeps_the_hit_list() {
    assert_drill_keeps_hits("fault-kill-pool", "kill-pool@0");
}
