//! Sharded search against the real binary. `shard-prepare` cuts a
//! snapshot, the coordinator (`search --shards`) boots one worker process
//! per shard, and the merged hit lines must be byte-identical to an
//! unsharded daemon over the emitted sorted parent — also after a worker
//! is SIGKILLed mid-search and its shard requeued to a respawned process.

mod common;

use common::{
    after_ack, combined, finish, json_ranks, ok, record, shard_rows, spawn, submit, trace_check,
    wait_ready, wait_status, Daemon, WorkDir,
};
use std::path::Path;

/// `gendb`, `makedb` and a 2-way `shard-prepare` into `shards/`; the
/// query is the database's first record.
fn prepare(dir: &WorkDir) -> (String, String) {
    let (fasta, snap) = (dir.path("db.fasta"), dir.path("db.swdb"));
    ok(&[
        "gendb",
        "--seqs",
        "4000",
        "--out",
        &fasta,
        "--seed",
        "21",
        "--mean-len",
        "250",
    ]);
    ok(&["makedb", "--in", &fasta, "--out", &snap]);
    let query = dir.write("q.fasta", &record(&dir.read("db.fasta"), 1));
    let shards = dir.path("shards");
    ok(&[
        "shard-prepare",
        "--db",
        &snap,
        "--out",
        &shards,
        "--shards",
        "2",
    ]);
    assert!(Path::new(&dir.path("shards/parent.swdb")).exists());
    assert!(Path::new(&dir.path("shards/shards.manifest")).exists());
    (dir.path("shards/shards.manifest"), query)
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn sharded_merge_equals_unsharded_also_after_a_worker_kill() {
    let dir = WorkDir::new("shard-session");
    let (manifest, query) = prepare(&dir);

    // Unsharded reference: a plain daemon over the sorted parent.
    let sock = dir.path("ref.sock");
    let mut reference = Daemon::spawn(
        &[
            "serve",
            "--db",
            &dir.path("shards/parent.swdb"),
            "--socket",
            &sock,
            "--threads",
            "1",
            "--accel-threads",
            "1",
        ],
        &dir.path("ref.log"),
    );
    wait_ready(&sock);
    let top10 = ["--query", &query, "--top", "10"];
    let unsharded_json = ok(&submit(&sock, &[&top10[..], &["--json"]].concat()));
    let unsharded = ok(&submit(&sock, &top10));
    ok(&submit(&sock, &["--shutdown"]));
    assert!(reference.wait());

    // Clean sharded run: the wire hit lines match byte for byte, global
    // ids and tie order included.
    let search = [
        "search", "--shards", &manifest, "--query", &query, "--top", "10",
    ];
    let sharded_json = ok(&[&search[..], &["--json"]].concat());
    assert!(!json_ranks(&unsharded_json).is_empty());
    assert_eq!(json_ranks(&sharded_json), json_ranks(&unsharded_json));

    // Kill drill: shard 0's worker is booted here, so the test holds the
    // process it kills; the coordinator reuses it and boots shard 1's.
    // Both workers hold the submit in a 4 s delay drill; once shard 0's
    // job runs, its process is SIGKILLed, and the coordinator must
    // requeue the shard to a respawned worker and merge the same bytes.
    let shard0 = dir.path("shards/shard-0.sock");
    let mut worker = Daemon::spawn(
        &[
            "serve",
            "--shard-worker",
            "--db",
            &dir.path("shards/shard-0.swshard"),
            "--socket",
            &shard0,
            "--checkpoint-dir",
            &dir.path("shards/ckpt"),
            "--threads",
            "1",
        ],
        &dir.path("own-worker-0.log"),
    );
    wait_ready(&shard0);
    let coordinator = spawn(&[&search[..], &["--drill", "delay@0:4000"]].concat());
    wait_status(&shard0, 1, "\"state\":\"running\"");
    worker.sigkill();
    let o = finish(coordinator);
    let drill = combined(&o);
    assert!(o.status.success(), "{drill}");
    assert!(drill.contains("requeued"), "{drill}");
    assert!(drill.contains("shard 0: 2 attempts"), "{drill}");
    assert_eq!(shard_rows(&drill), after_ack(&unsharded), "{drill}");
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn shard_worker_scrape_carries_the_shard_label() {
    let dir = WorkDir::new("shard-scrape");
    let (_, query) = prepare(&dir);
    // A standalone --shard-worker daemon: every Prometheus series is
    // shard-labelled, the scrape stays strict-checker clean, and health
    // reports the shard identity the coordinator verifies.
    let sock = dir.path("w0.sock");
    let mut worker = Daemon::spawn(
        &[
            "serve",
            "--shard-worker",
            "--db",
            &dir.path("shards/shard-0.swshard"),
            "--socket",
            &sock,
            "--threads",
            "1",
            "--accel-threads",
            "1",
        ],
        &dir.path("w0.log"),
    );
    wait_ready(&sock);
    ok(&submit(&sock, &["--query", &query, "--top", "5"]));
    let health = ok(&submit(&sock, &["--health"]));
    assert!(health.contains("\"shard\":0"), "{health}");
    assert!(health.contains("\"shard_count\":2"), "{health}");
    let scrape = dir.write("w0-scrape.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &scrape]);
    let scrape = dir.read("w0-scrape.prom");
    assert!(
        scrape.contains("sw_serve_done_total{shard=\"0\"} 1"),
        "{scrape}"
    );
    let unlabelled: Vec<&str> = scrape
        .lines()
        .filter(|l| {
            l.strip_prefix("sw_serve_")
                .and_then(|rest| rest.split_once(' '))
                .is_some_and(|(name, _)| {
                    !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                })
        })
        .collect();
    assert!(unlabelled.is_empty(), "unlabelled series: {unlabelled:?}");
    ok(&submit(&sock, &["--shutdown"]));
    assert!(worker.wait());
}
