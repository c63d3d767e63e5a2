//! The multi-node TCP fabric against the real binary. `shard-prepare
//! --replicas 2` places two shards over four TCP endpoints (strided:
//! shard 0 on the first two, shard 1 on the last two), and a coordinator
//! run must merge byte-identically to an unsharded TCP daemon over the
//! sorted parent: cleanly, after its primary worker is SIGKILLed, under
//! an injected connection refusal, and after the coordinator itself is
//! SIGKILLed and rerun from its journal. Every test picks its own free
//! ports.

mod common;

use common::{
    after_ack, combined, finish, free_port, json_ranks, ok, record, run, shard_rows, spawn, submit,
    trace_check, wait_ready, wait_status, Daemon, WorkDir,
};
use std::path::Path;
use std::time::Duration;

/// Worker endpoints the coordinator may boot: each is asked to shut down
/// when the test ends, so no worker outlives a failed test.
struct Fleet(Vec<String>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for endpoint in &self.0 {
            let _ = run(&submit(endpoint, &["--shutdown"]));
        }
    }
}

struct Fabric {
    /// Dropped first: the workers stop before their directory goes.
    workers: Fleet,
    dir: WorkDir,
    manifest: String,
    query: String,
    /// `submit --json` wire hit lines of the unsharded daemon.
    unsharded_json: String,
    /// `submit` text output of the unsharded daemon.
    unsharded: String,
}

impl Fabric {
    /// `search --shards` over this fabric's manifest: the argv.
    fn search<'a>(&'a self, extra: &[&'a str]) -> Vec<&'a str> {
        let search = [
            "search",
            "--shards",
            &self.manifest,
            "--query",
            &self.query,
            "--top",
            "10",
        ];
        [&search[..], extra].concat()
    }
}

fn fabric(test: &str) -> Fabric {
    let dir = WorkDir::new(test);
    let (fasta, snap) = (dir.path("db.fasta"), dir.path("db.swdb"));
    ok(&[
        "gendb",
        "--seqs",
        "4000",
        "--out",
        &fasta,
        "--seed",
        "33",
        "--mean-len",
        "250",
    ]);
    ok(&["makedb", "--in", &fasta, "--out", &snap]);
    let query = dir.write("q.fasta", &record(&dir.read("db.fasta"), 1));
    let endpoints: Vec<String> = (0..4)
        .map(|_| format!("tcp://127.0.0.1:{}", free_port()))
        .collect();
    ok(&[
        "shard-prepare",
        "--db",
        &snap,
        "--out",
        &dir.path("shards"),
        "--shards",
        "2",
        "--replicas",
        "2",
        "--endpoints",
        &endpoints.join(","),
    ]);
    let plan = dir.read("shards/placement.plan");
    assert!(plan.contains(&endpoints[3]), "{plan}");

    // Unsharded reference daemon, itself over TCP; the first reference
    // submit exercises the client's bounded connect retry.
    let reference = format!("tcp://127.0.0.1:{}", free_port());
    let mut daemon = Daemon::spawn(
        &[
            "serve",
            "--db",
            &dir.path("shards/parent.swdb"),
            "--listen",
            &reference,
            "--threads",
            "1",
            "--accel-threads",
            "1",
        ],
        &dir.path("ref.log"),
    );
    wait_ready(&reference);
    let top10 = ["--query", &query, "--top", "10"];
    let retries = ["--connect-retries", "5", "--connect-backoff-ms", "10"];
    let unsharded_json = ok(&submit(
        &reference,
        &[&retries[..], &top10, &["--json"]].concat(),
    ));
    assert!(!json_ranks(&unsharded_json).is_empty());
    let unsharded = ok(&submit(&reference, &top10));
    ok(&submit(&reference, &["--shutdown"]));
    assert!(daemon.wait());
    Fabric {
        workers: Fleet(endpoints),
        manifest: dir.path("shards/shards.manifest"),
        dir,
        query,
        unsharded_json,
        unsharded,
    }
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn clean_fabric_run_equals_unsharded() {
    // The coordinator finds placement.plan beside the manifest, boots the
    // four TCP workers and merges; its fleet guard tears them down.
    let f = fabric("net-clean");
    let sharded = ok(&f.search(&["--json"]));
    assert_eq!(json_ranks(&sharded), json_ranks(&f.unsharded_json));
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn killed_primary_fails_over_to_its_replica() {
    let f = fabric("net-failover");
    // Shard 0's primary is booted here, so the test holds the process it
    // kills; the coordinator reuses it and boots the other three. The
    // submit parks in a delay drill, the primary is SIGKILLed while the
    // job runs, and the coordinator fails over to the replica.
    let primary = &f.workers.0[0];
    let mut worker = Daemon::spawn(
        &[
            "serve",
            "--shard-worker",
            "--db",
            &f.dir.path("shards/shard-0.swshard"),
            "--listen",
            primary,
            "--checkpoint-dir",
            &f.dir.path("shards/ckpt"),
            "--threads",
            "1",
        ],
        &f.dir.path("own-primary.log"),
    );
    wait_ready(primary);
    let metrics = f.dir.path("failover.prom");
    let coordinator = spawn(&f.search(&["--drill", "delay@0:5000", "--metrics-out", &metrics]));
    wait_status(primary, 1, "\"state\":\"running\"");
    worker.sigkill();
    let o = finish(coordinator);
    let text = combined(&o);
    assert!(o.status.success(), "{text}");
    assert!(text.contains("1 replica failover"), "{text}");
    assert_eq!(shard_rows(&text), after_ack(&f.unsharded), "{text}");
    trace_check(&["--metrics", &metrics]);
    let prom = f.dir.read("failover.prom");
    assert!(prom.contains("sw_serve_shard_failovers_total 1"), "{prom}");
    assert!(prom.contains("sw_serve_net_retries_total"), "{prom}");
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn injected_refusal_is_absorbed_by_replica_failover() {
    // No process killing, no timing: connection refused at (shard 0,
    // attempt 0) costs one requeue and one replica failover.
    let f = fabric("net-refuse");
    let metrics = f.dir.path("netfault.prom");
    let o = run(&f.search(&["--net-fault", "refuse@0#0", "--metrics-out", &metrics]));
    let text = combined(&o);
    assert!(o.status.success(), "{text}");
    assert!(
        text.contains("1 shard execution(s) requeued (1 replica failover(s))"),
        "{text}"
    );
    assert_eq!(shard_rows(&text), after_ack(&f.unsharded), "{text}");
    trace_check(&["--metrics", &metrics]);
    let prom = f.dir.read("netfault.prom");
    assert!(prom.contains("sw_serve_shard_requeues_total 1"), "{prom}");
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn killed_coordinator_resumes_from_its_journal() {
    // Shard 1 is held in a long delay so shard 0 commits to the journal
    // (the file appears on the first commit); then the coordinator is
    // SIGKILLed and rerun with --resume-coord: shard 0 is served from the
    // journal, shard 1 recomputed, and the merged bytes are unchanged.
    let f = fabric("net-coord-kill");
    let journal = f.dir.path("shards/coord.journal");
    let mut coordinator = Daemon(spawn(&f.search(&["--drill", "delay@1:15000"])));
    for _ in 0..400 {
        if Path::new(&journal).exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(Path::new(&journal).exists(), "shard 0 never committed");
    coordinator.sigkill();
    // The SIGKILLed coordinator leaked its workers; the resume run must
    // reuse them as they are.
    for endpoint in &f.workers.0 {
        ok(&submit(endpoint, &["--health"]));
    }
    let metrics = f.dir.path("resume.prom");
    let resumed = ok(&f.search(&["--json", "--resume-coord", "--metrics-out", &metrics]));
    assert_eq!(json_ranks(&resumed), json_ranks(&f.unsharded_json));
    trace_check(&["--metrics", &metrics]);
    let prom = f.dir.read("resume.prom");
    assert!(
        prom.contains("sw_serve_coord_journal_skipped_total 1"),
        "{prom}"
    );
    // A clean finish removes the journal.
    assert!(!Path::new(&journal).exists());
}
