//! The daemon's claim order against the real binary. `serve --threads 1
//! --accel-threads 0` runs one CPU worker and no accelerator pool, so
//! four submits gathered into one shared region finish in query-length
//! order — the region claims its shortest member first — every task
//! runs on the CPU, and each batched hit list is the one its query gets
//! when served alone. The daemon runs as a child process: its shutdown
//! signal is process-wide, so it must not share a process with another
//! test's daemon.

mod common;

use common::{after_ack, finish, ok, spawn, stdout, wait_ready, Daemon, WorkDir};

#[test]
fn accel_threads_zero_serves_one_worker_shortest_member_first() {
    let dir = WorkDir::new("serve-order");
    let (fasta, snap, socket) = (
        dir.path("db.fasta"),
        dir.path("db.swdb"),
        dir.path("daemon.sock"),
    );
    let (registry, traces) = (dir.path("registry.jsonl"), dir.path("trace"));
    ok(&[
        "gendb",
        "--seqs",
        "60",
        "--out",
        &fasta,
        "--seed",
        "23",
        "--mean-len",
        "80",
    ]);
    ok(&["makedb", "--in", &fasta, "--out", &snap]);

    // Four records of pairwise distinct lengths; generated lengths have a
    // heavy tail, and the unoptimized test binary must stay fast.
    let text = dir.read("db.fasta");
    let mut lens: Vec<usize> = Vec::new();
    let mut queries: Vec<String> = Vec::new();
    for record in text.split('>').skip(1) {
        let len: usize = record.lines().skip(1).map(str::len).sum();
        if queries.len() < 4 && len <= 200 && !lens.contains(&len) {
            let q = dir.write(&format!("q{}.fasta", queries.len()), &format!(">{record}"));
            lens.push(len);
            queries.push(q);
        }
    }
    assert_eq!(queries.len(), 4);

    let mut daemon = Daemon::spawn(
        &[
            "serve",
            "--db",
            &snap,
            "--socket",
            &socket,
            "--log-level",
            "off",
            "--threads",
            "1",
            "--accel-threads",
            "0",
            "--max-concurrent",
            "4",
            "--batch-window-ms",
            "1000",
            "--registry-out",
            &registry,
            "--trace-dir",
            &traces,
        ],
        &dir.path("daemon.log"),
    );
    wait_ready(&socket);
    // Solo baselines: each submit alone waits its window out.
    let solo: Vec<String> = queries
        .iter()
        .map(|q| ok(&["submit", "--socket", &socket, "--query", q]))
        .collect();
    // All four inside one gather window: the window closes when full.
    let submits: Vec<_> = queries
        .iter()
        .map(|q| spawn(&["submit", "--socket", &socket, "--query", q]))
        .collect();
    for (submit, solo) in submits.into_iter().zip(&solo) {
        let o = finish(submit);
        let batched = stdout(&o);
        assert!(o.status.success(), "{batched}");
        // Every query gets its own hit list, the one it gets alone.
        assert_eq!(after_ack(&batched), after_ack(solo), "{batched}");
    }
    ok(&["submit", "--socket", &socket, "--shutdown"]);
    assert!(daemon.wait(), "the daemon exits 0 after shutdown");

    let dump = dir.read("registry.jsonl");
    let field = |line: &str, key| sw_serve::json::field_u64(line, key).expect(key);
    let mut jobs: Vec<(u64, u64)> = Vec::new();
    for line in dump.lines() {
        match field(line, "batch") {
            1 => continue,
            batch => assert_eq!(batch, 4, "one shared region: {line}"),
        }
        jobs.push((field(line, "query_len"), field(line, "finished_us")));
    }
    assert_eq!(jobs.len(), 4, "{dump}");
    jobs.sort_unstable();
    assert!(
        jobs.windows(2).all(|w| w[0].1 < w[1].1),
        "finished in length order: {jobs:?}"
    );
    for entry in std::fs::read_dir(&traces).expect("trace dir") {
        let trace = std::fs::read_to_string(entry.expect("entry").path()).expect("trace");
        assert!(trace.contains("\"device\":0"), "{trace}");
        assert!(!trace.contains("\"device\":1"), "no accelerator task");
    }
}
