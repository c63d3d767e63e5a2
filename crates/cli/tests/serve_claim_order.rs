//! The daemon's claim order against the real binary. `serve --threads 1
//! --accel-threads 0` runs one CPU worker and no accelerator pool, so
//! four submits gathered into one shared region finish in query-length
//! order — the region claims its shortest member first — and every task
//! runs on the CPU. The daemon runs as a child process: its shutdown
//! signal is process-wide, so it must not share a process with another
//! test's daemon.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsearch")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn swsearch")
}

/// A daemon child that is killed if the test fails before shutting it
/// down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn accel_threads_zero_serves_one_worker_shortest_member_first() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("swsearch-serve-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (fasta, snap, socket) = (path("db.fasta"), path("db.swdb"), path("daemon.sock"));
    let (registry, traces) = (path("registry.jsonl"), path("trace"));
    let gendb = run(&[
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
    assert!(gendb.status.success());
    assert!(run(&["makedb", "--in", &fasta, "--out", &snap])
        .status
        .success());

    // Four records of pairwise distinct lengths; generated lengths have a
    // heavy tail, and the unoptimized test binary must stay fast.
    let text = std::fs::read_to_string(&fasta).expect("read db");
    let mut lens: Vec<usize> = Vec::new();
    let mut queries: Vec<String> = Vec::new();
    for record in text.split('>').skip(1) {
        let len: usize = record.lines().skip(1).map(str::len).sum();
        if queries.len() < 4 && len <= 200 && !lens.contains(&len) {
            let q = path(&format!("q{}.fasta", queries.len()));
            std::fs::write(&q, format!(">{record}")).expect("write query");
            lens.push(len);
            queries.push(q);
        }
    }
    assert_eq!(queries.len(), 4);

    let daemon = Daemon(
        Command::new(bin())
            .args([
                "serve",
                "--db",
                &snap,
                "--socket",
                &socket,
                "--log-level",
                "off",
            ])
            .args(["--threads", "1", "--accel-threads", "0"])
            .args(["--max-concurrent", "4", "--batch-window-ms", "1000"])
            .args(["--registry-out", &registry, "--trace-dir", &traces])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn daemon"),
    );
    let ready = (0..400).any(|_| {
        let up = run(&["submit", "--socket", &socket, "--health"])
            .status
            .success();
        if !up {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        up
    });
    assert!(ready, "daemon never became ready");
    // All four inside one gather window: the window closes when full.
    let submits: Vec<Child> = queries
        .iter()
        .map(|q| {
            Command::new(bin())
                .args(["submit", "--socket", &socket, "--query", q])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn submit")
        })
        .collect();
    for mut submit in submits {
        assert!(submit.wait().expect("wait submit").success());
    }
    assert!(run(&["submit", "--socket", &socket, "--shutdown"])
        .status
        .success());
    let mut daemon = daemon;
    assert!(daemon.0.wait().expect("wait daemon").success());

    let dump = std::fs::read_to_string(&registry).expect("registry dump");
    let field = |line: &str, key| sw_serve::json::field_u64(line, key).expect(key);
    let mut jobs: Vec<(u64, u64)> = dump
        .lines()
        .map(|l| {
            assert_eq!(field(l, "batch"), 4, "one shared region: {l}");
            (field(l, "query_len"), field(l, "finished_us"))
        })
        .collect();
    assert_eq!(jobs.len(), 4);
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
    std::fs::remove_dir_all(&dir).ok();
}
