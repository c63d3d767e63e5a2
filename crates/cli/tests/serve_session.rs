//! A scripted daemon session against the real binary: `swsearch serve`
//! on a snapshot with the whole observability plane wired up. Two
//! tenants in flight at once, determinism across submits, a tenant-quota
//! bounce, a health probe mid-flight, a drilled job cancelled and
//! resumed by resubmission, drain through the shutdown op, and the
//! scrape counters audited against the script, the registry dump, the
//! ops log and the per-job traces. The daemon runs as a child process:
//! its shutdown signal is process-wide.

mod common;

use common::{
    after_ack, combined, finish, ok, record, run, sample, spawn, stdout, submit, trace_check,
    wait_ready, wait_status, Daemon, WorkDir,
};
use std::path::Path;

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn scripted_session_is_concurrent_deterministic_resumable_and_observed() {
    let dir = WorkDir::new("serve-session");
    // A database big enough that the task queue stays deep for seconds
    // on one CPU thread, so job 1 is still in flight when the quota
    // bounce below arrives.
    let fasta = dir.path("db.fasta");
    let snap = dir.path("db.swdb");
    ok(&[
        "gendb",
        "--seqs",
        "20000",
        "--out",
        &fasta,
        "--seed",
        "4",
        "--mean-len",
        "300",
    ]);
    ok(&["makedb", "--in", &fasta, "--out", &snap]);
    let text = dir.read("db.fasta");
    let q: Vec<String> = (1..=3)
        .map(|n| dir.write(&format!("q{n}.fasta"), &record(&text, n)))
        .collect();
    let sock = dir.path("daemon.sock");
    let (ckpt, traces) = (dir.path("ckpt"), dir.path("trace"));
    let (registry, ops, scrape_file) = (
        dir.path("registry.jsonl"),
        dir.path("ops.jsonl"),
        dir.path("scrape.prom"),
    );
    let mut daemon = Daemon::spawn(
        &[
            "serve",
            "--db",
            &snap,
            "--socket",
            &sock,
            "--threads",
            "1",
            "--accel-threads",
            "1",
            "--max-concurrent",
            "2",
            "--tenant-quota",
            "1",
            "--checkpoint-dir",
            &ckpt,
            "--trace-dir",
            &traces,
            "--registry-out",
            &registry,
            "--log-level",
            "info",
            "--log-file",
            &ops,
            "--slow-query-ms",
            "1",
            "--metrics-file",
            &scrape_file,
            "--metrics-interval-ms",
            "200",
        ],
        &dir.path("daemon.log"),
    );
    wait_ready(&sock);

    // Two tenants in flight at once; both must finish done.
    let j1 = spawn(&submit(
        &sock,
        &["--query", &q[0], "--tenant", "acme", "--top", "5"],
    ));
    let j2 = spawn(&submit(
        &sock,
        &["--query", &q[1], "--tenant", "beta", "--top", "5"],
    ));
    // Over-quota rejection: once job 1 is in flight, a second acme
    // submit bounces (quota 1) with a non-zero exit.
    wait_status(&sock, 1, "\"state\"");
    let rejected = run(&submit(&sock, &["--query", &q[1], "--tenant", "acme"]));
    assert!(!rejected.status.success(), "{}", combined(&rejected));
    assert!(
        combined(&rejected).contains("quota"),
        "{}",
        combined(&rejected)
    );
    let mut jobs: Vec<String> = Vec::new();
    for j in [j1, j2] {
        let o = finish(j);
        assert!(o.status.success(), "{}", combined(&o));
        assert!(stdout(&o).contains("done"), "{}", stdout(&o));
        jobs.push(stdout(&o));
    }
    // Resubmitting q1 streams the identical hit list.
    jobs.push(ok(&submit(
        &sock,
        &["--query", &q[0], "--tenant", "acme", "--top", "5"],
    )));
    assert_eq!(after_ack(&jobs[2]), after_ack(&jobs[0]));

    // Cancel a drilled job mid-run; its checkpoint survives and a
    // resubmission of the same query resumes instead of restarting.
    let j4 = spawn(&submit(
        &sock,
        &[
            "--query",
            &q[2],
            "--tenant",
            "beta",
            "--drill",
            "delay@0:2000",
        ],
    ));
    wait_status(&sock, 4, "\"state\":\"running\"");
    // Health probe mid-flight: ready, digest-verified snapshot; exit 0
    // doubles as the orchestrator readiness check.
    let health = ok(&submit(&sock, &["--health"]));
    assert!(health.contains("\"ready\":true"), "{health}");
    assert!(health.contains("\"snapshot_verified\":true"), "{health}");
    ok(&submit(&sock, &["--cancel", "4"]));
    let job4 = combined(&finish(j4));
    assert!(job4.to_lowercase().contains("cancelled"), "{job4}");
    jobs.push(job4);
    let checkpoints = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("swckpt-") && n.ends_with(".ckpt"))
        .count();
    assert!(checkpoints > 0, "the cancelled job's checkpoint survives");
    let job5 = ok(&submit(&sock, &["--query", &q[2], "--tenant", "beta"]));
    assert!(job5.contains("resumed from checkpoint"), "{job5}");
    jobs.push(job5);

    let stats = ok(&submit(&sock, &["--stats"]));
    assert!(stats.contains("\"done\":4"), "{stats}");
    assert!(stats.contains("\"cancelled\":1"), "{stats}");
    // The scrape passes the strict Prometheus checker and its lifecycle
    // counters equal this scripted session exactly: 5 accepted submits,
    // 4 done, 1 cancel, 1 quota rejection, 1 resumed run.
    let scrape = dir.write("scrape-final.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &scrape]);
    let scrape = dir.read("scrape-final.prom");
    for line in [
        "sw_serve_submitted_total 5",
        "sw_serve_done_total 4",
        "sw_serve_cancelled_total 1",
        "sw_serve_failed_total 0",
        "sw_serve_rejected_total 1",
    ] {
        assert!(scrape.lines().any(|l| l == line), "{line}:\n{scrape}");
    }
    assert!(
        sample(&scrape, "sw_serve_resumes_total").is_some_and(|n| n >= 1),
        "{scrape}"
    );
    assert!(
        scrape.contains("sw_serve_tenant_jobs_total{tenant=\"acme\",outcome=\"rejected\"} 1"),
        "{scrape}"
    );

    // Settled daemon: nothing queued or running, `done` equals the
    // submits that printed done, and connection handlers were reused —
    // 20 sequential probes start no thread of their own.
    for _ in 0..20 {
        ok(&submit(&sock, &["--health"]));
    }
    let stats_end = ok(&submit(&sock, &["--stats"]));
    let scrape_end = dir.write("scrape-end.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &scrape_end]);
    assert!(
        stats_end.contains("\"queued\":0,\"running\":0,"),
        "{stats_end}"
    );
    let done = jobs
        .iter()
        .flat_map(|j| j.lines())
        .filter(|l| {
            l.strip_prefix("job ")
                .map(|rest| rest.trim_start_matches(|c: char| c.is_ascii_digit()))
                .is_some_and(|rest| rest.starts_with(" done:"))
        })
        .count();
    assert_eq!(done, 4, "{jobs:?}");
    assert!(
        stats_end.contains(&format!("\"done\":{done},")),
        "{stats_end}"
    );
    // Connections made so far, at least: 12 scripted requests (each
    // status poll loop counted once), the 20 probes, stats, metrics.
    let connections = 12 + 20 + 2;
    let threads = sample(
        &dir.read("scrape-end.prom"),
        "sw_serve_connection_threads_total",
    )
    .expect("connection thread counter");
    assert!(
        (1..connections).contains(&threads),
        "{threads} handler threads for {connections}+ connections"
    );
    // A query-only flag beside a control op is a usage error: exit
    // exactly 2, refused before any connection is made.
    let misuse = run(&submit(&sock, &["--status", "1", "--tenant", "acme"]));
    assert_eq!(misuse.status.code(), Some(2), "{}", combined(&misuse));
    ok(&submit(&sock, &["--shutdown"]));
    assert!(daemon.wait(), "the daemon exits 0 after shutdown");
    assert!(!Path::new(&sock).exists(), "the socket is removed");

    // Shutdown artifacts: the registry dump and separable per-job traces.
    let dump = dir.read("registry.jsonl");
    assert_eq!(dump.lines().count(), 5, "{dump}");
    assert_eq!(
        dump.lines()
            .filter(|l| l.contains("\"state\":\"done\""))
            .count(),
        4,
        "{dump}"
    );
    let job_traces: Vec<String> = std::fs::read_dir(&traces)
        .expect("trace dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("job-") && n.ends_with(".jsonl"))
        .collect();
    assert!(!job_traces.is_empty());
    for name in &job_traces {
        trace_check(&["--trace", &format!("{traces}/{name}")]);
    }
    assert!(dir.read("trace/job-5.jsonl").contains("\"query\":5,"));
    // Ops log: one line per lifecycle transition, every accepted job
    // finished, the rejection and the drain both on record.
    let ops = dir.read("ops.jsonl");
    for event in [
        "daemon_ready",
        "job_rejected",
        "daemon_draining",
        "daemon_stopped",
    ] {
        assert!(
            ops.contains(&format!("\"event\":\"{event}\"")),
            "{event}:\n{ops}"
        );
    }
    assert_eq!(
        ops.lines()
            .filter(|l| l.contains("\"event\":\"job_finished\""))
            .count(),
        5,
        "{ops}"
    );
    // --slow-query-ms 1 flags every finished job; the slow-query log
    // dumped their merged timelines next to the job traces.
    assert!(ops.contains("\"slow\":true"), "{ops}");
    let slow_dumps = std::fs::read_dir(&traces)
        .expect("trace dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("slow-job-") && n.ends_with(".jsonl"))
        .count();
    assert!(slow_dumps > 0);
    // The periodic --metrics-file dump got a final atomic write on
    // shutdown and validates like the socket scrape.
    trace_check(&["--metrics", &scrape_file]);
}
