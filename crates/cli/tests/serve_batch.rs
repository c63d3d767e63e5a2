//! Four simultaneous submits coalesce into one shared dual-pool region.
//! The gather window is generous (1 s), so scheduling jitter cannot split
//! them apart, and it closes the moment the fourth is parked instead of
//! being waited out. Every batched hit list is byte-identical to the same
//! query served solo. The daemon runs as a child process: its shutdown
//! signal is process-wide.

mod common;

use common::{
    after_ack, finish, ok, record, spawn, stdout, submit, trace_check, wait_ready, Daemon, WorkDir,
};
use std::path::Path;
use std::time::{Duration, Instant};

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn a_full_window_closes_at_once_and_demuxes_the_solo_hit_lists() {
    let dir = WorkDir::new("serve-batch");
    let (fasta, snap, sock) = (
        dir.path("db.fasta"),
        dir.path("db.swdb"),
        dir.path("daemon.sock"),
    );
    ok(&[
        "gendb",
        "--seqs",
        "2000",
        "--out",
        &fasta,
        "--seed",
        "11",
        "--mean-len",
        "200",
    ]);
    ok(&["makedb", "--in", &fasta, "--out", &snap]);
    let text = dir.read("db.fasta");
    let queries: Vec<String> = (1..=4)
        .map(|n| dir.write(&format!("q{n}.fasta"), &record(&text, n)))
        .collect();
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
            "4",
            "--tenant-quota",
            "8",
            "--batch-window-ms",
            "1000",
        ],
        &dir.path("daemon.log"),
    );
    wait_ready(&sock);
    // Solo baselines: sequential submits, each its own region.
    let solo: Vec<String> = queries
        .iter()
        .map(|q| ok(&submit(&sock, &["--query", q, "--top", "5"])))
        .collect();

    // Fire all four inside one gather window, and time the burst.
    let started = Instant::now();
    let burst: Vec<_> = queries
        .iter()
        .map(|q| spawn(&submit(&sock, &["--query", q, "--top", "5"])))
        .collect();
    // Mid-batch, the daemon still answers health and metrics probes
    // without joining the batch.
    assert!(ok(&submit(&sock, &["--health"])).contains("\"ready\":true"));
    let mid = dir.write("scrape-mid.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &mid]);
    let batched: Vec<String> = burst
        .into_iter()
        .map(|submit| {
            let o = finish(submit);
            assert!(o.status.success(), "{}", stdout(&o));
            stdout(&o)
        })
        .collect();
    // A full window closes at once: the burst returns in under the
    // window that each lone submit above waited out, and the scrape
    // says why each window closed.
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "burst took {elapsed:?}");
    let scrape = dir.write("scrape.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &scrape]);
    let scrape = dir.read("scrape.prom");
    for line in [
        "sw_serve_windows_total{closed=\"full\"} 1",
        "sw_serve_windows_total{closed=\"deadline\"} 4",
    ] {
        assert!(scrape.lines().any(|l| l == line), "{line}:\n{scrape}");
    }
    // Demux: every query got its own hit list, byte-identical to its
    // solo run (the summary line differs; the hits must not).
    for (solo, batched) in solo.iter().zip(&batched) {
        assert_eq!(after_ack(batched), after_ack(solo), "{batched}");
    }
    // Coalescing: the submits shared a region.
    assert!(
        batched.iter().any(|b| b.contains("region shared by")),
        "{batched:?}"
    );
    // Stats audit: 8 jobs in all, all done, nothing failed or rejected.
    let stats = ok(&submit(&sock, &["--stats"]));
    for field in [
        "\"jobs\":8",
        "\"done\":8",
        "\"failed\":0",
        "\"cancelled\":0",
        "\"rejected\":0",
    ] {
        assert!(stats.contains(field), "{field}: {stats}");
    }
    ok(&submit(&sock, &["--shutdown"]));
    assert!(daemon.wait(), "the daemon exits 0 after shutdown");
    assert!(!Path::new(&sock).exists(), "the socket is removed");
}
