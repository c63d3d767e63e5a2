//! Four submits that park while a drill-held region runs coalesce into
//! the next one: one shared dual-pool region of four. A lone submit is
//! not held back to wait for company. Every batched hit list is
//! byte-identical to the same query served solo. The daemon runs as a
//! child process: its shutdown signal is process-wide.

mod common;

use common::{
    after_ack, finish, hold_collector, ok, record, spawn, stdout, submit, trace_check, wait_health,
    wait_ready, Daemon, WorkDir,
};
use std::path::Path;
use std::time::{Duration, Instant};

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn parked_submits_share_one_region_and_demux_the_solo_hit_lists() {
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
        ],
        &dir.path("daemon.log"),
    );
    wait_ready(&sock);
    // Solo baselines: sequential submits, each its own region, none
    // held back to wait for company.
    let started = Instant::now();
    let solo: Vec<String> = queries
        .iter()
        .map(|q| ok(&submit(&sock, &["--query", q, "--top", "5"])))
        .collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "4 lone submits took {elapsed:?}"
    );

    // Park all four behind a held region: they form the next one.
    let hold = hold_collector(&sock, &queries[0], 1_000);
    let burst: Vec<_> = queries
        .iter()
        .map(|q| spawn(&submit(&sock, &["--query", q, "--top", "5"])))
        .collect();
    wait_health(&sock, "\"parked\":4,");
    // Mid-batch, the daemon still answers health and metrics probes
    // without joining the batch.
    assert!(ok(&submit(&sock, &["--health"])).contains("\"ready\":true"));
    let mid = dir.write("scrape-mid.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &mid]);
    let held = finish(hold);
    assert!(held.status.success(), "{}", stdout(&held));
    let batched: Vec<String> = burst
        .into_iter()
        .map(|submit| {
            let o = finish(submit);
            assert!(o.status.success(), "{}", stdout(&o));
            stdout(&o)
        })
        .collect();
    // The scrape counts six regions: the four solo runs and the holder
    // of one query each, and the four parked submits together.
    let scrape = dir.write("scrape.prom", &ok(&submit(&sock, &["--metrics"])));
    trace_check(&["--metrics", &scrape]);
    let scrape = dir.read("scrape.prom");
    for line in [
        "sw_serve_regions_total 6",
        "sw_serve_region_size_bucket{le=\"1\"} 5",
        "sw_serve_region_size_bucket{le=\"4\"} 6",
        "sw_serve_region_size_sum 9",
        "sw_serve_region_size_count 6",
    ] {
        assert!(scrape.lines().any(|l| l == line), "{line}:\n{scrape}");
    }
    assert!(!scrape.contains("sw_serve_windows_total"), "{scrape}");
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
    // Stats audit: 9 jobs in all (the holder too), all done, nothing
    // failed or rejected.
    let stats = ok(&submit(&sock, &["--stats"]));
    for field in [
        "\"jobs\":9",
        "\"done\":9",
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
