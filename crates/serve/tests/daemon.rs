//! End-to-end daemon scenario: one resident snapshot, concurrent
//! queries from mixed tenants, an over-quota rejection, a mid-flight
//! cancel that stays resumable, and artifact (trace + registry) checks.
//!
//! Every hit list the daemon streams is compared byte-for-byte (score +
//! header) against a solo static-split search of the same query over
//! the same prepared database — the acceptance gate for the service:
//! multiplexing through one engine must not perturb results.
//!
//! Sequencing is event-driven, not sleep-driven: the over-quota submit
//! fires only after both in-flight acks are read, and the cancel fires
//! only after `status` reports the job running. The only timing
//! assumption left is that a cancel issued milliseconds into a search
//! lands before its queue empties, which the delay drill guarantees:
//! it stalls the region's first chunk whichever pool starts it, so the
//! job is in flight for at least the delay.
//!
//! Every test body holds a [`StopOnDrop`] inside its thread scope, so a
//! failed assertion stops the daemon and fails the test instead of
//! hanging in the scope's join.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use sw_core::{HeteroEngine, HeteroSearchConfig, PreparedDb, SearchConfig, SearchEngine};
use sw_sched::DrainSignal;
use sw_seq::gen::{generate_database, generate_query, DbSpec};
use sw_seq::{Alphabet, EncodedSeq};
use sw_serve::{client, json, Endpoint, ServeConfig};

/// The daemon's shutdown signal for this test binary. Jobs are scoped
/// under it, so requesting it (the `shutdown` op does) drains them all.
/// Each test gets its own signal: a `DrainSignal` never resets once
/// requested, so sharing one would poison later tests.
static SHUTDOWN: DrainSignal = DrainSignal::new();
static BATCH_SHUTDOWN: DrainSignal = DrainSignal::new();
static SILENT_SHUTDOWN: DrainSignal = DrainSignal::new();
static EVICT_SHUTDOWN: DrainSignal = DrainSignal::new();
static DRAIN_HEALTH_SHUTDOWN: DrainSignal = DrainSignal::new();
static EMPTY_CONN_SHUTDOWN: DrainSignal = DrainSignal::new();
static WINDOW_SHUTDOWN: DrainSignal = DrainSignal::new();
static REUSE_SHUTDOWN: DrainSignal = DrainSignal::new();
static HELD_SHUTDOWN: DrainSignal = DrainSignal::new();

/// Requests the daemon's shutdown signal when dropped. `serve` runs on
/// a scoped thread, and a scope joins its threads even while a panic
/// unwinds through it: without this, a failed assertion would wait
/// forever on a daemon nobody told to stop.
struct StopOnDrop(&'static DrainSignal);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.request();
    }
}

fn fasta_of(seq: &EncodedSeq, a: &Alphabet) -> String {
    format!(
        ">{}\n{}\n",
        seq.header,
        String::from_utf8(a.decode(&seq.residues)).expect("ascii residues")
    )
}

fn solo_hits(
    engine: &HeteroEngine,
    prepared: &PreparedDb,
    q: &[u8],
    top: usize,
) -> Vec<(i64, String)> {
    let plan = engine.plan_split(prepared, q.len(), 0.55);
    let res = engine.search(
        q,
        prepared,
        &plan,
        &SearchConfig::best(1),
        &SearchConfig::best(1),
    );
    res.top(top)
        .iter()
        .map(|h| (h.score, prepared.sorted.db().header(h.id).to_string()))
        .collect()
}

fn served_hits(outcome: &client::SubmitOutcome) -> Vec<(i64, String)> {
    outcome
        .hits
        .iter()
        .map(|h| (h.score, h.header.clone()))
        .collect()
}

fn wait_for_socket(socket: &Path) {
    let t0 = Instant::now();
    while UnixStream::connect(socket).is_err() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "daemon never bound {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Send a submit and return the response stream with the ack consumed,
/// so the caller can sequence on "job accepted" without waiting for the
/// result.
fn start_submit(
    socket: &Path,
    tenant: &str,
    fasta: &str,
    drill: Option<&str>,
) -> (BufReader<UnixStream>, u64) {
    let mut s = UnixStream::connect(socket).expect("connect");
    let req = client::submit_request(tenant, fasta, 10, drill);
    s.write_all(req.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    s.flush().unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut r = BufReader::new(s);
    let mut ack = String::new();
    r.read_line(&mut ack).unwrap();
    assert_eq!(json::field_bool(&ack, "ok"), Some(true), "rejected: {ack}");
    let id = json::field_u64(&ack, "job").expect("ack job id");
    (r, id)
}

/// Drain the rest of a submit stream into a parsed outcome.
fn finish_submit(r: BufReader<UnixStream>, job: u64) -> client::SubmitOutcome {
    let mut lines = vec![format!(
        "{{\"ok\":true,\"job\":{job},\"state\":\"queued\"}}"
    )];
    for l in r.lines() {
        lines.push(l.unwrap());
    }
    client::parse_submit_response(&lines).unwrap_or_else(|e| panic!("job {job}: {e}"))
}

/// Value of one exporter sample line: `sample v` where `sample` is the
/// bare metric name or `name{labels}`.
fn metric(scrape: &str, sample: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(sample).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("sample '{sample}' missing from scrape:\n{scrape}"))
        .trim()
        .parse::<u64>()
        .unwrap_or_else(|e| panic!("sample '{sample}': {e}"))
}

fn wait_for_state(socket: &Path, job: u64, want: &str) {
    let t0 = Instant::now();
    loop {
        let lines =
            client::request(socket, &client::Request::Status(job).render()).expect("status");
        let state = json::field_str(&lines[0], "state").unwrap_or_default();
        if state == want {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "job {job} stuck in '{state}', want '{want}'"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_end_to_end() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(generate_database(&DbSpec::tiny(13)), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);

    let tmp = std::env::temp_dir().join(format!("sw-serve-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let mut config = ServeConfig::new(tmp.join("daemon.sock"));
    config.max_concurrent = 2;
    config.tenant_quota = 2;
    config.checkpoint_dir = Some(tmp.join("ckpt"));
    config.trace_dir = Some(tmp.join("trace"));
    config.registry_out = Some(tmp.join("registry.jsonl"));
    // As if the snapshot load digest-verified: health must surface it.
    config.snapshot_digest = Some(0x5eed);

    let q1 = generate_query(100, 21);
    let q2 = generate_query(120, 22);
    // Long enough that a cancel a few milliseconds into the run always
    // lands while the task queue is still deep.
    let q4 = generate_query(2000, 23);
    let (f1, f2, f4) = (fasta_of(&q1, &a), fasta_of(&q2, &a), fasta_of(&q4, &a));
    let solo1 = solo_hits(&engine, &prepared, &q1.residues, 10);
    let solo2 = solo_hits(&engine, &prepared, &q2.residues, 10);
    let solo4 = solo_hits(&engine, &prepared, &q4.residues, 10);

    let (final_stats, done_ids) = std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &SHUTDOWN))
        };
        let _stop = StopOnDrop(&SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        // Two concurrent queries from one tenant, held in flight by the
        // delay drill; a third submit for that tenant bounces off the
        // quota while they run.
        let (r1, id1) = start_submit(socket, "acme", &f1, Some("delay@0:500"));
        let (r2, id2) = start_submit(socket, "acme", &f2, Some("delay@0:500"));
        let rejected =
            client::request(socket, &client::submit_request("acme", &f1, 10, None)).unwrap();
        assert_eq!(
            json::field_bool(&rejected[0], "ok"),
            Some(false),
            "{rejected:?}"
        );
        assert!(
            json::field_str(&rejected[0], "error")
                .unwrap()
                .contains("quota"),
            "{rejected:?}"
        );
        let o1 = finish_submit(r1, id1);
        let o2 = finish_submit(r2, id2);
        assert_eq!(o1.state, "done");
        assert_eq!(o2.state, "done");
        assert_eq!(served_hits(&o1), solo1, "q1 served == q1 solo");
        assert_eq!(served_hits(&o2), solo2, "q2 served == q2 solo");

        // Cancel mid-flight: wait until the job holds a run slot, then
        // drain it. It must come back cancelled with its checkpoint on
        // disk.
        let (r4, id4) = start_submit(socket, "beta", &f4, Some("delay@0:400"));
        wait_for_state(socket, id4, "running");
        let c = client::request(socket, &client::Request::Cancel(id4).render()).unwrap();
        assert_eq!(json::field_bool(&c[0], "ok"), Some(true), "{c:?}");
        let o4 = finish_submit(r4, id4);
        assert_eq!(o4.state, "cancelled");
        let ckpts = std::fs::read_dir(tmp.join("ckpt")).unwrap().count();
        assert_eq!(ckpts, 1, "cancelled job leaves one fingerprint checkpoint");

        // Resubmitting the same query resumes from that checkpoint and
        // still matches the solo run exactly.
        let (r5, id5) = start_submit(socket, "beta", &f4, None);
        let o5 = finish_submit(r5, id5);
        assert_eq!(o5.state, "done");
        assert!(o5.resumes >= 1, "resubmit must resume, not restart");
        assert_eq!(served_hits(&o5), solo4, "resumed served == solo");

        let st = client::request(socket, &client::Request::Stats.render()).unwrap();
        assert_eq!(json::field_u64(&st[0], "jobs"), Some(4), "{st:?}");
        assert_eq!(json::field_u64(&st[0], "done"), Some(3), "{st:?}");
        assert_eq!(json::field_u64(&st[0], "cancelled"), Some(1), "{st:?}");
        assert_eq!(json::field_u64(&st[0], "rejected"), Some(1), "{st:?}");
        // Cumulative terminal-state counters ride the same line.
        assert_eq!(json::field_u64(&st[0], "done_total"), Some(3), "{st:?}");
        assert_eq!(
            json::field_u64(&st[0], "cancelled_total"),
            Some(1),
            "{st:?}"
        );
        assert_eq!(json::field_u64(&st[0], "failed_total"), Some(0), "{st:?}");

        // Health mid-session: live, ready, digest-verified snapshot.
        let h = client::request(socket, &client::health_request()).unwrap();
        assert_eq!(json::field_bool(&h[0], "ok"), Some(true), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "ready"), Some(true), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "live"), Some(true), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "draining"), Some(false), "{h:?}");
        assert_eq!(
            json::field_bool(&h[0], "snapshot_verified"),
            Some(true),
            "{h:?}"
        );

        // Metrics: the scrape must be strict-validator clean and its
        // lifecycle counters must match this scripted session exactly
        // (4 submits, 3 done, 1 cancel, 1 quota rejection, 1 resume).
        let scrape = client::request(socket, &client::metrics_request())
            .unwrap()
            .join("\n");
        sw_trace::validate::validate_prometheus_strict(&scrape)
            .unwrap_or_else(|e| panic!("{e}\n{scrape}"));
        assert_eq!(metric(&scrape, "sw_serve_submitted_total"), 4);
        assert_eq!(metric(&scrape, "sw_serve_done_total"), 3);
        assert_eq!(metric(&scrape, "sw_serve_cancelled_total"), 1);
        assert_eq!(metric(&scrape, "sw_serve_failed_total"), 0);
        assert_eq!(metric(&scrape, "sw_serve_rejected_total"), 1);
        assert_eq!(metric(&scrape, "sw_serve_resumes_total"), o5.resumes);
        assert!(metric(&scrape, "sw_serve_checkpoint_writes_total") >= 1);
        // Every terminal job owns one total-latency observation; the
        // cancelled job was running so it has a run phase too; only the
        // 3 done jobs streamed a first hit; all 4 accepted jobs were
        // admitted and gathered into regions.
        assert_eq!(metric(&scrape, "sw_serve_total_us_count"), 4);
        assert_eq!(metric(&scrape, "sw_serve_run_us_count"), 4);
        assert_eq!(metric(&scrape, "sw_serve_first_hit_us_count"), 3);
        assert_eq!(metric(&scrape, "sw_serve_admit_us_count"), 4);
        assert_eq!(metric(&scrape, "sw_serve_gather_us_count"), 4);
        // Per-tenant outcome counters.
        for (sample, want) in [
            (
                "sw_serve_tenant_jobs_total{tenant=\"acme\",outcome=\"done\"}",
                2,
            ),
            (
                "sw_serve_tenant_jobs_total{tenant=\"acme\",outcome=\"rejected\"}",
                1,
            ),
            (
                "sw_serve_tenant_jobs_total{tenant=\"beta\",outcome=\"done\"}",
                1,
            ),
            (
                "sw_serve_tenant_jobs_total{tenant=\"beta\",outcome=\"cancelled\"}",
                1,
            ),
        ] {
            assert_eq!(metric(&scrape, sample), want, "{sample}");
        }

        let sh = client::request(socket, &client::Request::Shutdown.render()).unwrap();
        assert_eq!(json::field_bool(&sh[0], "ok"), Some(true), "{sh:?}");
        let stats = server.join().unwrap().expect("serve");
        (stats, [id1, id2, id5])
    });

    assert_eq!(final_stats.done, 3);
    assert_eq!(final_stats.cancelled, 1);
    assert_eq!(final_stats.rejected, 1);
    assert!(
        !config.unix_socket().expect("unix listener").exists(),
        "socket removed on shutdown"
    );

    // Registry dump: one JSONL record per job, states as observed.
    let registry = std::fs::read_to_string(tmp.join("registry.jsonl")).unwrap();
    assert_eq!(registry.lines().count(), 4, "{registry}");
    assert_eq!(
        registry
            .lines()
            .filter(|l| l.contains("\"state\":\"done\""))
            .count(),
        3,
        "{registry}"
    );

    // Per-job trace exports: each completed job has its own validating
    // JSONL file in which every event carries that job's query id —
    // concurrent runs stay separable after export.
    for id in done_ids {
        let path = tmp.join("trace").join(format!("job-{id}.jsonl"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = sw_trace::validate::validate_jsonl(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(report.queries, 1, "one query id per job export");
        let tag = format!("\"query\":{id},");
        assert!(
            text.lines()
                .skip(1)
                .all(|l| l.is_empty() || l.contains(&tag)),
            "job {id}: every event line must carry its query tag"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Cross-query batching equivalence: four mixed-length queries that
/// coalesce into ONE shared dual-pool region must each stream a hit
/// list byte-identical to its solo run; a cancel mid-batch must spare
/// its batch-mates; and the cancelled query must resume from its
/// checkpoint on resubmit.
#[test]
fn batched_queries_match_solo_runs() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(
        generate_database(&DbSpec {
            n_seqs: 60,
            mean_len: 100.0,
            max_len: 300,
            seed: 31,
        }),
        4,
        &a,
    );
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);

    let tmp = std::env::temp_dir().join(format!("sw-serve-batch-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let mut config = ServeConfig::new(tmp.join("daemon.sock"));
    config.max_concurrent = 4;
    config.tenant_quota = 8;
    // Wide gather window: the four submits below must land in the same
    // shared region so the `batch` field can be asserted.
    config.batch_window_ms = 250;
    config.checkpoint_dir = Some(tmp.join("ckpt"));

    let qs: Vec<EncodedSeq> = [(60, 41), (90, 42), (140, 43), (500, 44)]
        .iter()
        .map(|&(len, seed)| generate_query(len, seed))
        .collect();
    let solos: Vec<Vec<(i64, String)>> = qs
        .iter()
        .map(|q| solo_hits(&engine, &prepared, &q.residues, 10))
        .collect();
    // The cancel victim: long enough that a cancel a few ms into the
    // run always leaves undone tasks, held open by the delay drill.
    let qc = generate_query(1200, 45);
    let solo_c = solo_hits(&engine, &prepared, &qc.residues, 10);
    let qd = generate_query(80, 46);
    let solo_d = solo_hits(&engine, &prepared, &qd.residues, 10);

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &BATCH_SHUTDOWN))
        };
        let _stop = StopOnDrop(&BATCH_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        // Phase 1: four concurrent mixed-length submits → one region.
        let streams: Vec<_> = qs
            .iter()
            .map(|q| start_submit(socket, "fleet", &fasta_of(q, &a), None))
            .collect();
        for ((r, id), solo) in streams.into_iter().zip(&solos) {
            let o = finish_submit(r, id);
            assert_eq!(o.state, "done", "job {id}");
            assert_eq!(o.batch, 4, "job {id} must share a 4-query region");
            assert_eq!(&served_hits(&o), solo, "batched == solo for job {id}");
        }

        // Phase 2: cancel one query mid-batch; its batch-mate finishes
        // with byte-identical hits.
        let (rc, idc) = start_submit(socket, "fleet", &fasta_of(&qc, &a), Some("delay@0:400"));
        let (rd, idd) = start_submit(socket, "fleet", &fasta_of(&qd, &a), None);
        wait_for_state(socket, idc, "running");
        let c = client::request(socket, &client::Request::Cancel(idc).render()).unwrap();
        assert_eq!(json::field_bool(&c[0], "ok"), Some(true), "{c:?}");
        let oc = finish_submit(rc, idc);
        let od = finish_submit(rd, idd);
        assert_eq!(oc.state, "cancelled", "victim drained out of the region");
        assert_eq!(od.state, "done", "batch-mate survives the cancel");
        assert_eq!(served_hits(&od), solo_d, "batch-mate hits untouched");
        assert_eq!(
            std::fs::read_dir(tmp.join("ckpt")).unwrap().count(),
            1,
            "cancelled query leaves exactly its own checkpoint"
        );

        // Phase 3: resubmit the victim — resumes from the checkpoint,
        // still byte-identical to solo.
        let (rr, idr) = start_submit(socket, "fleet", &fasta_of(&qc, &a), None);
        let or = finish_submit(rr, idr);
        assert_eq!(or.state, "done");
        assert!(or.resumes >= 1, "resubmit must resume, not restart");
        assert_eq!(served_hits(&or), solo_c, "resumed mid-batch == solo");
        assert_eq!(
            std::fs::read_dir(tmp.join("ckpt")).unwrap().count(),
            0,
            "completion removes the checkpoint"
        );

        let st = client::request(socket, &client::Request::Stats.render()).unwrap();
        assert_eq!(json::field_u64(&st[0], "jobs"), Some(7), "{st:?}");
        assert_eq!(json::field_u64(&st[0], "done"), Some(6), "{st:?}");
        assert_eq!(json::field_u64(&st[0], "cancelled"), Some(1), "{st:?}");

        client::request(socket, &client::Request::Shutdown.render()).unwrap();
        server.join().unwrap().expect("serve");
    });
    std::fs::remove_dir_all(&tmp).ok();
}

/// A gather window that is full closes at once — a region of
/// `max_concurrent` cannot gain a member by waiting — while a window that
/// is not full is waited out to its deadline; the scrape says which
/// happened.
#[test]
fn full_window_closes_at_once_a_lone_submit_waits_it_out() {
    let a = Alphabet::protein();
    // Small enough that the searches themselves take milliseconds even
    // in the dev profile: the times below are the window's.
    let spec = DbSpec {
        n_seqs: 12,
        mean_len: 80.0,
        max_len: 200,
        seed: 81,
    };
    let prepared = PreparedDb::prepare(generate_database(&spec), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-window-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let mut config = ServeConfig::new(tmp.join("daemon.sock"));
    config.max_concurrent = 2;
    config.batch_window_ms = 2_000;
    let window = Duration::from_millis(config.batch_window_ms);
    let (q1, q2) = (generate_query(80, 82), generate_query(150, 83));

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &WINDOW_SHUTDOWN))
        };
        let _stop = StopOnDrop(&WINDOW_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        let t0 = Instant::now();
        let (r1, id1) = start_submit(socket, "pair", &fasta_of(&q1, &a), None);
        let (r2, id2) = start_submit(socket, "pair", &fasta_of(&q2, &a), None);
        let (o1, o2) = (finish_submit(r1, id1), finish_submit(r2, id2));
        let took = t0.elapsed();
        assert!(took < window / 2, "a full window was waited out: {took:?}");
        assert_eq!((o1.state.as_str(), o1.batch), ("done", 2));
        assert_eq!((o2.state.as_str(), o2.batch), ("done", 2));
        assert_eq!(
            served_hits(&o1),
            solo_hits(&engine, &prepared, &q1.residues, 10)
        );
        assert_eq!(
            served_hits(&o2),
            solo_hits(&engine, &prepared, &q2.residues, 10)
        );

        let t0 = Instant::now();
        let (r3, id3) = start_submit(socket, "lone", &fasta_of(&q1, &a), None);
        let o3 = finish_submit(r3, id3);
        let took = t0.elapsed();
        assert!(
            took >= window,
            "a lone submit left its window early: {took:?}"
        );
        assert_eq!((o3.state.as_str(), o3.batch), ("done", 1));

        let scrape = client::request(socket, &client::metrics_request())
            .unwrap()
            .join("\n");
        sw_trace::validate::validate_prometheus_strict(&scrape)
            .unwrap_or_else(|e| panic!("{e}\n{scrape}"));
        assert_eq!(
            metric(&scrape, "sw_serve_windows_total{closed=\"full\"}"),
            1
        );
        assert_eq!(
            metric(&scrape, "sw_serve_windows_total{closed=\"deadline\"}"),
            1
        );

        client::request(socket, &client::Request::Shutdown.render()).unwrap();
        server.join().unwrap().expect("serve");
    });
    std::fs::remove_dir_all(&tmp).ok();
}

/// Readiness must flip off the moment a drain starts while liveness
/// stays up: an orchestrator pulls the daemon out of rotation without
/// killing it while the in-flight job finishes checkpointing.
#[test]
fn health_flips_during_drain() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(
        generate_database(&DbSpec {
            n_seqs: 12,
            mean_len: 80.0,
            max_len: 200,
            seed: 61,
        }),
        4,
        &a,
    );
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-drainhealth-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let config = ServeConfig::new(tmp.join("daemon.sock"));

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || {
                sw_serve::serve(engine, prepared, a, base, config, &DRAIN_HEALTH_SHUTDOWN)
            })
        };
        let _stop = StopOnDrop(&DRAIN_HEALTH_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        // A delay-drill job holds the daemon in flight across the
        // whole probe sequence below.
        let q = generate_query(400, 62);
        let (r, id) = start_submit(socket, "ops", &fasta_of(&q, &a), Some("delay@0:800"));
        wait_for_state(socket, id, "running");
        let h = client::request(socket, &client::health_request()).unwrap();
        assert_eq!(json::field_bool(&h[0], "ready"), Some(true), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "draining"), Some(false), "{h:?}");

        // Shutdown: the daemon keeps answering probes while the job
        // drains, but reports itself not ready.
        let sh = client::request(socket, &client::Request::Shutdown.render()).unwrap();
        assert_eq!(json::field_bool(&sh[0], "ok"), Some(true), "{sh:?}");
        let h = client::request(socket, &client::health_request()).unwrap();
        assert_eq!(json::field_bool(&h[0], "ready"), Some(false), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "draining"), Some(true), "{h:?}");
        assert_eq!(json::field_bool(&h[0], "live"), Some(true), "{h:?}");

        let o = finish_submit(r, id);
        assert_eq!(o.state, "cancelled", "shutdown drains the in-flight job");
        // That stream was the last in-flight work: the blocked accept
        // loop is woken to notice, not left waiting for a connection.
        let t0 = Instant::now();
        server.join().unwrap().expect("serve");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "serve() returned {:?} after the last in-flight stream ended",
            t0.elapsed()
        );
    });
    assert!(
        !config.unix_socket().expect("unix listener").exists(),
        "socket removed after the drain"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

/// Regression for the shutdown wedge: a client that connects and never
/// sends a request used to park `handle_connection` in a blocking
/// `read_line` forever, so the scoped join in `serve` never returned.
/// With the read timeout + shutdown polling, `serve` must return while
/// the silent connection is still open.
#[test]
fn stalled_half_line_client_is_evicted() {
    // A client that sends half a request line and stalls must not pin
    // a connection thread and fd until daemon shutdown: the request
    // deadline evicts it (closing the socket), the eviction lands in
    // the SLO counters, and the daemon stays fully serviceable.
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(
        generate_database(&DbSpec {
            n_seqs: 8,
            mean_len: 60.0,
            max_len: 120,
            seed: 53,
        }),
        4,
        &a,
    );
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-evict-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let mut config = ServeConfig::new(tmp.join("daemon.sock"));
    config.request_timeout_ms = 300;

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &EVICT_SHUTDOWN))
        };
        let _stop = StopOnDrop(&EVICT_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);
        // Half a request line, never finished.
        let mut stalled = UnixStream::connect(socket).expect("connect");
        stalled.write_all(b"{\"op\":\"hea").unwrap();
        stalled.flush().unwrap();
        // The daemon must hang up on us within the deadline (plus
        // generous slack), NOT hold the fd until shutdown.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        use std::io::Read as _;
        let n = stalled
            .read(&mut buf)
            .expect("daemon must close the stalled connection before the client read times out");
        assert_eq!(n, 0, "eviction is a hangup, not a reply");

        // The eviction is counted, and the daemon is still healthy and
        // serving: a real query on a fresh connection completes.
        let scrape = client::request(socket, &client::metrics_request())
            .unwrap()
            .join("\n");
        assert_eq!(metric(&scrape, "sw_serve_connection_evictions_total"), 1);
        let q = generate_query(40, 7);
        let (r, job) = start_submit(socket, "late", &fasta_of(&q, &a), None);
        let outcome = finish_submit(r, job);
        assert_eq!(outcome.state, "done");

        let sh = client::request(socket, &client::Request::Shutdown.render()).unwrap();
        assert_eq!(json::field_bool(&sh[0], "ok"), Some(true), "{sh:?}");
        server.join().unwrap().expect("serve");
    });
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn silent_connection_does_not_block_shutdown() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(
        generate_database(&DbSpec {
            n_seqs: 8,
            mean_len: 60.0,
            max_len: 120,
            seed: 51,
        }),
        4,
        &a,
    );
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-silent-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let config = ServeConfig::new(tmp.join("daemon.sock"));

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &SILENT_SHUTDOWN))
        };
        let _stop = StopOnDrop(&SILENT_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);
        // Open a connection and say nothing; keep it open across the
        // whole shutdown sequence.
        let silent = UnixStream::connect(socket).expect("silent connect");
        // Give the accept loop a beat to hand it to a connection thread
        // (the wedge needs the thread parked in the request read).
        std::thread::sleep(Duration::from_millis(100));
        let sh = client::request(socket, &client::Request::Shutdown.render()).unwrap();
        assert_eq!(json::field_bool(&sh[0], "ok"), Some(true), "{sh:?}");
        let t0 = Instant::now();
        server.join().unwrap().expect("serve");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "serve() must return promptly despite the open silent connection"
        );
        drop(silent);
    });
    std::fs::remove_dir_all(&tmp).ok();
}

/// A connect-and-close is not a request (the daemon's own shutdown
/// waker, `Listener::bind`'s liveness dial and every readiness poll do
/// exactly that): it gets no reply. A non-empty line with an op the
/// daemon does not know still gets the typed error — and so does a
/// client that streams past the wire's line bound without ever sending
/// a newline, which the daemon hangs up on and stays ready.
#[test]
fn empty_connection_gets_no_reply_unknown_op_a_typed_error() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(generate_database(&DbSpec::tiny(71)), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-emptyconn-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let config = ServeConfig::new(tmp.join("daemon.sock"));

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || {
                sw_serve::serve(engine, prepared, a, base, config, &EMPTY_CONN_SHUTDOWN)
            })
        };
        let _stop = StopOnDrop(&EMPTY_CONN_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        let empty = UnixStream::connect(socket).expect("connect");
        empty.shutdown(std::net::Shutdown::Write).unwrap();
        let reply: Vec<String> = BufReader::new(empty).lines().map(|l| l.unwrap()).collect();
        assert!(
            reply.is_empty(),
            "EOF before any byte is not a request: {reply:?}"
        );

        // A line the request reader refuses is answered with its reason.
        for (line, error) in [
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"status\"}", "status needs a job id"),
        ] {
            let reply = client::request(socket, line).unwrap();
            assert_eq!(reply.len(), 1, "{reply:?}");
            assert_eq!(json::field_bool(&reply[0], "ok"), Some(false), "{reply:?}");
            assert_eq!(
                json::field_str(&reply[0], "error").as_deref(),
                Some(error),
                "{reply:?}"
            );
        }

        // One byte over the bound, no newline: answered (not buffered
        // until the request deadline) the moment the bound is crossed.
        let mut flood = UnixStream::connect(socket).expect("connect");
        flood
            .write_all(&vec![b'A'; sw_serve::transport::MAX_LINE_BYTES + 1])
            .unwrap();
        let t0 = Instant::now();
        let reply: Vec<String> = BufReader::new(flood).lines().map(|l| l.unwrap()).collect();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "waited for a deadline"
        );
        assert_eq!(reply.len(), 1, "{reply:?}");
        assert_eq!(json::field_bool(&reply[0], "ok"), Some(false), "{reply:?}");
        let error = json::field_str(&reply[0], "error").unwrap_or_default();
        assert!(
            error.starts_with("request line exceeds ") && error.ends_with(" bytes"),
            "{reply:?}"
        );
        let health = client::request(socket, &client::health_request()).unwrap();
        assert_eq!(
            json::field_bool(&health[0], "ready"),
            Some(true),
            "{health:?}"
        );

        client::request(socket, &client::Request::Shutdown.render()).unwrap();
        server.join().unwrap().expect("serve");
    });
    std::fs::remove_dir_all(&tmp).ok();
}

/// `accept` blocks, and the shutdown signal is a bare atomic that a
/// SIGINT handler or an embedder flips with no wire traffic: an idle
/// daemon must still stop within a second of `request()`, whichever
/// address family it listens on. The waker has to dial the address the
/// listener actually bound — the kernel-chosen port of a `:0` bind,
/// loopback for a wildcard host.
#[test]
fn bare_signal_stops_an_idle_daemon_on_every_listener_family() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(generate_database(&DbSpec::tiny(73)), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-idlestop-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    // A port that was free a moment ago, for the bind the test must be
    // able to dial; `:0` itself is covered by the second case.
    let free_port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let unix = Endpoint::Unix(tmp.join("daemon.sock"));
    let cases = [
        (unix.clone(), Some(unix)),
        (Endpoint::Tcp("127.0.0.1:0".into()), None),
        (
            Endpoint::Tcp(format!("0.0.0.0:{free_port}")),
            Some(Endpoint::Tcp(format!("127.0.0.1:{free_port}"))),
        ),
    ];
    for (i, (listen, dial)) in cases.into_iter().enumerate() {
        let signal: &'static DrainSignal = Box::leak(Box::new(DrainSignal::new()));
        let mut config = ServeConfig::at(listen.clone());
        config.log_level = sw_serve::LogLevel::Info;
        config.log_file = Some(tmp.join(format!("ops-{i}.log")));
        let stopped_in = std::thread::scope(|s| {
            let server = {
                let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
                s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, signal))
            };
            let _stop = StopOnDrop(signal);
            // Serving is an observed event, not a sleep: a health reply
            // where the address can be dialled, the ops log's
            // `daemon_ready` line where the kernel picked the port.
            let t0 = Instant::now();
            loop {
                let up = match &dial {
                    Some(ep) => client::request_endpoint(ep, &client::health_request()).is_ok(),
                    None => std::fs::read_to_string(config.log_file.as_ref().unwrap())
                        .is_ok_and(|log| log.contains("daemon_ready")),
                };
                if up {
                    break;
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "{listen}: never served"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let t0 = Instant::now();
            signal.request();
            server.join().unwrap().expect("serve");
            t0.elapsed()
        });
        assert!(
            stopped_in < Duration::from_secs(1),
            "{listen}: idle daemon took {stopped_in:?} to notice a bare shutdown request"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// Ask a running daemon to stop over the wire and require `serve` to
/// return within a second: its parked handlers must not hold the scope.
fn shutdown_promptly(
    socket: &Path,
    server: std::thread::ScopedJoinHandle<
        '_,
        Result<sw_serve::StatsSnapshot, sw_serve::ServeError>,
    >,
) {
    let sh = client::request(socket, &client::Request::Shutdown.render()).unwrap();
    assert_eq!(json::field_bool(&sh[0], "ok"), Some(true), "{sh:?}");
    let t0 = Instant::now();
    server.join().unwrap().expect("serve");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "serve() took {:?} to stop with handlers parked",
        t0.elapsed()
    );
}

/// A connection handler that finished its connection takes the next one:
/// a client that sends one request at a time is served by the thread the
/// first request started (a second one at most, when a request arrives
/// before the previous handler has parked), however many requests it
/// sends.
#[test]
fn sequential_requests_reuse_parked_handlers() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(generate_database(&DbSpec::tiny(91)), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-reuse-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let config = ServeConfig::new(tmp.join("daemon.sock"));
    let fasta = fasta_of(&generate_query(60, 92), &a);

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &REUSE_SHUTDOWN))
        };
        let _stop = StopOnDrop(&REUSE_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        for _ in 0..50 {
            let h = client::request(socket, &client::health_request()).unwrap();
            assert_eq!(json::field_bool(&h[0], "ready"), Some(true), "{h:?}");
        }
        for _ in 0..20 {
            let lines =
                client::request(socket, &client::submit_request("seq", &fasta, 5, None)).unwrap();
            let o = client::parse_submit_response(&lines).unwrap();
            assert_eq!(o.state, "done", "{lines:?}");
        }
        let scrape = client::request(socket, &client::metrics_request())
            .unwrap()
            .join("\n");
        sw_trace::validate::validate_prometheus_strict(&scrape)
            .unwrap_or_else(|e| panic!("{e}\n{scrape}"));
        let threads = metric(&scrape, "sw_serve_connection_threads_total");
        assert!(
            (1..=2).contains(&threads),
            "{threads} handler threads for 71 sequential requests"
        );
        assert_eq!(metric(&scrape, "sw_serve_done_total"), 20);
        shutdown_promptly(socket, server);
    });
    std::fs::remove_dir_all(&tmp).ok();
}

/// Submits hold their handler for the whole search, so a probe that
/// arrives while every region slot is taken gets a handler of its own and
/// answers at once; once the submits end, all those handlers park, and
/// the daemon still stops promptly on the `shutdown` op.
#[test]
fn health_answers_while_submits_hold_every_slot() {
    let a = Alphabet::protein();
    let prepared = PreparedDb::prepare(generate_database(&DbSpec::tiny(95)), 4, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-serve-held-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(&tmp).unwrap();
    let mut config = ServeConfig::new(tmp.join("daemon.sock"));
    config.max_concurrent = 2;
    // Wide enough that the submits below share one region however slowly
    // they arrive; a full window closes at once.
    config.batch_window_ms = 2_000;

    std::thread::scope(|s| {
        let server = {
            let (engine, prepared, a, base, config) = (&engine, &prepared, &a, &base, &config);
            s.spawn(move || sw_serve::serve(engine, prepared, a, base, config, &HELD_SHUTDOWN))
        };
        let _stop = StopOnDrop(&HELD_SHUTDOWN);
        let socket = config.unix_socket().expect("unix listener");
        wait_for_socket(socket);

        // One region of `max_concurrent` queries, held by the drill.
        let held: Vec<_> = (0..config.max_concurrent as u64)
            .map(|i| {
                let q = generate_query(80, 96 + i);
                start_submit(socket, "held", &fasta_of(&q, &a), Some("delay@0:1500"))
            })
            .collect();
        for (_, id) in &held {
            wait_for_state(socket, *id, "running");
        }
        // The reply itself proves the probe was served while both held.
        let h = client::request(socket, &client::health_request()).unwrap();
        assert_eq!(json::field_bool(&h[0], "ready"), Some(true), "{h:?}");
        assert_eq!(
            json::field_u64(&h[0], "running"),
            Some(config.max_concurrent as u64),
            "{h:?}"
        );
        for (r, id) in held {
            assert_eq!(finish_submit(r, id).state, "done");
        }
        let scrape = client::request(socket, &client::metrics_request())
            .unwrap()
            .join("\n");
        assert!(
            metric(&scrape, "sw_serve_connection_threads_total") > config.max_concurrent as u64,
            "the probe needed a handler beside the held submits:\n{scrape}"
        );
        shutdown_promptly(socket, server);
    });
    std::fs::remove_dir_all(&tmp).ok();
}
