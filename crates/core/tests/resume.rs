//! Resume-equivalence matrix for durable searches.
//!
//! The durability contract: a search interrupted at *any* point and
//! resumed from its checkpoint produces a hit list identical to an
//! uninterrupted run — same hits, same order, same cell accounting —
//! and its recovery counters stay monotone across run segments. The
//! matrix here interrupts via [`DrainSignal`] thresholds at 25/50/75%
//! of the batches (deterministic in-process interruption); the
//! whole-process SIGKILL variant of the same contract is exercised by
//! the CLI's subprocess crash harness (`crates/cli/tests`), which this
//! suite cannot do in-process.

use std::path::{Path, PathBuf};
use std::time::Duration;
use sw_core::{
    BatchQuery, Checkpoint, CheckpointError, DurableOptions, DurableSearchError, HeteroEngine,
    HeteroSearchConfig, PreparedDb, SearchConfig, SearchEngine, SearchFingerprint, TraceConfig,
};
use sw_sched::{DrainSignal, FaultInjector, FaultKind, FaultPlan, FaultSpec, DEVICE_CPU};
use sw_seq::gen::{generate_database, generate_query, DbSpec};
use sw_seq::Alphabet;

fn setup() -> (PreparedDb, Vec<u8>) {
    let a = Alphabet::protein();
    // Lanes of 4 → ~50 batches: enough queue depth that a drain request
    // always lands while work is still outstanding (in-flight chunks
    // finish after the request, so a shallow queue could complete).
    let db = PreparedDb::prepare(generate_database(&DbSpec::tiny(13)), 4, &a);
    let q = generate_query(100, 21).residues;
    (db, q)
}

/// A fresh checkpoint directory for the test `tag`.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sw-resume-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Where a search of `q` over `db` keeps its log in `dir`.
fn ckpt_file(dir: &Path, db: &PreparedDb, q: &[u8]) -> PathBuf {
    dir.join(SearchFingerprint::compute(db, q).file_name())
}

#[test]
fn clean_durable_run_matches_static_and_dynamic() {
    let (db, q) = setup();
    let engine = SearchEngine::paper_default();
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);

    let static_ref = hetero.search(
        &q,
        &db,
        &plan,
        &SearchConfig::best(2),
        &SearchConfig::best(2),
    );
    let dynamic_ref = hetero.search_dynamic(&q, &db, &plan, &cfg);

    let dir = ckpt_dir("clean");
    let path = ckpt_file(&dir, &db, &q);
    let out = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: None,
                resume: false,
                ..DurableOptions::default()
            },
        )
        .expect("clean durable run");
    assert!(!out.drained);
    assert_eq!(out.resumes, 0);
    assert_eq!(out.resumed_tasks, 0);
    assert_eq!(out.tasks_done, out.n_batches);
    let res = out.outcome.expect("completed").results;
    assert_eq!(res.hits, static_ref.hits, "durable == static split");
    assert_eq!(res.hits, dynamic_ref.results.hits, "durable == dynamic");
    assert_eq!(res.cells, static_ref.cells, "cell accounting identical");
    assert!(
        !path.exists(),
        "completed search deletes its checkpoint file"
    );
}

#[test]
fn drain_resume_equivalence_matrix() {
    // Interrupt at 25%, 50%, and 75% of the batches; resume each to
    // completion; every final hit list must equal the uninterrupted
    // static-split and dynamic references.
    let (db, q) = setup();
    let engine = SearchEngine::paper_default();
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);
    let n = db.batches.len() as u64;

    let static_ref = hetero.search(
        &q,
        &db,
        &plan,
        &SearchConfig::best(2),
        &SearchConfig::best(2),
    );
    let dynamic_ref = hetero.search_dynamic(&q, &db, &plan, &cfg);

    for (tag, fraction) in [("q1", 0.25f64), ("q2", 0.5), ("q3", 0.75)] {
        let dir = ckpt_dir(tag);
        let path = ckpt_file(&dir, &db, &q);
        let threshold = ((n as f64 * fraction) as u64).max(1);
        let drain = DrainSignal::after_tasks(threshold);
        let first = hetero
            .search_dynamic_resumable(
                &q,
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &DurableOptions {
                    checkpoint_dir: Some(&dir),
                    drain: Some(&drain),
                    resume: false,
                    ..DurableOptions::default()
                },
            )
            .expect("drained segment");
        assert!(first.drained, "{tag}: drain must interrupt the run");
        assert!(first.outcome.is_none());
        assert!(
            first.tasks_done >= threshold,
            "{tag}: drain only fires after its threshold"
        );
        assert!(
            first.tasks_done < n,
            "{tag}: the run must actually be partial \
             ({} of {n} done — lower the threshold?)",
            first.tasks_done
        );
        assert!(path.exists(), "{tag}: drained run leaves a checkpoint");
        assert!(first.checkpoints_written >= 1);

        let resumed = hetero
            .search_dynamic_resumable(
                &q,
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &DurableOptions {
                    checkpoint_dir: Some(&dir),
                    drain: None,
                    resume: true,
                    ..DurableOptions::default()
                },
            )
            .expect("resumed segment");
        assert!(!resumed.drained);
        assert_eq!(resumed.resumes, 1, "{tag}: one resume");
        assert_eq!(
            resumed.resumed_tasks, first.tasks_done,
            "{tag}: every committed batch is loaded, none recomputed"
        );
        let res = resumed.outcome.expect("completed").results;
        assert_eq!(res.hits, static_ref.hits, "{tag}: resumed == static");
        assert_eq!(
            res.hits, dynamic_ref.results.hits,
            "{tag}: resumed == dynamic"
        );
        assert_eq!(res.cells, static_ref.cells, "{tag}: cells identical");
        // Monotone recovery counters across segments.
        for d in 0..2 {
            let a = first.recovery[d];
            let b = resumed.recovery[d];
            assert!(
                b.retries >= a.retries
                    && b.requeues >= a.requeues
                    && b.lost_leases >= a.lost_leases
                    && b.failures >= a.failures,
                "{tag}: device {d} counters must be monotone"
            );
        }
        assert!(!path.exists(), "{tag}: completion deletes the checkpoint");
    }
}

#[test]
fn drain_during_drained_resume_still_converges() {
    // The "kill during drain" cell of the matrix: a resumed run is
    // itself drained again (its threshold is below what the first
    // segment completed, so the second segment commits at most a chunk
    // before stopping). A third segment finishes the search; hits must
    // still be byte-identical and counters monotone over all three.
    let (db, q) = setup();
    let engine = SearchEngine::paper_default();
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);
    let n = db.batches.len() as u64;
    let reference = hetero.search_dynamic(&q, &db, &plan, &cfg);

    let dir = ckpt_dir("mid-drain");
    let drain1 = DrainSignal::after_tasks(n / 2);
    let s1 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain1),
                resume: false,
                ..DurableOptions::default()
            },
        )
        .expect("segment 1");
    assert!(s1.drained);

    // Threshold below the already-done count: fires on the resumed
    // run's very first commit — the drain lands while the run is still
    // absorbing its checkpoint.
    let drain2 = DrainSignal::after_tasks(s1.tasks_done.max(1));
    let s2 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain2),
                resume: true,
                ..DurableOptions::default()
            },
        )
        .expect("segment 2");
    assert!(s2.drained, "second drain interrupts the resumed run");
    assert_eq!(s2.resumes, 1);
    assert!(s2.tasks_done >= s1.tasks_done, "progress never regresses");

    let s3 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: None,
                resume: true,
                ..DurableOptions::default()
            },
        )
        .expect("segment 3");
    assert!(!s3.drained);
    assert_eq!(s3.resumes, 2, "two resumes recorded across segments");
    assert_eq!(
        s3.outcome.expect("completed").results.hits,
        reference.results.hits,
        "three-segment search == uninterrupted search"
    );
    for d in 0..2 {
        assert!(
            s3.recovery[d].failures >= s2.recovery[d].failures
                && s2.recovery[d].failures >= s1.recovery[d].failures,
            "failure counters monotone across all three segments"
        );
    }
}

#[test]
fn faulty_segment_keeps_counters_monotone_after_resume() {
    use sw_sched::{FaultKind, FaultPlan, FaultSpec, DEVICE_ACCEL};
    let (db, q) = setup();
    let engine = SearchEngine::paper_default();
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 1);
    let n = db.batches.len() as u64;
    let reference = hetero.search_dynamic(&q, &db, &plan, &cfg);

    let dir = ckpt_dir("faulty");
    // An accel worker dies on its first chunk, then the run drains. Each
    // CPU worker's first chunk starts 200 ms late, so the accelerator
    // claims a chunk before the CPU pool reaches the drain threshold.
    let hold = |chunk| FaultSpec {
        device: DEVICE_CPU,
        chunk,
        kind: FaultKind::Delay(Duration::from_millis(200)),
    };
    let kill = FaultSpec {
        device: DEVICE_ACCEL,
        chunk: 0,
        kind: FaultKind::Kill,
    };
    let inj = FaultInjector::new(FaultPlan {
        specs: vec![kill, hold(0), hold(1)],
    });
    let drain = DrainSignal::after_tasks((n * 3 / 4).max(1));
    let s1 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &inj,
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain),
                resume: false,
                ..DurableOptions::default()
            },
        )
        .expect("faulty drained segment");
    assert!(s1.drained);
    assert!(
        s1.recovery[DEVICE_ACCEL].failures >= 1,
        "the injected kill is counted"
    );

    let s2 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: None,
                resume: true,
                ..DurableOptions::default()
            },
        )
        .expect("clean resumed segment");
    assert_eq!(
        s2.outcome.expect("completed").results.hits,
        reference.results.hits,
        "a fault before the drain never changes the final hits"
    );
    assert!(
        s2.recovery[DEVICE_ACCEL].failures >= s1.recovery[DEVICE_ACCEL].failures,
        "failure totals carried across the restart"
    );
}

#[test]
fn resume_against_wrong_query_is_typed_mismatch() {
    let (db, q) = setup();
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);
    let dir = ckpt_dir("wrong-query");
    let path = ckpt_file(&dir, &db, &q);
    let drain = DrainSignal::after_tasks(1);
    hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain),
                resume: false,
                ..DurableOptions::default()
            },
        )
        .expect("drained segment");
    assert!(path.exists());

    let other_q = generate_query(100, 22).residues;
    // The other query's name on the first query's log: a mislabelled file.
    let other_path = ckpt_file(&dir, &db, &other_q);
    std::fs::rename(&path, &other_path).expect("relabel");
    let plan2 = hetero.plan_split(&db, other_q.len(), 0.5);
    let err = hetero
        .search_dynamic_resumable(
            &other_q,
            &db,
            &plan2,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: None,
                resume: true,
                ..DurableOptions::default()
            },
        )
        .expect_err("a different query must be rejected");
    match err {
        DurableSearchError::Checkpoint(CheckpointError::Mismatch { field, .. }) => {
            assert_eq!(field, "query digest");
        }
        other => panic!("expected a fingerprint mismatch, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_of_the_one_sequence_per_lane_layout_is_refused() {
    // A checkpoint fabricated in the layout before lane refill — one
    // sequence per lane, full batches cut from the long end, record i =
    // the i-th group of sorted ranks with only the first partial — under
    // that layout's own fingerprint. Where refill packs fewer batches the
    // fingerprint's batch count refuses it; where it packs as many, the
    // records carry other ids than the batches they name and the layout
    // check refuses it. Either way a typed mismatch, never a resume.
    use sw_core::{BatchResult, Hit, RecoveryTotals};
    use sw_kernels::CellCount;
    use sw_seq::gen::SwissProtGen;
    let a = Alphabet::protein();
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let cfg = HeteroSearchConfig::best(2, 2);
    let q = generate_query(100, 21).residues;
    let m = q.len() as u64;
    let mut g = SwissProtGen::new(50.0, 7);
    // Refill stacks one 2 after the 8 and still packs three batches at
    // four lanes: [2], [5, 5, 5, 5], [8, 10, 10, 10, 2].
    let ten: Vec<_> = [10u32, 10, 10, 8, 5, 5, 5, 5, 2, 2]
        .iter()
        .enumerate()
        .map(|(i, &len)| g.sequence(&format!("s{i}"), len))
        .collect();
    let cases = [
        (
            PreparedDb::prepare(
                generate_database(&DbSpec {
                    n_seqs: 100,
                    ..DbSpec::tiny(13)
                }),
                16,
                &a,
            ),
            16usize,
            "batch count",
        ),
        (PreparedDb::prepare(ten, 4, &a), 4, "batch layout"),
    ];
    for (case, (db, lanes, field)) in cases.iter().enumerate() {
        let n_seqs = db.n_seqs();
        let first = match n_seqs % lanes {
            0 => *lanes,
            partial => partial,
        };
        let groups: Vec<std::ops::Range<usize>> = (0..n_seqs.div_ceil(*lanes))
            .map(|i| (first + lanes * i).saturating_sub(*lanes)..first + lanes * i)
            .collect();
        assert!(
            db.batches.len() < groups.len() || db.batches[0].n_seqs() != first,
            "construction: refill changes the layout"
        );
        let plan = hetero.plan_split(db, q.len(), 0.5);
        let reference = hetero.search_dynamic(&q, db, &plan, &cfg).results;
        let mut score = vec![0i64; n_seqs];
        for h in &reference.hits {
            score[h.id.0 as usize] = h.score;
        }
        let done: Vec<BatchResult> = groups
            .iter()
            .enumerate()
            .step_by(2)
            .map(|(i, ranks)| {
                let lens = ranks.clone().map(|r| db.sorted.len_at(r) as u64);
                BatchResult {
                    batch: i,
                    device: 0,
                    hits: ranks
                        .clone()
                        .map(|r| {
                            let id = db.sorted.id_at(r);
                            Hit {
                                id,
                                score: score[id.0 as usize],
                            }
                        })
                        .collect(),
                    cells: CellCount {
                        real: m * lens.clone().sum::<u64>(),
                        padded: m * *lanes as u64 * lens.max().expect("non-empty"),
                    },
                    rescued: 0,
                }
            })
            .collect();
        // Written where this search's log lives, under the name of the
        // present layout.
        let dir = ckpt_dir(&format!("one-per-lane-{case}"));
        let path = ckpt_file(&dir, db, &q);
        Checkpoint {
            fingerprint: SearchFingerprint {
                n_batches: groups.len() as u64,
                ..SearchFingerprint::compute(db, &q)
            },
            seq: 0,
            resumes: 0,
            accel_share: 0.5,
            recovery: [RecoveryTotals::default(); 2],
            done,
        }
        .write_atomic(&path)
        .expect("write fabricated checkpoint");

        let out = hetero.search_dynamic_resumable(
            &q,
            db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                resume: true,
                ..DurableOptions::default()
            },
        );
        match out {
            Err(DurableSearchError::Checkpoint(e @ CheckpointError::Mismatch { .. })) => {
                assert!(e.to_string().contains(field), "case {case}: {e}")
            }
            Err(other) => panic!("case {case}: expected a {field} mismatch, got: {other}"),
            Ok(_) => panic!("case {case}: a one-sequence-per-lane checkpoint was resumed"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_checkpoint_is_rejected_not_trusted() {
    let (db, q) = setup();
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);
    let dir = ckpt_dir("corrupt");
    let path = ckpt_file(&dir, &db, &q);
    let drain = DrainSignal::after_tasks(2);
    hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain),
                resume: false,
                ..DurableOptions::default()
            },
        )
        .expect("drained segment");
    // Flip one byte of the header frame's payload on disk: a bad frame
    // with bytes after it (a flip in the last frame would be a torn tail,
    // dropped by the log's recovery rule).
    let mut bytes = std::fs::read(&path).expect("checkpoint bytes");
    bytes[8 + 12 + 3] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");

    let err = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: None,
                resume: true,
                ..DurableOptions::default()
            },
        )
        .expect_err("bit-flipped checkpoint must be rejected");
    match err {
        DurableSearchError::Checkpoint(CheckpointError::Corrupt { detail }) => {
            assert!(
                detail.contains("CRC32") && detail.contains("at byte 8"),
                "unexpected detail: {detail}"
            );
            // The operator must learn *which* file to inspect or delete.
            assert!(
                detail.contains(path.to_str().expect("utf-8 path")),
                "error does not name {}: {detail}",
                path.display()
            );
        }
        other => panic!("expected a corruption error, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_checkpoint_dir_keeps_concurrent_searches_apart() {
    // Satellite of the daemon work: two different searches handed the
    // SAME checkpoint directory must never collide — the file name is
    // derived from the search fingerprint, so each drained search gets
    // its own checkpoint and each resumes to its own exact hit list.
    let (db, q1) = setup();
    let q2 = generate_query(140, 77).residues;
    let engine = SearchEngine::paper_default();
    let hetero = HeteroEngine::new(engine);
    let cfg = HeteroSearchConfig::best(2, 2);
    let dir = std::env::temp_dir().join(format!("sw-ckpt-dir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut finals = Vec::new();
    for q in [&q1, &q2] {
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let reference = hetero.search(
            q,
            &db,
            &plan,
            &SearchConfig::best(2),
            &SearchConfig::best(2),
        );
        let n = db.batches.len() as u64;
        let dopts = DurableOptions {
            checkpoint_dir: Some(&dir),
            drain: Some(&DrainSignal::after_tasks((n / 2).max(1))),
            resume: false,
            ..DurableOptions::default()
        };
        let first = hetero
            .search_dynamic_resumable(q, &db, &plan, &cfg, &FaultInjector::none(), &dopts)
            .expect("drained first segment");
        assert!(first.drained, "drain threshold must interrupt the run");
        finals.push((q, plan, reference));
    }

    // Both drained checkpoints coexist under their fingerprint names.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        names.len(),
        2,
        "one fingerprint-named checkpoint per search: {names:?}"
    );
    for (q, _, _) in &finals {
        let expected = sw_core::SearchFingerprint::compute(&db, q).file_name();
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }

    // Each search resumes from its own file to its own exact hit list.
    for (q, plan, reference) in &finals {
        let dopts = DurableOptions {
            checkpoint_dir: Some(&dir),
            drain: None,
            resume: true,
            ..DurableOptions::default()
        };
        let out = hetero
            .search_dynamic_resumable(q, &db, plan, &cfg, &FaultInjector::none(), &dopts)
            .expect("resumed to completion");
        assert!(out.resumes >= 1, "second segment must actually resume");
        assert!(out.resumed_tasks > 0, "resume must load committed work");
        let res = out.outcome.expect("completed").results;
        assert_eq!(res.hits, reference.hits, "resumed == uninterrupted");
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "completed searches clean up their own checkpoints only"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodic_checkpoints_of_a_two_member_region_are_counted_and_spent() {
    // The checkpoint log is the region's own commit hook: every clean
    // chunk of a member it does not complete appends one commit frame,
    // so a two-member region on one CPU and one accelerator worker
    // writes frames while it runs, traces exactly one
    // `checkpoint_written` per frame appended, and leaves no file behind
    // once every member has completed.
    let (db, q1) = setup();
    let q2 = generate_query(140, 77).residues;
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&db, q1.len(), 0.5);
    let cfg = HeteroSearchConfig {
        trace: TraceConfig::full(),
        ..HeteroSearchConfig::best(1, 1)
    };
    let members = || {
        [&q1, &q2].map(|q| BatchQuery {
            residues: q,
            id: 0,
            cancel: None,
            tracer: None,
        })
    };
    let dir = std::env::temp_dir().join(format!("sw-ckpt-interval-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = |drain, resume| DurableOptions {
        checkpoint_dir: Some(&dir),
        drain,
        resume,
        ..DurableOptions::default()
    };
    let checkpoint_files = || {
        std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("swckpt-"))
            .collect::<Vec<_>>()
    };
    let hits = |out: &sw_core::BatchSearchOutcome| {
        let results = out.queries.iter().map(|q| q.results.as_ref());
        results
            .map(|r| r.expect("completed").hits.clone())
            .collect::<Vec<_>>()
    };

    let mut clean = None;
    for run in 0..20 {
        let out = hetero
            .search_many_resumable(
                &members(),
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &opts(None, false),
            )
            .expect("clean region");
        assert!(
            out.checkpoints_written >= 1,
            "run {run}: a chunk that completes no member is appended"
        );
        let tl = out.timeline.as_ref().expect("traced region");
        assert_eq!(
            tl.total_dropped(),
            0,
            "run {run}: the trace kept every event"
        );
        assert_eq!(
            tl.count("checkpoint_written") as u64,
            out.checkpoints_written,
            "run {run}: one trace event per commit frame appended"
        );
        assert_eq!(out.checkpoint_write_failures, 0, "run {run}");
        // A frame holds the new records of a clean chunk, so no frame is
        // appended before its member has a batch.
        for t in &tl.tracks {
            for ev in &t.events {
                if let sw_trace::EventKind::CheckpointWritten { tasks_done, .. } = ev.kind {
                    assert!(tasks_done > 0, "run {run}: an empty checkpoint was written");
                }
            }
        }
        assert!(
            checkpoint_files().is_empty(),
            "run {run}: completion spends every checkpoint: {:?}",
            checkpoint_files()
        );
        let hits = hits(&out);
        assert_eq!(
            clean.get_or_insert_with(|| hits.clone()),
            &hits,
            "run {run}"
        );
    }
    let clean = clean.expect("twenty runs");

    // Drained by a task-count threshold, then resumed: byte-identical.
    // Members complete shortest first, so a threshold a quarter into
    // the second member cuts it mid-way.
    let drain = DrainSignal::after_tasks(db.batches.len() as u64 * 5 / 4);
    let first = hetero
        .search_many_resumable(
            &members(),
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &opts(Some(&drain), false),
        )
        .expect("drained region");
    assert!(first.drained, "the threshold must interrupt the region");
    assert!(
        !checkpoint_files().is_empty(),
        "a drained region leaves checkpoints"
    );
    let resumed = hetero
        .search_many_resumable(
            &members(),
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &opts(None, true),
        )
        .expect("resumed region");
    let cut: Vec<_> = first.queries.iter().filter(|q| q.cancelled).collect();
    assert!(
        cut.iter().any(|q| q.tasks_done > 0),
        "a member must be cut mid-way"
    );
    for (before, after) in first.queries.iter().zip(&resumed.queries) {
        if before.cancelled {
            assert_eq!(
                after.resumed_tasks, before.tasks_done,
                "no batch recomputed"
            );
        }
    }
    assert_eq!(hits(&resumed), clean, "resumed == clean, member by member");
    assert!(checkpoint_files().is_empty(), "{:?}", checkpoint_files());
    std::fs::remove_dir_all(&dir).ok();
}

/// One CPU worker searches `q` with its log in `dir`; its third chunk
/// starts a second late. Returns the outcome and the log's bytes while
/// that chunk waits: two commit frames, the log a crash after two chunks
/// leaves behind.
fn log_of_two_chunks(
    db: &PreparedDb,
    q: &[u8],
    dir: &Path,
    trace: TraceConfig,
) -> (sw_core::DurableSearchOutcome, Vec<u8>) {
    let path = &ckpt_file(dir, db, q);
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(db, q.len(), 0.0);
    let cfg = HeteroSearchConfig {
        trace,
        ..HeteroSearchConfig::best(1, 0)
    };
    let late = FaultInjector::new(FaultPlan::single(FaultSpec {
        device: DEVICE_CPU,
        chunk: 2,
        kind: FaultKind::Delay(Duration::from_secs(1)),
    }));
    let opts = DurableOptions {
        checkpoint_dir: Some(dir),
        ..DurableOptions::default()
    };
    std::fs::remove_file(path).ok();
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| loop {
            // The second frame is on disk once the log folds to seq 1,
            // and nothing more is appended for a second.
            if let Ok(bytes) = std::fs::read(path) {
                if let Ok(Some(c)) = Checkpoint::decode(&bytes) {
                    if c.seq == 1 {
                        return bytes;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        });
        let out = hetero
            .search_dynamic_resumable(q, db, &plan, &cfg, &late, &opts)
            .expect("clean run");
        (out, watcher.join().expect("watcher"))
    })
}

#[test]
fn the_bytes_appended_for_a_member_are_its_log() {
    // Each clean chunk appends one frame of its own records: the log is
    // exactly the bytes appended to it, linear in the batches committed,
    // with no whole-file rewrite in between.
    let (db, q) = setup();
    let dir = ckpt_dir("appended");
    let path = ckpt_file(&dir, &db, &q);
    let (out, log) = log_of_two_chunks(&db, &q, &dir, TraceConfig::full());
    let tl = out.outcome.expect("completed").timeline.expect("traced");
    let mut appended = 0;
    let mut records = Vec::new();
    for ev in tl.tracks.iter().flat_map(|t| &t.events) {
        if let sw_trace::EventKind::CheckpointWritten {
            seq,
            tasks_done,
            bytes,
        } = ev.kind
        {
            if seq < 2 {
                appended += bytes;
                records.push(tasks_done);
            }
        }
    }
    assert_eq!(appended, log.len() as u64, "appended bytes = log size");
    let c = Checkpoint::decode(&log).unwrap().expect("two commits");
    assert_eq!(records.len(), 2, "one event per frame");
    assert_eq!(records[1], c.done.len() as u64, "every record once");
    assert!(!path.exists(), "completion spends the log");
}

#[test]
fn every_prefix_of_a_crashed_log_resumes_to_the_oracle_hits() {
    // The crash-point sweep: the log is only ever appended to, so every
    // state a crash can leave is a prefix of it. Each one, from no byte
    // to the whole log, resumes to the scalar-oracle hit list, loading
    // exactly the records of its whole frames.
    let a = Alphabet::protein();
    let spec = DbSpec {
        n_seqs: 24,
        ..DbSpec::tiny(5)
    };
    let db = PreparedDb::prepare(generate_database(&spec), 4, &a);
    let q = generate_query(30, 9).residues;
    let dir = ckpt_dir("sweep");
    let path = ckpt_file(&dir, &db, &q);
    let (_, log) = log_of_two_chunks(&db, &q, &dir, TraceConfig::default());
    let engine = SearchEngine::paper_default();
    let oracle = engine.search(&q, &db, &SearchConfig::best(1)).hits;
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.0);
    let cfg = HeteroSearchConfig::best(1, 0);
    let opts = DurableOptions {
        checkpoint_dir: Some(&dir),
        resume: true,
        ..DurableOptions::default()
    };
    let mut loaded = 0;
    for k in 0..=log.len() {
        std::fs::write(&path, &log[..k]).expect("prefix");
        let held = Checkpoint::decode(&log[..k])
            .unwrap_or_else(|e| panic!("prefix {k}: {e}"))
            .map_or(0, |c| c.done.len() as u64);
        let out = hetero
            .search_dynamic_resumable(&q, &db, &plan, &cfg, &FaultInjector::none(), &opts)
            .unwrap_or_else(|e| panic!("prefix {k}: {e}"));
        assert_eq!(out.resumed_tasks, held, "prefix {k}");
        assert!(held >= loaded, "prefix {k}: a longer prefix holds more");
        loaded = held;
        let hits = out.outcome.expect("completed").results.hits;
        assert_eq!(hits, oracle, "prefix {k}");
        assert!(!path.exists(), "prefix {k}: completion spends the log");
    }
    let whole = Checkpoint::decode(&log).unwrap().expect("two commits");
    assert_eq!(loaded, whole.done.len() as u64);
    assert!(
        loaded < db.batches.len() as u64,
        "the crash left work to do"
    );
}

#[test]
fn a_reclaimed_lease_appends_each_batch_to_the_log_once() {
    // The accelerator's first chunk sleeps a second, past its 20 ms
    // lease: a CPU worker drains the queue, reclaims and runs it, and the
    // slow holder drops the chunk when it wakes. A CPU chunk held for
    // 2.5 s keeps the query open past both, so the last log read before
    // completion spends it holds every frame appended: it loads (a batch
    // recorded twice is refused) with each batch once.
    let (db, _) = setup();
    let q = generate_query(30, 21).residues;
    let engine = SearchEngine::paper_default();
    let solo = engine.search(&q, &db, &SearchConfig::best(1)).hits;
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let mut cfg = HeteroSearchConfig {
        trace: TraceConfig::full(),
        ..HeteroSearchConfig::best(2, 1)
    };
    cfg.recovery.accel_timeout_ms = Some(20);
    let delay = |device, chunk, ms| FaultSpec {
        device,
        chunk,
        kind: FaultKind::Delay(Duration::from_millis(ms)),
    };
    let dir = ckpt_dir("reclaimed");
    let path = ckpt_file(&dir, &db, &q);
    let opts = DurableOptions {
        checkpoint_dir: Some(&dir),
        ..DurableOptions::default()
    };
    let run = || {
        let inj = FaultInjector::new(FaultPlan {
            specs: vec![
                // Both CPU workers start late: the accelerator claims first.
                delay(DEVICE_CPU, 0, 100),
                delay(DEVICE_CPU, 1, 100),
                delay(sw_sched::DEVICE_ACCEL, 0, 1_000),
                delay(DEVICE_CPU, 2, 2_500),
            ],
        });
        std::fs::remove_file(&path).ok();
        let ended = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut last = Vec::new();
                while !ended.load(std::sync::atomic::Ordering::Acquire) {
                    match std::fs::read(&path) {
                        Ok(bytes) if !bytes.is_empty() => last = bytes,
                        _ => {}
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                last
            });
            let out = hetero
                .search_dynamic_resumable(&q, &db, &plan, &cfg, &inj, &opts)
                .expect("clean run");
            ended.store(true, std::sync::atomic::Ordering::Release);
            let done = out.outcome.expect("completed");
            (done, watcher.join().expect("watcher"))
        })
    };
    // Ranges finished more than once.
    let finished_twice = |tl: &sw_trace::Timeline| {
        let mut finished: Vec<(usize, usize)> = (tl.tracks.iter())
            .flat_map(|t| &t.events)
            .filter_map(|ev| match ev.kind {
                sw_trace::EventKind::ChunkFinish { lo, hi, .. } => Some((lo, hi)),
                _ => None,
            })
            .collect();
        let chunks = finished.len();
        finished.sort_unstable();
        finished.dedup();
        chunks - finished.len()
    };
    // The lease is reclaimed when the CPU pool drained the queue inside
    // the accelerator's second. A host too busy for that gets another
    // attempt.
    let (done, log) = (0..3)
        .map(|_| run())
        .find(|(done, _)| done.timeline.as_ref().expect("traced").count("lease_lost") > 0)
        .expect("a lease reclaimed in one of three runs");
    assert_eq!(done.results.hits, solo, "the reclaimed run's hits");
    let tl = done.timeline.as_ref().expect("traced");
    assert_eq!(finished_twice(tl), 0, "the slow holder dropped its chunk");
    assert!(!path.exists(), "completion spends the log");
    let c = Checkpoint::decode(&log)
        .unwrap_or_else(|e| panic!("{e}"))
        .expect("commit frames");
    assert!(c.done.len() < db.batches.len(), "the held chunk was open");
    // The frame the log ended with counted each batch once.
    let tl = done.timeline.expect("traced");
    let counted = (tl.tracks.iter().flat_map(|t| &t.events)).find_map(|ev| match ev.kind {
        sw_trace::EventKind::CheckpointWritten {
            seq, tasks_done, ..
        } if seq == c.seq => Some(tasks_done),
        _ => None,
    });
    assert_eq!(counted, Some(c.done.len() as u64));
}

#[test]
fn a_failed_append_stops_the_log_and_the_search_completes() {
    // A directory where the member's log would go: its first append
    // fails. The search still completes with the oracle's hits, counts
    // that one failure, and appends nothing after it although later
    // chunks commit.
    let (db, q) = setup();
    let engine = SearchEngine::paper_default();
    let oracle = engine.search(&q, &db, &SearchConfig::best(1)).hits;
    let hetero = HeteroEngine::new(engine);
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig {
        trace: TraceConfig::full(),
        ..HeteroSearchConfig::best(1, 1)
    };
    let dir = ckpt_dir("failed-append");
    let path = ckpt_file(&dir, &db, &q);
    std::fs::create_dir(&path).expect("a directory in the log's place");
    let opts = DurableOptions {
        checkpoint_dir: Some(&dir),
        ..DurableOptions::default()
    };
    let out = hetero
        .search_dynamic_resumable(&q, &db, &plan, &cfg, &FaultInjector::none(), &opts)
        .expect("a failed append is not fatal");
    assert_eq!(out.checkpoints_written, 0);
    assert_eq!(
        out.checkpoint_write_failures, 1,
        "the failure stops the log"
    );
    let done = out.outcome.expect("completed");
    assert_eq!(done.results.hits, oracle);
    assert!(
        done.cpu.chunks + done.accel.chunks >= 3,
        "later chunks committed"
    );
    let tl = done.timeline.expect("traced");
    assert_eq!(tl.count("checkpoint_written"), 0);
    let left = std::fs::read_dir(&path)
        .expect("the obstacle stays")
        .count();
    assert_eq!(left, 0, "nothing appended");
    std::fs::remove_dir_all(&dir).ok();
}
