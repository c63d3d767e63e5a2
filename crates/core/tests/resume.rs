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

use std::path::PathBuf;
use sw_core::{
    CheckpointError, DurableOptions, DurableSearchError, HeteroEngine, HeteroSearchConfig,
    PreparedDb, SearchConfig, SearchEngine,
};
use sw_sched::{DrainSignal, FaultInjector};
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

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sw-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
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

    let path = ckpt_path("clean");
    let out = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 2,
                drain: None,
                resume: false,
                on_query_done: None,
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
        let path = ckpt_path(tag);
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
                    checkpoint_path: Some(&path),
                    checkpoint_dir: None,
                    interval_chunks: 1,
                    drain: Some(&drain),
                    resume: false,
                    on_query_done: None,
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
                    checkpoint_path: Some(&path),
                    checkpoint_dir: None,
                    interval_chunks: 1,
                    drain: None,
                    resume: true,
                    on_query_done: None,
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

    let path = ckpt_path("mid-drain");
    let drain1 = DrainSignal::after_tasks(n / 2);
    let s1 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: Some(&drain1),
                resume: false,
                on_query_done: None,
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
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: Some(&drain2),
                resume: true,
                on_query_done: None,
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
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: None,
                resume: true,
                on_query_done: None,
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

    let path = ckpt_path("faulty");
    // An accel worker dies on its first chunk, then the run drains.
    let inj = FaultInjector::new(FaultPlan::single(FaultSpec {
        device: DEVICE_ACCEL,
        chunk: 0,
        kind: FaultKind::Kill,
    }));
    let drain = DrainSignal::after_tasks((n * 3 / 4).max(1));
    let s1 = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &inj,
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: Some(&drain),
                resume: false,
                on_query_done: None,
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
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: None,
                resume: true,
                on_query_done: None,
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
    let path = ckpt_path("wrong-query");
    let drain = DrainSignal::after_tasks(1);
    hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: Some(&drain),
                resume: false,
                on_query_done: None,
            },
        )
        .expect("drained segment");
    assert!(path.exists());

    let other_q = generate_query(100, 22).residues;
    let plan2 = hetero.plan_split(&db, other_q.len(), 0.5);
    let err = hetero
        .search_dynamic_resumable(
            &other_q,
            &db,
            &plan2,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: None,
                resume: true,
                on_query_done: None,
            },
        )
        .expect_err("a different query must be rejected");
    match err {
        DurableSearchError::Checkpoint(CheckpointError::Mismatch { field, .. }) => {
            assert_eq!(field, "query digest");
        }
        other => panic!("expected a fingerprint mismatch, got: {other}"),
    }
    std::fs::remove_file(&path).ok();
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
    use sw_core::{BatchResult, Checkpoint, Hit, RecoveryTotals, SearchFingerprint};
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
        let path = ckpt_path(&format!("one-per-lane-{case}"));
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
                checkpoint_path: Some(&path),
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
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn corrupt_checkpoint_is_rejected_not_trusted() {
    let (db, q) = setup();
    let hetero = HeteroEngine::new(SearchEngine::paper_default());
    let plan = hetero.plan_split(&db, q.len(), 0.5);
    let cfg = HeteroSearchConfig::best(2, 2);
    let path = ckpt_path("corrupt");
    let drain = DrainSignal::after_tasks(2);
    hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: Some(&drain),
                resume: false,
                on_query_done: None,
            },
        )
        .expect("drained segment");
    // Flip one payload byte on disk.
    let mut bytes = std::fs::read(&path).expect("checkpoint bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");

    let err = hetero
        .search_dynamic_resumable(
            &q,
            &db,
            &plan,
            &cfg,
            &FaultInjector::none(),
            &DurableOptions {
                checkpoint_path: Some(&path),
                checkpoint_dir: None,
                interval_chunks: 1,
                drain: None,
                resume: true,
                on_query_done: None,
            },
        )
        .expect_err("bit-flipped checkpoint must be rejected");
    match err {
        DurableSearchError::Checkpoint(CheckpointError::Corrupt { detail }) => {
            assert!(detail.contains("CRC32"), "unexpected detail: {detail}");
            // The operator must learn *which* file to inspect or delete.
            assert!(
                detail.contains(path.to_str().expect("utf-8 path")),
                "error does not name {}: {detail}",
                path.display()
            );
        }
        other => panic!("expected a corruption error, got: {other}"),
    }
    std::fs::remove_file(&path).ok();
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
            checkpoint_path: None,
            checkpoint_dir: Some(&dir),
            interval_chunks: 1,
            drain: Some(&DrainSignal::after_tasks((n / 2).max(1))),
            resume: false,
            on_query_done: None,
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
            checkpoint_path: None,
            checkpoint_dir: Some(&dir),
            interval_chunks: 1,
            drain: None,
            resume: true,
            on_query_done: None,
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
