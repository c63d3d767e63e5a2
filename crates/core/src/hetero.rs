//! The heterogeneous engine — Algorithm 2, real execution.
//!
//! ```text
//! 4:  [vD_CPU, vD_MIC] = sort_and_split(D)
//! 6:  #pragma offload target(mic) … signal(sem)
//! 9:      G_MIC = SW_core(Q, vD_MIC, SUBMAT)
//! 12: G_CPU = SW_core(Q, vD_CPU, SUBMAT)
//! 14: #pragma offload wait(sem)
//! 15: scores = sort(G_MIC, G_CPU)
//! ```
//!
//! This host has no coprocessor, so *functionally* both shares execute on
//! host threads (giving exact scores and letting the split logic be
//! tested end-to-end); the *timing* of the heterogeneous run is produced
//! by [`crate::simulate::simulate_hetero`], which replays the same split
//! through the device models and the offload-runtime simulator.
//!
//! # One region body and its adapters
//!
//! Every search in the crate runs one region body, the private `region`
//! here: the `(query, lane batch)` product space over a range of the
//! batches, run through one `sw_sched::run_dual_pool_durable` region —
//! the crate's only call of it.
//! [`HeteroEngine::search_many_resumable`] runs it over every batch with
//! both pools and every durability hook; its rustdoc holds the per-query
//! semantics and the checkpoint-location and recovery-totals rules.
//! [`HeteroEngine::search_dynamic_resumable`] is that with one query,
//! repackaged as a [`DurableSearchOutcome`], and
//! [`HeteroEngine::search_dynamic`] is that with no fault injector and
//! default [`DurableOptions`], panicking on error. The flat search
//! ([`SearchEngine::search_many`]) runs it as a CPU-only region over
//! every batch. The static split ([`HeteroEngine::search`]) runs the
//! plan's two ranges at once, as Algorithm 2's `signal`/`wait` does: the
//! accelerator share as an accelerator-only region on a scoped thread,
//! the CPU share as a CPU-only region on the caller's.

use crate::checkpoint::{
    BatchResult, Checkpoint, CheckpointError, CommitLog, RecoveryTotals, SearchFingerprint,
};
use crate::config::{HeteroSearchConfig, SearchConfig};
use crate::engine::SearchEngine;
use crate::prepare::PreparedDb;
use crate::results::{Hit, SearchResults};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sw_kernels::{CellCount, ProfileMode};
use sw_sched::{
    run_dual_pool_durable, ClaimOrder, CommitView, DeviceMetrics, DrainSignal, DualPoolConfig,
    DurableControl, ExecError, FaultInjector, MetricsSink, DEVICE_ACCEL, DEVICE_CPU,
};
use sw_swdb::chunk::{range_cells, split_by_cells};
use sw_swdb::{BatchRange, LaneBatch, QueryProfile, ScoreTable};
use sw_trace::{EventKind, Timeline, WorkerJournal};

/// How the database was split between the two devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Batches assigned to the host CPU (prefix of the sorted batches —
    /// the shorter sequences).
    pub cpu: BatchRange,
    /// Batches assigned to the accelerator (suffix — the longer
    /// sequences, which amortise the accelerator's per-task overheads
    /// best).
    pub accel: BatchRange,
    /// Fraction of padded cells that actually landed on the accelerator.
    pub accel_cell_fraction: f64,
}

/// The heterogeneous search engine (Algorithm 2).
#[derive(Debug, Clone)]
pub struct HeteroEngine {
    /// The shared kernel engine.
    pub engine: SearchEngine,
}

impl HeteroEngine {
    /// Wrap an engine.
    pub fn new(engine: SearchEngine) -> Self {
        HeteroEngine { engine }
    }

    /// Plan the static split: the accelerator receives `accel_fraction`
    /// of the padded DP cells (Fig. 8's abscissa), taken from the long
    /// end of the sorted database.
    ///
    /// # Panics
    /// Panics when `accel_fraction` is NaN or outside `[0, 1]` — a split
    /// plan with an invalid fraction would silently assign everything to
    /// one device (NaN propagates through `1.0 - f` and every comparison).
    pub fn plan_split(&self, db: &PreparedDb, query_len: usize, accel_fraction: f64) -> SplitPlan {
        assert!(
            accel_fraction.is_finite() && (0.0..=1.0).contains(&accel_fraction),
            "accelerator fraction must be a finite value in [0, 1], got {accel_fraction}"
        );
        let (cpu, accel) = split_by_cells(&db.batches, query_len, 1.0 - accel_fraction);
        let total =
            range_cells(&db.batches, cpu, query_len) + range_cells(&db.batches, accel, query_len);
        let accel_cells = range_cells(&db.batches, accel, query_len);
        SplitPlan {
            cpu,
            accel,
            accel_cell_fraction: if total == 0 {
                0.0
            } else {
                accel_cells as f64 / total as f64
            },
        }
    }

    /// Run Algorithm 2: the two shares are searched at once and then
    /// merged and re-sorted. The accelerator share (`plan.accel`, with
    /// `accel_config` — e.g. 32-lane batches would be used on a real Phi;
    /// here the same host kernels) is an accelerator-only region of
    /// `accel_config.threads` workers on a scoped thread (`offload
    /// signal`); meanwhile the caller searches the CPU share as a
    /// CPU-only region of `cpu_config.threads` workers, then joins
    /// (`offload wait`). The merged `elapsed` is the longer share's, so
    /// the split's wall time is max(CPU, accelerator), as in the paper.
    ///
    /// # Panics
    /// Panics when the query is empty, or with the first failing
    /// `(query, batch)` pair when a kernel task panicked.
    pub fn search(
        &self,
        query: &[u8],
        db: &PreparedDb,
        plan: &SplitPlan,
        cpu_config: &SearchConfig,
        accel_config: &SearchConfig,
    ) -> SearchResults {
        let share = |range, device, config| {
            one_pool_region(&self.engine, &[query], db, range, device, config)
                .pop()
                .expect("one result per query")
        };
        std::thread::scope(|scope| {
            let accel = scope.spawn(|| share(plan.accel, DEVICE_ACCEL, accel_config));
            let cpu = share(plan.cpu, DEVICE_CPU, cpu_config);
            let accel = accel
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            cpu.merge(accel)
        })
    }

    /// Run the **dynamic** heterogeneous search: instead of executing the
    /// plan's fixed prefix/suffix ranges, both device pools pull lane
    /// batches from one shared double-ended queue (CPU from the short
    /// end, accelerator from the long end), with chunk sizes re-balanced
    /// from observed per-device throughput. `plan` only *seeds* the
    /// feedback estimator with its `accel_cell_fraction`.
    ///
    /// Hits are identical to [`Self::search`] with the same plan — the
    /// scheduler moves work between devices, never changes scores.
    ///
    /// This is [`Self::search_dynamic_resumable`] with no fault injector
    /// and default [`DurableOptions`] (nothing persisted, no drain).
    ///
    /// # Panics
    /// Panics if the run fails terminally (a batch panics more often than
    /// `DualPoolConfig::new`'s `max_chunk_retries` on every pool). Use
    /// [`Self::search_dynamic_resumable`] to handle that as an error.
    pub fn search_dynamic(
        &self,
        query: &[u8],
        db: &PreparedDb,
        plan: &SplitPlan,
        config: &HeteroSearchConfig,
    ) -> DynamicSearchOutcome {
        let opts = DurableOptions::default();
        self.search_dynamic_resumable(query, db, plan, config, &FaultInjector::none(), &opts)
            .unwrap_or_else(|e| panic!("dynamic heterogeneous search failed: {e}"))
            .outcome
            .expect("a search with no drain signal runs to completion")
    }

    /// One query through the dual-pool region: the `N = 1` case of
    /// [`Self::search_many_resumable`] (no per-query cancel or tracer; see
    /// there for fault tolerance, checkpointing and degenerate inputs).
    /// The one [`BatchQueryOutcome`] and the region's facts come back as
    /// a [`DurableSearchOutcome`]: `drained` ⇔ the query ended without
    /// results, `boundary` = the batches its CPU pool ran.
    ///
    /// Resume correctness: batch results are pure functions of the batch's
    /// sequence ids, and [`SearchResults::new`] sorts deterministically, so
    /// a search killed at any point and resumed produces a hit list
    /// byte-identical to an uninterrupted run. A checkpoint is only
    /// accepted when its [`SearchFingerprint`] (database content digest,
    /// query digest, lane count, batch count) matches the present search
    /// and every record carries the ids of the batch it names
    /// ([`Checkpoint::verify_layout`]) — anything else is a typed
    /// [`CheckpointError::Mismatch`].
    ///
    /// Recovery counters are cumulative: the checkpoint carries the
    /// totals of all prior run segments, so retries/requeues/lost-lease
    /// counts reported by a resumed run are monotone across restarts.
    /// On completion the checkpoint file is deleted.
    pub fn search_dynamic_resumable(
        &self,
        query: &[u8],
        db: &PreparedDb,
        plan: &SplitPlan,
        config: &HeteroSearchConfig,
        injector: &FaultInjector,
        opts: &DurableOptions<'_>,
    ) -> Result<DurableSearchOutcome, DurableSearchError> {
        let solo = [BatchQuery {
            residues: query,
            id: 0,
            cancel: None,
            tracer: None,
        }];
        let mut region = self.search_many_resumable(&solo, db, plan, config, injector, opts)?;
        let q = region.queries.pop().expect("one outcome per query");
        let total_cells = region.cpu.cells + region.accel.cells;
        Ok(DurableSearchOutcome {
            outcome: q.results.map(|results| DynamicSearchOutcome {
                results,
                accel_cell_fraction: if total_cells == 0 {
                    0.0
                } else {
                    region.accel.cells as f64 / total_cells as f64
                },
                cpu: region.cpu,
                accel: region.accel,
                boundary: q.cpu_batches,
                degraded: region.degraded,
                timeline: region.timeline,
            }),
            drained: q.cancelled,
            tasks_done: q.tasks_done,
            n_batches: db.batches.len() as u64,
            resumed_tasks: q.resumed_tasks,
            resumes: q.resumes,
            checkpoints_written: region.checkpoints_written,
            checkpoint_write_failures: region.checkpoint_write_failures,
            recovery: region.recovery,
        })
    }
}

/// One query of a shared multi-query region
/// ([`HeteroEngine::search_many_resumable`]).
pub struct BatchQuery<'a> {
    /// Encoded query residues (must be non-empty).
    pub residues: &'a [u8],
    /// Caller-side identity (the daemon's job id); carried into the
    /// outcome and never interpreted here.
    pub id: u64,
    /// Per-query cancel: when requested, this query's *remaining* tasks
    /// are dropped from the shared region (no execution, no commit) while
    /// its batch-mates run on. The query comes back `cancelled` with a
    /// final checkpoint of whatever did commit.
    pub cancel: Option<&'a DrainSignal>,
    /// Per-query tracer: each of this query's tasks lands as a
    /// [`sw_trace::TaskSpan`] on it — its own epoch, its own query tag —
    /// so one shared region still exports separable per-query timelines.
    pub tracer: Option<&'a sw_trace::Tracer>,
}

/// Per-query result of [`HeteroEngine::search_many_resumable`].
#[derive(Debug)]
pub struct BatchQueryOutcome {
    /// The [`BatchQuery::id`] this outcome belongs to.
    pub id: u64,
    /// The completed, merged, sorted results — `None` when the query was
    /// cancelled (or the region drained) before all its batches committed.
    pub results: Option<SearchResults>,
    /// True when the query ended without completing (its own cancel or a
    /// region drain). A cancel or drain that loses the race — every task
    /// already committed — reports a completed result instead.
    pub cancelled: bool,
    /// How many times this query has been resumed (0 = fresh).
    pub resumes: u64,
    /// Batches loaded from this query's checkpoint instead of recomputed.
    pub resumed_tasks: u64,
    /// Batches of this query with a committed result.
    pub tasks_done: u64,
    /// How many of those the CPU pool computed (in this segment or, for
    /// resumed batches, the one that committed them). With a length-sorted
    /// database this is where the two pools met.
    pub cpu_batches: usize,
}

/// What one shared multi-query region produced.
#[derive(Debug)]
pub struct BatchSearchOutcome {
    /// Per-query outcomes, in input order.
    pub queries: Vec<BatchQueryOutcome>,
    /// True when the *region* drain (daemon shutdown) stopped the run.
    pub drained: bool,
    /// Per-device degraded flags for the shared region.
    pub degraded: [bool; 2],
    /// Commit frames appended plus compacted drain/cancel checkpoints.
    pub checkpoints_written: u64,
    /// Appends that failed (counted, never fatal).
    pub checkpoint_write_failures: u64,
    /// Aggregated CPU-pool metrics of this region (tasks, chunks, busy,
    /// queue-wait, cells, running GCUPS via [`DeviceMetrics::gcups`]).
    pub cpu: DeviceMetrics,
    /// Aggregated accelerator-pool metrics of this region.
    pub accel: DeviceMetrics,
    /// Drained event timeline of the region — `Some` only when
    /// [`HeteroSearchConfig::trace`](crate::config::TraceConfig) enabled
    /// tracing; export with `sw_trace::export`.
    pub timeline: Option<Timeline>,
    /// Cumulative recovery totals per device (`[cpu, accel]`): the
    /// baselines of every checkpoint this region resumed from, plus the
    /// recovery events of the region itself — monotone under resume.
    ///
    /// The same rule fills each query's checkpoint: *its* loaded baseline
    /// plus this region's events (a requeue or a lost lease belongs to
    /// the region, not to one member, so every member that ran in it
    /// carries it forward). For a one-query region the two are the same
    /// numbers.
    pub recovery: [RecoveryTotals; 2],
}

impl HeteroEngine {
    /// The dual-pool region over every batch with both pools and every
    /// durability hook, its estimator seeded with the plan's
    /// `accel_cell_fraction` — the region behind every dynamic search
    /// (CLI, daemon, shard workers, benchmarks). Task `t` maps to
    /// `(query t / |batches|, batch t % |batches|)`; both device pools
    /// pull from the one shared queue, so short queries fill lanes the
    /// long queries' tail would leave idle.
    ///
    /// Per-query semantics carried through the shared region:
    /// * **results** — each query's hit list is byte-identical to a solo
    ///   run (batch results are pure functions of `(query, batch)`).
    /// * **cancel** — a [`BatchQuery::cancel`] removes that query's
    ///   remaining tasks without perturbing batch-mates; the region-level
    ///   `opts.drain` still stops everything (daemon shutdown).
    /// * **checkpoints** — one file per query, fingerprint-keyed in
    ///   `opts.checkpoint_dir`: a commit log each clean chunk of an
    ///   incomplete query appends to, compacted on cancel/drain and on
    ///   resume (which prefills its batches), removed on completion. With
    ///   no location nothing is persisted and no fingerprint is computed.
    /// * **early hand-over** — with [`DurableOptions::on_query_done`] set,
    ///   a query's finished outcome is handed to the caller at *its* last
    ///   commit, not at region end. Both pools claim the shortest member
    ///   first, each member's largest batches first, and no chunk spans
    ///   two members, so members finish shortest first, not in input
    ///   order. The returned outcome is the same either way.
    /// * **recovery totals** — see [`BatchSearchOutcome::recovery`].
    /// * **trace** — each task additionally lands on its owner's
    ///   [`BatchQuery::tracer`] as a one-task span, so per-query exports
    ///   stay separable; `config.trace` traces the region itself and
    ///   comes back as [`BatchSearchOutcome::timeline`].
    ///
    /// Device workers that die or wedge release their chunk lease back to
    /// the queue and the surviving pool re-executes it, so a region that
    /// loses its whole accelerator pool still returns exact hit lists
    /// (flagged `degraded`). Degenerate inputs are safe: no queries or an
    /// empty database is a region of zero tasks (every query completes
    /// with empty results), and a config with zero workers in both pools
    /// is clamped to one CPU worker.
    ///
    /// Errors are region-wide: a batch that fails persistently on every
    /// pool (`config.recovery` budgets exhausted) or an unreadable /
    /// unwritable checkpoint fails the whole call.
    pub fn search_many_resumable(
        &self,
        queries: &[BatchQuery<'_>],
        db: &PreparedDb,
        plan: &SplitPlan,
        config: &HeteroSearchConfig,
        injector: &FaultInjector,
        opts: &DurableOptions<'_>,
    ) -> Result<BatchSearchOutcome, DurableSearchError> {
        let all = BatchRange {
            start: 0,
            end: db.batches.len(),
        };
        let seed = plan.accel_cell_fraction;
        region(&self.engine, queries, db, all, seed, config, injector, opts)
    }
}

/// One query's share of a pooled region's wall clock. The region has ONE
/// wall clock; charging it to every query would inflate aggregate GCUPS
/// by ~|Q|×, so each query is attributed its padded-cell share (floor
/// division, so the shares can never sum past the wall clock; all of it
/// for a lone query, none when there was no work).
fn padded_share(elapsed: Duration, padded: u128, total_padded: u128) -> Duration {
    (elapsed.as_nanos() * padded)
        .checked_div(total_padded)
        .map(|ns| Duration::from_nanos(ns as u64))
        .unwrap_or_default()
}

/// A region of one pool, `config.threads` workers of `device` (zero is
/// clamped to one CPU worker) with the estimator seeded to give it all
/// the work, no fault injector and default [`DurableOptions`]: the flat
/// search and each share of the static split. One result per query, in
/// input order.
///
/// # Panics
/// Panics when a query is empty, or with the first failing
/// `(query, batch)` pair (`batch` indexes `db.batches`) when a kernel
/// task panicked on every retry.
pub(crate) fn one_pool_region(
    engine: &SearchEngine,
    queries: &[&[u8]],
    db: &PreparedDb,
    range: BatchRange,
    device: usize,
    config: &SearchConfig,
) -> Vec<SearchResults> {
    let idle = SearchConfig {
        threads: 0,
        ..*config
    };
    let (config, seed) = match device {
        DEVICE_CPU => (HeteroSearchConfig::new(*config, idle), 0.0),
        _ => (HeteroSearchConfig::new(idle, *config), 1.0),
    };
    let queries: Vec<BatchQuery<'_>> = queries
        .iter()
        .enumerate()
        .map(|(i, &residues)| BatchQuery {
            residues,
            id: i as u64,
            cancel: None,
            tracer: None,
        })
        .collect();
    let none = FaultInjector::none();
    let opts = DurableOptions::default();
    let out =
        region(engine, &queries, db, range, seed, &config, &none, &opts).unwrap_or_else(|e| {
            // Task ids are (query, batch) pairs; name the first culprit.
            let n = range.len();
            let culprit = match &e {
                DurableSearchError::Exec(x) => x.failures.first(),
                DurableSearchError::Checkpoint(_) => None,
            };
            let ctx = culprit
                .map(|f| format!("query {} batch {}", f.task / n, range.start + f.task % n))
                .unwrap_or_else(|| "unexecuted tasks".into());
            panic!("database search failed ({ctx}): {e}")
        });
    out.queries
        .into_iter()
        .map(|q| {
            q.results
                .expect("with no cancel or drain every query completes")
        })
        .collect()
}

/// The claim order of a region over `batches` whose members have the
/// residue lengths `lens`, with `pools` = `[cpu, accel]` workers and the
/// estimator starting at the accelerator share `seed`. Task `t` is
/// `(member t / |batches|, batch t % |batches|)`, and batches ascend in
/// length.
///
/// A one-member region keeps the identity: its CPU pool claims from the
/// short end and its accelerator pool from the long end, as Algorithm 2
/// splits. With two or more members, members sort by (length, index),
/// each pool claims a member's largest batches first, and every member
/// part is a segment of its own:
/// * **Two pools.** Every member but the longest is split the way the
///   static split does, by `seed` of its padded cells: its short batches
///   are its CPU part, its long ones its accelerator part. CPU parts go
///   at the front, shortest member first; accelerator parts at the back,
///   shortest member outermost. The longest member is one segment in the
///   middle, its CPU part's largest batch facing the CPU pool and its
///   largest batch the accelerator pool, its smallest where they meet.
/// * **One pool.** Members go back to back from that pool's end,
///   shortest first.
///
/// So the shortest member gets both pools at once, and no region ends on
/// a lone largest batch.
fn claim_order(lens: &[usize], batches: &[LaneBatch], seed: f64, pools: [usize; 2]) -> ClaimOrder {
    let n = batches.len();
    if lens.len() < 2 || n == 0 {
        return ClaimOrder::identity();
    }
    let mut members: Vec<usize> = (0..lens.len()).collect();
    members.sort_by_key(|&qi| (lens[qi], qi));
    // Member `qi`'s batches `range`, largest first / smallest first.
    let down = |qi: usize, range: std::ops::Range<usize>| range.rev().map(move |b| qi * n + b);
    let up = |qi: usize, range: std::ops::Range<usize>| range.map(move |b| qi * n + b);
    match pools {
        [_, 0] => ClaimOrder::from_segments(members.iter().map(|&qi| down(qi, 0..n))),
        [0, _] => ClaimOrder::from_segments(members.iter().rev().map(|&qi| up(qi, 0..n))),
        _ => {
            // A padded-cell share does not depend on the query length.
            let k = split_by_cells(batches, 1, 1.0 - seed).0.end;
            let (&longest, rest) = members.split_last().expect("two or more members");
            let front = rest.iter().map(|&qi| down(qi, 0..k).collect::<Vec<_>>());
            let middle = down(longest, 0..k).chain(up(longest, k..n)).collect();
            let back = rest.iter().rev().map(|&qi| up(qi, k..n).collect());
            ClaimOrder::from_segments(front.chain([middle]).chain(back))
        }
    }
}

/// One member (query) of a region and everything the region keeps
/// about it: its durability state is read from here alone.
struct Member<'r> {
    query: &'r BatchQuery<'r>,
    /// Its checkpoint log; `None` persists nothing.
    log: Option<Mutex<CommitLog>>,
    /// Times resumed before, and batches loaded from its checkpoint.
    resumes: u64,
    resumed: u64,
    /// The recovery totals its checkpoint carried in.
    baseline: [RecoveryTotals; 2],
    qp: Option<QueryProfile>,
    /// Its padded cells over the region's batches.
    padded: u128,
    /// Set once its completion has been handled.
    finished: AtomicBool,
}

impl Member<'_> {
    fn log(&self) -> Option<MutexGuard<'_, CommitLog>> {
        let log = self.log.as_ref()?;
        Some(log.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The one recovery-totals rule: a baseline plus a region's events.
/// Per-worker retry counts land only at worker exit, so an appended
/// commit frame may undercount retries (the final checkpoint, written
/// after the pools exit, is exact); the totals stay monotone either way.
fn cumulative(baseline: &[RecoveryTotals; 2], events: &[DeviceMetrics; 2]) -> [RecoveryTotals; 2] {
    [DEVICE_CPU, DEVICE_ACCEL].map(|d| baseline[d].plus(&events[d]))
}

/// **The** region body: every query against the lane batches of
/// `range` (a range of `db.batches`), one task per `(query, batch)`
/// pair, run through one durable `sw-sched` dual-pool region whose
/// estimator starts at the accelerator share `seed` and whose queue
/// hands tasks out in the order [`claim_order`] builds once from the
/// members' lengths and the pool sizes. It is the crate's
/// only call of `run_dual_pool_durable`: every search, flat, static or
/// dynamic, is this function (see [`HeteroEngine::search_many_resumable`]
/// for the per-query semantics).
///
/// Checkpoints are the region's own commit hook, installed only for a
/// checkpoint location or `opts.on_query_done`.
///
/// A sub-range region is never durable: checkpoints name batches by
/// their index in the database, and the static split, the only caller
/// that passes a sub-range, passes [`DurableOptions::default`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn region(
    engine: &SearchEngine,
    queries: &[BatchQuery<'_>],
    db: &PreparedDb,
    range: BatchRange,
    seed: f64,
    config: &HeteroSearchConfig,
    injector: &FaultInjector,
    opts: &DurableOptions<'_>,
) -> Result<BatchSearchOutcome, DurableSearchError> {
    assert!(
        queries.iter().all(|q| !q.residues.is_empty()),
        "queries must not be empty"
    );
    debug_assert!(
        range.len() == db.batches.len() || opts.checkpoint_dir.is_none(),
        "a sub-range region is never durable"
    );
    let batches = &db.batches[range.start..range.end];
    let n_batches = batches.len();
    let device_config = [&config.cpu, &config.accel];
    // Only the query-profile variants read one; the default fused path
    // derives its scores from `table`.
    let reads_qp = device_config
        .iter()
        .any(|c| c.variant.profile == ProfileMode::Query);

    // Each member's log is a fingerprint-named file in the directory.
    if let Some(dir) = opts.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
    }
    // Each member, its prior checkpoint loaded and verified if resuming.
    let mut members = Vec::with_capacity(queries.len());
    let mut prefill: Vec<(usize, BatchResult)> = Vec::new();
    let mut loaded = [RecoveryTotals::default(); 2];
    let mut initial_share = seed;
    for (qi, query) in queries.iter().enumerate() {
        let located = opts.checkpoint_dir.map(|dir| {
            let fp = SearchFingerprint::compute(db, query.residues);
            (dir.join(fp.file_name()), fp)
        });
        let mut prior = match &located {
            Some((path, _)) if opts.resume => Checkpoint::load_if_exists(path)?,
            _ => None,
        };
        let resumed = prior.as_ref().map_or(0, |p| p.done.len() as u64);
        let resumes = prior.as_ref().map_or(0, |p| p.resumes + 1);
        if let (Some(p), Some((_, fp))) = (&mut prior, &located) {
            p.verify(fp)?;
            p.verify_layout(&db.batches, query.residues.len())?;
            for (total, base) in loaded.iter_mut().zip(&p.recovery) {
                total.add(base);
            }
            // Any segment's learned balance beats the static seed for
            // the whole shared region.
            initial_share = p.accel_share;
            if let Some(tr) = query.tracer {
                let event = EventKind::ResumeLoaded {
                    tasks_done: resumed,
                };
                tr.worker(DEVICE_CPU, n_batches).emit(event); // flushed on drop
            }
            // This segment's log: the loaded records under its resume
            // count, then appended to.
            p.resumes = resumes;
        }
        let log = located.map(|(path, fp)| CommitLog::open(path, fp, prior.as_ref()));
        members.push(Member {
            query,
            log: log.transpose()?.map(Mutex::new),
            resumes,
            resumed,
            baseline: prior.as_ref().map_or_else(Default::default, |p| p.recovery),
            qp: reads_qp
                .then(|| QueryProfile::build(query.residues, &engine.params.matrix, &db.alphabet)),
            padded: batches
                .iter()
                .map(|b| b.padded_cells(query.residues.len()) as u128)
                .sum(),
            finished: AtomicBool::new(false),
        });
        let done = prior.into_iter().flat_map(|p| p.done);
        prefill.extend(done.map(|b| (qi * n_batches + b.batch, b)));
    }
    // Member `qi`'s part of the slot table.
    let part = |qi: usize| qi * n_batches..(qi + 1) * n_batches;

    let table = ScoreTable::build(&engine.params.matrix, &db.alphabet);
    // An all-zero worker config would deadlock the queue; degrade it
    // to a single CPU worker instead.
    let mut cpu_workers = config.cpu.threads;
    let accel_workers = config.accel.threads;
    if cpu_workers + accel_workers == 0 {
        cpu_workers = 1;
    }
    let sink = MetricsSink::new();
    let tracer = config.trace.tracer();
    let region_events = || [sink.device(DEVICE_CPU), sink.device(DEVICE_ACCEL)];
    let writes = AtomicU64::new(0);
    let write_failures = AtomicU64::new(0);

    // Pooled wall clock, attributed by padded-cell share
    // ([`padded_share`]).
    let total_padded: u128 = members.iter().map(|m| m.padded).sum();
    let n_hits: usize = batches.iter().map(LaneBatch::n_seqs).sum();
    // One member's outcome from its slice of the slot table, `elapsed`
    // into the region: the one results assembly, used for the reply
    // that leaves at the member's last commit and at region end alike.
    let outcome_of =
        |qi: usize, slots_q: &[Option<BatchResult>], elapsed: Duration, degraded: bool| {
            let m = &members[qi];
            let tasks_done = slots_q.iter().filter(|s| s.is_some()).count();
            let results = (tasks_done == n_batches).then(|| {
                let mut hits: Vec<Hit> = Vec::with_capacity(n_hits);
                let mut cells = CellCount::default();
                let mut rescued = 0u64;
                for b in slots_q.iter().flatten() {
                    hits.extend(b.hits.iter().copied());
                    cells.add(b.cells);
                    rescued += b.rescued;
                }
                let elapsed_q = padded_share(elapsed, m.padded, total_padded);
                SearchResults::new(hits, elapsed_q, cells, rescued).with_degraded(degraded)
            });
            BatchQueryOutcome {
                id: m.query.id,
                results,
                cancelled: false,
                resumes: m.resumes,
                resumed_tasks: m.resumed,
                tasks_done: tasks_done as u64,
                cpu_batches: slots_q
                    .iter()
                    .flatten()
                    .filter(|b| b.device == DEVICE_CPU)
                    .count(),
            }
        };

    let start = Instant::now();
    // A completed member is finished exactly once (a reclaimed lease
    // commits its chunk twice; region end sweeps up whatever no commit
    // reported): its log is removed under the log's lock, so no append
    // outlives it (best-effort: a stale file is re-verified on the next
    // resume), and `true` says the caller may hear of it.
    let finish = |qi: usize| {
        let m = &members[qi];
        if m.finished.swap(true, Ordering::AcqRel) {
            return false;
        }
        if let Some(mut log) = m.log() {
            log.remove();
        }
        true
    };
    // A clean chunk's new records of member `qi`, one commit frame in one
    // append, encoded under the slot lock and written after it. A failed
    // append is counted, never fatal, and stops the member's log.
    let append = |view: &mut CommitView<'_, BatchResult>, qi: usize| {
        let m = &members[qi];
        let Some(mut log) = m.log().filter(|log| !log.is_stopped()) else {
            return;
        };
        let recovery = cumulative(&m.baseline, &region_events());
        let share = view.accel_share;
        let mut frame = Vec::new();
        let mut records = 0;
        view.with_slots(|slots| {
            let mine = view.tasks.iter().filter(|&&t| t / n_batches == qi);
            let fresh: Vec<&BatchResult> = mine.filter_map(|&t| slots[t].as_ref()).collect();
            if !fresh.is_empty() {
                records = fresh.len() as u64;
                log.put_commit(&mut frame, share, &recovery, fresh.into_iter());
            }
        });
        if records == 0 {
            return;
        }
        match log.append(&frame, records) {
            Ok(written) => {
                writes.fetch_add(1, Ordering::Relaxed);
                view.emit(written);
            }
            Err(_) => {
                write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    // After each commit: did it fill the last slot of a member it
    // touches (a chunk touches one, the prefill each in turn)? Slots are
    // copied under the slot lock only for a caller that takes the
    // outcome. A clean chunk of a member it did not complete goes to
    // that member's log.
    let on_commit = |mut view: CommitView<'_, BatchResult>| {
        let mut touched: Vec<usize> = view.tasks.iter().map(|t| t / n_batches).collect();
        touched.dedup();
        for qi in touched {
            if members[qi].finished.load(Ordering::Acquire) {
                continue;
            }
            let complete = view.with_slots(|slots| {
                let slots_q = &slots[part(qi)];
                let copy = || opts.on_query_done.map(|_| slots_q.to_vec());
                slots_q.iter().all(Option::is_some).then(copy)
            });
            match complete {
                Some(copy) => {
                    if let (true, Some(done), Some(slots_q)) =
                        (finish(qi), opts.on_query_done, copy)
                    {
                        let degraded = region_events().iter().any(|d| d.degraded);
                        done(qi, &outcome_of(qi, &slots_q, start.elapsed(), degraded));
                    }
                }
                None if view.clean => append(&mut view, qi),
                None => {}
            }
        }
    };
    let hooked = opts.on_query_done.is_some() || opts.checkpoint_dir.is_some();
    let lens: Vec<usize> = queries.iter().map(|q| q.residues.len()).collect();
    let out = run_dual_pool_durable(
        queries.len() * n_batches,
        DualPoolConfig {
            initial_accel_fraction: initial_share,
            min_chunk: config.min_chunk,
            accel_timeout_ms: config.recovery.accel_timeout_ms,
            failure_budget: config.recovery.failure_budget,
            ..DualPoolConfig::new(cpu_workers, accel_workers)
        },
        injector,
        DurableControl {
            order: claim_order(&lens, batches, initial_share, [cpu_workers, accel_workers]),
            prefill,
            drain: opts.drain,
            task_cancelled: Some(&|t: usize| {
                queries[t / n_batches]
                    .cancel
                    .is_some_and(|c| c.is_requested())
            }),
            on_commit: hooked
                .then_some(&on_commit as &(dyn Fn(CommitView<'_, BatchResult>) + Sync)),
        },
        |t| batches[t % n_batches].padded_cells(lens[t / n_batches]),
        |device, t, journal: &mut WorkerJournal| {
            let (qi, bi) = (t / n_batches, t % n_batches);
            let m = &members[qi];
            // The span opens on the OWNER's tracer (its epoch, its
            // query tag); the batch index doubles as the track lane
            // so one query's concurrent tasks never share a track.
            let span = m.query.tracer.map(|tr| tr.task_span(device, bi, bi));
            let cfg = device_config[device];
            let (hits, cells, rescued, widened) = engine.run_batch(
                m.query.residues,
                m.qp.as_ref(),
                &table,
                db,
                &batches[bi],
                cfg,
            );
            // The precision chain's hand-overs, on the worker's track.
            for (from_bits, to_bits, lanes) in [(8, 16, widened), (16, 64, rescued)] {
                if lanes > 0 {
                    journal.emit(EventKind::OverflowRecompute {
                        from_bits,
                        to_bits,
                        lanes,
                    });
                }
            }
            if let Some(span) = span {
                span.finish(t as u64, cells.padded);
            }
            BatchResult {
                batch: bi,
                device,
                hits,
                cells,
                rescued,
            }
        },
        &sink,
        &tracer,
    );
    let elapsed = start.elapsed();
    let degraded = out.degraded;

    // Region-learned share for final checkpoints.
    let events = region_events();
    let [cpu_m, accel_m] = events;
    let total_exec_cells = cpu_m.cells + accel_m.cells;
    let final_share = if total_exec_cells == 0 {
        initial_share
    } else {
        accel_m.cells as f64 / total_exec_cells as f64
    };

    let mut outcomes = Vec::with_capacity(queries.len());
    let mut incomplete_uncancelled = Vec::new();
    for (qi, m) in members.iter().enumerate() {
        let slots_q = &out.slots[part(qi)];
        let mut outcome = outcome_of(
            qi,
            slots_q,
            elapsed,
            degraded[DEVICE_CPU] || degraded[DEVICE_ACCEL],
        );
        if outcome.results.is_some() {
            let first = finish(qi);
            if let Some(done) = opts.on_query_done.filter(|_| first) {
                done(qi, &outcome);
            }
        } else if m.query.cancel.is_some_and(|c| c.is_requested()) || out.drained {
            // Final exact checkpoint: written after the pools exited,
            // its failure is a hard error — a cancelled member without
            // its checkpoint cannot be resumed.
            if let Some(log) = m.log() {
                let done = slots_q.iter().flatten().cloned().collect();
                log.compact(final_share, cumulative(&m.baseline, &events), done)?;
                writes.fetch_add(1, Ordering::Relaxed);
            }
            outcome.cancelled = true;
        } else {
            // Incomplete with neither a cancel nor a drain: terminal
            // execution failure.
            for (bi, s) in slots_q.iter().enumerate() {
                if s.is_none() {
                    let t = qi * n_batches + bi;
                    incomplete_uncancelled.push((t, t + 1));
                }
            }
        }
        outcomes.push(outcome);
    }
    if !incomplete_uncancelled.is_empty() {
        return Err(DurableSearchError::Exec(ExecError {
            failures: out.failures,
            missing: incomplete_uncancelled,
        }));
    }
    Ok(BatchSearchOutcome {
        queries: outcomes,
        drained: out.drained,
        degraded,
        checkpoints_written: writes.load(Ordering::Relaxed),
        checkpoint_write_failures: write_failures.load(Ordering::Relaxed),
        recovery: cumulative(&loaded, &events),
        cpu: cpu_m,
        accel: accel_m,
        timeline: tracer.is_enabled().then(|| tracer.timeline()),
    })
}

/// Durability knobs of the dual-pool region
/// ([`HeteroEngine::search_many_resumable`] and its one-query adapter
/// [`HeteroEngine::search_dynamic_resumable`]). The default persists
/// nothing and never drains.
#[derive(Clone, Copy, Default)]
pub struct DurableOptions<'a> {
    /// Directory to keep each query's checkpoint in, under a file name
    /// derived from its [`SearchFingerprint`]
    /// ([`SearchFingerprint::file_name`]) — safe for any number of
    /// concurrent searches (distinct database/query/packing) to share.
    /// Created if missing. A resume with the same fingerprint finds the
    /// same file. `None` persists nothing (the run is then durable in
    /// name only — drain still stops it gracefully).
    pub checkpoint_dir: Option<&'a Path>,
    /// Ignored: every clean chunk is appended to its member's log. Kept
    /// only because the pinned benchmark still names the field.
    pub interval_chunks: u64,
    /// Cooperative stop signal (SIGINT/SIGTERM in the CLI).
    pub drain: Option<&'a DrainSignal>,
    /// Load the checkpoint if it exists and skip its completed batches.
    pub resume: bool,
    /// Called with a query's index and its finished [`BatchQueryOutcome`]
    /// (`results` is `Some`) the moment its last batch commits — on the
    /// worker that committed it, while batch-mates still run — so a
    /// reply need not wait for the region. Exactly once per completed
    /// query (one whose batches were all prefilled from its checkpoint
    /// included; a region over an empty database reports at its end),
    /// never for a cancelled or drained one. The outcome equals the one
    /// [`BatchSearchOutcome::queries`] later carries except for
    /// `results.elapsed` (the region's wall so far, by padded-cell
    /// share) and `results.degraded` (pools lost so far). Calls follow
    /// completion, which runs shortest member first, not input order.
    /// `None` changes nothing.
    #[allow(clippy::type_complexity)]
    pub on_query_done: Option<&'a (dyn Fn(usize, &BatchQueryOutcome) + Sync)>,
}

/// Why a durable search failed.
#[derive(Debug)]
pub enum DurableSearchError {
    /// The execution itself failed terminally (see [`ExecError`]).
    Exec(ExecError),
    /// The checkpoint could not be loaded, verified, or (for the final
    /// drain checkpoint) written.
    Checkpoint(CheckpointError),
}

impl fmt::Display for DurableSearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableSearchError::Exec(e) => write!(f, "{e}"),
            DurableSearchError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableSearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableSearchError::Exec(e) => Some(e),
            DurableSearchError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for DurableSearchError {
    fn from(e: CheckpointError) -> Self {
        DurableSearchError::Checkpoint(e)
    }
}

/// What a [`HeteroEngine::search_dynamic_resumable`] run produced: the
/// one [`BatchQueryOutcome`] of an `N = 1` region plus the region-level
/// facts of its [`BatchSearchOutcome`].
#[derive(Debug)]
pub struct DurableSearchOutcome {
    /// The completed search — `None` when the run was drained before
    /// finishing (resume with the written checkpoint to continue).
    pub outcome: Option<DynamicSearchOutcome>,
    /// True when the run stopped on its [`DrainSignal`] before every
    /// batch had committed (a drain that loses the race against the last
    /// commit is a completed run).
    pub drained: bool,
    /// Batches with a committed result (including resumed ones).
    pub tasks_done: u64,
    /// Total batches of the search.
    pub n_batches: u64,
    /// Batches loaded from the checkpoint instead of recomputed.
    pub resumed_tasks: u64,
    /// How many times this search has been resumed (0 = fresh run).
    pub resumes: u64,
    /// Commit frames appended plus the compacted drain checkpoint.
    pub checkpoints_written: u64,
    /// Appends that failed (counted, never fatal).
    pub checkpoint_write_failures: u64,
    /// Cumulative recovery totals per device (`[cpu, accel]`) across all
    /// run segments — monotone under resume
    /// ([`BatchSearchOutcome::recovery`]).
    pub recovery: [RecoveryTotals; 2],
}

/// What a [`HeteroEngine::search_dynamic`] run produced: the merged
/// results plus the realised per-device schedule.
#[derive(Debug, Clone)]
pub struct DynamicSearchOutcome {
    /// Merged, sorted hits — identical to the static-split search.
    pub results: SearchResults,
    /// Aggregated CPU-pool metrics (tasks, chunks, busy, queue-wait,
    /// cells, running GCUPS via [`DeviceMetrics::gcups`]).
    pub cpu: DeviceMetrics,
    /// Aggregated accelerator-pool metrics.
    pub accel: DeviceMetrics,
    /// Where the pools met: batches `0..boundary` ran on the CPU pool,
    /// `boundary..` on the accelerator pool.
    pub boundary: usize,
    /// Fraction of padded cells that actually landed on the accelerator —
    /// the *emergent* split, comparable to the plan's
    /// `accel_cell_fraction`.
    pub accel_cell_fraction: f64,
    /// Per-device degraded flags: true when that pool died mid-run and
    /// the other pool finished its share. Also folded into
    /// `results.degraded`.
    pub degraded: [bool; 2],
    /// Drained event timeline — `Some` only when
    /// [`HeteroSearchConfig::trace`](crate::config::TraceConfig) enabled
    /// tracing; export with `sw_trace::export`.
    pub timeline: Option<Timeline>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::gen::{generate_database, generate_query, DbSpec};
    use sw_seq::Alphabet;

    fn setup() -> (PreparedDb, Vec<u8>) {
        let a = Alphabet::protein();
        let db = PreparedDb::prepare(generate_database(&DbSpec::tiny(13)), 8, &a);
        let q = generate_query(100, 21).residues;
        (db, q)
    }

    /// Every `on_query_done` call of a region: `(query index, id, results)`.
    #[derive(Default)]
    struct Deliveries(std::sync::Mutex<Vec<(usize, u64, SearchResults)>>);

    impl Deliveries {
        fn record(&self, qi: usize, done: &BatchQueryOutcome) {
            let results = done.results.clone().expect("only completed queries");
            assert!(!done.cancelled);
            self.0.lock().unwrap().push((qi, done.id, results));
        }

        fn take(&self) -> Vec<(usize, u64, SearchResults)> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    #[test]
    fn hetero_equals_single_device_results() {
        let (db, q) = setup();
        let engine = SearchEngine::paper_default();
        let single = engine.search(&q, &db, &SearchConfig::best(2));
        let hetero = HeteroEngine::new(engine);
        for frac in [0.0, 0.25, 0.55, 1.0] {
            let plan = hetero.plan_split(&db, q.len(), frac);
            let res = hetero.search(
                &q,
                &db,
                &plan,
                &SearchConfig::best(2),
                &SearchConfig::best(2),
            );
            assert_eq!(res.hits, single.hits, "fraction {frac}");
        }
    }

    #[test]
    fn split_plan_partitions_batches() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.55);
        assert_eq!(plan.cpu.end, plan.accel.start);
        assert_eq!(plan.cpu.start, 0);
        assert_eq!(plan.accel.end, db.batches.len());
        assert!((plan.accel_cell_fraction - 0.55).abs() < 0.2);
    }

    #[test]
    fn extreme_fractions() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let all_cpu = hetero.plan_split(&db, q.len(), 0.0);
        assert!(all_cpu.accel.is_empty());
        assert_eq!(all_cpu.accel_cell_fraction, 0.0);
        let all_accel = hetero.plan_split(&db, q.len(), 1.0);
        assert!(all_accel.cpu.is_empty());
        assert!((all_accel.accel_cell_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accelerator_gets_the_long_sequences() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        if !plan.cpu.is_empty() && !plan.accel.is_empty() {
            let cpu_max = db.batches[plan.cpu.end - 1].padded_len();
            let accel_min = db.batches[plan.accel.start].padded_len();
            assert!(accel_min >= cpu_max, "sorted split: accel takes the suffix");
        }
    }

    #[test]
    #[should_panic(expected = "finite value in [0, 1]")]
    fn nan_fraction_rejected() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        hetero.plan_split(&db, q.len(), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite value in [0, 1]")]
    fn negative_fraction_rejected() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        hetero.plan_split(&db, q.len(), -0.01);
    }

    #[test]
    #[should_panic(expected = "finite value in [0, 1]")]
    fn fraction_above_one_rejected() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        hetero.plan_split(&db, q.len(), 1.0 + 1e-9);
    }

    #[test]
    fn boundary_fractions_accepted() {
        // Exactly 0.0 and exactly 1.0 are valid (all-CPU / all-accel).
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        assert!(hetero.plan_split(&db, q.len(), 0.0).accel.is_empty());
        assert!(hetero.plan_split(&db, q.len(), 1.0).cpu.is_empty());
    }

    #[test]
    fn empty_share_reports_zero_elapsed_and_gcups() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.0);
        let solo = [BatchQuery {
            residues: &q,
            id: 0,
            cancel: None,
            tracer: None,
        }];
        let out = region(
            &hetero.engine,
            &solo,
            &db,
            plan.accel,
            1.0,
            &HeteroSearchConfig::best(0, 1),
            &FaultInjector::none(),
            &DurableOptions::default(),
        )
        .expect("a region of no tasks");
        assert_eq!(out.cpu.tasks + out.accel.tasks, 0);
        let res = out.queries[0]
            .results
            .as_ref()
            .expect("nothing left to run");
        assert!(res.hits.is_empty());
        assert_eq!(res.elapsed, std::time::Duration::ZERO);
        assert_eq!(
            res.gcups().value(),
            0.0,
            "no work in no time is zero throughput"
        );
    }

    #[test]
    fn dynamic_search_identical_to_static_split() {
        let (db, q) = setup();
        let engine = SearchEngine::paper_default();
        let hetero = HeteroEngine::new(engine);
        for frac in [0.0, 0.3, 0.7, 1.0] {
            let plan = hetero.plan_split(&db, q.len(), frac);
            let stat = hetero.search(
                &q,
                &db,
                &plan,
                &SearchConfig::best(2),
                &SearchConfig::best(2),
            );
            let dyn_ = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(2, 2));
            assert_eq!(dyn_.results.hits, stat.hits, "fraction {frac}");
            assert_eq!(dyn_.results.cells, stat.cells, "fraction {frac}");
        }
    }

    #[test]
    fn dynamic_search_metrics_are_conserved() {
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let out = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(2, 2));
        // Every batch executed exactly once, across the two pools.
        assert_eq!(out.cpu.tasks + out.accel.tasks, db.batches.len() as u64);
        assert_eq!(out.boundary, out.cpu.tasks as usize);
        // Cost-function cells equal the database's padded cells.
        let padded: u64 = db.batches.iter().map(|b| b.padded_cells(q.len())).sum();
        assert_eq!(out.cpu.cells + out.accel.cells, padded);
        // The emergent split is a fraction, and GCUPS are finite.
        assert!((0.0..=1.0).contains(&out.accel_cell_fraction));
        assert!(out.cpu.gcups().is_finite() && out.accel.gcups().is_finite());
    }

    #[test]
    fn precision_hand_overs_land_on_worker_tracks() {
        // The region's task emits the kernel's hand-overs on its worker's
        // track: 8 → 16 for a batch the byte pass promotes (AVX2 at 16
        // lanes is the one byte pass), 16 → 64 for the lanes the scalar
        // rescue recomputes.
        use crate::config::TraceConfig;
        let a = Alphabet::protein();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let cfg = HeteroSearchConfig::best(1, 1).with_trace(TraceConfig::full());
        let traced = |q: &[u8], db: &PreparedDb| {
            let plan = hetero.plan_split(db, q.len(), 0.5);
            hetero.search_dynamic(q, db, &plan, &cfg)
        };
        // The lanes of every `from → to` hand-over; each must sit on a
        // worker's track (one worker per pool here).
        let hand_overs = |out: &DynamicSearchOutcome, from: u8, to: u8| -> Vec<u64> {
            let tl = out.timeline.as_ref().expect("traced run");
            let mut lanes = Vec::new();
            for t in &tl.tracks {
                for ev in &t.events {
                    if let EventKind::OverflowRecompute {
                        from_bits,
                        to_bits,
                        lanes: n,
                    } = ev.kind
                    {
                        assert_eq!((t.worker, t.query), (0, 0), "a worker track");
                        if (from_bits, to_bits) == (from, to) {
                            lanes.push(n);
                        }
                    }
                }
            }
            lanes
        };

        let seqs = generate_database(&DbSpec::tiny(13));
        let db = PreparedDb::prepare(seqs.clone(), 16, &a);
        let record = seqs
            .iter()
            .max_by_key(|s| s.residues.len())
            .expect("records");
        let out = traced(&record.residues, &db);
        if sw_kernels::KernelIsa::detect() == sw_kernels::KernelIsa::Avx2 {
            assert!(!hand_overs(&out, 8, 16).is_empty(), "the self-hit promotes");
        }
        let absent = traced(&generate_query(100, 21).residues, &db);
        assert!(hand_overs(&absent, 8, 16).is_empty());
        assert!(hand_overs(&absent, 16, 64).is_empty());

        // The giant-score database: the rescued lanes on the tracks are
        // the results' count.
        let giant = sw_seq::EncodedSeq {
            header: "giant".into(),
            residues: vec![a.encode_byte(b'W').unwrap(); 3200],
        };
        let db = PreparedDb::prepare(vec![giant.clone()], 16, &a);
        let out = traced(&giant.residues, &db);
        assert_eq!(out.results.lanes_rescued, 1);
        let rescued: u64 = hand_overs(&out, 16, 64).iter().sum();
        assert_eq!(rescued, out.results.lanes_rescued);
    }

    #[test]
    fn dynamic_search_single_pool_degenerate() {
        // Zero accelerator workers: the CPU pool drains the whole queue
        // and results still match the single-device engine.
        let (db, q) = setup();
        let engine = SearchEngine::paper_default();
        let single = engine.search(&q, &db, &SearchConfig::best(2));
        let hetero = HeteroEngine::new(engine);
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let cfg = HeteroSearchConfig::best(2, 0);
        let out = hetero.search_dynamic(&q, &db, &plan, &cfg);
        assert_eq!(out.results.hits, single.hits);
        assert_eq!(out.accel.tasks, 0);
        assert_eq!(out.accel_cell_fraction, 0.0);
        assert_eq!(out.boundary, db.batches.len());
    }

    #[test]
    fn dynamic_search_mixed_variants_still_exact() {
        use sw_kernels::{KernelVariant, Vectorization};
        let (db, q) = setup();
        let engine = SearchEngine::paper_default();
        let reference = engine.search(&q, &db, &SearchConfig::best(1));
        let hetero = HeteroEngine::new(engine);
        let plan = hetero.plan_split(&db, q.len(), 0.4);
        let cpu_cfg = SearchConfig::best(2).with_variant(KernelVariant {
            vec: Vectorization::Guided,
            profile: ProfileMode::Query,
            blocking: false,
        });
        let out = hetero.search_dynamic(
            &q,
            &db,
            &plan,
            &HeteroSearchConfig::new(cpu_cfg, SearchConfig::best(2)),
        );
        assert_eq!(out.results.hits, reference.hits);
    }

    #[test]
    fn killed_accel_pool_degrades_with_identical_hits() {
        use sw_sched::{FaultKind, FaultPlan, FaultSpec};
        // Lanes of 4 → ~50 batches: plenty of queue for the accel pool to
        // reach its first chunk before the CPU pool can drain everything.
        let a = Alphabet::protein();
        let db = PreparedDb::prepare(generate_database(&DbSpec::tiny(29)), 4, &a);
        let q = generate_query(100, 17).residues;
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.5);

        // Reference: a fault-free CPU-only run.
        let cpu_only = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(2, 0));

        // Fault run: the whole accelerator pool dies at its first chunk.
        // The one CPU worker stalls on its own first chunk, so the
        // accelerator worker's thread is up and claims before the queue
        // drains.
        let inj = FaultInjector::new(FaultPlan {
            specs: vec![
                FaultSpec {
                    device: DEVICE_ACCEL,
                    chunk: 0,
                    kind: FaultKind::KillPool,
                },
                FaultSpec {
                    device: DEVICE_CPU,
                    chunk: 0,
                    kind: FaultKind::Delay(std::time::Duration::from_millis(200)),
                },
            ],
        });
        let cfg = HeteroSearchConfig::best(1, 1);
        let seen = Deliveries::default();
        let on_done = |qi: usize, done: &BatchQueryOutcome| seen.record(qi, done);
        let opts = DurableOptions {
            on_query_done: Some(&on_done),
            ..DurableOptions::default()
        };
        let out = hetero
            .search_dynamic_resumable(&q, &db, &plan, &cfg, &inj, &opts)
            .expect("run must recover, not fail")
            .outcome
            .expect("no drain signal: the run completes");
        let seen = seen.take();
        assert_eq!(seen.len(), 1, "the requeued chunk delivers nothing twice");
        assert_eq!(seen[0].2.hits, cpu_only.results.hits);
        assert!(
            seen[0].2.degraded,
            "the pool was lost before the last commit"
        );

        assert_eq!(
            out.results.hits, cpu_only.results.hits,
            "hit list must be identical to the CPU-only run"
        );
        assert!(out.degraded[DEVICE_ACCEL] && !out.degraded[DEVICE_CPU]);
        assert!(out.results.degraded, "degradation surfaces on the results");
        assert!(out.accel.degraded, "and on the device metrics");
        assert!(out.accel.requeues >= 1, "the killed chunk was requeued");
        assert!(out.accel.failures >= 1);
        // The surviving pool executed every batch.
        assert_eq!(out.cpu.tasks, db.batches.len() as u64);
        assert_eq!(out.accel.tasks, 0);
    }

    #[test]
    fn dynamic_search_empty_database_is_safe() {
        let a = Alphabet::protein();
        let db = PreparedDb::prepare(Vec::new(), 8, &a);
        let q = generate_query(50, 3).residues;
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let out = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(2, 2));
        assert!(out.results.hits.is_empty());
        assert_eq!(out.boundary, 0);
        assert_eq!(out.degraded, [false, false]);
        assert!(!out.results.degraded);
        assert_eq!(out.cpu.tasks + out.accel.tasks, 0);
        assert_eq!(out.accel_cell_fraction, 0.0);
    }

    #[test]
    fn dynamic_search_zero_workers_clamped_to_one_cpu() {
        let (db, q) = setup();
        let engine = SearchEngine::paper_default();
        let single = engine.search(&q, &db, &SearchConfig::best(1));
        let hetero = HeteroEngine::new(engine);
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let out = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(0, 0));
        assert_eq!(out.results.hits, single.hits);
        assert_eq!(out.cpu.tasks, db.batches.len() as u64);
        assert_eq!(out.accel.tasks, 0);
    }

    #[test]
    fn dynamic_search_more_workers_than_batches() {
        let a = Alphabet::protein();
        let spec = DbSpec {
            n_seqs: 5,
            mean_len: 80.0,
            max_len: 120,
            seed: 9,
        };
        // 5 sequences in 8-lane batches → a single batch, 8 workers.
        let db = PreparedDb::prepare(generate_database(&spec), 8, &a);
        assert_eq!(db.batches.len(), 1);
        let q = generate_query(60, 2).residues;
        let engine = SearchEngine::paper_default();
        let single = engine.search(&q, &db, &SearchConfig::best(1));
        let hetero = HeteroEngine::new(engine);
        let plan = hetero.plan_split(&db, q.len(), 0.5);
        let out = hetero.search_dynamic(&q, &db, &plan, &HeteroSearchConfig::best(4, 4));
        assert_eq!(out.results.hits, single.hits);
        assert_eq!(out.cpu.tasks + out.accel.tasks, 1, "one batch, once");
    }

    #[test]
    fn stacked_lanes_equal_the_oracle_on_every_path() {
        // A database shaped to stack: half the lengths 300 … 399, half
        // 4 … 59, so the long batches take the short sequences into their
        // lanes' tails.
        // Every path over it — the flat search, a batched region on each
        // pool shape, a drained and resumed run, a two-shard run — must
        // give the scalar oracle's hit list.
        use sw_swdb::shard;
        let a = Alphabet::protein();
        let mut g = sw_seq::gen::SwissProtGen::new(100.0, 0x57ac);
        let seqs: Vec<_> = (0..80u32)
            .map(|i| {
                let len = if i % 2 == 0 {
                    300 + (i * 37) % 100
                } else {
                    4 + (i * 13) % 56
                };
                g.sequence(&format!("s{i}"), len)
            })
            .collect();
        let db = PreparedDb::prepare(seqs.clone(), 8, &a);
        let stacked: usize = db.batches.iter().map(|b| b.starts().len()).sum();
        assert!(stacked >= 10, "construction: {stacked} stacked sequences");
        let engine = SearchEngine::paper_default();
        let hetero = HeteroEngine::new(engine.clone());
        let oracle = |q: &[u8], sdb: &sw_swdb::SequenceDatabase| -> Vec<Hit> {
            let hits = sdb.iter().map(|(id, s)| Hit {
                id,
                score: sw_kernels::scalar::sw_score_scalar(q, s.residues, &engine.params),
            });
            SearchResults::new(hits.collect(), Default::default(), Default::default(), 0).hits
        };
        let queries: Vec<Vec<u8>> = [41u32, 90]
            .iter()
            .map(|&l| generate_query(l, l as u64).residues)
            .collect();
        let none = FaultInjector::none();
        let plan = hetero.plan_split(&db, queries[0].len(), 0.5);
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| BatchQuery {
                residues: q,
                id: i as u64,
                cancel: None,
                tracer: None,
            })
            .collect();
        for (cpu, accel) in [(1, 0), (0, 1), (1, 1), (2, 1)] {
            let out = hetero
                .search_many_resumable(
                    &batch,
                    &db,
                    &plan,
                    &HeteroSearchConfig::best(cpu, accel),
                    &none,
                    &DurableOptions::default(),
                )
                .expect("batched run");
            for (q, qo) in queries.iter().zip(&out.queries) {
                let hits = &qo.results.as_ref().expect("completed").hits;
                assert_eq!(*hits, oracle(q, db.sorted.db()), "{cpu} + {accel}");
            }
        }
        let dir = std::env::temp_dir().join(format!("sw-stacked-{}", std::process::id()));
        let shards = {
            let sorted = shard::length_sorted(db.sorted.db());
            let pieces: Vec<(u32, PreparedDb)> = shard::plan_shards(&sorted, 2)
                .into_iter()
                .map(|range| {
                    let piece = shard::slice(&sorted, range).to_sequences();
                    (range.0 as u32, PreparedDb::prepare(piece, 8, &a))
                })
                .collect();
            (sorted, pieces)
        };
        for q in &queries {
            let want = oracle(q, db.sorted.db());
            assert_eq!(
                engine.search(q, &db, &SearchConfig::best(1)).hits,
                want,
                "solo"
            );

            let cfg = HeteroSearchConfig::best(1, 1);
            let plan = hetero.plan_split(&db, q.len(), 0.5);
            let drain = DrainSignal::after_tasks(2);
            let mut opts = DurableOptions {
                checkpoint_dir: Some(&dir),
                drain: Some(&drain),
                ..DurableOptions::default()
            };
            let first = hetero
                .search_dynamic_resumable(q, &db, &plan, &cfg, &none, &opts)
                .expect("drained segment");
            assert!(first.drained && first.outcome.is_none());
            (opts.drain, opts.resume) = (None, true);
            let resumed = hetero
                .search_dynamic_resumable(q, &db, &plan, &cfg, &none, &opts)
                .expect("resumed run");
            assert!(resumed.resumed_tasks > 0);
            assert_eq!(
                resumed.outcome.expect("completed").results.hits,
                want,
                "resumed"
            );

            let (sorted, pieces) = &shards;
            let merged = pieces
                .iter()
                .map(|(base, piece)| {
                    let mut res = engine.search(q, piece, &SearchConfig::best(1));
                    for h in &mut res.hits {
                        h.id.0 += base;
                    }
                    res
                })
                .reduce(SearchResults::merge)
                .expect("two shards");
            assert_eq!(merged.hits, oracle(q, sorted), "sharded");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_queries_equal_solo_runs() {
        // The equivalence matrix: the same seeded database and queries
        // through EVERY entry point — each adapter over the one region
        // body (flat, static split, dynamic, durable, batched). Every hit
        // list must equal the scalar-oracle
        // list (not merely each other), and the N = 1 adapters must map
        // the region's facts onto the solo outcome faithfully. Both
        // configs are the default intrinsic-SP variant, so every row here
        // runs the fused kernel (`sw_isa_fused_sp`) — it needs no row of
        // its own; its fallback is `engine`'s `wide_matrix_*` test.
        let (db, _) = setup();
        let engine = SearchEngine::paper_default();
        let hetero = HeteroEngine::new(engine.clone());
        let queries: Vec<Vec<u8>> = [60u32, 150, 400]
            .iter()
            .map(|&l| generate_query(l, l as u64).residues)
            .collect();
        let oracle = |q: &[u8]| -> Vec<Hit> {
            let hits = db.sorted.db().iter().map(|(id, s)| Hit {
                id,
                score: sw_kernels::scalar::sw_score_scalar(q, s.residues, &engine.params),
            });
            SearchResults::new(hits.collect(), Default::default(), Default::default(), 0).hits
        };
        let flat = SearchConfig::best(2);
        let cfg = HeteroSearchConfig::best(2, 1);
        let none = FaultInjector::none();
        let n_batches = db.batches.len() as u64;
        let tmp = std::env::temp_dir().join(format!("sw-matrix-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();

        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let pooled = engine.search_many(&refs, &db, &flat);
        for (q, pooled_res) in queries.iter().zip(&pooled) {
            let want = oracle(q);
            let plan = hetero.plan_split(&db, q.len(), 0.5);
            assert_eq!(engine.search(q, &db, &flat).hits, want, "search");
            assert_eq!(pooled_res.hits, want, "search_many");
            let stat = hetero.search(q, &db, &plan, &flat, &flat);
            assert_eq!(stat.hits, want, "static split");
            let dynamic = hetero.search_dynamic(q, &db, &plan, &cfg);
            assert_eq!(dynamic.results.hits, want, "search_dynamic");
            assert_eq!(dynamic.results.cells, stat.cells);

            for dir in [None, Some(tmp.as_path())] {
                let opts = DurableOptions {
                    checkpoint_dir: dir,
                    ..DurableOptions::default()
                };
                let out = hetero
                    .search_dynamic_resumable(q, &db, &plan, &cfg, &none, &opts)
                    .expect("durable run");
                assert!(!out.drained);
                assert_eq!((out.tasks_done, out.n_batches), (n_batches, n_batches));
                let solo = out.outcome.expect("completed");
                assert_eq!(solo.results.hits, want, "search_dynamic_resumable {dir:?}");
                assert_eq!(solo.cpu.tasks + solo.accel.tasks, n_batches);
                assert_eq!(
                    solo.boundary as u64, solo.cpu.tasks,
                    "boundary = CPU batches"
                );
                match dir {
                    // Nothing to persist to: no write, no file, no dir.
                    None => assert!(out.checkpoints_written == 0 && !tmp.exists()),
                    // Completion spends the checkpoint.
                    Some(d) => assert_eq!(std::fs::read_dir(d).unwrap().count(), 0),
                }
            }
            std::fs::remove_dir_all(&tmp).ok();

            let lone = [BatchQuery {
                residues: q,
                id: 7,
                cancel: None,
                tracer: None,
            }];
            let one = hetero
                .search_many_resumable(&lone, &db, &plan, &cfg, &none, &DurableOptions::default())
                .expect("N = 1 region");
            assert_eq!(one.queries[0].results.as_ref().unwrap().hits, want, "N = 1");
            assert_eq!(one.cpu.tasks + one.accel.tasks, n_batches);
            assert_eq!(one.queries[0].cpu_batches as u64, one.cpu.tasks);
        }

        // N = 4: mixed-length queries, two of them the same length,
        // through ONE shared region on every pool shape, and the pooled
        // wall clock partitioned across them. With one worker the members
        // finish in (length, index) order.
        let mut members = queries.clone();
        members.insert(2, generate_query(150, 7).residues);
        let plan = hetero.plan_split(&db, members[0].len(), 0.5);
        let batch: Vec<BatchQuery<'_>> = members
            .iter()
            .enumerate()
            .map(|(i, q)| BatchQuery {
                residues: q,
                id: i as u64 + 1,
                cancel: None,
                tracer: None,
            })
            .collect();
        let solo: Vec<(Vec<Hit>, CellCount)> = members
            .iter()
            .map(|q| (oracle(q), engine.search(q, &db, &flat).cells))
            .collect();
        let mut by_length: Vec<usize> = (0..members.len()).collect();
        by_length.sort_by_key(|&i| (members[i].len(), i));
        for (cpu, accel) in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)] {
            let cfg = HeteroSearchConfig::best(cpu, accel);
            let seen = Deliveries::default();
            let on_done = |qi: usize, done: &BatchQueryOutcome| seen.record(qi, done);
            let opts = DurableOptions {
                on_query_done: Some(&on_done),
                ..DurableOptions::default()
            };
            let start = Instant::now();
            let out = hetero
                .search_many_resumable(&batch, &db, &plan, &cfg, &none, &opts)
                .expect("batched run");
            let wall = start.elapsed();
            assert!(!out.drained);
            assert_eq!(out.queries.len(), 4);
            // Every query was handed over exactly once, with the bytes its
            // outcome carries.
            let mut seen = seen.take();
            if cpu + accel == 1 {
                let order: Vec<usize> = seen.iter().map(|d| d.0).collect();
                assert_eq!(order, by_length, "{cpu} + {accel}: (length, index) order");
            }
            seen.sort_by_key(|d| d.0);
            assert_eq!(seen.len(), 4);
            for (i, ((qi, id, early), qo)) in seen.iter().zip(&out.queries).enumerate() {
                let at_end = qo.results.as_ref().expect("completed");
                assert_eq!((*qi, *id), (i, qo.id), "one delivery per query");
                assert_eq!(early.hits, at_end.hits, "query {qi}");
                assert_eq!(early.cells, at_end.cells);
                assert_eq!(early.lanes_rescued, at_end.lanes_rescued);
                assert!(early.elapsed <= at_end.elapsed);
            }
            assert_eq!(out.cpu.tasks + out.accel.tasks, 4 * n_batches);
            let mut elapsed_sum = std::time::Duration::ZERO;
            for ((hits, cells), qo) in solo.iter().zip(&out.queries) {
                let res = qo.results.as_ref().expect("completed");
                assert!(!qo.cancelled);
                assert_eq!(&res.hits, hits, "{cpu} + {accel}: query {}", qo.id);
                assert_eq!(&res.cells, cells);
                elapsed_sum += res.elapsed;
            }
            assert!(
                elapsed_sum <= wall,
                "per-query elapsed must partition the region wall clock"
            );
        }
    }

    #[test]
    fn claim_order_is_shortest_member_first_largest_batch_first() {
        let (db, _) = setup();
        let batches = &db.batches;
        let n = batches.len();
        // One member keeps the identity on every pool shape.
        for pools in [[1, 0], [0, 1], [1, 1], [3, 2]] {
            let order = claim_order(&[120], batches, 0.55, pools);
            assert_eq!(order, ClaimOrder::identity(), "{pools:?}");
        }
        // Members 1 and 3 tie on length: index breaks the tie.
        let lens = [120, 90, 300, 90];
        for pools in [[1, 0], [0, 1], [1, 1], [3, 2]] {
            for seed in [0.0, 0.55, 1.0] {
                let order = claim_order(&lens, batches, seed, pools);
                let mut tasks = order.tasks().to_vec();
                tasks.sort_unstable();
                assert_eq!(
                    tasks,
                    (0..lens.len() * n).collect::<Vec<_>>(),
                    "permutation"
                );
                // The segments cover it, each inside one member.
                let ends = order.cuts().iter().copied().chain([tasks.len()]);
                let mut start = 0;
                for end in ends {
                    let segment = &order.tasks()[start..end];
                    assert!(!segment.is_empty());
                    let member = segment[0] / n;
                    assert!(segment.iter().all(|t| t / n == member), "{pools:?} {seed}");
                    start = end;
                }
            }
        }
        let down = |qi: usize, r: std::ops::Range<usize>| r.rev().map(move |b| qi * n + b);
        let up = |qi: usize, r: std::ops::Range<usize>| r.map(move |b| qi * n + b);
        // One pool: members back to back from its end, largest batch first.
        let cpu_only = claim_order(&lens, batches, 0.55, [2, 0]);
        let want: Vec<usize> = [1, 3, 0, 2].iter().flat_map(|&qi| down(qi, 0..n)).collect();
        assert_eq!(cpu_only.tasks(), want);
        assert_eq!(cpu_only.cuts(), [n, 2 * n, 3 * n]);
        let mut accel_only = claim_order(&lens, batches, 0.55, [0, 2]).tasks().to_vec();
        accel_only.reverse();
        assert_eq!(accel_only, want, "the accelerator end mirrors the CPU end");
        // Two pools: CPU parts in front, accelerator parts behind, the
        // longest member in the middle.
        let k = split_by_cells(batches, 1, 0.45).0.end;
        assert!(0 < k && k < n, "the seed splits every member");
        let two = claim_order(&lens, batches, 0.55, [1, 1]);
        let want: Vec<usize> = [1, 3, 0]
            .iter()
            .flat_map(|&qi| down(qi, 0..k))
            .chain(down(2, 0..k).chain(up(2, k..n)))
            .chain([0, 3, 1].iter().flat_map(|&qi| up(qi, k..n)))
            .collect();
        assert_eq!(two.tasks(), want);
        assert_eq!(
            two.cuts().len(),
            6,
            "three CPU parts, the middle, three accelerator parts"
        );
    }

    #[test]
    fn query_done_fires_at_the_last_commit_exactly_once() {
        use sw_sched::{FaultKind, FaultPlan, FaultSpec};
        let (db, _) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let qa = generate_query(120, 51).residues;
        let qb = generate_query(90, 52).residues;
        let solo = |q: &[u8]| hetero.engine.search(q, &db, &SearchConfig::best(1)).hits;
        let n_batches = db.batches.len();
        let none = FaultInjector::none();

        // One CPU worker: the shortest member is claimed first, and its
        // batches are a segment of their own, so the 90-residue B is
        // handed over at its last commit — before any task of the
        // 120-residue A, listed first, has run on the (one) thread.
        let trace = |id| sw_trace::Tracer::for_query(sw_trace::TraceLevel::Full, 1024, id);
        let (tr_a, tr_b) = (trace(1), trace(2));
        let a_events_at_b = std::sync::Mutex::new(None);
        let seen = Deliveries::default();
        let on_done = |qi: usize, done: &BatchQueryOutcome| {
            if qi == 1 {
                *a_events_at_b.lock().unwrap() = Some(tr_a.timeline().total_events());
            }
            seen.record(qi, done);
        };
        let pair = |cancel_b| {
            [
                BatchQuery {
                    residues: &qa,
                    id: 1,
                    cancel: None,
                    tracer: Some(&tr_a),
                },
                BatchQuery {
                    residues: &qb,
                    id: 2,
                    cancel: cancel_b,
                    tracer: Some(&tr_b),
                },
            ]
        };
        let plan = hetero.plan_split(&db, qa.len(), 0.0);
        let one_cpu = HeteroSearchConfig::best(1, 0);
        let opts = DurableOptions {
            on_query_done: Some(&on_done),
            ..DurableOptions::default()
        };
        hetero
            .search_many_resumable(&pair(None), &db, &plan, &one_cpu, &none, &opts)
            .expect("clean run");
        let order: Vec<usize> = seen.take().iter().map(|d| d.0).collect();
        assert_eq!(order, vec![1, 0], "shortest member first");
        assert_eq!(*a_events_at_b.lock().unwrap(), Some(0), "A had not started");

        // A cancelled query is never handed over; its batch-mate is.
        let cancel_b = DrainSignal::new();
        cancel_b.request();
        let out = hetero
            .search_many_resumable(&pair(Some(&cancel_b)), &db, &plan, &one_cpu, &none, &opts)
            .expect("cancelled batch-mate");
        assert!(out.queries[1].cancelled);
        let seen_now = seen.take();
        assert_eq!(seen_now.len(), 1);
        assert_eq!((seen_now[0].0, &seen_now[0].2.hits), (0, &solo(&qa)));

        // A query whose every batch is in its checkpoint (the process died
        // between the last commit and the cleanup) is handed over from the
        // prefill, with no task run.
        let tmp = std::env::temp_dir().join(format!("sw-query-done-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        std::fs::create_dir_all(&tmp).unwrap();
        let fingerprint = SearchFingerprint::compute(&db, &qa);
        let qp = QueryProfile::build(&qa, &hetero.engine.params.matrix, &db.alphabet);
        let table = ScoreTable::build(&hetero.engine.params.matrix, &db.alphabet);
        let done = (0..n_batches).map(|batch| {
            let (hits, cells, rescued, _) = hetero.engine.run_batch(
                &qa,
                Some(&qp),
                &table,
                &db,
                &db.batches[batch],
                &one_cpu.cpu,
            );
            BatchResult {
                batch,
                device: DEVICE_CPU,
                hits,
                cells,
                rescued,
            }
        });
        Checkpoint {
            fingerprint,
            seq: 0,
            resumes: 0,
            accel_share: 0.0,
            recovery: Default::default(),
            done: done.collect(),
        }
        .write_atomic(&tmp.join(fingerprint.file_name()))
        .unwrap();
        let resume = DurableOptions {
            checkpoint_dir: Some(&tmp),
            resume: true,
            ..opts
        };
        let out = hetero
            .search_many_resumable(&pair(None)[..1], &db, &plan, &one_cpu, &none, &resume)
            .expect("fully resumed run");
        assert_eq!(out.queries[0].resumed_tasks, n_batches as u64);
        assert_eq!(out.cpu.tasks, 0, "nothing was recomputed");
        let seen_now = seen.take();
        assert_eq!(seen_now.len(), 1);
        assert_eq!(seen_now[0].2.hits, solo(&qa));
        std::fs::remove_dir_all(&tmp).ok();

        // A slow holder whose lease is reclaimed commits its chunk a
        // second time after the waiting pool re-ran it: two commits of the
        // last batches, one delivery. Kill and wedge lose the chunk
        // instead; all three end with the solo hit list.
        for kind in [
            FaultKind::Delay(std::time::Duration::from_millis(60)),
            FaultKind::Wedge,
            FaultKind::Kill,
        ] {
            let inj = FaultInjector::new(FaultPlan::single(FaultSpec {
                device: DEVICE_ACCEL,
                chunk: 0,
                kind,
            }));
            let mut cfg = HeteroSearchConfig::best(1, 1);
            cfg.recovery.accel_timeout_ms = Some(20);
            let plan = hetero.plan_split(&db, qa.len(), 0.5);
            let out = hetero
                .search_many_resumable(&pair(None)[..1], &db, &plan, &cfg, &inj, &opts)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let seen_now = seen.take();
            assert_eq!(seen_now.len(), 1, "{kind:?}");
            assert_eq!(seen_now[0].2.hits, solo(&qa), "{kind:?}");
            assert_eq!(out.queries[0].results.as_ref().unwrap().hits, solo(&qa));
        }
    }

    #[test]
    fn batched_cancel_spares_batch_mates_and_resumes() {
        // Query B is cancelled out of the shared region; A must complete
        // with exact hits, B must leave a resumable fingerprint
        // checkpoint, and a resumed run of B must match its solo hits.
        let (db, _) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let qa = generate_query(120, 31).residues;
        let qb = generate_query(90, 32).residues;
        let solo_a = hetero.engine.search(&qa, &db, &SearchConfig::best(1));
        let solo_b = hetero.engine.search(&qb, &db, &SearchConfig::best(1));
        let tmp = std::env::temp_dir().join(format!("sw-batch-cancel-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        let cfg = HeteroSearchConfig::best(2, 1);
        let plan = hetero.plan_split(&db, qa.len(), 0.5);
        let cancel_b = DrainSignal::new();
        cancel_b.request(); // deterministic: B never runs a task
        let opts = DurableOptions {
            checkpoint_dir: Some(&tmp),
            resume: true,
            ..DurableOptions::default()
        };
        let out = hetero
            .search_many_resumable(
                &[
                    BatchQuery {
                        residues: &qa,
                        id: 1,
                        cancel: None,
                        tracer: None,
                    },
                    BatchQuery {
                        residues: &qb,
                        id: 2,
                        cancel: Some(&cancel_b),
                        tracer: None,
                    },
                ],
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &opts,
            )
            .expect("batched run");
        assert!(!out.drained, "a per-query cancel is not a region drain");
        let (a, b) = (&out.queries[0], &out.queries[1]);
        assert!(!a.cancelled);
        assert_eq!(
            a.results.as_ref().unwrap().hits,
            solo_a.hits,
            "batch-mate unperturbed by the cancel"
        );
        assert!(b.cancelled);
        assert!(b.results.is_none());
        // Exactly one checkpoint on disk: A's was removed on completion.
        assert_eq!(std::fs::read_dir(&tmp).unwrap().count(), 1);

        // Resume B (alone or batched — here batched with A again, whose
        // fresh run coexists with B's resume).
        let out2 = hetero
            .search_many_resumable(
                &[BatchQuery {
                    residues: &qb,
                    id: 2,
                    cancel: None,
                    tracer: None,
                }],
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &opts,
            )
            .expect("resumed run");
        let b2 = &out2.queries[0];
        assert!(!b2.cancelled);
        assert_eq!(b2.resumes, 1, "second segment of the same query");
        assert_eq!(b2.results.as_ref().unwrap().hits, solo_b.hits);
        assert_eq!(
            std::fs::read_dir(&tmp).unwrap().count(),
            0,
            "completion spends the checkpoint"
        );
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn a_cancelled_member_resumes_by_query_and_batch_in_another_region() {
        // Checkpoints are keyed by (query, batch), never by queue
        // position: a member cancelled out of one region resumes in a
        // region that lists it elsewhere, beside another batch-mate, on
        // other pools, and recomputes exactly what it had not committed.
        use sw_sched::{FaultKind, FaultPlan, FaultSpec};
        let (db, _) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let [qa, qb, qc, qd] = [(60, 61), (90, 62), (150, 63), (120, 64)]
            .map(|(len, seed)| generate_query(len, seed).residues);
        let solo = |q: &[u8]| hetero.engine.search(q, &db, &SearchConfig::best(1)).hits;
        let n_batches = db.batches.len() as u64;
        let tmp = std::env::temp_dir().join(format!("sw-reorder-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        let c_file = tmp.join(SearchFingerprint::compute(&db, &qc).file_name());
        let member = |residues, id, cancel| BatchQuery {
            residues,
            id,
            cancel,
            tracer: None,
        };
        let opts = DurableOptions {
            checkpoint_dir: Some(&tmp),
            resume: true,
            ..DurableOptions::default()
        };

        // One CPU worker claims A, B, then C in halving chunks; its fourth
        // chunk starts a second late. By then C's first chunk is in C's
        // checkpoint, and the watcher below has cancelled C.
        let cancel_c = DrainSignal::new();
        let inj = FaultInjector::new(FaultPlan::single(FaultSpec {
            device: DEVICE_CPU,
            chunk: 3,
            kind: FaultKind::Delay(Duration::from_secs(1)),
        }));
        let plan = hetero.plan_split(&db, qc.len(), 0.0);
        let region_done = AtomicBool::new(false);
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !region_done.load(Ordering::SeqCst) {
                    let ckpt = Checkpoint::load_if_exists(&c_file).ok().flatten();
                    if ckpt.is_some_and(|c| !c.done.is_empty()) {
                        cancel_c.request();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            let members = [
                member(&qa, 1, None),
                member(&qb, 2, None),
                member(&qc, 3, Some(&cancel_c)),
            ];
            let cfg = HeteroSearchConfig::best(1, 0);
            let out = hetero.search_many_resumable(&members, &db, &plan, &cfg, &inj, &opts);
            region_done.store(true, Ordering::SeqCst);
            out.expect("a cancelled member is not a failed region")
        });
        let c = &out.queries[2];
        assert!(c.cancelled);
        assert!(
            0 < c.tasks_done && c.tasks_done < n_batches,
            "C was cancelled part-way: {} of {n_batches}",
            c.tasks_done
        );
        assert_eq!(out.queries[0].results.as_ref().unwrap().hits, solo(&qa));
        assert_eq!(out.queries[1].results.as_ref().unwrap().hits, solo(&qb));
        assert_eq!(
            std::fs::read_dir(&tmp).unwrap().count(),
            1,
            "C's checkpoint"
        );

        // C listed first, beside D, on both pools.
        let plan = hetero.plan_split(&db, qc.len(), 0.5);
        let members = [member(&qc, 3, None), member(&qd, 4, None)];
        let cfg = HeteroSearchConfig::best(1, 1);
        let none = FaultInjector::none();
        let out = hetero
            .search_many_resumable(&members, &db, &plan, &cfg, &none, &opts)
            .expect("resumed region");
        let (c2, d) = (&out.queries[0], &out.queries[1]);
        assert_eq!((c2.resumes, c2.resumed_tasks), (1, c.tasks_done));
        assert_eq!(c2.tasks_done, n_batches);
        assert_eq!(c2.results.as_ref().unwrap().hits, solo(&qc));
        assert_eq!(d.results.as_ref().unwrap().hits, solo(&qd));
        assert_eq!(
            out.cpu.tasks + out.accel.tasks,
            2 * n_batches - c.tasks_done,
            "only C's uncommitted batches ran again"
        );
        assert_eq!(std::fs::read_dir(&tmp).unwrap().count(), 0);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn batched_region_drain_checkpoints_every_incomplete_query() {
        // The daemon-shutdown path: the REGION drain stops everything;
        // every incomplete query must come back cancelled with its own
        // resumable checkpoint on disk.
        let (db, _) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let q1 = generate_query(100, 41).residues;
        let q2 = generate_query(110, 42).residues;
        let tmp = std::env::temp_dir().join(format!("sw-batch-drain-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        let drain = DrainSignal::new();
        drain.request(); // drained before any task commits
        let cfg = HeteroSearchConfig::best(1, 1);
        let plan = hetero.plan_split(&db, q1.len(), 0.5);
        let opts = DurableOptions {
            checkpoint_dir: Some(&tmp),
            drain: Some(&drain),
            resume: true,
            ..DurableOptions::default()
        };
        let out = hetero
            .search_many_resumable(
                &[
                    BatchQuery {
                        residues: &q1,
                        id: 1,
                        cancel: None,
                        tracer: None,
                    },
                    BatchQuery {
                        residues: &q2,
                        id: 2,
                        cancel: None,
                        tracer: None,
                    },
                ],
                &db,
                &plan,
                &cfg,
                &FaultInjector::none(),
                &opts,
            )
            .expect("drained run is a successful partial run");
        assert!(out.drained);
        assert!(out.queries.iter().all(|q| q.cancelled));
        assert_eq!(
            std::fs::read_dir(&tmp).unwrap().count(),
            2,
            "one fingerprint checkpoint per incomplete query"
        );
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn mixed_variant_configs_still_exact() {
        // CPU share with guided-QP, accel share with intrinsic-SP, the two
        // running at once: scores must still match the scalar oracle. At
        // fractions 0 and 1 one share is empty and the other runs alone.
        use sw_kernels::{KernelVariant, Vectorization};
        let (db, q) = setup();
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let hits = db.sorted.db().iter().map(|(id, s)| Hit {
            id,
            score: sw_kernels::scalar::sw_score_scalar(&q, s.residues, &hetero.engine.params),
        });
        let oracle = SearchResults::new(hits.collect(), Duration::ZERO, CellCount::default(), 0);
        let cpu_cfg = SearchConfig::best(2).with_variant(KernelVariant {
            vec: Vectorization::Guided,
            profile: ProfileMode::Query,
            blocking: false,
        });
        let accel_cfg = SearchConfig::best(2);
        for frac in [0.0, 0.4, 1.0] {
            let plan = hetero.plan_split(&db, q.len(), frac);
            let res = hetero.search(&q, &db, &plan, &cpu_cfg, &accel_cfg);
            assert_eq!(res.hits, oracle.hits, "fraction {frac}");
        }
    }
}
