//! Real multi-threaded loop executors.
//!
//! Two executors share this module:
//!
//! * [`run_parallel`] / [`try_run_parallel`] — run a task closure over
//!   `0..n_tasks` with the same scheduling policies the simulator models,
//!   on actual OS threads: `std::thread::scope` plus an atomic chunk
//!   counter (dynamic/guided) or a pre-partition (static). This is what
//!   the single-device search engine uses; results are collected in task
//!   order. A panicking task no longer poisons the result slots: the
//!   panic is captured per task and surfaced as a structured
//!   [`ExecError`] naming the failed task indices.
//! * [`run_dual_pool_durable`] — the heterogeneous executor, the one
//!   dual-pool body: two device worker pools (CPU share and accelerator
//!   share) pull lane batches from the two ends of one shared work queue,
//!   with an adaptive feedback estimator re-balancing the remaining queue
//!   from observed per-device throughput. Every claimed chunk is covered
//!   by a *lease*; a chunk whose holder dies (panic, injected kill) is
//!   requeued and re-executed by a surviving worker, a chunk whose holder
//!   wedges is reclaimed after `accel_timeout_ms`, and a pool that
//!   exhausts its failure budget is retired so the run *degrades* to the
//!   other pool instead of hanging or crashing. Per-worker metrics and
//!   recovery events are recorded through a [`MetricsSink`]; resume
//!   prefill, drain, checkpoints and per-task cancel hang off
//!   [`DurableControl`]. [`run_dual_pool`] is the one convenience over
//!   it: no faults, no hooks, no trace, panic on failure.
//!
//! Built on std scoped threads + atomics rather than a work-stealing pool
//! so the *policy* is exactly the one being studied — a generic pool
//! would silently replace the schedule under test. Workers buffer each
//! chunk's results locally and commit them under a single lock
//! acquisition, so the slot mutex is taken once per chunk, not per task.
//! In both executors the calling thread is the first worker: `N` workers
//! cost `N − 1` spawns and the caller computes instead of blocking in
//! the join. No worker polls: one whose end of the queue has drained
//! while another still holds a lease sleeps on the supervisor's condvar
//! until a lease event (commit, failure, reclaim, retirement) or the
//! earliest lease expiry, so a region ends at its last commit.
//!
//! Because task results are pure functions of the task index, re-executing
//! a requeued chunk (or double-executing one whose slow holder finished
//! after its lease was reclaimed) commits identical values — recovery
//! never changes the output, only who computed it.

use crate::drain::DrainSignal;
use crate::fault::{FaultInjector, FaultKind};
use crate::metrics::{MetricsSink, RecoveryEvent, WorkerSample};
use crate::policy::{
    adaptive_chunk, static_partition, DualQueue, Policy, RequeueQueue, SplitEstimator,
    DEVICE_ACCEL, DEVICE_CPU,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use sw_trace::{EventKind, Tracer, WorkerJournal};

/// How often a wedged worker checks whether its lease was reclaimed.
const WEDGE_POLL: Duration = Duration::from_millis(1);

#[cfg(test)]
thread_local! {
    /// [`Supervisor::acquire`] entries made by this thread — what the
    /// "an idle worker waits, it does not poll" tests count.
    static ACQUIRE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Scheduling policy (the paper's winner is `dynamic`).
    pub policy: Policy,
}

impl ExecutorConfig {
    /// `workers` threads with dynamic(1) scheduling.
    pub fn dynamic(workers: usize) -> Self {
        ExecutorConfig {
            workers,
            policy: Policy::dynamic(),
        }
    }
}

/// One task that failed (panicked) during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Device pool the failing worker belonged to (`None` for the
    /// single-device executor).
    pub device: Option<usize>,
    /// The task index whose execution panicked.
    pub task: usize,
    /// The captured panic message.
    pub message: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Some(DEVICE_CPU) => write!(f, "task {} (cpu pool): {}", self.task, self.message),
            Some(DEVICE_ACCEL) => write!(f, "task {} (accel pool): {}", self.task, self.message),
            Some(d) => write!(f, "task {} (device {d}): {}", self.task, self.message),
            None => write!(f, "task {}: {}", self.task, self.message),
        }
    }
}

/// Structured failure of a parallel region: which tasks panicked (with
/// captured messages) and which task ranges were left unexecuted.
///
/// Replaces the old behaviour where one panicking task poisoned the
/// result-slot mutex and every other worker died with an opaque
/// `PoisonError` cascade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Tasks whose execution panicked (terminally — retries exhausted,
    /// where retries apply).
    pub failures: Vec<TaskError>,
    /// `[start, end)` task ranges that were never successfully executed.
    pub missing: Vec<(usize, usize)>,
}

impl ExecError {
    /// Total number of tasks left without a result.
    pub fn unexecuted_tasks(&self) -> usize {
        self.missing.iter().map(|(s, e)| e - s).sum()
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} task failure(s)", self.failures.len())?;
        if let Some(first) = self.failures.first() {
            write!(f, " (first: {first})")?;
        }
        if !self.missing.is_empty() {
            write!(f, "; {} task(s) left unexecuted", self.unexecuted_tasks())?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Locks never stay poisoned here: a panicking task is captured *inside*
/// the worker, and the shared tables hold only plain data that is mutated
/// in whole-record steps, so the value behind a poisoned lock is still
/// coherent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a captured panic payload as text for [`TaskError::message`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

/// Grab the next chunk for dynamic/guided policies from the shared
/// counter. Returns `None` when the loop is exhausted.
///
/// Memory-ordering audit (satellite of the fault-tolerance PR): the
/// `Relaxed` initial load is only an *optimistic read* — the claim itself
/// is the CAS, which is atomic on the counter's modification order under
/// every ordering, so two grabbers can never both succeed from the same
/// `start` and claims can never overlap or skip indices. No cross-thread
/// data is published through this counter (results travel through the
/// `Slots` mutex, task inputs are read-only and published by the scoped
/// spawn), so even fully `Relaxed` orderings would be correct; `AcqRel`
/// on success is kept as cheap belt-and-braces. The stress test
/// `grab_chunk_stress_every_index_exactly_once` hammers this with more
/// threads than cores.
fn grab_chunk(
    next: &AtomicUsize,
    n_tasks: usize,
    workers: usize,
    policy: Policy,
) -> Option<(usize, usize)> {
    loop {
        let start = next.load(Ordering::Relaxed);
        if start >= n_tasks {
            return None;
        }
        let remaining = n_tasks - start;
        let size = match policy {
            Policy::Dynamic { chunk } => chunk.max(1),
            Policy::Guided { min_chunk } => (remaining / (2 * workers)).max(min_chunk.max(1)),
            Policy::Static => unreachable!("static handled by pre-partition"),
        }
        .min(remaining);
        // CAS so concurrent grabbers never overlap.
        if next
            .compare_exchange_weak(start, start + size, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return Some((start, start + size));
        }
    }
}

/// Result slot table: workers buffer one chunk locally, then commit the
/// whole chunk under a single lock acquisition.
struct Slots<T> {
    slots: Mutex<Vec<Option<T>>>,
}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots {
            slots: Mutex::new((0..n).map(|_| None).collect()),
        }
    }

    /// Commit the results of chunk `[start, start + buf.len())`.
    fn commit(&self, start: usize, buf: Vec<T>) {
        let mut guard = lock_unpoisoned(&self.slots);
        for (offset, r) in buf.into_iter().enumerate() {
            guard[start + offset] = Some(r);
        }
    }

    /// Commit an explicitly-indexed (possibly non-contiguous) batch of
    /// results — the dual-pool path, where a resumed run skips the
    /// indices a checkpoint already holds and a chunk's executed set can
    /// therefore have holes.
    fn commit_sparse(&self, buf: Vec<(usize, T)>) {
        let mut guard = lock_unpoisoned(&self.slots);
        for (i, r) in buf {
            guard[i] = Some(r);
        }
    }

    /// Run `f` over the current slot table (held under the lock). Used by
    /// the checkpoint callback so a checkpoint observes a consistent
    /// whole-chunk view — commits are whole-chunk under the same lock.
    fn with_slots<R>(&self, f: impl FnOnce(&[Option<T>]) -> R) -> R {
        f(&lock_unpoisoned(&self.slots))
    }

    /// The raw slot table (filled and unfilled).
    fn into_slots(self) -> Vec<Option<T>> {
        self.slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Split a slot table into results in task order, or the `[start, end)`
/// ranges that were never filled.
fn slots_into_results<T>(slots: Vec<Option<T>>) -> Result<Vec<T>, Vec<(usize, usize)>> {
    let mut out = Vec::with_capacity(slots.len());
    let mut missing: Vec<(usize, usize)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(v) => out.push(v),
            None => match missing.last_mut() {
                Some(last) if last.1 == i => last.1 = i + 1,
                _ => missing.push((i, i + 1)),
            },
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

/// Execute `[s, e)` with per-task panic capture: contiguous successful
/// runs are committed, each panicking task is recorded as a [`TaskError`]
/// and its slot left empty. Used by the single-device worker loops.
fn run_range_captured<T, F>(
    range: (usize, usize),
    task: &F,
    slots: &Slots<T>,
    failures: &Mutex<Vec<TaskError>>,
) where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (s, e) = range;
    let mut start = s;
    let mut buf: Vec<T> = Vec::with_capacity(e - s);
    for i in s..e {
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(v) => buf.push(v),
            Err(p) => {
                if !buf.is_empty() {
                    slots.commit(start, std::mem::take(&mut buf));
                }
                start = i + 1;
                lock_unpoisoned(failures).push(TaskError {
                    device: None,
                    task: i,
                    message: panic_message(p),
                });
            }
        }
    }
    if !buf.is_empty() {
        slots.commit(start, buf);
    }
}

/// Run `task(i)` for every `i in 0..n_tasks` under `config`, returning
/// results in task order, or a structured [`ExecError`] naming every task
/// whose execution panicked.
///
/// A panicking task only loses its own slot: the worker that caught it
/// keeps pulling chunks, so all other tasks still execute.
///
/// # Panics
/// Panics if `config.workers == 0`.
pub fn try_run_parallel<T, F>(
    n_tasks: usize,
    config: ExecutorConfig,
    task: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(config.workers >= 1, "need at least one worker");
    if n_tasks == 0 {
        return Ok(Vec::new());
    }

    let slots: Slots<T> = Slots::new(n_tasks);
    let failures: Mutex<Vec<TaskError>> = Mutex::new(Vec::new());

    if config.workers == 1 {
        run_range_captured((0, n_tasks), &task, &slots, &failures);
    } else {
        let next = AtomicUsize::new(0);
        let parts = if matches!(config.policy, Policy::Static) {
            static_partition(n_tasks, config.workers)
        } else {
            Vec::new()
        };
        let worker = |w: usize| match config.policy {
            Policy::Static => run_range_captured(parts[w], &task, &slots, &failures),
            _ => {
                while let Some(range) = grab_chunk(&next, n_tasks, config.workers, config.policy) {
                    run_range_captured(range, &task, &slots, &failures);
                }
            }
        };
        // The caller is worker 0 (see `run_dual_pool_durable`).
        std::thread::scope(|scope| {
            let worker = &worker;
            for w in 1..config.workers {
                scope.spawn(move || worker(w));
            }
            worker(0);
        });
    }

    let failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    match slots_into_results(slots.into_slots()) {
        Ok(results) if failures.is_empty() => Ok(results),
        Ok(_) => Err(ExecError {
            failures,
            missing: Vec::new(),
        }),
        Err(missing) => Err(ExecError { failures, missing }),
    }
}

/// Run `task(i)` for every `i in 0..n_tasks` under `config`, returning
/// results in task order.
///
/// `task` must be `Sync` (shared read-only state) and is invoked exactly
/// once per index. Infallible wrapper over [`try_run_parallel`].
///
/// # Panics
/// Panics if `config.workers == 0`, or with the structured failure
/// summary when any task panicked.
pub fn run_parallel<T, F>(n_tasks: usize, config: ExecutorConfig, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_run_parallel(n_tasks, config, task)
        .unwrap_or_else(|e| panic!("parallel execution failed: {e}"))
}

/// Configuration of the dual-pool heterogeneous executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DualPoolConfig {
    /// Worker threads in the CPU-share pool (front of the queue).
    pub cpu_workers: usize,
    /// Worker threads in the accelerator-share pool (back of the queue).
    pub accel_workers: usize,
    /// The static plan's accelerator share — the estimator's seed until
    /// both pools have observed throughput.
    pub initial_accel_fraction: f64,
    /// Smallest chunk either pool grabs.
    pub min_chunk: usize,
    /// Lease timeout for chunks held by the accelerator pool: a chunk
    /// whose holder makes no progress for this long is reclaimed and
    /// requeued. `None` disables reclamation (a wedge fault then
    /// degenerates to a kill so runs still terminate).
    pub accel_timeout_ms: Option<u64>,
    /// Failures a device pool tolerates before it is retired and the run
    /// degrades to the other pool.
    pub failure_budget: u32,
    /// Base backoff before re-executing a requeued chunk, doubled per
    /// prior attempt (`backoff · 2^(attempts-1)`). Zero disables backoff.
    pub retry_backoff_ms: u64,
    /// Times a failing chunk is re-executed before its failing task is
    /// reported terminally and the rest of the chunk salvaged.
    pub max_chunk_retries: u32,
}

impl DualPoolConfig {
    /// A dual-pool configuration with an even initial split and default
    /// recovery settings (no lease timeout, budget 3, 1 ms backoff, 2
    /// retries per chunk).
    pub fn new(cpu_workers: usize, accel_workers: usize) -> Self {
        DualPoolConfig {
            cpu_workers,
            accel_workers,
            initial_accel_fraction: 0.5,
            min_chunk: 1,
            accel_timeout_ms: None,
            failure_budget: 3,
            retry_backoff_ms: 1,
            max_chunk_retries: 2,
        }
    }

    /// Total workers across both pools.
    pub fn total_workers(&self) -> usize {
        self.cpu_workers + self.accel_workers
    }

    /// The lease timeout applying to chunks held by `device`, if any.
    /// Only accelerator-held leases time out: CPU workers are in-process
    /// threads whose failures surface as captured panics immediately,
    /// while an accelerator dispatch can silently wedge.
    pub fn lease_timeout(&self, device: usize) -> Option<Duration> {
        if device == DEVICE_ACCEL {
            self.accel_timeout_ms.map(Duration::from_millis)
        } else {
            None
        }
    }
}

/// Observed progress of one device pool, shared across its workers for
/// the feedback estimator.
#[derive(Default)]
struct DeviceProgress {
    cells: AtomicU64,
    busy_nanos: AtomicU64,
}

/// Consistent view of a run's progress handed to the checkpoint
/// callback. The slot table is observed under its lock, so every chunk
/// is either fully present or fully absent — a checkpoint can never see
/// half a chunk.
pub struct CheckpointView<'v, T> {
    /// Result slots in task order; `None` = not yet executed.
    pub slots: &'v [Option<T>],
    /// Tasks committed so far (including any resume prefill).
    pub tasks_done: u64,
    /// The split estimator's current accelerator share — persisted so a
    /// resumed run starts from the learned split instead of the static
    /// seed.
    pub accel_share: f64,
}

/// What a [`DurableControl::on_commit`] hook is handed: the task range
/// whose results were just committed, and the slot table on demand.
pub struct CommitView<'v, T> {
    /// `[start, end)` of the committed chunk (`0..n_tasks` for the resume
    /// prefill). Tasks in it that were skipped or cancelled stay `None`.
    pub range: (usize, usize),
    slots: &'v Slots<T>,
}

impl<T> CommitView<'_, T> {
    /// Run `f` over the slot table, under its lock: whole chunks are
    /// present or absent, as in a [`CheckpointView`].
    pub fn with_slots<R>(&self, f: impl FnOnce(&[Option<T>]) -> R) -> R {
        self.slots.with_slots(f)
    }
}

/// Durability hooks for [`run_dual_pool_durable`]: resume prefill, a
/// drain signal, a periodic checkpoint callback, a per-task cancel probe
/// and a commit hook.
///
/// [`DurableControl::none`] disables all of them: the run then either
/// completes every task or fails terminally, and
/// [`DurableOutcome::try_into_results`] tells which.
pub struct DurableControl<'a, T> {
    /// Task results a checkpoint already holds: `(task index, result)`.
    /// Prefilled indices are skipped by the workers (no execution, no
    /// cost accounting) and appear verbatim in the outcome's slots.
    pub prefill: Vec<(usize, T)>,
    /// Cooperative stop: when requested, workers finish the chunks they
    /// hold, commit them, and exit; the outcome is marked drained and
    /// carries whatever completed.
    pub drain: Option<&'a DrainSignal>,
    /// Invoke `on_checkpoint` every this many committed chunks
    /// (0 = never).
    pub checkpoint_every_chunks: u64,
    /// Checkpoint writer: receives a consistent [`CheckpointView`] and
    /// returns the number of bytes persisted (for the trace event). At
    /// most one invocation runs at a time; an interval that fires while a
    /// checkpoint is still being written is skipped, not queued.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a (dyn Fn(CheckpointView<'_, T>) -> u64 + Sync)>,
    /// Per-task cancellation probe, checked immediately before each task
    /// executes. A `true` answer drops the task — no execution, no commit,
    /// no cost accounting — leaving its slot `None` while the rest of the
    /// region runs to completion. This is what lets one query in a shared
    /// multi-query region be cancelled without draining its batch-mates:
    /// the region-level [`DurableControl::drain`] stops *everything*, the
    /// probe removes *one query's* tasks.
    #[allow(clippy::type_complexity)]
    pub task_cancelled: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
    /// Commit hook: called on the committing worker after every chunk
    /// commit, and once after the resume prefill, outside the slot lock.
    /// It is how a caller learns that a *part* of the task space (one
    /// query of a shared region) is complete while the rest still runs. A
    /// lease reclaimed from a slow holder commits twice with identical
    /// values, so the hook may see the same range twice.
    #[allow(clippy::type_complexity)]
    pub on_commit: Option<&'a (dyn Fn(CommitView<'_, T>) + Sync)>,
}

impl<T> DurableControl<'_, T> {
    /// No prefill, no drain, no checkpoints.
    pub fn none() -> Self {
        DurableControl {
            prefill: Vec::new(),
            drain: None,
            checkpoint_every_chunks: 0,
            on_checkpoint: None,
            task_cancelled: None,
            on_commit: None,
        }
    }
}

/// Result of a dual-pool run. It is returned even when tasks are left
/// unexecuted — a drained run is a *successful partial* run, and the
/// caller decides whether holes are an error (they are, when neither
/// drained nor cancelled).
#[derive(Debug)]
pub struct DurableOutcome<T> {
    /// Result slots in task order; `None` = never executed (drained away,
    /// or lost to terminal task failure).
    pub slots: Vec<Option<T>>,
    /// Whether each device pool (`[cpu, accel]`) was retired.
    pub degraded: [bool; 2],
    /// True when the run stopped because its [`DrainSignal`] fired.
    pub drained: bool,
    /// Tasks that failed terminally (retries exhausted).
    pub failures: Vec<TaskError>,
}

impl<T> DurableOutcome<T> {
    /// Number of tasks with a committed result.
    pub fn tasks_done(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Results in task order, or the structured [`ExecError`] naming the
    /// failed and unexecuted tasks. A drained run with holes returns
    /// `Err`, so only call it when `!drained`.
    pub fn try_into_results(self) -> Result<Vec<T>, ExecError> {
        match slots_into_results(self.slots) {
            Ok(results) => Ok(results),
            Err(missing) => Err(ExecError {
                failures: self.failures,
                missing,
            }),
        }
    }
}

/// An active chunk lease: `device`'s pool claimed `range` and has not yet
/// committed or released it.
struct Lease {
    id: u64,
    device: usize,
    range: (usize, usize),
    attempts: u32,
    started: Instant,
}

/// Shared recovery bookkeeping of one dual-pool region. The double-ended
/// queue lives under the same lock as the lease table so "claim a range"
/// and "lease it" are one atomic step — a worker deciding the region is
/// done (queue drained, no leases, no requeues) can never race a claim
/// that has not been leased yet.
struct RecoveryState {
    queue: DualQueue,
    requeue: RequeueQueue,
    leases: Vec<Lease>,
    next_lease: u64,
    failures: [u32; 2],
    retired: [bool; 2],
    errors: Vec<TaskError>,
}

/// What a worker got back from [`Supervisor::acquire`].
enum Acquire {
    /// A leased range to execute.
    Work(Work),
    /// The region is complete: queue drained, no leases, no requeues.
    Done,
    /// The worker's pool was retired; the worker must exit.
    Retired,
}

struct Work {
    range: (usize, usize),
    attempts: u32,
    lease: u64,
    retried: bool,
}

/// The lease/requeue/budget supervisor shared by all workers of one
/// dual-pool region.
struct Supervisor<'a> {
    config: DualPoolConfig,
    estimator: SplitEstimator,
    progress: [DeviceProgress; 2],
    state: Mutex<RecoveryState>,
    /// Signalled whenever the lease table, the requeue list or a pool's
    /// retired flag changes — what a worker idling in
    /// [`Supervisor::acquire`] waits on.
    changed: Condvar,
    sink: &'a MetricsSink,
}

impl<'a> Supervisor<'a> {
    fn new(n_tasks: usize, config: DualPoolConfig, sink: &'a MetricsSink) -> Self {
        Supervisor {
            config,
            estimator: SplitEstimator::new(config.initial_accel_fraction),
            progress: [DeviceProgress::default(), DeviceProgress::default()],
            state: Mutex::new(RecoveryState {
                queue: DualQueue::new(n_tasks),
                requeue: RequeueQueue::new(),
                leases: Vec::new(),
                next_lease: 0,
                failures: [0, 0],
                retired: [false, false],
                errors: Vec::new(),
            }),
            changed: Condvar::new(),
            sink,
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecoveryState> {
        lock_unpoisoned(&self.state)
    }

    /// The estimator's current accelerator share given observed progress.
    fn current_accel_share(&self) -> f64 {
        self.estimator.accel_share(
            self.progress[DEVICE_CPU].cells.load(Ordering::Relaxed),
            self.progress[DEVICE_CPU].busy_nanos.load(Ordering::Relaxed),
            self.progress[DEVICE_ACCEL].cells.load(Ordering::Relaxed),
            self.progress[DEVICE_ACCEL]
                .busy_nanos
                .load(Ordering::Relaxed),
        )
    }

    fn register(
        st: &mut RecoveryState,
        device: usize,
        range: (usize, usize),
        attempts: u32,
    ) -> u64 {
        let id = st.next_lease;
        st.next_lease += 1;
        st.leases.push(Lease {
            id,
            device,
            range,
            attempts,
            started: Instant::now(),
        });
        id
    }

    /// Charge one failure against `device`'s budget, retiring the pool
    /// (degraded) once the budget is exceeded. Events land on the journal
    /// of the worker that observed the failure.
    fn charge_failure(&self, st: &mut RecoveryState, device: usize, jr: &mut WorkerJournal) {
        st.failures[device] += 1;
        self.sink.record_recovery(device, RecoveryEvent::Failure);
        if st.failures[device] > self.config.failure_budget && !st.retired[device] {
            st.retired[device] = true;
            self.sink.record_recovery(device, RecoveryEvent::Degraded);
            jr.emit(EventKind::PoolRetired { device });
        }
    }

    /// Retire `device`'s pool immediately (injected pool kill).
    fn retire(&self, device: usize, jr: &mut WorkerJournal) {
        let mut st = self.lock();
        if !st.retired[device] {
            st.retired[device] = true;
            self.sink.record_recovery(device, RecoveryEvent::Degraded);
            jr.emit(EventKind::PoolRetired { device });
            self.changed.notify_all();
        }
    }

    /// True while lease `id` is still held (not reclaimed).
    fn holds(&self, id: u64) -> bool {
        self.lock().leases.iter().any(|l| l.id == id)
    }

    /// Acquire the next unit of work for a worker of `device`:
    /// requeued ranges first, then a fresh adaptive chunk from the
    /// device's end of the queue; once the queue drains, reclaim expired
    /// leases or report completion. While other workers still hold
    /// leases the caller blocks here on [`Supervisor::changed`] — woken by
    /// the commit, failure, reclaim or retirement that can give it work
    /// or end the region, and otherwise at the earliest lease expiry, so
    /// a wedged holder is reclaimed on time with nothing polling.
    fn acquire(&self, device: usize, pool_workers: usize, jr: &mut WorkerJournal) -> Acquire {
        #[cfg(test)]
        ACQUIRE_CALLS.with(|c| c.set(c.get() + 1));
        let mut st = self.lock();
        loop {
            if st.retired[device] {
                return Acquire::Retired;
            }
            if let Some((range, attempts)) = st.requeue.pop() {
                let lease = Self::register(&mut st, device, range, attempts);
                jr.emit(EventKind::LeaseGranted {
                    lease,
                    lo: range.0,
                    hi: range.1,
                });
                return Acquire::Work(Work {
                    range,
                    attempts,
                    lease,
                    retried: true,
                });
            }
            if st.queue.remaining() > 0 {
                let accel_share = self.current_accel_share();
                let my_share = if device == DEVICE_CPU {
                    1.0 - accel_share
                } else {
                    accel_share
                };
                let k = adaptive_chunk(
                    st.queue.remaining(),
                    my_share,
                    pool_workers.max(1),
                    self.config.min_chunk,
                );
                let range = if device == DEVICE_CPU {
                    st.queue.take_front(k)
                } else {
                    st.queue.take_back(k)
                }
                .expect("non-empty queue yields a range");
                let lease = Self::register(&mut st, device, range, 0);
                jr.emit(EventKind::SplitRebalance { share: accel_share });
                jr.emit(EventKind::LeaseGranted {
                    lease,
                    lo: range.0,
                    hi: range.1,
                });
                return Acquire::Work(Work {
                    range,
                    attempts: 0,
                    lease,
                    retried: false,
                });
            }
            // Queue drained: reclaim a lease whose holder exceeded its
            // timeout, finish, or wait for in-flight work to resolve.
            let now = Instant::now();
            // Per lease with a timeout: how long until it expires.
            let time_left = |l: &Lease| {
                let timeout = self.config.lease_timeout(l.device)?;
                Some(timeout.saturating_sub(now.duration_since(l.started)))
            };
            let expired = st
                .leases
                .iter()
                .position(|l| time_left(l).is_some_and(|left| left.is_zero()));
            if let Some(pos) = expired {
                let lease = st.leases.swap_remove(pos);
                st.requeue.push(lease.range, lease.attempts + 1);
                self.sink
                    .record_recovery(lease.device, RecoveryEvent::LostLease);
                jr.emit(EventKind::LeaseLost {
                    lease: lease.id,
                    victim: lease.device,
                });
                jr.emit(EventKind::LeaseRequeued {
                    lease: lease.id,
                    lo: lease.range.0,
                    hi: lease.range.1,
                    attempts: lease.attempts + 1,
                });
                self.charge_failure(&mut st, lease.device, jr);
                self.changed.notify_all();
                continue; // the requeued range is available now
            }
            if st.leases.is_empty() && st.requeue.is_empty() {
                return Acquire::Done;
            }
            let next_expiry = st.leases.iter().filter_map(time_left).min();
            st = match next_expiry {
                Some(left) => {
                    let woken = self.changed.wait_timeout(st, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Mark lease `id` committed. A lease already reclaimed by timeout is
    /// a no-op: the slow holder's duplicate commit wrote the same
    /// deterministic values the re-execution produces, and the reclaim
    /// was already counted as a lost lease.
    fn complete(&self, id: u64) {
        let mut st = self.lock();
        if let Some(pos) = st.leases.iter().position(|l| l.id == id) {
            st.leases.swap_remove(pos);
            self.changed.notify_all();
        }
    }

    /// Release a lease whose execution panicked at task `failed_at`
    /// (everything before it was committed). The unexecuted tail is
    /// requeued with an incremented attempt count, or — once retries are
    /// exhausted — the failing task is reported terminally and the rest
    /// of the chunk salvaged.
    fn release_failed(
        &self,
        id: u64,
        device: usize,
        failed_at: usize,
        message: String,
        jr: &mut WorkerJournal,
    ) {
        let mut st = self.lock();
        let Some(pos) = st.leases.iter().position(|l| l.id == id) else {
            // Already reclaimed by timeout: the reclaimer charged the
            // failure and requeued the full range.
            return;
        };
        let lease = st.leases.swap_remove(pos);
        // Whatever follows — a requeue, a retired pool, or just one
        // lease fewer — is something an idle worker must look at.
        self.changed.notify_all();
        jr.emit(EventKind::LeaseLost {
            lease: id,
            victim: device,
        });
        self.charge_failure(&mut st, device, jr);
        let end = lease.range.1;
        if lease.attempts >= self.config.max_chunk_retries {
            st.errors.push(TaskError {
                device: Some(device),
                task: failed_at,
                message,
            });
            if failed_at + 1 < end {
                st.requeue.push((failed_at + 1, end), 0);
                self.sink.record_recovery(device, RecoveryEvent::Requeue);
                jr.emit(EventKind::LeaseRequeued {
                    lease: id,
                    lo: failed_at + 1,
                    hi: end,
                    attempts: 0,
                });
            }
        } else {
            st.requeue.push((failed_at, end), lease.attempts + 1);
            self.sink.record_recovery(device, RecoveryEvent::Requeue);
            jr.emit(EventKind::LeaseRequeued {
                lease: id,
                lo: failed_at,
                hi: end,
                attempts: lease.attempts + 1,
            });
        }
    }
}

/// Run `task(device, i)` for every `i in 0..n_tasks` on two device worker
/// pools pulling from one shared double-ended queue, with fault injection
/// and lease-based recovery. Returns results in task order plus per-pool
/// degradation flags, or a structured [`ExecError`] when tasks failed
/// terminally or every pool died with work outstanding.
///
/// The CPU pool (device [`DEVICE_CPU`]) consumes from the front of the
/// queue, the accelerator pool ([`DEVICE_ACCEL`]) from the back — with a
/// length-sorted database this preserves Algorithm 2's assignment of long
/// sequences to the accelerator, but the boundary is wherever the pools
/// *meet*, not a precomputed split point. Chunk sizes follow the
/// [`SplitEstimator`]'s view of each device's share of the remaining
/// work, seeded from `config.initial_accel_fraction` (the static plan)
/// and re-balanced from observed per-device throughput.
///
/// Recovery semantics: every claimed chunk is leased; a worker that dies
/// (task panic or injected kill) releases the unexecuted tail of its
/// chunk to a shared requeue list that *either* pool re-executes (with
/// exponential backoff); a wedged accelerator chunk is reclaimed after
/// `config.accel_timeout_ms`; a pool whose failures exceed
/// `config.failure_budget` — or that is pool-killed by the `injector` —
/// is retired, and the run degrades to the surviving pool. All recovery
/// is observable in `sink` (retries, requeues, lost leases, failures,
/// degraded).
///
/// `cost(i)` is the workload of task `i` in DP cells — used for the
/// estimator and the per-worker metrics recorded into `sink`.
///
/// `tracer` collects a per-worker event journal (chunk spans, queue
/// waits, lease lifecycle, retire/rebalance) when enabled; pass
/// [`Tracer::disabled`] for the zero-cost path. During each task the
/// worker's journal is installed as the thread's ambient journal
/// (`sw_trace::install`), so lower layers (kernels) can emit overflow
/// recompute events without any signature threading.
///
/// Durability hooks ([`DurableControl`]):
///
/// * **prefill** — results a checkpoint already holds are committed
///   before any worker starts and their indices are skipped (no
///   execution, no cost/throughput accounting), so a resumed run spends
///   time only on the remaining work; a `resume_loaded` trace event is
///   emitted.
/// * **drain** — once the [`DrainSignal`] fires, workers finish and
///   commit the chunks they hold, then exit; the first to observe the
///   request emits `drain_started`. The outcome is a successful partial
///   run (`drained = true`).
/// * **checkpoint** — every `checkpoint_every_chunks` committed chunks,
///   one worker invokes `on_checkpoint` with a consistent
///   [`CheckpointView`] (slot lock held, so checkpoints are whole-chunk
///   atomic) and emits `checkpoint_written`.
///
/// * **commit hook** — `on_commit` runs on the committing worker after
///   every chunk commit (and once after the prefill) with a
///   [`CommitView`], so a caller can act on a completed *part* of the
///   task space while the rest of the region still runs.
///
/// Threads: the caller runs the first worker (CPU worker 0, or
/// accelerator worker 0 when the CPU pool is empty) and every other
/// worker is a scoped thread, so `task`, `cost` and the hooks may run on
/// the calling thread. A worker with nothing to claim while other
/// leases are outstanding blocks inside the supervisor until one
/// resolves or expires; it never sleeps on a tick.
///
/// The outcome is the raw slot table: unexecuted tasks are `None`, and
/// deciding whether holes are an error is the caller's job (a drained run
/// legitimately has them; [`DurableOutcome::try_into_results`] is the
/// strict reading).
///
/// # Panics
/// Panics when both pools are empty, when `initial_accel_fraction` is
/// NaN or outside `[0, 1]`, or when a prefill index is out of range.
#[allow(clippy::too_many_arguments)]
pub fn run_dual_pool_durable<T, F, C>(
    n_tasks: usize,
    config: DualPoolConfig,
    injector: &FaultInjector,
    durable: DurableControl<'_, T>,
    cost: C,
    task: F,
    sink: &MetricsSink,
    tracer: &Tracer,
) -> DurableOutcome<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
    C: Fn(usize) -> u64 + Sync,
{
    assert!(
        config.total_workers() >= 1,
        "need at least one worker across the two pools"
    );
    let sup = Supervisor::new(n_tasks, config, sink);
    if n_tasks == 0 {
        return DurableOutcome {
            slots: Vec::new(),
            degraded: [false, false],
            drained: durable.drain.is_some_and(|d| d.is_requested()),
            failures: Vec::new(),
        };
    }

    let slots: Slots<T> = Slots::new(n_tasks);
    let mut skip = vec![false; n_tasks];
    let prefilled = durable.prefill.len() as u64;
    if prefilled > 0 {
        for &(i, _) in &durable.prefill {
            skip[i] = true;
        }
        slots.commit_sparse(durable.prefill);
        if let Some(hook) = durable.on_commit {
            hook(CommitView {
                range: (0, n_tasks),
                slots: &slots,
            });
        }
        // The resume event lands on a supervisor track (worker id past
        // the real pools) so it never interleaves a worker's spans.
        let mut journal = tracer.worker(DEVICE_CPU, config.total_workers());
        journal.emit(EventKind::ResumeLoaded {
            tasks_done: prefilled,
        });
        journal.flush();
    }
    let drain = durable.drain;
    let every = durable.checkpoint_every_chunks;
    let on_checkpoint = durable.on_checkpoint;
    let task_cancelled = durable.task_cancelled;
    let on_commit = durable.on_commit;
    let tasks_done = AtomicU64::new(prefilled);
    let chunks_done = AtomicU64::new(0);
    // Next checkpoint sequence number; doubles as the "one checkpoint at
    // a time" gate (try_lock).
    let ckpt_seq: Mutex<u64> = Mutex::new(0);

    // The one worker loop, run by every worker of both pools.
    let worker = |device: usize, w: usize| {
        let workers = [config.cpu_workers, config.accel_workers][device];
        let mut sample = WorkerSample::new(device, w);
        let mut journal = tracer.worker(device, w);
        'work: loop {
            if let Some(d) = drain {
                if d.is_requested() {
                    if d.announce_once() {
                        journal.emit(EventKind::DrainStarted);
                    }
                    break 'work; // in-flight chunks already committed
                }
            }
            if injector.pool_dead(device) {
                sup.retire(device, &mut journal);
            }
            let wait_start = Instant::now();
            let wait_stamp = journal.stamp();
            let work = match sup.acquire(device, workers, &mut journal) {
                Acquire::Work(wk) => wk,
                Acquire::Done | Acquire::Retired => break 'work,
            };
            sample.queue_wait += wait_start.elapsed();
            let wait_us = journal.since_us(wait_stamp);
            journal.span_from(
                wait_stamp,
                EventKind::QueueWaitBegin,
                EventKind::QueueWaitEnd { us: wait_us },
            );
            let (s, e) = work.range;
            journal.emit(EventKind::ChunkClaim {
                lease: work.lease,
                lo: s,
                hi: e,
                attempts: work.attempts,
            });

            let mut fault = injector.on_chunk_start(device);
            if matches!(fault, Some(FaultKind::Wedge)) && config.lease_timeout(device).is_none() {
                // No timeout means no reclamation: a wedge
                // would hang the run, so it degrades to kill.
                fault = Some(FaultKind::Kill);
            }
            if matches!(fault, Some(FaultKind::KillPool)) {
                sup.retire(device, &mut journal);
            }
            match fault {
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(FaultKind::Wedge) => {
                    // Hold the lease without progress until it
                    // is reclaimed, then die (the reclaimer
                    // charges the failure).
                    while sup.holds(work.lease) {
                        std::thread::sleep(WEDGE_POLL);
                    }
                    break 'work;
                }
                _ => {}
            }
            let kill = matches!(fault, Some(FaultKind::Kill | FaultKind::KillPool));

            if work.attempts > 0 && config.retry_backoff_ms > 0 {
                let factor = 1u64 << (work.attempts - 1).min(6);
                let backoff_ms = config.retry_backoff_ms.saturating_mul(factor);
                journal.emit(EventKind::RetryBackoff {
                    attempts: work.attempts,
                    backoff_ms,
                });
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }

            let exec_start = Instant::now();
            let chunk_stamp = journal.stamp();
            // Hand the journal to the thread-local slot so the
            // task's lower layers (kernel overflow rescue) can
            // emit into the same track; recovered below even if
            // the task panics. The scoped guard keeps whatever
            // journal a caller higher on this thread had
            // installed and puts it back afterwards — without
            // it, an engine nested inside another search (a
            // daemon worker) would silently flush the outer
            // search's journal mid-run.
            let traced = journal.enabled();
            let ambient = traced.then(|| sw_trace::install_scoped(std::mem::take(&mut journal)));
            let mut buf: Vec<(usize, T)> = Vec::with_capacity(e - s);
            let mut chunk_cells = 0u64;
            let mut failed: Option<(usize, String)> = None;
            for (i, &already_done) in skip.iter().enumerate().take(e).skip(s) {
                if already_done {
                    continue; // a checkpoint already holds this task
                }
                if task_cancelled.is_some_and(|c| c(i)) {
                    continue; // cancelled out of the shared region
                }
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if kill {
                        panic!("injected fault: worker killed");
                    }
                    if injector.pool_dead(device) {
                        panic!("injected fault: device pool killed");
                    }
                    task(device, i)
                }));
                match run {
                    Ok(v) => {
                        buf.push((i, v));
                        chunk_cells += cost(i);
                    }
                    Err(p) => {
                        failed = Some((i, panic_message(p)));
                        break;
                    }
                }
            }
            if let Some(scope) = ambient {
                journal = scope.take();
            }
            journal.span_from(
                chunk_stamp,
                EventKind::ChunkStart {
                    lease: work.lease,
                    lo: s,
                    hi: e,
                },
                EventKind::ChunkFinish {
                    lease: work.lease,
                    lo: s,
                    hi: e,
                    cells: chunk_cells,
                },
            );
            let busy = exec_start.elapsed();
            sample.busy += busy;
            sample.tasks += buf.len() as u64;
            sample.cells += chunk_cells;
            sup.progress[device]
                .cells
                .fetch_add(chunk_cells, Ordering::Relaxed);
            sup.progress[device]
                .busy_nanos
                .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            let n_committed = buf.len() as u64;
            if !buf.is_empty() {
                let commit_start = Instant::now();
                slots.commit_sparse(buf);
                sample.queue_wait += commit_start.elapsed();
                if let Some(hook) = on_commit {
                    hook(CommitView {
                        range: work.range,
                        slots: &slots,
                    });
                }
            }
            match failed {
                None => {
                    sample.chunks += 1;
                    if work.retried {
                        sample.retries += 1;
                    }
                    sup.complete(work.lease);
                    let total_tasks =
                        tasks_done.fetch_add(n_committed, Ordering::AcqRel) + n_committed;
                    if let Some(d) = drain {
                        d.note_tasks_done(total_tasks);
                    }
                    let total_chunks = chunks_done.fetch_add(1, Ordering::AcqRel) + 1;
                    if every > 0 && total_chunks.is_multiple_of(every) {
                        if let Some(write) = on_checkpoint {
                            // try_lock: a tick that collides
                            // with an in-flight checkpoint is
                            // dropped, not queued.
                            if let Ok(mut seq) = ckpt_seq.try_lock() {
                                let share = sup.current_accel_share();
                                let now = tasks_done.load(Ordering::Acquire);
                                let bytes = slots.with_slots(|view| {
                                    write(CheckpointView {
                                        slots: view,
                                        tasks_done: now,
                                        accel_share: share,
                                    })
                                });
                                journal.emit(EventKind::CheckpointWritten {
                                    seq: *seq,
                                    tasks_done: now,
                                    bytes,
                                });
                                *seq += 1;
                            }
                        }
                    }
                    // Crash-harness switch: abort the process
                    // only after this chunk (and any due
                    // checkpoint) is durable.
                    injector.on_chunk_committed();
                }
                Some((at, message)) => {
                    sup.release_failed(work.lease, device, at, message, &mut journal);
                    if kill {
                        break 'work; // injected kill: worker is dead
                    }
                }
            }
        }
        sink.record(sample);
        journal.flush();
    };
    // The calling thread is the first worker: an N-worker region spawns
    // N − 1 threads, and a caller that would only block in the join (the
    // daemon's collector) computes instead.
    let mut ids = [
        (DEVICE_CPU, config.cpu_workers),
        (DEVICE_ACCEL, config.accel_workers),
    ]
    .into_iter()
    .flat_map(|(device, n)| (0..n).map(move |w| (device, w)));
    let (device0, w0) = ids.next().expect("at least one worker");
    std::thread::scope(|scope| {
        let worker = &worker;
        for (device, w) in ids {
            scope.spawn(move || worker(device, w));
        }
        worker(device0, w0);
    });

    let state = sup
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    DurableOutcome {
        slots: slots.into_slots(),
        degraded: state.retired,
        drained: drain.is_some_and(|d| d.is_requested()),
        failures: state.errors,
    }
}

/// Run `task(device, i)` for every `i in 0..n_tasks` on two device worker
/// pools, returning results in task order.
///
/// The infallible convenience over [`run_dual_pool_durable`]: no fault
/// injector, no durability hooks, no trace.
///
/// # Panics
/// Panics when both pools are empty, when `initial_accel_fraction` is NaN
/// or outside `[0, 1]`, or with the structured failure summary when tasks
/// failed terminally.
pub fn run_dual_pool<T, F, C>(
    n_tasks: usize,
    config: DualPoolConfig,
    cost: C,
    task: F,
    sink: &MetricsSink,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
    C: Fn(usize) -> u64 + Sync,
{
    run_dual_pool_durable(
        n_tasks,
        config,
        &FaultInjector::none(),
        DurableControl::none(),
        cost,
        task,
        sink,
        &Tracer::disabled(),
    )
    .try_into_results()
    .unwrap_or_else(|e| panic!("dual-pool execution failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_in_task_order() {
        let cfg = ExecutorConfig::dynamic(4);
        let out = run_parallel(100, cfg, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let cfg = ExecutorConfig {
            workers: 8,
            policy: Policy::Dynamic { chunk: 3 },
        };
        let out = run_parallel(1000, cfg, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn static_policy_works() {
        let cfg = ExecutorConfig {
            workers: 3,
            policy: Policy::Static,
        };
        let out = run_parallel(10, cfg, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn guided_policy_works() {
        let cfg = ExecutorConfig {
            workers: 4,
            policy: Policy::guided(),
        };
        let out = run_parallel(57, cfg, |i| i);
        assert_eq!(out.len(), 57);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn results_in_task_order_under_all_policies() {
        // The chunk-buffered commit must preserve task order for every
        // policy and several worker counts (regression for the one-lock-
        // per-task hot loop, which masked ordering bugs by serialising).
        let expect: Vec<usize> = (0..503).map(|i| i * 7 + 1).collect();
        for policy in [
            Policy::Static,
            Policy::Dynamic { chunk: 5 },
            Policy::guided(),
        ] {
            for workers in [2, 3, 8] {
                let cfg = ExecutorConfig { workers, policy };
                let out = run_parallel(503, cfg, |i| i * 7 + 1);
                assert_eq!(out, expect, "{policy:?} with {workers} workers");
            }
        }
    }

    #[test]
    fn single_worker_sequential_path() {
        let cfg = ExecutorConfig::dynamic(1);
        let out = run_parallel(5, cfg, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn empty_loop() {
        let cfg = ExecutorConfig::dynamic(4);
        let out: Vec<usize> = run_parallel(0, cfg, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks() {
        let cfg = ExecutorConfig::dynamic(16);
        let out = run_parallel(3, cfg, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn heavy_shared_state_is_safe() {
        // Workers summing into results; validated against the closed form.
        let cfg = ExecutorConfig {
            workers: 6,
            policy: Policy::Guided { min_chunk: 2 },
        };
        let out = run_parallel(500, cfg, |i| i as u64);
        let total: u64 = out.iter().sum();
        assert_eq!(total, 499 * 500 / 2);
    }

    #[test]
    fn grab_chunk_stress_every_index_exactly_once() {
        // Satellite audit of the Relaxed-load + CAS claim loop: more
        // threads than cores hammering the counter must still claim every
        // index exactly once, for both chunked-dynamic and guided sizing.
        for policy in [Policy::Dynamic { chunk: 3 }, Policy::guided()] {
            let n = 10_007; // prime, so chunk edges never line up
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..16 {
                    scope.spawn(|| {
                        while let Some((a, b)) = grab_chunk(&next, n, 16, policy) {
                            for c in &counts[a..b] {
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{policy:?}: some index executed zero or multiple times"
            );
        }
    }

    #[test]
    fn task_panic_returns_structured_error() {
        let err = try_run_parallel(100, ExecutorConfig::dynamic(4), |i| {
            if i == 37 {
                panic!("task 37 exploded");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].task, 37);
        assert_eq!(err.failures[0].device, None);
        assert!(err.failures[0].message.contains("task 37 exploded"));
        assert_eq!(err.missing, vec![(37, 38)]);
        assert_eq!(err.unexecuted_tasks(), 1);
        let rendered = err.to_string();
        assert!(rendered.contains("task 37"), "got: {rendered}");
    }

    #[test]
    fn task_panic_captured_on_single_worker_and_static() {
        for cfg in [
            ExecutorConfig::dynamic(1),
            ExecutorConfig {
                workers: 3,
                policy: Policy::Static,
            },
        ] {
            let err = try_run_parallel(30, cfg, |i| {
                if i % 10 == 4 {
                    panic!("boom {i}");
                }
                i
            })
            .unwrap_err();
            let mut failed: Vec<usize> = err.failures.iter().map(|f| f.task).collect();
            failed.sort_unstable();
            assert_eq!(failed, vec![4, 14, 24], "{cfg:?}");
            assert_eq!(err.missing, vec![(4, 5), (14, 15), (24, 25)], "{cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "parallel execution failed")]
    fn run_parallel_panics_with_structured_message() {
        run_parallel(10, ExecutorConfig::dynamic(2), |i| {
            if i == 3 {
                panic!("inner failure");
            }
            i
        });
    }

    #[test]
    fn dual_pool_results_in_task_order() {
        let sink = MetricsSink::new();
        let out = run_dual_pool(
            200,
            DualPoolConfig::new(3, 2),
            |_| 1,
            |_device, i| i * 2,
            &sink,
        );
        assert_eq!(out, (0..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dual_pool_every_task_exactly_once() {
        let counter = AtomicU64::new(0);
        let sink = MetricsSink::new();
        let out = run_dual_pool(
            977,
            DualPoolConfig::new(4, 4),
            |_| 1,
            |_d, i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            },
            &sink,
        );
        assert_eq!(counter.load(Ordering::Relaxed), 977);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        // Metrics conservation: the pools together did all the work.
        let total: u64 = sink.devices().iter().map(|d| d.tasks).sum();
        assert_eq!(total, 977);
    }

    #[test]
    fn dual_pool_cpu_takes_prefix_accel_takes_suffix() {
        // Record which device ran each task: device 0's tasks must all be
        // below device 1's (the pools meet at one boundary).
        let owners: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(u64::MAX)).collect();
        let sink = MetricsSink::new();
        run_dual_pool(
            300,
            DualPoolConfig::new(2, 2),
            |_| 1,
            |device, i| owners[i].store(device as u64, Ordering::Relaxed),
            &sink,
        );
        let owned: Vec<u64> = owners.iter().map(|o| o.load(Ordering::Relaxed)).collect();
        assert!(
            owned.iter().all(|&d| d == 0 || d == 1),
            "every task claimed"
        );
        let boundary = owned.iter().position(|&d| d == 1).unwrap_or(owned.len());
        assert!(
            owned[..boundary].iter().all(|&d| d == 0) && owned[boundary..].iter().all(|&d| d == 1),
            "CPU owns a contiguous prefix, accel a contiguous suffix"
        );
    }

    #[test]
    fn dual_pool_single_sided_pools() {
        let sink = MetricsSink::new();
        let out = run_dual_pool(50, DualPoolConfig::new(2, 0), |_| 1, |_d, i| i, &sink);
        assert_eq!(out.len(), 50);
        assert_eq!(sink.device(DEVICE_CPU).tasks, 50);
        assert_eq!(sink.device(DEVICE_ACCEL).tasks, 0);

        let sink2 = MetricsSink::new();
        let out2 = run_dual_pool(50, DualPoolConfig::new(0, 3), |_| 1, |_d, i| i, &sink2);
        assert_eq!(out2.len(), 50);
        assert_eq!(sink2.device(DEVICE_ACCEL).tasks, 50);
    }

    #[test]
    fn dual_pool_empty_loop() {
        let sink = MetricsSink::new();
        let out: Vec<usize> = run_dual_pool(0, DualPoolConfig::new(2, 2), |_| 1, |_d, i| i, &sink);
        assert!(out.is_empty());
    }

    #[test]
    fn dual_pool_more_workers_than_tasks() {
        let sink = MetricsSink::new();
        let out = run_dual_pool(3, DualPoolConfig::new(8, 8), |_| 1, |_d, i| i, &sink);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn dual_pool_metrics_cells_accounted() {
        let sink = MetricsSink::new();
        run_dual_pool(
            100,
            DualPoolConfig::new(2, 2),
            |i| i as u64,
            |_d, i| i,
            &sink,
        );
        let cells: u64 = sink.devices().iter().map(|d| d.cells).sum();
        assert_eq!(cells, (0..100u64).sum::<u64>());
        // Chunks were grabbed and each pool reports one sample per worker.
        let samples = sink.samples();
        assert_eq!(samples.len(), 4);
        assert!(sink.devices().iter().map(|d| d.chunks).sum::<u64>() >= 2);
    }

    #[test]
    #[should_panic(expected = "finite fraction")]
    fn dual_pool_rejects_nan_fraction() {
        let sink = MetricsSink::new();
        let cfg = DualPoolConfig {
            initial_accel_fraction: f64::NAN,
            ..DualPoolConfig::new(1, 1)
        };
        run_dual_pool(10, cfg, |_| 1, |_d, i| i, &sink);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn dual_pool_rejects_empty_pools() {
        let sink = MetricsSink::new();
        run_dual_pool(10, DualPoolConfig::new(0, 0), |_| 1, |_d, i| i, &sink);
    }

    /// A run that completed every task: what the fault drills assert on.
    #[derive(Debug)]
    struct Completed<T> {
        results: Vec<T>,
        degraded: [bool; 2],
    }

    /// The body with every durability hook off — a complete run or the
    /// structured [`ExecError`].
    fn run_hookless<T, F, C>(
        n_tasks: usize,
        config: DualPoolConfig,
        injector: &FaultInjector,
        cost: C,
        task: F,
        sink: &MetricsSink,
        tracer: &Tracer,
    ) -> Result<Completed<T>, ExecError>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
        C: Fn(usize) -> u64 + Sync,
    {
        let out = run_dual_pool_durable(
            n_tasks,
            config,
            injector,
            DurableControl::none(),
            cost,
            task,
            sink,
            tracer,
        );
        let degraded = out.degraded;
        out.try_into_results()
            .map(|results| Completed { results, degraded })
    }

    fn injected(kind: FaultKind, chunk: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan::single(FaultSpec {
            device: DEVICE_ACCEL,
            chunk,
            kind,
        }))
    }

    /// CPU tasks block until every planned fault has fired, so the
    /// accelerator pool is guaranteed to reach its triggering chunk
    /// before the CPU pool can drain the queue — making the fault tests
    /// deterministic instead of racing the (fast) CPU workers.
    fn gate_cpu_on(inj: &FaultInjector, device: usize) {
        if device == DEVICE_CPU {
            while !inj.all_fired() {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    #[test]
    fn dual_pool_injected_kill_recovers() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Kill, 0);
        let out = run_hookless(
            200,
            DualPoolConfig::new(2, 2),
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i * 3
            },
            &sink,
            &Tracer::disabled(),
        )
        .expect("kill of one worker must be recovered");
        assert_eq!(out.results, (0..200).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(out.degraded, [false, false], "one kill is under budget");
        let accel = sink.device(DEVICE_ACCEL);
        assert_eq!(accel.failures, 1);
        assert_eq!(accel.requeues, 1);
        let retries: u64 = sink.devices().iter().map(|d| d.retries).sum();
        assert!(retries >= 1, "the requeued chunk was re-executed");
    }

    #[test]
    fn dual_pool_kill_pool_degrades_to_cpu() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::KillPool, 0);
        // A single accel worker so the pool's first chunk is the trigger:
        // no second accel worker can race a chunk to completion before
        // the pool-dead flag is set.
        let out = run_hookless(
            300,
            DualPoolConfig::new(2, 1),
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i + 7
            },
            &sink,
            &Tracer::disabled(),
        )
        .expect("CPU pool must absorb the dead accelerator's share");
        assert_eq!(out.results, (0..300).map(|i| i + 7).collect::<Vec<_>>());
        assert!(out.degraded[DEVICE_ACCEL], "accel pool was retired");
        assert!(!out.degraded[DEVICE_CPU]);
        let accel = sink.device(DEVICE_ACCEL);
        assert!(accel.degraded);
        assert!(accel.requeues >= 1, "the killed chunk was requeued");
        assert_eq!(sink.device(DEVICE_CPU).tasks, 300, "CPU pool did it all");
    }

    #[test]
    fn dual_pool_wedge_reclaimed_by_timeout() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Wedge, 0);
        let cfg = DualPoolConfig {
            accel_timeout_ms: Some(40),
            ..DualPoolConfig::new(2, 1)
        };
        let out = run_hookless(
            120,
            cfg,
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i
            },
            &sink,
            &Tracer::disabled(),
        )
        .expect("wedged chunk must be reclaimed and re-executed");
        assert!(out.results.iter().enumerate().all(|(i, &v)| v == i));
        let accel = sink.device(DEVICE_ACCEL);
        assert_eq!(accel.lost_leases, 1, "exactly one lease reclaimed");
        assert_eq!(accel.failures, 1);
        assert!(!out.degraded[DEVICE_ACCEL], "one timeout is under budget");
    }

    #[test]
    fn dual_pool_wedge_without_timeout_degenerates_to_kill() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Wedge, 0);
        let out = run_hookless(
            80,
            DualPoolConfig::new(2, 1),
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i
            },
            &sink,
            &Tracer::disabled(),
        )
        .expect("wedge without a timeout must behave like a kill");
        assert!(out.results.iter().enumerate().all(|(i, &v)| v == i));
        let accel = sink.device(DEVICE_ACCEL);
        assert_eq!(accel.failures, 1);
        assert_eq!(accel.lost_leases, 0, "no lease reclaim happened");
    }

    #[test]
    fn dual_pool_delay_fault_only_slows() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Delay(Duration::from_millis(5)), 0);
        let out = run_hookless(
            60,
            DualPoolConfig::new(2, 1),
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i
            },
            &sink,
            &Tracer::disabled(),
        )
        .expect("a delay is not a failure");
        assert!(out.results.iter().enumerate().all(|(i, &v)| v == i));
        let accel = sink.device(DEVICE_ACCEL);
        assert_eq!(accel.failures, 0);
        assert_eq!(accel.requeues, 0);
        assert_eq!(out.degraded, [false, false]);
    }

    #[test]
    fn dual_pool_task_panic_exhausts_retries() {
        // Task 13 fails deterministically: after max_chunk_retries
        // re-executions it is reported terminally, everything else is
        // salvaged.
        let sink = MetricsSink::new();
        let cfg = DualPoolConfig {
            failure_budget: 10,
            retry_backoff_ms: 0,
            ..DualPoolConfig::new(1, 0)
        };
        let err = run_hookless(
            40,
            cfg,
            &FaultInjector::none(),
            |_| 1,
            |_d, i| {
                if i == 13 {
                    panic!("task 13 always fails");
                }
                i
            },
            &sink,
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert_eq!(err.missing, vec![(13, 14)], "only task 13 is missing");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].task, 13);
        assert_eq!(err.failures[0].device, Some(DEVICE_CPU));
        assert!(err.failures[0].message.contains("always fails"));
        // 1 initial failure + max_chunk_retries re-execution failures.
        assert_eq!(sink.device(DEVICE_CPU).failures, 3);
    }

    #[test]
    fn traced_kill_shows_lease_loss_requeue_and_reexecution_in_order() {
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Kill, 0);
        let tracer = Tracer::full();
        let out = run_hookless(
            200,
            DualPoolConfig::new(2, 2),
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i
            },
            &sink,
            &tracer,
        )
        .expect("kill must be recovered");
        assert!(out.results.iter().enumerate().all(|(i, &v)| v == i));
        let tl = tracer.timeline();
        // Workers that never claimed work flush nothing, so the track
        // count is at most one per worker — but both pools must appear:
        // the killed accel worker claimed a chunk before dying, and a CPU
        // worker re-executed it.
        assert!(tl.tracks.len() <= 4, "at most one track per worker");
        assert!(tl.tracks.iter().any(|t| t.device == DEVICE_ACCEL));
        assert!(tl.tracks.iter().any(|t| t.device == DEVICE_CPU));
        assert!(tl.count("lease_lost") >= 1, "kill shows a lost lease");
        assert!(tl.count("lease_requeued") >= 1);
        let evs = tl.events_sorted();
        let lost_t = evs
            .iter()
            .find_map(|(_, _, e)| match e.kind {
                EventKind::LeaseLost { .. } => Some(e.t_us),
                _ => None,
            })
            .expect("lease_lost event");
        let requeue_t = evs
            .iter()
            .find_map(|(_, _, e)| match e.kind {
                EventKind::LeaseRequeued { .. } => Some(e.t_us),
                _ => None,
            })
            .expect("lease_requeued event");
        let reexec_t = evs
            .iter()
            .find_map(|(_, _, e)| match e.kind {
                EventKind::ChunkClaim { attempts, .. } if attempts > 0 => Some(e.t_us),
                _ => None,
            })
            .expect("re-execution claim with attempts > 0");
        assert!(lost_t <= requeue_t, "loss precedes requeue");
        assert!(requeue_t <= reexec_t, "requeue precedes re-execution");
        // The lost lease landed on the accel pool's track.
        assert!(evs.iter().any(|(d, _, e)| {
            matches!(e.kind, EventKind::LeaseLost { victim, .. } if victim == DEVICE_ACCEL)
                && *d < 2
        }));
        // The full export round-trips through the schema validator.
        let text = sw_trace::export::jsonl(&tl);
        let report = sw_trace::validate::validate_jsonl(&text).expect("schema-valid trace");
        assert!(report.spans > 0, "chunk spans present and balanced");
    }

    #[test]
    fn untraced_run_produces_no_timeline() {
        let sink = MetricsSink::new();
        let tracer = Tracer::disabled();
        let out = run_hookless(
            64,
            DualPoolConfig::new(2, 1),
            &FaultInjector::none(),
            |_| 1,
            |_d, i| i,
            &sink,
            &tracer,
        )
        .expect("clean run");
        assert_eq!(out.results.len(), 64);
        assert_eq!(tracer.timeline().total_events(), 0);
    }

    #[test]
    fn durable_prefill_skips_completed_tasks() {
        // A "resumed" run: half the tasks already committed. The workers
        // must not re-execute them, and the slot table must carry the
        // prefilled values verbatim.
        let executed = AtomicU64::new(0);
        let sink = MetricsSink::new();
        let prefill: Vec<(usize, usize)> = (0..100).step_by(2).map(|i| (i, i * 10)).collect();
        let out = run_dual_pool_durable(
            100,
            DualPoolConfig::new(2, 1),
            &FaultInjector::none(),
            DurableControl {
                prefill,
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| {
                executed.fetch_add(1, Ordering::Relaxed);
                i * 10
            },
            &sink,
            &Tracer::disabled(),
        );
        assert!(!out.drained);
        assert_eq!(out.tasks_done(), 100);
        let results: Vec<usize> = out.slots.into_iter().map(Option::unwrap).collect();
        assert_eq!(results, (0..100).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(
            executed.load(Ordering::Relaxed),
            50,
            "only the odd (non-checkpointed) half was executed"
        );
        // Skipped tasks contribute no throughput accounting.
        assert_eq!(sink.devices().iter().map(|d| d.tasks).sum::<u64>(), 50);
    }

    #[test]
    fn durable_resume_emits_trace_event() {
        let sink = MetricsSink::new();
        let tracer = Tracer::full();
        let out = run_dual_pool_durable(
            20,
            DualPoolConfig::new(1, 1),
            &FaultInjector::none(),
            DurableControl {
                prefill: vec![(0, 0usize), (1, 1)],
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| i,
            &sink,
            &tracer,
        );
        assert_eq!(out.tasks_done(), 20);
        let tl = tracer.timeline();
        assert_eq!(tl.count("resume_loaded"), 1);
        let text = sw_trace::export::jsonl(&tl);
        sw_trace::validate::validate_jsonl(&text).expect("schema-valid trace with resume event");
    }

    #[test]
    fn durable_drain_stops_with_partial_results() {
        // Drain after ~half the tasks: the run must stop early, report
        // drained, and every committed slot must hold the right value —
        // in-flight chunks finish, nothing is torn.
        let drain = DrainSignal::after_tasks(32);
        let sink = MetricsSink::new();
        let tracer = Tracer::full();
        let out = run_dual_pool_durable(
            1000,
            DualPoolConfig {
                min_chunk: 4,
                ..DualPoolConfig::new(2, 2)
            },
            &FaultInjector::none(),
            DurableControl {
                drain: Some(&drain),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| {
                // Slow tasks so the drain lands mid-run, not after it.
                std::thread::sleep(Duration::from_micros(300));
                i * 2
            },
            &sink,
            &tracer,
        );
        assert!(out.drained, "drain signal must mark the outcome");
        let done = out.tasks_done();
        assert!(done >= 32, "drain fires only after the threshold");
        assert!(done < 1000, "drain must stop the run early");
        for (i, slot) in out.slots.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, i * 2, "committed slot {i} is intact");
            }
        }
        assert!(out.failures.is_empty());
        assert_eq!(tracer.timeline().count("drain_started"), 1);
    }

    #[test]
    fn durable_task_cancel_drops_only_probed_tasks() {
        // Two interleaved "queries" share one region: even tasks belong
        // to query A, odd tasks to query B. B is cancelled before the
        // region starts. A must complete fully, B's slots must stay
        // empty, and the region must NOT report drained — a per-task
        // cancel is not a region drain.
        let executed = AtomicU64::new(0);
        let sink = MetricsSink::new();
        let cancelled = |i: usize| i % 2 == 1;
        let out = run_dual_pool_durable(
            100,
            DualPoolConfig {
                min_chunk: 4,
                ..DualPoolConfig::new(2, 1)
            },
            &FaultInjector::none(),
            DurableControl {
                task_cancelled: Some(&cancelled),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| {
                executed.fetch_add(1, Ordering::Relaxed);
                i * 7
            },
            &sink,
            &Tracer::disabled(),
        );
        assert!(!out.drained, "task cancel must not mark the region drained");
        assert!(out.failures.is_empty());
        assert_eq!(out.tasks_done(), 50);
        for (i, slot) in out.slots.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(slot.as_ref(), Some(&(i * 7)), "batch-mate task {i} intact");
            } else {
                assert!(slot.is_none(), "cancelled task {i} must not run");
            }
        }
        assert_eq!(executed.load(Ordering::Relaxed), 50);
        // Dropped tasks contribute nothing to throughput accounting.
        assert_eq!(sink.devices().iter().map(|d| d.tasks).sum::<u64>(), 50);
    }

    #[test]
    fn durable_checkpoint_callback_fires_at_interval() {
        let sink = MetricsSink::new();
        let tracer = Tracer::full();
        let calls = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        let on_ckpt = |view: CheckpointView<'_, usize>| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Invocations are serialised by the gate and read the task
            // count under it, so successive views never go backwards.
            let before = max_seen.fetch_max(view.tasks_done, Ordering::Relaxed);
            assert!(before <= view.tasks_done, "views are non-decreasing");
            assert!(view.tasks_done <= 200);
            // The view is whole-chunk consistent: every present slot
            // holds its deterministic value.
            for (i, slot) in view.slots.iter().enumerate() {
                if let Some(v) = slot {
                    assert_eq!(*v, i + 1);
                }
            }
            assert!((0.0..=1.0).contains(&view.accel_share));
            view.tasks_done // "bytes written"
        };
        let out = run_dual_pool_durable(
            200,
            DualPoolConfig {
                min_chunk: 2,
                ..DualPoolConfig::new(2, 1)
            },
            &FaultInjector::none(),
            DurableControl {
                checkpoint_every_chunks: 1,
                on_checkpoint: Some(&on_ckpt),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| i + 1,
            &sink,
            &tracer,
        );
        assert_eq!(out.tasks_done(), 200);
        let n = calls.load(Ordering::Relaxed);
        // The gate is a try_lock: a tick that collides with a checkpoint
        // in flight is dropped, so the LAST chunk's tick may be the one
        // dropped and no view is promised to see all 200 tasks.
        assert!(n >= 1, "interval 1 must checkpoint at least once");
        let tl = tracer.timeline();
        assert_eq!(
            tl.count("checkpoint_written") as u64,
            n,
            "one trace event per invocation"
        );
    }

    #[test]
    fn durable_drain_with_faults_keeps_committed_slots_sound() {
        // Recovery and drain compose: a kill fault fires, its chunk is
        // requeued, and a drain lands while the run is in flight. All
        // committed slots must still be correct.
        let drain = DrainSignal::after_tasks(40);
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Kill, 0);
        let out = run_dual_pool_durable(
            500,
            DualPoolConfig {
                min_chunk: 4,
                ..DualPoolConfig::new(2, 2)
            },
            &inj,
            DurableControl {
                drain: Some(&drain),
                ..DurableControl::none()
            },
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                std::thread::sleep(Duration::from_micros(200));
                i + 11
            },
            &sink,
            &Tracer::disabled(),
        );
        assert!(out.drained);
        for (i, slot) in out.slots.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, i + 11);
            }
        }
    }

    /// Acquire entries made by the calling thread while `f` runs.
    fn acquires_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = ACQUIRE_CALLS.with(|c| c.get());
        let out = f();
        (out, ACQUIRE_CALLS.with(|c| c.get()) - before)
    }

    #[test]
    fn idle_worker_waits_on_the_lease_table_not_a_tick() {
        // 1 + 1 workers, 8 tasks: the CPU worker (this thread) holds its
        // first task until the accelerator worker has claimed its chunk,
        // whose first task then sleeps 50 ms. The CPU worker drains the
        // rest in five chunks and idles for the remainder. It enters
        // `acquire` once per chunk plus once for the wait — a 200 µs poll
        // entered it ~250 times.
        let accel_started = std::sync::atomic::AtomicBool::new(false);
        let sink = MetricsSink::new();
        let (out, acquires) = acquires_during(|| {
            run_dual_pool(
                8,
                DualPoolConfig::new(1, 1),
                |_| 1,
                |device, i| {
                    if device == DEVICE_CPU {
                        while !accel_started.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else if !accel_started.swap(true, Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    i
                },
                &sink,
            )
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(sink.device(DEVICE_ACCEL).tasks >= 1, "accel held a lease");
        let cpu_chunks = sink.device(DEVICE_CPU).chunks as usize;
        assert_eq!(
            acquires,
            cpu_chunks + 1,
            "one acquire per chunk and one that waits for the region's end"
        );
    }

    #[test]
    fn wedged_lease_is_reclaimed_at_its_expiry_by_a_waiting_worker() {
        // The accelerator worker wedges on its first chunk; the CPU worker
        // (this thread) drains the queue and then has nothing to wake it
        // but the lease's own expiry — which must still fire on time.
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Wedge, 0);
        let cfg = DualPoolConfig {
            accel_timeout_ms: Some(30),
            ..DualPoolConfig::new(1, 1)
        };
        let t0 = Instant::now();
        let (out, acquires) = acquires_during(|| {
            run_hookless(
                8,
                cfg,
                &inj,
                |_| 1,
                |d, i| {
                    gate_cpu_on(&inj, d);
                    i
                },
                &sink,
                &Tracer::disabled(),
            )
        });
        let out = out.expect("wedged chunk must be reclaimed and re-executed");
        assert_eq!(out.results, (0..8).collect::<Vec<_>>());
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(sink.device(DEVICE_ACCEL).lost_leases, 1);
        assert_eq!(sink.device(DEVICE_CPU).tasks, 8, "CPU re-ran the chunk");
        let cpu_chunks = sink.device(DEVICE_CPU).chunks as usize;
        assert_eq!(
            acquires,
            cpu_chunks + 1,
            "the wait that ends in the reclaim is one acquire, not a poll loop"
        );
    }

    #[test]
    fn caller_is_the_first_worker() {
        let me = std::thread::current().id();
        for cfg in [DualPoolConfig::new(1, 0), DualPoolConfig::new(0, 1)] {
            let sink = MetricsSink::new();
            let ran_on = run_dual_pool(20, cfg, |_| 1, |_d, _i| std::thread::current().id(), &sink);
            assert!(
                ran_on.iter().all(|&t| t == me),
                "{cfg:?}: no thread spawned"
            );
        }
        // Flat executor: the spawned worker holds its first task until the
        // caller has run one, so the caller provably takes part.
        let caller_ran = std::sync::atomic::AtomicBool::new(false);
        let give_up = Instant::now() + Duration::from_secs(5);
        let ran_on = run_parallel(16, ExecutorConfig::dynamic(2), |_i| {
            let id = std::thread::current().id();
            if id == me {
                caller_ran.store(true, Ordering::SeqCst);
            }
            while !caller_ran.load(Ordering::SeqCst) && Instant::now() < give_up {
                std::thread::yield_now();
            }
            id
        });
        assert!(ran_on.contains(&me), "the caller is worker 0");
    }

    #[test]
    fn commit_hook_sees_the_prefill_and_every_chunk() {
        let sink = MetricsSink::new();
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let hook = |view: CommitView<'_, usize>| {
            let (s, e) = view.range;
            // Prefilled tasks 0 and 1 are present from the first call on;
            // a chunk's own tasks are present when its hook runs.
            view.with_slots(|slots| {
                assert!(slots[0].is_some() && slots[1].is_some());
                if (s, e) != (0, 40) {
                    assert!(slots[s..e].iter().all(|v| v.is_some()), "{s}..{e}");
                }
            });
            seen.lock().unwrap().push((s, e));
        };
        let out = run_dual_pool_durable(
            40,
            DualPoolConfig::new(1, 1),
            &FaultInjector::none(),
            DurableControl {
                prefill: vec![(0, 0usize), (1, 1)],
                on_commit: Some(&hook),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i| i,
            &sink,
            &Tracer::disabled(),
        );
        assert_eq!(out.tasks_done(), 40);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen[0], (0, 40), "the prefill commit comes first");
        let mut chunks = seen[1..].to_vec();
        chunks.sort_unstable();
        assert_eq!(chunks.first().map(|c| c.0), Some(0));
        assert_eq!(chunks.last().map(|c| c.1), Some(40));
        assert!(
            chunks.windows(2).all(|w| w[0].1 == w[1].0),
            "chunk ranges tile the task space: {chunks:?}"
        );
    }

    #[test]
    fn dual_pool_seeded_fault_matrix_recovers() {
        // The CI fault matrix in miniature: several seeds, each a random
        // kill/delay plan against the accelerator pool; every run must
        // still produce complete, correct results.
        for seed in 0..4u64 {
            let plan = FaultPlan::seeded(seed, 2, DEVICE_ACCEL, 6);
            let inj = FaultInjector::new(plan);
            let sink = MetricsSink::new();
            let cfg = DualPoolConfig {
                accel_timeout_ms: Some(200),
                ..DualPoolConfig::new(2, 2)
            };
            let out = run_hookless(
                150,
                cfg,
                &inj,
                |_| 1,
                |_d, i| i * 5,
                &sink,
                &Tracer::disabled(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                out.results,
                (0..150).map(|i| i * 5).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }
}
