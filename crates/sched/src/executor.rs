//! The real multi-threaded executor: one region body for every search.
//!
//! [`run_dual_pool_durable`] runs a task closure over `0..n_tasks` on two
//! device worker pools (CPU share and accelerator share) that pull lane
//! batches from the two ends of one shared work queue, with an adaptive
//! feedback estimator re-balancing the remaining queue from observed
//! per-device throughput. A pool may be empty: the single-device search
//! engine runs a CPU-only region (`DualPoolConfig::new(threads, 0)`).
//! Results come back in task order. Every claimed chunk is covered by a
//! *lease*; a chunk whose holder dies (panic, injected kill) is requeued
//! and re-executed by a surviving worker, a chunk whose holder wedges is
//! reclaimed after `accel_timeout_ms`, and a pool that exhausts its
//! failure budget is retired so the run *degrades* to the other pool
//! instead of hanging or crashing. A task that keeps panicking is
//! surfaced as a structured [`ExecError`] naming its index. Each pool's
//! counts and recovery events land in its record in a [`MetricsSink`];
//! resume prefill, drain, per-task cancel and a commit hook hang off
//! [`DurableControl`]. [`run_dual_pool`] is the one convenience over it:
//! no faults, no hooks, no trace, panic on failure.
//!
//! Built on std scoped threads + atomics rather than a work-stealing pool
//! so the *policy* is exactly the one being studied — a generic pool
//! would silently replace the schedule under test. Workers buffer each
//! chunk's results locally and commit them under a single lock
//! acquisition, so the slot mutex is taken once per chunk, not per task.
//! The calling thread is the first worker: `N` workers cost `N − 1`
//! spawns and the caller computes instead of blocking in the join. No
//! worker polls: one whose end of the queue has drained while another
//! still holds a lease sleeps on the supervisor's condvar until a lease
//! event (commit, failure, reclaim, retirement) or the earliest lease
//! expiry, so a region ends at its last commit.
//!
//! Because task results are pure functions of the task index, re-executing
//! a requeued chunk (or double-executing one whose slow holder finished
//! after its lease was reclaimed) commits identical values — recovery
//! never changes the output, only who computed it.

use crate::drain::DrainSignal;
use crate::fault::{FaultInjector, FaultKind};
use crate::metrics::{DeviceMetrics, MetricsSink};
use crate::policy::{
    adaptive_chunk, ClaimOrder, DualQueue, SplitEstimator, DEVICE_ACCEL, DEVICE_CPU,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// One task that failed (panicked) during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Device pool the failing worker belonged to.
    pub device: usize,
    /// The task index whose execution panicked.
    pub task: usize,
    /// The captured panic message.
    pub message: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            DEVICE_CPU => write!(f, "task {} (cpu pool): {}", self.task, self.message),
            DEVICE_ACCEL => write!(f, "task {} (accel pool): {}", self.task, self.message),
            d => write!(f, "task {} (device {d}): {}", self.task, self.message),
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

/// Result slot table: workers buffer one chunk locally, then commit the
/// whole chunk under a single lock acquisition, so whoever reads it under
/// the lock sees whole chunks or none.
type Slots<T> = Mutex<Vec<Option<T>>>;

/// Commit an explicitly-indexed (possibly non-contiguous) batch of
/// results into the slots still empty, and return the ids it filled: a
/// resumed run skips the indices a checkpoint already holds, so a
/// chunk's executed set can have holes, and a lease reclaimed from a slow
/// holder is committed twice, the second time filling nothing.
fn commit<T>(slots: &Slots<T>, buf: Vec<(usize, T)>) -> Vec<usize> {
    let mut guard = lock_unpoisoned(slots);
    let mut filled = Vec::with_capacity(buf.len());
    for (i, r) in buf {
        if guard[i].is_none() {
            guard[i] = Some(r);
            filled.push(i);
        }
    }
    filled
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

/// Configuration of the dual-pool executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DualPoolConfig {
    /// Worker threads in the CPU-share pool (front of the queue).
    pub cpu_workers: usize,
    /// Worker threads in the accelerator-share pool (back of the queue).
    pub accel_workers: usize,
    /// The static plan's accelerator share — the estimator's seed until
    /// both pools have observed throughput.
    pub initial_accel_fraction: f64,
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

/// What a [`DurableControl::on_commit`] hook is handed: the ids of the
/// slots a commit just filled, how the chunk ended, the estimator's
/// share, and the slot table on demand.
pub struct CommitView<'v, T> {
    /// Task ids whose slots this commit filled, in claim order (the
    /// prefilled ids for the resume prefill). A chunk's prefilled
    /// (skipped) and cancelled tasks are not among them, and neither is
    /// a task another holder of the same lease committed first.
    pub tasks: &'v [usize],
    /// True when the chunk completed cleanly; false for the resume
    /// prefill and for the partial commit of a chunk that failed.
    pub clean: bool,
    /// The split estimator's current accelerator share.
    pub accel_share: f64,
    slots: &'v Slots<T>,
    journal: &'v mut WorkerJournal,
}

impl<T> CommitView<'_, T> {
    /// Run `f` over the slot table, under its lock: whole chunks are
    /// present or absent.
    pub fn with_slots<R>(&self, f: impl FnOnce(&[Option<T>]) -> R) -> R {
        f(&lock_unpoisoned(self.slots))
    }

    /// Emit `kind` on the committing worker's trace track (what the hook
    /// did, e.g. `checkpoint_written`); a no-op when tracing is off.
    pub fn emit(&mut self, kind: EventKind) {
        self.journal.emit(kind);
    }
}

/// Region control for [`run_dual_pool_durable`]: the claim order, and the
/// durability hooks — resume prefill, a drain signal, a per-task cancel
/// probe and a commit hook.
///
/// [`DurableControl::none`] is the identity order with every hook off:
/// the run then either completes every task or fails terminally, and
/// [`DurableOutcome::try_into_results`] tells which.
pub struct DurableControl<'a, T> {
    /// The order the queue hands tasks out in, cut into segments no
    /// claimed chunk spans. Everything else here is keyed by task id,
    /// not queue position.
    pub order: ClaimOrder,
    /// Task results a checkpoint already holds: `(task index, result)`.
    /// Prefilled indices are skipped by the workers (no execution, no
    /// cost accounting) and appear verbatim in the outcome's slots.
    pub prefill: Vec<(usize, T)>,
    /// Cooperative stop: when requested, workers finish the chunks they
    /// hold, commit them, and exit; the outcome is marked drained and
    /// carries whatever completed.
    pub drain: Option<&'a DrainSignal>,
    /// Per-task cancellation probe, checked immediately before each task
    /// executes. A `true` answer drops the task — no execution, no commit,
    /// no cost accounting — leaving its slot `None` while the rest of the
    /// region runs to completion. This is what lets one query in a shared
    /// multi-query region be cancelled without draining its batch-mates:
    /// the region-level [`DurableControl::drain`] stops *everything*, the
    /// probe removes *one query's* tasks.
    #[allow(clippy::type_complexity)]
    pub task_cancelled: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
    /// Commit hook: called on the committing worker, outside the slot
    /// lock, after every commit that filled a slot — a clean chunk's, a
    /// failed chunk's partial one — and once after the resume prefill:
    /// how a caller learns a *part* of the task space (one query of a
    /// shared region) is complete, and where it persists progress. Each
    /// task is handed to the hook once: a lease reclaimed from a slow
    /// holder commits twice, and the later commit fills nothing.
    #[allow(clippy::type_complexity)]
    pub on_commit: Option<&'a (dyn Fn(CommitView<'_, T>) + Sync)>,
}

impl<T> DurableControl<'_, T> {
    /// The identity order; no prefill, no drain, no hooks.
    pub fn none() -> Self {
        DurableControl {
            order: ClaimOrder::identity(),
            prefill: Vec::new(),
            drain: None,
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

/// An active chunk lease: `device`'s pool claimed the queue positions
/// `range` and has not yet committed or released it.
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
    /// Ranges released by failed, timed-out or killed workers, each with
    /// the times its execution already failed: taken before fresh queue
    /// grabs, most recent first (LIFO keeps the working set warm).
    requeue: Vec<((usize, usize), u32)>,
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
    fn new(queue: DualQueue, config: DualPoolConfig, sink: &'a MetricsSink) -> Self {
        Supervisor {
            config,
            estimator: SplitEstimator::new(config.initial_accel_fraction),
            progress: [DeviceProgress::default(), DeviceProgress::default()],
            state: Mutex::new(RecoveryState {
                queue,
                requeue: Vec::new(),
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
        self.sink.update(device, |m| m.failures += 1);
        if st.failures[device] > self.config.failure_budget && !st.retired[device] {
            st.retired[device] = true;
            self.sink.update(device, |m| m.degraded = true);
            jr.emit(EventKind::PoolRetired { device });
        }
    }

    /// Retire `device`'s pool immediately (injected pool kill).
    fn retire(&self, device: usize, jr: &mut WorkerJournal) {
        let mut st = self.lock();
        if !st.retired[device] {
            st.retired[device] = true;
            self.sink.update(device, |m| m.degraded = true);
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
                let k = adaptive_chunk(st.queue.remaining(), my_share, pool_workers.max(1));
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
                st.requeue.push((lease.range, lease.attempts + 1));
                self.sink.update(lease.device, |m| m.lost_leases += 1);
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

    /// Release a lease whose execution panicked at queue position
    /// `failed_at`, task `task` (everything before it was committed). The
    /// unexecuted tail is requeued with an incremented attempt count, or
    /// — once retries are exhausted — the failing task is reported
    /// terminally and the rest of the chunk salvaged.
    fn release_failed(
        &self,
        id: u64,
        device: usize,
        (failed_at, task): (usize, usize),
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
                device,
                task,
                message,
            });
            if failed_at + 1 < end {
                st.requeue.push(((failed_at + 1, end), 0));
                self.sink.update(device, |m| m.requeues += 1);
                jr.emit(EventKind::LeaseRequeued {
                    lease: id,
                    lo: failed_at + 1,
                    hi: end,
                    attempts: 0,
                });
            }
        } else {
            st.requeue.push(((failed_at, end), lease.attempts + 1));
            self.sink.update(device, |m| m.requeues += 1);
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
/// Claim order: the pools claim queue *positions*, and `durable.order`
/// ([`ClaimOrder`]) maps each position to a task id. A chunk never spans
/// two of the order's segments, so a segment's last commit never waits on
/// another segment's task. Everything the region hands out or keeps is
/// keyed by task id — the `task` and `cost` closures, the cancel probe,
/// the slots, the prefill, [`TaskError::task`], the commit view — while
/// trace chunk and lease events carry queue positions (equal to task ids
/// under the identity order of [`DurableControl::none`], which claims
/// exactly as an unordered queue would).
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
/// estimator and the pool records in `sink`.
///
/// `tracer` collects a per-worker event journal (chunk spans, queue
/// waits, lease lifecycle, retire/rebalance) when enabled; pass
/// [`Tracer::disabled`] for the zero-cost path. `task(device, i,
/// journal)` is handed its worker's journal, so what the task itself
/// observes (overflow recomputes) lands on the same track.
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
/// * **commit hook** — [`DurableControl::on_commit`]; a clean chunk's
///   hook runs after its lease completes and before the injector's
///   crash-harness switch, so what the hook persisted is on disk when the
///   process aborts. The executor knows no checkpoint: a commit log is a
///   hook that appends each clean chunk.
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
/// NaN or outside `[0, 1]`, when a non-empty order is not a permutation
/// of `0..n_tasks`, or when a prefill index is out of range.
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
    F: Fn(usize, usize, &mut WorkerJournal) -> T + Sync,
    C: Fn(usize) -> u64 + Sync,
{
    assert!(
        config.total_workers() >= 1,
        "need at least one worker across the two pools"
    );
    let (order, queue) = durable.order.into_queue(n_tasks);
    let sup = Supervisor::new(queue, config, sink);
    if n_tasks == 0 {
        return DurableOutcome {
            slots: Vec::new(),
            degraded: [false, false],
            drained: durable.drain.is_some_and(|d| d.is_requested()),
            failures: Vec::new(),
        };
    }

    let slots: Slots<T> = Mutex::new((0..n_tasks).map(|_| None).collect());
    let mut skip = vec![false; n_tasks];
    let prefilled_tasks = commit(&slots, durable.prefill);
    let prefilled = prefilled_tasks.len() as u64;
    if prefilled > 0 {
        for &i in &prefilled_tasks {
            skip[i] = true;
        }
        // The resume event lands on a supervisor track (worker id past
        // the real pools) so it never interleaves a worker's spans.
        let mut journal = tracer.worker(DEVICE_CPU, config.total_workers());
        if let Some(hook) = durable.on_commit {
            hook(CommitView {
                tasks: &prefilled_tasks,
                clean: false,
                accel_share: sup.current_accel_share(),
                slots: &slots,
                journal: &mut journal,
            });
        }
        journal.emit(EventKind::ResumeLoaded {
            tasks_done: prefilled,
        });
        journal.flush();
    }
    let drain = durable.drain;
    let task_cancelled = durable.task_cancelled;
    let on_commit = durable.on_commit;
    let tasks_done = AtomicU64::new(prefilled);

    // The one worker loop, run by every worker of both pools.
    let worker = |device: usize, w: usize| {
        let workers = [config.cpu_workers, config.accel_workers][device];
        let mut mine = DeviceMetrics::default();
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
            mine.queue_wait += wait_start.elapsed();
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
                Some(FaultKind::Delay(d)) => {
                    std::thread::sleep(d);
                    // Slept past its lease: the reclaimer re-runs the
                    // chunk, so this worker drops it. Only a pool with a
                    // lease timeout can lose one.
                    if config.lease_timeout(device).is_some() && !sup.holds(work.lease) {
                        continue 'work;
                    }
                }
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
            let mut buf: Vec<(usize, T)> = Vec::with_capacity(e - s);
            let mut chunk_cells = 0u64;
            let mut failed: Option<((usize, usize), String)> = None;
            for (pos, &i) in (s..e).zip(&order[s..e]) {
                if skip[i] {
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
                    task(device, i, &mut journal)
                }));
                match run {
                    Ok(v) => {
                        buf.push((i, v));
                        chunk_cells += cost(i);
                    }
                    Err(p) => {
                        failed = Some(((pos, i), panic_message(p)));
                        break;
                    }
                }
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
            mine.busy += busy;
            mine.tasks += buf.len() as u64;
            mine.cells += chunk_cells;
            sup.progress[device]
                .cells
                .fetch_add(chunk_cells, Ordering::Relaxed);
            sup.progress[device]
                .busy_nanos
                .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            let mut filled = Vec::new();
            if !buf.is_empty() {
                let commit_start = Instant::now();
                filled = commit(&slots, buf);
                mine.queue_wait += commit_start.elapsed();
            }
            let clean = failed.is_none();
            if clean {
                mine.chunks += 1;
                mine.retries += u64::from(work.retried);
                sup.complete(work.lease);
                let n_filled = filled.len() as u64;
                let total_tasks = tasks_done.fetch_add(n_filled, Ordering::AcqRel) + n_filled;
                if let Some(d) = drain {
                    d.note_tasks_done(total_tasks);
                }
            }
            if let Some(hook) = on_commit.filter(|_| !filled.is_empty()) {
                hook(CommitView {
                    tasks: &filled,
                    clean,
                    accel_share: sup.current_accel_share(),
                    slots: &slots,
                    journal: &mut journal,
                });
            }
            match failed {
                // Crash-harness switch: abort the process only after this
                // chunk (and whatever its hook persisted) is durable.
                None => injector.on_chunk_committed(),
                Some((at, message)) => {
                    sup.release_failed(work.lease, device, at, message, &mut journal);
                    if kill {
                        break 'work; // injected kill: worker is dead
                    }
                }
            }
        }
        sink.update(device, |m| {
            m.workers += 1;
            m.tasks += mine.tasks;
            m.chunks += mine.chunks;
            m.busy += mine.busy;
            m.queue_wait += mine.queue_wait;
            m.cells += mine.cells;
            m.retries += mine.retries;
        });
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
        slots: slots.into_inner().unwrap_or_else(PoisonError::into_inner),
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
        |device, i, _: &mut WorkerJournal| task(device, i),
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

    /// Both pools' records.
    fn both(sink: &MetricsSink) -> [DeviceMetrics; 2] {
        [DEVICE_CPU, DEVICE_ACCEL].map(|d| sink.device(d))
    }

    #[test]
    fn dual_pool_results_in_task_order() {
        // The chunk-buffered commit must preserve task order for both
        // pools together and for CPU-only regions (the flat search) at
        // every worker count.
        let expect: Vec<usize> = (0..503).map(|i| i * 7 + 1).collect();
        for (cpu, accel) in [(3, 2), (1, 0), (2, 0), (3, 0), (8, 0)] {
            let sink = MetricsSink::new();
            let out = run_dual_pool(
                503,
                DualPoolConfig::new(cpu, accel),
                |_| 1,
                |_device, i| i * 7 + 1,
                &sink,
            );
            assert_eq!(out, expect, "{cpu} + {accel} workers");
        }
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
        let total: u64 = both(&sink).iter().map(|d| d.tasks).sum();
        assert_eq!(total, 977);
    }

    #[test]
    fn dual_pool_cpu_takes_prefix_accel_takes_suffix() {
        // Record which device ran each task: device 0's tasks must all be
        // below device 1's (the pools meet at one boundary) — under the
        // empty order and under the same identity spelt out as a
        // one-segment permutation.
        let spelt_out = || ClaimOrder::from_segments([(0..300).collect::<Vec<_>>()]);
        for order in [ClaimOrder::identity(), spelt_out()] {
            let owners: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(u64::MAX)).collect();
            let sink = MetricsSink::new();
            run_dual_pool_durable(
                300,
                DualPoolConfig::new(2, 2),
                &FaultInjector::none(),
                DurableControl {
                    order,
                    ..DurableControl::none()
                },
                |_| 1,
                |device, i, _: &mut WorkerJournal| {
                    owners[i].store(device as u64, Ordering::Relaxed)
                },
                &sink,
                &Tracer::disabled(),
            );
            let owned: Vec<u64> = owners.iter().map(|o| o.load(Ordering::Relaxed)).collect();
            assert!(
                owned.iter().all(|&d| d == 0 || d == 1),
                "every task claimed"
            );
            let boundary = owned.iter().position(|&d| d == 1).unwrap_or(owned.len());
            assert!(
                owned[..boundary].iter().all(|&d| d == 0)
                    && owned[boundary..].iter().all(|&d| d == 1),
                "CPU owns a contiguous prefix, accel a contiguous suffix"
            );
        }
        // One worker per side claims deterministically: the identity
        // order's chunks are the unordered queue's ranges.
        for cfg in [DualPoolConfig::new(1, 0), DualPoolConfig::new(0, 1)] {
            assert_eq!(
                committed_chunks(300, cfg, ClaimOrder::identity(), &FaultInjector::none()),
                unordered_claims(300, cfg),
                "{cfg:?}"
            );
        }
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
        for cfg in [DualPoolConfig::new(2, 2), DualPoolConfig::new(4, 0)] {
            let sink = MetricsSink::new();
            let out: Vec<usize> = run_dual_pool(0, cfg, |_| 1, |_d, i| i, &sink);
            assert!(out.is_empty(), "{cfg:?}");
        }
    }

    #[test]
    fn dual_pool_more_workers_than_tasks() {
        for cfg in [DualPoolConfig::new(8, 8), DualPoolConfig::new(16, 0)] {
            let sink = MetricsSink::new();
            let out = run_dual_pool(3, cfg, |_| 1, |_d, i| i, &sink);
            assert_eq!(out, vec![0, 1, 2], "{cfg:?}");
        }
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
        let cells: u64 = both(&sink).iter().map(|d| d.cells).sum();
        assert_eq!(cells, (0..100u64).sum::<u64>());
        // Chunks were grabbed and every worker reported once.
        assert_eq!(both(&sink).iter().map(|d| d.workers).sum::<usize>(), 4);
        assert!(both(&sink).iter().map(|d| d.chunks).sum::<u64>() >= 2);
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
            |d, i, _: &mut WorkerJournal| task(d, i),
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
        let retries: u64 = both(&sink).iter().map(|d| d.retries).sum();
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
        // Tasks 13 and 27 fail deterministically: after max_chunk_retries
        // re-executions each is reported terminally, everything else is
        // salvaged — on one CPU worker and on several.
        for workers in [1, 3] {
            let sink = MetricsSink::new();
            let cfg = DualPoolConfig {
                failure_budget: 10,
                retry_backoff_ms: 0,
                ..DualPoolConfig::new(workers, 0)
            };
            let mut err = run_hookless(
                40,
                cfg,
                &FaultInjector::none(),
                |_| 1,
                |_d, i| {
                    if i == 13 || i == 27 {
                        panic!("task {i} always fails");
                    }
                    i
                },
                &sink,
                &Tracer::disabled(),
            )
            .unwrap_err();
            assert_eq!(err.missing, vec![(13, 14), (27, 28)], "{workers} workers");
            assert_eq!(err.unexecuted_tasks(), 2);
            err.failures.sort_by_key(|f| f.task);
            assert_eq!(err.failures.len(), 2);
            for (f, task) in err.failures.iter().zip([13, 27]) {
                assert_eq!(f.task, task);
                assert_eq!(f.device, DEVICE_CPU);
                assert_eq!(f.message, format!("task {task} always fails"));
            }
            let rendered = err.to_string();
            assert!(rendered.contains("(cpu pool)"), "got: {rendered}");
            // Per task: 1 initial failure + max_chunk_retries re-executions.
            assert_eq!(sink.device(DEVICE_CPU).failures, 6);
        }
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
            |_d, i, _: &mut WorkerJournal| {
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
        assert_eq!(both(&sink).iter().map(|d| d.tasks).sum::<u64>(), 50);
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
            |_d, i, _: &mut WorkerJournal| i,
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
            DualPoolConfig::new(2, 2),
            &FaultInjector::none(),
            DurableControl {
                drain: Some(&drain),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i, _: &mut WorkerJournal| {
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
            DualPoolConfig::new(2, 1),
            &FaultInjector::none(),
            DurableControl {
                task_cancelled: Some(&cancelled),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i, _: &mut WorkerJournal| {
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
        assert_eq!(both(&sink).iter().map(|d| d.tasks).sum::<u64>(), 50);
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
            DualPoolConfig::new(2, 2),
            &inj,
            DurableControl {
                drain: Some(&drain),
                ..DurableControl::none()
            },
            |_| 1,
            |d, i, _: &mut WorkerJournal| {
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
        // Two CPU workers: the spawned worker holds its first task until
        // the caller has run one, so the caller provably takes part.
        let caller_ran = std::sync::atomic::AtomicBool::new(false);
        let give_up = Instant::now() + Duration::from_secs(5);
        let sink = MetricsSink::new();
        let ran_on = run_dual_pool(
            16,
            DualPoolConfig::new(2, 0),
            |_| 1,
            |_d, _i| {
                let id = std::thread::current().id();
                if id == me {
                    caller_ran.store(true, Ordering::SeqCst);
                }
                while !caller_ran.load(Ordering::SeqCst) && Instant::now() < give_up {
                    std::thread::yield_now();
                }
                id
            },
            &sink,
        );
        assert!(ran_on.contains(&me), "the caller is worker 0");
    }

    #[test]
    fn commit_hook_sees_the_prefill_and_every_chunk() {
        let sink = MetricsSink::new();
        let seen: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let hook = |view: CommitView<'_, usize>| {
            // Prefilled tasks 0 and 1 are present from the first call on;
            // a chunk's own tasks are present when its hook runs.
            view.with_slots(|slots| {
                assert!(slots[0].is_some() && slots[1].is_some());
                let tasks = view.tasks;
                assert!(tasks.iter().all(|&t| slots[t].is_some()), "{tasks:?}");
            });
            // Only the prefill is not a clean chunk.
            assert_eq!(view.clean, view.tasks != [0, 1], "{:?}", view.tasks);
            assert!((0.0..=1.0).contains(&view.accel_share));
            seen.lock().unwrap().push(view.tasks.to_vec());
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
            |_d, i, _: &mut WorkerJournal| i,
            &sink,
            &Tracer::disabled(),
        );
        assert_eq!(out.tasks_done(), 40);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen[0], [0, 1], "the prefill commit comes first");
        let mut tasks = seen.concat();
        tasks.sort_unstable();
        assert_eq!(
            tasks,
            (0..40).collect::<Vec<_>>(),
            "the prefill's and the chunks' tasks tile the task space"
        );
    }

    #[test]
    fn a_reclaimed_lease_hands_each_task_to_the_hook_once() {
        // The accelerator's first chunk sleeps past its lease: the CPU
        // worker reclaims and runs it, and the slow holder, no longer
        // holding its lease when it wakes, drops the chunk.
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Delay(Duration::from_millis(150)), 0);
        let runs = AtomicU64::new(0);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let hook = |view: CommitView<'_, usize>| seen.lock().unwrap().extend(view.tasks);
        // Trips only if the second commit were counted as done tasks.
        let drain = DrainSignal::after_tasks(41);
        let out = run_dual_pool_durable(
            40,
            DualPoolConfig {
                accel_timeout_ms: Some(20),
                ..DualPoolConfig::new(1, 1)
            },
            &inj,
            DurableControl {
                drain: Some(&drain),
                on_commit: Some(&hook),
                ..DurableControl::none()
            },
            |_| 1,
            |d, i, _: &mut WorkerJournal| {
                gate_cpu_on(&inj, d);
                runs.fetch_add(1, Ordering::Relaxed);
                i
            },
            &sink,
            &Tracer::disabled(),
        );
        assert_eq!(runs.into_inner(), 40, "the reclaimed chunk ran once");
        assert_eq!(sink.device(DEVICE_ACCEL).lost_leases, 1);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "each task once");
        assert!(!out.drained && !drain.is_requested(), "40 tasks done");
        assert_eq!(out.try_into_results().unwrap(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_holder_that_slept_past_its_lease_drops_its_chunk() {
        // A 1 s accelerator delay past a 20 ms lease: the CPU pool runs
        // the reclaimed range, and the holder does not run it again.
        let sink = MetricsSink::new();
        let inj = injected(FaultKind::Delay(Duration::from_secs(1)), 0);
        let n = 40;
        let out = run_hookless(
            n,
            DualPoolConfig {
                accel_timeout_ms: Some(20),
                ..DualPoolConfig::new(1, 1)
            },
            &inj,
            |_| 1,
            |d, i| {
                gate_cpu_on(&inj, d);
                i
            },
            &sink,
            &Tracer::disabled(),
        );
        assert_eq!(out.unwrap().results, (0..n).collect::<Vec<_>>());
        let (cpu, accel) = (sink.device(DEVICE_CPU), sink.device(DEVICE_ACCEL));
        assert_eq!(accel.lost_leases, 1);
        assert_eq!(cpu.tasks + accel.tasks, n as u64, "every task ran once");
    }

    /// The task ids of every chunk commit of a clean or fault-drilled run
    /// of `n` tasks under `order`, after checking that the run delivered
    /// every result in task order.
    fn committed_chunks(
        n: usize,
        config: DualPoolConfig,
        order: ClaimOrder,
        injector: &FaultInjector,
    ) -> Vec<Vec<usize>> {
        let commits: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let hook = |view: CommitView<'_, usize>| commits.lock().unwrap().push(view.tasks.to_vec());
        let sink = MetricsSink::new();
        let out = run_dual_pool_durable(
            n,
            config,
            injector,
            DurableControl {
                order,
                on_commit: Some(&hook),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i, _: &mut WorkerJournal| i * 5,
            &sink,
            &Tracer::disabled(),
        );
        let results = out
            .try_into_results()
            .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        assert_eq!(results, (0..n).map(|i| i * 5).collect::<Vec<_>>());
        commits.into_inner().unwrap()
    }

    /// The chunks one worker of `config`'s only pool claims from an
    /// unordered queue of `n` tasks: `adaptive_chunk` at the seed share,
    /// from the pool's end.
    fn unordered_claims(n: usize, config: DualPoolConfig) -> Vec<Vec<usize>> {
        let cpu = config.cpu_workers > 0;
        let share = if cpu {
            1.0 - config.initial_accel_fraction
        } else {
            config.initial_accel_fraction
        };
        let (mut front, mut back) = (0, n);
        let mut claims = Vec::new();
        while front < back {
            let k = adaptive_chunk(back - front, share, 1);
            let range = if cpu {
                front += k;
                front - k..front
            } else {
                back -= k;
                back..back + k
            };
            claims.push(range.collect());
        }
        claims
    }

    #[test]
    fn ordered_regions_commit_every_task_once_inside_its_segment() {
        // Seeded property: random task counts, claim orders and segment
        // cuts, run on every pool shape under the fault plans of the
        // matrix below (kills only where another pool survives them).
        // Every task commits exactly once, results land in task order,
        // and no commit spans two segments.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1..100usize);
            let mut tasks: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                tasks.swap(i, rng.gen_range(0..=i));
            }
            let mut segments: Vec<Vec<usize>> = Vec::new();
            let mut start = 0;
            while start < n {
                let len = rng.gen_range(1..=(n - start).min(24));
                segments.push(tasks[start..start + len].to_vec());
                start += len;
            }
            let mut segment_of = vec![0; n];
            for (k, segment) in segments.iter().enumerate() {
                for &t in segment {
                    segment_of[t] = k;
                }
            }
            let order = ClaimOrder::from_segments(segments.clone());
            assert_eq!(order.tasks(), tasks);
            assert_eq!(order.cuts().len(), segments.len() - 1);
            for (cpu, accel) in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)] {
                let mut plan = FaultPlan::seeded(seed, 2, DEVICE_ACCEL, 6);
                if cpu == 0 {
                    plan.specs.retain(|f| !matches!(f.kind, FaultKind::Kill));
                }
                let config = DualPoolConfig::new(cpu, accel);
                let commits = committed_chunks(n, config, order.clone(), &FaultInjector::new(plan));
                let mut landed = vec![0; n];
                for chunk in &commits {
                    let k = segment_of[chunk[0]];
                    assert!(
                        chunk.iter().all(|&t| segment_of[t] == k),
                        "seed {seed}, {cpu} + {accel}: {chunk:?} spans segments"
                    );
                    for &t in chunk {
                        landed[t] += 1;
                    }
                }
                assert!(
                    landed.iter().all(|&c| c == 1),
                    "seed {seed}, {cpu} + {accel}: every task commits once"
                );
            }
            // The identity, empty or spelt out, claims the unordered
            // queue's ranges.
            for config in [DualPoolConfig::new(1, 0), DualPoolConfig::new(0, 1)] {
                let none = FaultInjector::none();
                let today = unordered_claims(n, config);
                let spelt_out = ClaimOrder::from_segments([(0..n).collect::<Vec<_>>()]);
                assert_eq!(
                    committed_chunks(n, config, ClaimOrder::identity(), &none),
                    today
                );
                assert_eq!(committed_chunks(n, config, spelt_out, &none), today);
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation of 0..3")]
    fn an_order_that_is_not_a_permutation_is_refused() {
        let sink = MetricsSink::new();
        run_dual_pool_durable(
            3,
            DualPoolConfig::new(1, 0),
            &FaultInjector::none(),
            DurableControl {
                order: ClaimOrder::from_segments([vec![0, 2], vec![2]]),
                ..DurableControl::none()
            },
            |_| 1,
            |_d, i, _: &mut WorkerJournal| i,
            &sink,
            &Tracer::disabled(),
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
