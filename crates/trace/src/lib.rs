//! # sw-trace — per-worker event journal and run timeline
//!
//! The paper's whole argument (§VI) rests on *observing* the realised
//! workload distribution across heterogeneous devices. This crate is the
//! diagnostic substrate for that: a lock-cheap, per-worker ring-buffered
//! event journal with monotonic timestamps relative to a run epoch,
//! drained into a run [`Timeline`], plus three exporters
//! ([`export::jsonl`], [`export::chrome_trace`], [`export::prometheus`])
//! and a schema validator ([`validate`]).
//!
//! Design constraints:
//!
//! * **Lock-cheap.** Each worker owns its [`WorkerJournal`]; emission is
//!   a bounds check and a ring push — no shared lock. The only lock is
//!   taken once per worker, when the journal drains into the tracer on
//!   drop.
//! * **Zero-cost when disabled.** A disabled tracer hands out journals
//!   whose every method is a single `Option` branch: no clock read, no
//!   allocation, no ring.
//! * **Real clocks only.** Every event is stamped from the tracer's own
//!   epoch ([`WorkerJournal::emit`], [`WorkerJournal::span_from`]); no
//!   caller feeds in a time of its own.
//!
//! The schema is versioned as [`SCHEMA`] (`sw-trace/1`); exporters stamp
//! it into their output and [`validate::validate_jsonl`] checks it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod validate;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Trace schema version stamped into every export.
pub const SCHEMA: &str = "sw-trace/1";

/// Default per-worker ring capacity (events). At ~56 bytes per event a
/// full ring is ~3.5 MiB per worker — generous for any run we do while
/// still bounded.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// How much detail a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing; journals are no-ops.
    #[default]
    Off,
    /// Record instant and counter events only (lease lifecycle, retire,
    /// rebalance, recompute) — skips begin/end spans.
    Lite,
    /// Record everything, including chunk / queue-wait spans.
    Full,
}

impl TraceLevel {
    /// Parse a CLI-style level name (`off` / `lite` / `full`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "lite" => Some(TraceLevel::Lite),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// Chrome-trace phase of an event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`B`).
    Begin,
    /// Span end (`E`).
    End,
    /// Instant event (`I`).
    Instant,
    /// Counter sample (`C`).
    Counter,
}

impl Phase {
    /// The single-letter Chrome trace phase code.
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'I',
            Phase::Counter => 'C',
        }
    }
}

/// Everything the journal can record. Payload fields are the minimum
/// needed to reconstruct scheduler decisions offline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A worker received a chunk from the supervisor (instant; `attempts`
    /// > 0 marks a re-execution of previously failed work).
    ChunkClaim {
        /// Lease id of the claim.
        lease: u64,
        /// First task index (inclusive).
        lo: usize,
        /// Last task index (exclusive).
        hi: usize,
        /// Prior failed attempts on this range.
        attempts: u32,
    },
    /// Chunk execution span begin.
    ChunkStart {
        /// Lease id being executed.
        lease: u64,
        /// First task index (inclusive).
        lo: usize,
        /// Last task index (exclusive).
        hi: usize,
    },
    /// Chunk execution span end.
    ChunkFinish {
        /// Lease id that finished.
        lease: u64,
        /// First task index (inclusive).
        lo: usize,
        /// Last task index (exclusive).
        hi: usize,
        /// DP cells computed by the chunk.
        cells: u64,
    },
    /// Queue-wait span begin (worker is idle, polling for work).
    QueueWaitBegin,
    /// Queue-wait span end; `us` is the measured wait.
    QueueWaitEnd {
        /// Wait duration in microseconds.
        us: u64,
    },
    /// Supervisor registered a lease for a claimed range.
    LeaseGranted {
        /// New lease id.
        lease: u64,
        /// First task index (inclusive).
        lo: usize,
        /// Last task index (exclusive).
        hi: usize,
    },
    /// Supervisor reclaimed an expired lease from a (presumed dead)
    /// worker. Emitted on the reclaiming worker's track; `victim` is the
    /// device that held the lease.
    LeaseLost {
        /// The reclaimed lease id.
        lease: u64,
        /// Device pool that held the lease.
        victim: usize,
    },
    /// A failed or reclaimed range went back on the requeue.
    LeaseRequeued {
        /// Lease id the range was requeued from.
        lease: u64,
        /// First requeued task index (inclusive).
        lo: usize,
        /// Last requeued task index (exclusive).
        hi: usize,
        /// Attempt count the requeued range carries.
        attempts: u32,
    },
    /// Worker is backing off before retrying previously failed work.
    RetryBackoff {
        /// Attempt number driving the backoff.
        attempts: u32,
        /// Backoff sleep in milliseconds.
        backoff_ms: u64,
    },
    /// A device pool exhausted its failure budget and was retired.
    PoolRetired {
        /// The retired device.
        device: usize,
    },
    /// Saturated lanes were recomputed at a wider precision.
    OverflowRecompute {
        /// Element width that saturated (bits).
        from_bits: u8,
        /// Element width of the exact recompute (bits).
        to_bits: u8,
        /// Lanes recomputed.
        lanes: u64,
    },
    /// The split estimator produced a new accel share for fresh chunks.
    SplitRebalance {
        /// Accel share of remaining work, in [0, 1].
        share: f64,
    },
    /// A durable-search checkpoint file was written.
    CheckpointWritten {
        /// Monotone checkpoint sequence number within the run.
        seq: u64,
        /// Tasks whose results the checkpoint covers.
        tasks_done: u64,
        /// Bytes written to the checkpoint file.
        bytes: u64,
    },
    /// A durable search resumed from a checkpoint.
    ResumeLoaded {
        /// Tasks the loaded checkpoint already covered.
        tasks_done: u64,
    },
    /// A graceful drain was requested: workers finish in-flight chunks
    /// and exit so a final checkpoint can be written.
    DrainStarted,
}

impl EventKind {
    /// Stable event name. Begin/end pairs of one span share a name and
    /// are distinguished by [`EventKind::phase`].
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ChunkClaim { .. } => "chunk_claim",
            EventKind::ChunkStart { .. } | EventKind::ChunkFinish { .. } => "chunk",
            EventKind::QueueWaitBegin | EventKind::QueueWaitEnd { .. } => "queue_wait",
            EventKind::LeaseGranted { .. } => "lease_granted",
            EventKind::LeaseLost { .. } => "lease_lost",
            EventKind::LeaseRequeued { .. } => "lease_requeued",
            EventKind::RetryBackoff { .. } => "retry_backoff",
            EventKind::PoolRetired { .. } => "pool_retired",
            EventKind::OverflowRecompute { .. } => "overflow_recompute",
            EventKind::SplitRebalance { .. } => "split_rebalance",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::ResumeLoaded { .. } => "resume_loaded",
            EventKind::DrainStarted => "drain_started",
        }
    }

    /// The Chrome-trace phase this kind maps to.
    pub fn phase(&self) -> Phase {
        match self {
            EventKind::ChunkStart { .. } | EventKind::QueueWaitBegin => Phase::Begin,
            EventKind::ChunkFinish { .. } | EventKind::QueueWaitEnd { .. } => Phase::End,
            EventKind::SplitRebalance { .. } => Phase::Counter,
            _ => Phase::Instant,
        }
    }

    /// True for span (begin/end) phases — the events a `Lite` tracer
    /// drops.
    pub fn is_span(&self) -> bool {
        matches!(self.phase(), Phase::Begin | Phase::End)
    }

    /// Append the payload as JSON object members (leading comma
    /// included; empty for payload-free kinds).
    pub fn write_args_json(&self, out: &mut String) {
        match *self {
            EventKind::ChunkClaim {
                lease,
                lo,
                hi,
                attempts,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi},\"attempts\":{attempts}"
                );
            }
            EventKind::ChunkStart { lease, lo, hi } => {
                let _ = write!(out, ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi}");
            }
            EventKind::ChunkFinish {
                lease,
                lo,
                hi,
                cells,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi},\"cells\":{cells}"
                );
            }
            EventKind::QueueWaitBegin => {}
            EventKind::QueueWaitEnd { us } => {
                let _ = write!(out, ",\"us\":{us}");
            }
            EventKind::LeaseGranted { lease, lo, hi } => {
                let _ = write!(out, ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi}");
            }
            EventKind::LeaseLost { lease, victim } => {
                let _ = write!(out, ",\"lease\":{lease},\"victim\":{victim}");
            }
            EventKind::LeaseRequeued {
                lease,
                lo,
                hi,
                attempts,
            } => {
                let _ = write!(
                    out,
                    ",\"lease\":{lease},\"lo\":{lo},\"hi\":{hi},\"attempts\":{attempts}"
                );
            }
            EventKind::RetryBackoff {
                attempts,
                backoff_ms,
            } => {
                let _ = write!(out, ",\"attempts\":{attempts},\"backoff_ms\":{backoff_ms}");
            }
            EventKind::PoolRetired { device } => {
                let _ = write!(out, ",\"device\":{device}");
            }
            EventKind::OverflowRecompute {
                from_bits,
                to_bits,
                lanes,
            } => {
                let _ = write!(
                    out,
                    ",\"from_bits\":{from_bits},\"to_bits\":{to_bits},\"lanes\":{lanes}"
                );
            }
            EventKind::SplitRebalance { share } => {
                let _ = write!(out, ",\"share\":{share:.6}");
            }
            EventKind::CheckpointWritten {
                seq,
                tasks_done,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"seq\":{seq},\"tasks_done\":{tasks_done},\"bytes\":{bytes}"
                );
            }
            EventKind::ResumeLoaded { tasks_done } => {
                let _ = write!(out, ",\"tasks_done\":{tasks_done}");
            }
            EventKind::DrainStarted => {}
        }
    }
}

/// One timestamped journal entry. `t_us` is microseconds since the run
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Microseconds since the run epoch.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The drained journal of one worker: its identity plus its events in
/// emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTrack {
    /// Query id of the search this track belongs to (`0` for solo runs;
    /// daemons assign a distinct id per request so merged timelines of
    /// concurrent searches stay separable).
    pub query: u64,
    /// Device pool the worker belonged to.
    pub device: usize,
    /// Worker index within the pool.
    pub worker: usize,
    /// Events in emission order (ring-bounded; oldest dropped first).
    pub events: Vec<Event>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
}

/// Shared state behind an enabled [`Tracer`].
#[derive(Debug)]
struct Shared {
    /// Per-tracer run epoch: every search gets its own zero point, so a
    /// daemon's concurrent requests never share clock state.
    epoch: Instant,
    /// Query id stamped on every track this tracer drains.
    query: u64,
    level: TraceLevel,
    capacity: usize,
    drained: Mutex<Vec<WorkerTrack>>,
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Run-scoped trace collector. Cheap to clone (an `Arc` under the hood);
/// hand one [`WorkerJournal`] to each worker and call
/// [`Tracer::timeline`] after all journals dropped.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl Tracer {
    /// A tracer that records nothing; every journal it hands out is a
    /// no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording at `level` with the given per-worker ring
    /// capacity (clamped to ≥ 16). `TraceLevel::Off` yields a disabled
    /// tracer. Query id 0 — the solo-run convention.
    pub fn new(level: TraceLevel, ring_capacity: usize) -> Tracer {
        Tracer::for_query(level, ring_capacity, 0)
    }

    /// Like [`Tracer::new`] but stamping `query` on every drained track,
    /// so exports of concurrent searches can be told apart. Each call
    /// takes a fresh epoch: timestamps are relative to *this* search's
    /// start, never to another request's.
    pub fn for_query(level: TraceLevel, ring_capacity: usize, query: u64) -> Tracer {
        if level == TraceLevel::Off {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(Shared {
                epoch: Instant::now(),
                query,
                level,
                capacity: ring_capacity.max(16),
                drained: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A full-detail tracer with the default ring capacity.
    pub fn full() -> Tracer {
        Tracer::new(TraceLevel::Full, DEFAULT_RING_CAPACITY)
    }

    /// The query id stamped on this tracer's tracks (0 when disabled).
    pub fn query_id(&self) -> u64 {
        match &self.inner {
            Some(s) => s.query,
            None => 0,
        }
    }

    /// True when this tracer records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the run epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(s) => s.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Create the journal for worker `worker` of device pool `device`.
    pub fn worker(&self, device: usize, worker: usize) -> WorkerJournal {
        WorkerJournal {
            shared: self.inner.clone(),
            device,
            worker,
            ring: match &self.inner {
                Some(s) => VecDeque::with_capacity(s.capacity.min(1024)),
                None => VecDeque::new(),
            },
            dropped: 0,
        }
    }

    /// Open a per-task span on this tracer: a one-task chunk attributed
    /// to `(device, worker-lane = task's db-batch index or similar)`.
    ///
    /// This is how a *shared* multi-query region produces *per-query*
    /// timelines: the region's executor traces into the region tracer as
    /// usual, while each task closure additionally opens a `task_span`
    /// on the tracer of the query that owns the task. The span flushes on
    /// `finish`, so each task lands as its own track and concurrent tasks
    /// of one query never interleave events within a track.
    pub fn task_span(&self, device: usize, worker: usize, task: usize) -> TaskSpan {
        let journal = self.worker(device, worker);
        let begin = journal.stamp();
        TaskSpan {
            journal,
            begin,
            task,
        }
    }

    /// Drain every flushed journal into a [`Timeline`]. Tracks are
    /// ordered by (device, worker); journals still alive are not
    /// included, so drop (or [`WorkerJournal::flush`]) them first.
    pub fn timeline(&self) -> Timeline {
        let mut tracks = match &self.inner {
            Some(s) => std::mem::take(&mut *unpoison(s.drained.lock())),
            None => Vec::new(),
        };
        tracks.sort_by_key(|t| (t.query, t.device, t.worker));
        Timeline { tracks }
    }
}

/// A worker-owned event buffer. All emission paths are branch-then-push;
/// the shared tracer lock is touched only on [`WorkerJournal::flush`] /
/// drop.
#[derive(Debug, Default)]
pub struct WorkerJournal {
    shared: Option<Arc<Shared>>,
    device: usize,
    worker: usize,
    ring: VecDeque<Event>,
    dropped: u64,
}

/// An opaque begin-timestamp returned by [`WorkerJournal::stamp`], fed
/// back to [`WorkerJournal::span_from`] to close a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    const DISABLED: Stamp = Stamp(u64::MAX);
}

impl WorkerJournal {
    /// A journal that records nothing (what a disabled tracer hands out).
    pub fn disabled() -> WorkerJournal {
        WorkerJournal::default()
    }

    /// True when emissions are recorded.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Device pool this journal reports for.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Microseconds since the run epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    fn push(&mut self, ev: Event) {
        let cap = match &self.shared {
            Some(s) => s.capacity,
            None => return,
        };
        if self.ring.len() == cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Record `kind` at the current clock. No-op when disabled, or when
    /// a `Lite` tracer is given a span event.
    pub fn emit(&mut self, kind: EventKind) {
        let Some(s) = &self.shared else { return };
        if s.level == TraceLevel::Lite && kind.is_span() {
            return;
        }
        let t_us = s.epoch.elapsed().as_micros() as u64;
        self.push(Event { t_us, kind });
    }

    /// Record `kind` at an explicit epoch-relative time: how
    /// [`WorkerJournal::span_from`] back-dates a span's begin event, and
    /// how this crate's tests build timelines with fixed clocks.
    pub(crate) fn emit_at(&mut self, t_us: u64, kind: EventKind) {
        let Some(s) = &self.shared else { return };
        if s.level == TraceLevel::Lite && kind.is_span() {
            return;
        }
        self.push(Event { t_us, kind });
    }

    /// Take a begin timestamp for a later [`WorkerJournal::span_from`].
    /// Costs one clock read when enabled, nothing when disabled.
    pub fn stamp(&self) -> Stamp {
        match &self.shared {
            Some(s) => Stamp(s.epoch.elapsed().as_micros() as u64),
            None => Stamp::DISABLED,
        }
    }

    /// Close a span opened at `begin`: emits `begin_kind` at the stamp
    /// time and `end_kind` now. No-op when the stamp came from a
    /// disabled journal.
    pub fn span_from(&mut self, begin: Stamp, begin_kind: EventKind, end_kind: EventKind) {
        if begin == Stamp::DISABLED || self.shared.is_none() {
            return;
        }
        let end = self.now_us();
        self.emit_at(begin.0.min(end), begin_kind);
        self.emit_at(end, end_kind);
    }

    /// Microseconds elapsed since `begin` (0 when disabled).
    pub fn since_us(&self, begin: Stamp) -> u64 {
        if begin == Stamp::DISABLED {
            return 0;
        }
        self.now_us().saturating_sub(begin.0)
    }

    /// Push the buffered events into the tracer. Called automatically on
    /// drop; call explicitly to drain mid-run.
    pub fn flush(&mut self) {
        let Some(s) = &self.shared else { return };
        if self.ring.is_empty() && self.dropped == 0 {
            return;
        }
        let track = WorkerTrack {
            query: s.query,
            device: self.device,
            worker: self.worker,
            events: self.ring.drain(..).collect(),
            dropped: std::mem::take(&mut self.dropped),
        };
        unpoison(s.drained.lock()).push(track);
    }
}

impl Drop for WorkerJournal {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An open per-task span from [`Tracer::task_span`]: one task of a shared
/// multi-query region, traced onto the owning query's own tracer (and
/// therefore its own epoch and query tag). Dropping without
/// [`TaskSpan::finish`] records nothing — an abandoned task leaves no
/// half-open span behind.
pub struct TaskSpan {
    journal: WorkerJournal,
    begin: Stamp,
    task: usize,
}

impl TaskSpan {
    /// Close the span: emits a balanced `chunk_start`/`chunk_finish` pair
    /// covering task range `[task, task+1)` and flushes the track.
    pub fn finish(mut self, lease: u64, cells: u64) {
        let (lo, hi) = (self.task, self.task + 1);
        self.journal.span_from(
            self.begin,
            EventKind::ChunkStart { lease, lo, hi },
            EventKind::ChunkFinish {
                lease,
                lo,
                hi,
                cells,
            },
        );
        self.journal.flush();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerJournal>> = const { RefCell::new(None) };
}

/// Install `journal` as this thread's ambient journal (used by layers —
/// e.g. kernels — that have no journal parameter). Returns the previous
/// occupant, if any.
pub fn install(journal: WorkerJournal) -> Option<WorkerJournal> {
    CURRENT.with(|c| c.borrow_mut().replace(journal))
}

/// Remove and return this thread's ambient journal.
pub fn uninstall() -> Option<WorkerJournal> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Install `journal` for a scope, keeping whatever was already installed
/// and restoring it when the guard is consumed or dropped. This is how a
/// nested search (one engine calling into another on the same thread,
/// e.g. a daemon worker) avoids silently flushing the outer search's
/// journal: [`install`] alone would hand the previous occupant back to a
/// caller that usually discards it.
pub fn install_scoped(journal: WorkerJournal) -> AmbientScope {
    AmbientScope {
        previous: install(journal),
        active: true,
    }
}

/// RAII guard returned by [`install_scoped`]: restores the previously
/// installed ambient journal on [`AmbientScope::take`] or drop.
#[derive(Debug)]
pub struct AmbientScope {
    previous: Option<WorkerJournal>,
    active: bool,
}

impl AmbientScope {
    /// Uninstall and return the scoped journal, restoring the previous
    /// occupant. Returns a disabled journal if something else already
    /// took the slot.
    pub fn take(mut self) -> WorkerJournal {
        let current = uninstall().unwrap_or_default();
        if let Some(prev) = self.previous.take() {
            install(prev);
        }
        self.active = false;
        current
    }
}

impl Drop for AmbientScope {
    fn drop(&mut self) {
        if self.active {
            // Unwind path: flush the scoped journal, put the outer one back.
            drop(uninstall());
            if let Some(prev) = self.previous.take() {
                install(prev);
            }
        }
    }
}

/// Emit `kind` on the ambient journal, if one is installed. A single
/// thread-local read when none is — safe to call from hot paths that are
/// themselves rare (overflow rescue, device faults).
pub fn emit_current(kind: EventKind) {
    CURRENT.with(|c| {
        if let Some(j) = c.borrow_mut().as_mut() {
            j.emit(kind);
        }
    });
}

/// End-of-run aggregate counters for one device pool, fed to the
/// Prometheus exporter. Callers build these from whatever metrics sink
/// they already report through, so exported counters match printed ones
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceCounters {
    /// Device pool index.
    pub device: usize,
    /// Workers the pool ran.
    pub workers: usize,
    /// Tasks completed.
    pub tasks: u64,
    /// Chunks completed.
    pub chunks: u64,
    /// DP cells computed.
    pub cells: u64,
    /// Summed busy time, seconds.
    pub busy_secs: f64,
    /// Summed queue-wait time, seconds.
    pub queue_wait_secs: f64,
    /// Chunks that succeeded on a retry.
    pub retries: u64,
    /// Ranges pushed back onto the requeue.
    pub requeues: u64,
    /// Leases reclaimed after expiry.
    pub lost_leases: u64,
    /// Failures charged against the pool.
    pub failures: u64,
    /// Pool retired (failure budget exhausted).
    pub degraded: bool,
    /// Saturated lanes recomputed at wider precision.
    pub overflow_recomputes: u64,
}

/// Conventional label for a device pool index (`cpu` / `accel` /
/// `devN`).
pub fn device_label(device: usize) -> String {
    match device {
        0 => "cpu".to_string(),
        1 => "accel".to_string(),
        n => format!("dev{n}"),
    }
}

/// A completed run's trace: one [`WorkerTrack`] per worker, sorted by
/// (device, worker).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Per-worker event tracks.
    pub tracks: Vec<WorkerTrack>,
}

impl Timeline {
    /// Merge the timelines of several (possibly concurrent) searches
    /// into one, sorted by (query, device, worker). Each source timeline
    /// keeps its own epoch-relative timestamps; the query id tagged on
    /// every track is what keeps the merged export separable.
    pub fn merge(parts: impl IntoIterator<Item = Timeline>) -> Timeline {
        let mut tracks: Vec<WorkerTrack> = parts.into_iter().flat_map(|tl| tl.tracks).collect();
        tracks.sort_by_key(|t| (t.query, t.device, t.worker));
        Timeline { tracks }
    }

    /// Merge per-search timelines whose epochs started at different
    /// daemon times onto one shared clock: each part's events are
    /// shifted forward by its `offset_us` (the daemon-relative instant
    /// its epoch began) before merging. This is how the serve layer's
    /// slow-query dump aligns a job's epoch-relative trace with the
    /// daemon-lifetime timestamps in the ops log.
    pub fn merge_with_offsets(parts: impl IntoIterator<Item = (Timeline, u64)>) -> Timeline {
        Timeline::merge(parts.into_iter().map(|(mut tl, offset_us)| {
            for track in &mut tl.tracks {
                for ev in &mut track.events {
                    ev.t_us = ev.t_us.saturating_add(offset_us);
                }
            }
            tl
        }))
    }

    /// A timeline containing only the tracks of `query` — how one
    /// request's trace is pulled back out of a merged daemon export.
    pub fn for_query(&self, query: u64) -> Timeline {
        Timeline {
            tracks: self
                .tracks
                .iter()
                .filter(|t| t.query == query)
                .cloned()
                .collect(),
        }
    }

    /// Total events across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total ring-dropped events across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// All events flattened to `(device, worker, event)` and sorted by
    /// timestamp (ties keep track order, so per-track emission order is
    /// preserved).
    pub fn events_sorted(&self) -> Vec<(usize, usize, Event)> {
        self.events_sorted_q()
            .into_iter()
            .map(|(_, d, w, ev)| (d, w, ev))
            .collect()
    }

    /// Like [`Timeline::events_sorted`] but carrying the query id:
    /// `(query, device, worker, event)`. The exporters use this so every
    /// emitted line can name the search it came from.
    pub fn events_sorted_q(&self) -> Vec<(u64, usize, usize, Event)> {
        let mut all: Vec<(u64, usize, usize, Event)> = Vec::with_capacity(self.total_events());
        for t in &self.tracks {
            for ev in &t.events {
                all.push((t.query, t.device, t.worker, *ev));
            }
        }
        all.sort_by_key(|(_, _, _, ev)| ev.t_us);
        all
    }

    /// The split-estimator rebalance series as `(t_us, accel_share)`.
    pub fn rebalances(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .events_sorted()
            .into_iter()
            .filter_map(|(_, _, ev)| match ev.kind {
                EventKind::SplitRebalance { share } => Some((ev.t_us, share)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Durations (µs) of all closed spans named `name`, labelled with
    /// the emitting device. Unbalanced begins are ignored.
    pub fn span_durations_us(&self, name: &str) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for t in &self.tracks {
            let mut stack: Vec<u64> = Vec::new();
            for ev in &t.events {
                if ev.kind.name() != name {
                    continue;
                }
                match ev.kind.phase() {
                    Phase::Begin => stack.push(ev.t_us),
                    Phase::End => {
                        if let Some(b) = stack.pop() {
                            out.push((t.device, ev.t_us.saturating_sub(b)));
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Count events whose name is `name`.
    pub fn count(&self, name: &str) -> usize {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|ev| ev.kind.name() == name)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timeline {
        /// The distinct query ids present, ascending.
        fn query_ids(&self) -> Vec<u64> {
            let mut ids: Vec<u64> = self.tracks.iter().map(|t| t.query).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }
    }

    #[test]
    fn merge_with_offsets_rebases_epochs_onto_one_clock() {
        let part = |query: u64, stamps: &[u64]| Timeline {
            tracks: vec![WorkerTrack {
                query,
                device: 0,
                worker: 0,
                events: stamps
                    .iter()
                    .map(|&t_us| Event {
                        t_us,
                        kind: EventKind::QueueWaitBegin,
                    })
                    .collect(),
                dropped: 0,
            }],
        };
        // Two jobs, each with epoch-relative stamps [10, 20], admitted
        // 1000us apart on the daemon clock.
        let merged =
            Timeline::merge_with_offsets([(part(1, &[10, 20]), 500), (part(2, &[10, 20]), 1500)]);
        let stamps: Vec<(u64, u64)> = merged
            .tracks
            .iter()
            .flat_map(|t| t.events.iter().map(move |ev| (t.query, ev.t_us)))
            .collect();
        assert_eq!(stamps, vec![(1, 510), (1, 520), (2, 1510), (2, 1520)]);
        // Overflow-proof: a huge offset saturates rather than wrapping.
        let huge = Timeline::merge_with_offsets([(part(3, &[u64::MAX - 5]), 100)]);
        assert_eq!(huge.tracks[0].events[0].t_us, u64::MAX);
    }

    #[test]
    fn task_spans_keep_shared_batch_queries_separable() {
        // Two queries share one device region; each task of the region
        // opens a task_span on its owner's tracer. Every event must land
        // on its owner's timeline with its owner's query tag, and each
        // per-query export must validate (balanced spans) on its own.
        let tr_a = Tracer::for_query(TraceLevel::Full, 64, 7);
        let tr_b = Tracer::for_query(TraceLevel::Full, 64, 8);
        for task in 0..4usize {
            let owner = if task % 2 == 0 { &tr_a } else { &tr_b };
            let span = owner.task_span(1, task % 2, task);
            span.finish(task as u64, 100 + task as u64);
        }
        // An abandoned span (query cancelled mid-batch) records nothing.
        drop(tr_a.task_span(1, 0, 99));
        for (tr, query) in [(&tr_a, 7u64), (&tr_b, 8)] {
            let tl = tr.timeline();
            assert_eq!(tl.query_ids(), vec![query]);
            assert_eq!(tl.count("chunk"), 4, "2 begin + 2 end events");
            let text = export::jsonl(&tl);
            let report =
                validate::validate_jsonl(&text).unwrap_or_else(|e| panic!("query {query}: {e}"));
            assert_eq!(report.queries, 1, "one query id per export");
            assert_eq!(report.spans, 2);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        let mut j = tr.worker(0, 0);
        assert!(!j.enabled());
        j.emit(EventKind::QueueWaitBegin);
        let s = j.stamp();
        j.span_from(
            s,
            EventKind::ChunkStart {
                lease: 0,
                lo: 0,
                hi: 1,
            },
            EventKind::ChunkFinish {
                lease: 0,
                lo: 0,
                hi: 1,
                cells: 10,
            },
        );
        drop(j);
        let tl = tr.timeline();
        assert_eq!(tl.total_events(), 0);
        assert!(tl.tracks.is_empty());
    }

    #[test]
    fn off_level_is_disabled() {
        assert!(!Tracer::new(TraceLevel::Off, 128).is_enabled());
    }

    #[test]
    fn events_flow_into_timeline_sorted() {
        let tr = Tracer::full();
        let mut a = tr.worker(1, 0);
        let mut b = tr.worker(0, 0);
        a.emit_at(
            5,
            EventKind::LeaseGranted {
                lease: 1,
                lo: 0,
                hi: 2,
            },
        );
        b.emit_at(
            3,
            EventKind::LeaseGranted {
                lease: 0,
                lo: 2,
                hi: 4,
            },
        );
        drop(a);
        drop(b);
        let tl = tr.timeline();
        assert_eq!(tl.tracks.len(), 2);
        // Sorted by (device, worker).
        assert_eq!(tl.tracks[0].device, 0);
        assert_eq!(tl.tracks[1].device, 1);
        let evs = tl.events_sorted();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].2.t_us <= evs[1].2.t_us);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tr = Tracer::new(TraceLevel::Full, 16);
        let mut j = tr.worker(0, 0);
        for i in 0..20u64 {
            j.emit_at(
                i,
                EventKind::RetryBackoff {
                    attempts: 1,
                    backoff_ms: i,
                },
            );
        }
        drop(j);
        let tl = tr.timeline();
        assert_eq!(tl.tracks[0].events.len(), 16);
        assert_eq!(tl.tracks[0].dropped, 4);
        // Oldest dropped: first surviving event is t=4.
        assert_eq!(tl.tracks[0].events[0].t_us, 4);
    }

    #[test]
    fn lite_level_skips_spans_keeps_instants() {
        let tr = Tracer::new(TraceLevel::Lite, 64);
        let mut j = tr.worker(0, 0);
        j.emit(EventKind::ChunkStart {
            lease: 0,
            lo: 0,
            hi: 1,
        });
        j.emit(EventKind::LeaseLost {
            lease: 0,
            victim: 1,
        });
        j.emit(EventKind::SplitRebalance { share: 0.5 });
        drop(j);
        let tl = tr.timeline();
        assert_eq!(tl.total_events(), 2);
        assert_eq!(tl.count("lease_lost"), 1);
        assert_eq!(tl.count("chunk"), 0);
    }

    #[test]
    fn span_helper_emits_balanced_pair() {
        let tr = Tracer::full();
        let mut j = tr.worker(0, 3);
        let s = j.stamp();
        std::thread::sleep(std::time::Duration::from_millis(1));
        j.span_from(
            s,
            EventKind::ChunkStart {
                lease: 7,
                lo: 0,
                hi: 4,
            },
            EventKind::ChunkFinish {
                lease: 7,
                lo: 0,
                hi: 4,
                cells: 99,
            },
        );
        drop(j);
        let tl = tr.timeline();
        let durs = tl.span_durations_us("chunk");
        assert_eq!(durs.len(), 1);
        assert!(durs[0].1 >= 1000, "span shorter than the sleep");
    }

    #[test]
    fn ambient_journal_roundtrip() {
        let tr = Tracer::full();
        assert!(install(tr.worker(1, 0)).is_none());
        emit_current(EventKind::OverflowRecompute {
            from_bits: 16,
            to_bits: 64,
            lanes: 2,
        });
        let j = uninstall().expect("journal back");
        assert!(uninstall().is_none());
        drop(j);
        let tl = tr.timeline();
        assert_eq!(tl.count("overflow_recompute"), 1);
        // With nothing installed, emit_current is a no-op.
        emit_current(EventKind::QueueWaitBegin);
    }

    #[test]
    fn rebalance_series_is_time_ordered() {
        let tr = Tracer::full();
        let mut j = tr.worker(0, 0);
        j.emit_at(9, EventKind::SplitRebalance { share: 0.7 });
        j.emit_at(2, EventKind::SplitRebalance { share: 0.4 });
        drop(j);
        let r = tr.timeline().rebalances();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], (2, 0.4));
        assert_eq!(r[1], (9, 0.7));
    }

    #[test]
    fn query_tagged_timelines_merge_separably() {
        let t1 = Tracer::for_query(TraceLevel::Full, 64, 1);
        let t2 = Tracer::for_query(TraceLevel::Full, 64, 2);
        assert_eq!(t1.query_id(), 1);
        let mut j1 = t1.worker(0, 0);
        let mut j2 = t2.worker(0, 0);
        j1.emit_at(10, EventKind::DrainStarted);
        j2.emit_at(5, EventKind::SplitRebalance { share: 0.5 });
        j2.emit_at(7, EventKind::DrainStarted);
        drop(j1);
        drop(j2);
        let merged = Timeline::merge([t1.timeline(), t2.timeline()]);
        assert_eq!(merged.query_ids(), vec![1, 2]);
        assert_eq!(merged.tracks[0].query, 1);
        let only2 = merged.for_query(2);
        assert_eq!(only2.total_events(), 2);
        assert_eq!(only2.count("drain_started"), 1);
        assert_eq!(merged.count("drain_started"), 2);
        let q = merged.events_sorted_q();
        assert_eq!(q.len(), 3);
        assert_eq!(q[0].0, 2, "earliest event is query 2's t=5");
    }

    #[test]
    fn scoped_install_restores_the_outer_journal() {
        let outer_tr = Tracer::for_query(TraceLevel::Full, 64, 1);
        let inner_tr = Tracer::for_query(TraceLevel::Full, 64, 2);
        assert!(install(outer_tr.worker(0, 0)).is_none());
        {
            let scope = install_scoped(inner_tr.worker(0, 0));
            emit_current(EventKind::DrainStarted);
            let inner = scope.take();
            drop(inner);
        }
        // The outer journal is back and still collects.
        emit_current(EventKind::QueueWaitBegin);
        drop(uninstall().expect("outer journal restored"));
        assert_eq!(inner_tr.timeline().count("drain_started"), 1);
        let outer_tl = outer_tr.timeline();
        assert_eq!(outer_tl.count("queue_wait"), 1);
        assert_eq!(outer_tl.count("drain_started"), 0, "no cross-query bleed");
    }

    #[test]
    fn scoped_install_drop_path_restores_on_unwind() {
        let outer_tr = Tracer::full();
        let inner_tr = Tracer::full();
        assert!(install(outer_tr.worker(0, 0)).is_none());
        {
            let _scope = install_scoped(inner_tr.worker(1, 0));
            emit_current(EventKind::DrainStarted);
            // Guard dropped without take(): unwind path.
        }
        drop(uninstall().expect("outer journal restored after drop"));
        assert_eq!(inner_tr.timeline().count("drain_started"), 1);
    }

    #[test]
    fn trace_level_parses() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("lite"), Some(TraceLevel::Lite));
        assert_eq!(TraceLevel::parse("full"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("verbose"), None);
    }
}
