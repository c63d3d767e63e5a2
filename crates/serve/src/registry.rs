//! The daemon's job table: every submitted search, its lifecycle state,
//! the per-tenant quota checked at the door, and the queue of admitted
//! jobs waiting for a region.
//!
//! One `Mutex` guards the whole table, and every operation on the
//! request path does a fixed amount of work under it, however many jobs
//! the daemon has served: a record is found by indexing (ids are dense),
//! and the counts that `submit`, `stats` and `has_inflight` answer from
//! are kept, not recounted. `submit` counts a new job as queued and in
//! flight; every later state change goes through one transition helper
//! (`Inner::transition`) that moves the per-state counts and the
//! tenant's in-flight count together, so the counts cannot drift from
//! the records. Terminal states are final — `finish` refuses a job that
//! already reached one — so a terminal state's count is also its
//! daemon-lifetime total. Only `dump_jsonl` walks the table, which keeps
//! every record for the daemon's lifetime.
//!
//! The table is also the queue between connection handlers and the one
//! collector thread that runs shared regions. [`Registry::admit`] keeps
//! a job's run payload in its entry and queues its id;
//! [`Registry::collect`] — the one call that blocks, on a condvar beside
//! the mutex — holds the gather window open and, in the same lock trip,
//! moves every job it takes to `Running`, or to `Cancelled` when its
//! drain fired while it was parked. Every transition of a job is made
//! here, and each job reaches exactly one terminal state: a reply goes
//! out only when `finish` (or `collect`) made the transition it reports.

use crate::client::JobReply;
use crate::json;
use crate::obs::{LogLevel, Obs, Phases};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use sw_sched::{DrainSignal, FaultSpec};

/// How often the daemon's waiting threads re-read the shutdown signal:
/// it may be flipped through a parent signal (process SIGINT) that
/// knows nothing of a condvar or a listener. No request waits on this
/// — `admit` wakes the collector, `accept` returns on connect.
pub(crate) const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Lifecycle of one submitted search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobState {
    /// Accepted, waiting for a region.
    Queued,
    /// A member of the running region.
    Running,
    /// Completed; hits were streamed to the submitter.
    Done,
    /// The search itself errored.
    Failed,
    /// Drained before completion (job cancel or daemon shutdown). If
    /// the daemon has a checkpoint dir the job's progress is on disk,
    /// keyed by fingerprint: resubmitting the same query resumes it.
    Cancelled,
}

impl JobState {
    /// Whether a job in this state counts against its tenant's quota.
    /// The other states are terminal: a job never leaves them.
    fn in_flight(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }

    /// Wire name of the state.
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One registry entry, as reported by `status` and the shutdown dump.
#[derive(Debug, Clone)]
pub(crate) struct JobRecord {
    /// Monotone job id; doubles as the trace query id.
    pub(crate) id: u64,
    /// Tenant the job is accounted against.
    pub(crate) tenant: String,
    /// Lifecycle state.
    pub(crate) state: JobState,
    /// Query length in residues.
    pub(crate) query_len: usize,
    /// Hits reported (0 until done).
    pub(crate) hits: usize,
    /// How many checkpoint resumes this run stitched together.
    pub(crate) resumes: u64,
    /// Queries sharing this job's region (0 until gathered).
    pub(crate) batch: usize,
    /// Lifecycle stamps, µs since the daemon epoch.
    pub(crate) phases: Phases,
    /// Failure message for [`JobState::Failed`].
    pub(crate) error: Option<String>,
}

impl JobRecord {
    /// One flat JSON line (the registry dump format; also the `status`
    /// response body). Lifecycle stamps appear only for phases the job
    /// actually reached.
    pub(crate) fn to_json(&self) -> String {
        let mut line = format!(
            "{{\"job\":{},\"tenant\":\"{}\",\"state\":\"{}\",\"query_len\":{},\"hits\":{},\"resumes\":{},\"batch\":{},\"submitted_us\":{}",
            self.id,
            json::escape(&self.tenant),
            self.state.name(),
            self.query_len,
            self.hits,
            self.resumes,
            self.batch,
            self.phases.submitted_us
        );
        for (key, stamp) in [
            ("admitted_us", self.phases.admitted_us),
            ("gathered_us", self.phases.gathered_us),
            ("started_us", self.phases.started_us),
            ("first_hit_us", self.phases.first_hit_us),
            ("finished_us", self.phases.finished_us),
        ] {
            if let Some(t) = stamp {
                line.push_str(&format!(",\"{key}\":{t}"));
            }
        }
        if let Some(e) = &self.error {
            line.push_str(&format!(",\"error\":\"{}\"", json::escape(e)));
        }
        line.push('}');
        line
    }
}

/// Cumulative per-tenant outcome totals since daemon start (terminal
/// states never decrement, unlike the in-flight quota count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TenantTotals {
    /// Submits accepted into the registry.
    pub(crate) submitted: u64,
    /// Jobs finished successfully.
    pub(crate) done: u64,
    /// Jobs that errored.
    pub(crate) failed: u64,
    /// Jobs drained before completion.
    pub(crate) cancelled: u64,
    /// Submits bounced at the door.
    pub(crate) rejected: u64,
}

/// What the collector needs to run an admitted job. It sits in the
/// job's entry from [`Registry::admit`] until [`Registry::collect`]
/// hands it out.
pub(crate) struct RunPayload {
    /// Encoded query residues.
    pub(crate) residues: Vec<u8>,
    /// Hits to stream back.
    pub(crate) top: usize,
    /// Optional delay drill; the first one in a region arms its
    /// injector.
    pub(crate) drill: Option<FaultSpec>,
    /// Demux channel back to the submitting connection.
    pub(crate) reply: mpsc::Sender<JobReply>,
}

/// A job [`Registry::collect`] moved to `Running`: a member of the next
/// region.
pub(crate) struct LiveJob {
    /// Registry job id; doubles as the trace query tag.
    pub(crate) id: u64,
    /// Its drain, scoped under the daemon shutdown signal: cancelling
    /// it removes only this query's tasks from the shared region.
    pub(crate) drain: Arc<DrainSignal>,
    /// What it runs and where its reply goes.
    pub(crate) run: RunPayload,
}

/// What one [`Registry::collect`] hands the collector.
pub(crate) struct Gathered {
    /// Jobs now `Running`, in arrival order.
    pub(crate) live: Vec<LiveJob>,
    /// The reply channels of jobs whose drain fired while they were
    /// parked: each is `Cancelled` now and owed its `cancelled` reply.
    pub(crate) cancelled: Vec<mpsc::Sender<JobReply>>,
    /// Why the gather window closed; `None` when shutdown closed the
    /// queue instead.
    pub(crate) closed: Option<WindowClosed>,
}

/// Why a gather window closed — the label of `sw_serve_windows_total`:
/// mostly `full` means the window is buying coalescing, mostly `deadline`
/// with regions of one means it is only buying latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowClosed {
    /// `max_concurrent` jobs were parked.
    Full,
    /// The window's deadline passed.
    Deadline,
}

impl WindowClosed {
    /// The label value, in scrapes and on the ops log.
    pub(crate) fn label(self) -> &'static str {
        match self {
            WindowClosed::Full => "full",
            WindowClosed::Deadline => "deadline",
        }
    }
}

struct Entry {
    record: JobRecord,
    drain: Arc<DrainSignal>,
    /// Set while the job is parked in the queue.
    run: Option<RunPayload>,
}

#[derive(Default)]
struct Tenant {
    totals: TenantTotals,
    /// Jobs of this tenant that are `Queued` or `Running`.
    in_flight: usize,
}

#[derive(Default)]
struct Inner {
    rejected: u64,
    /// Jobs currently in each state, indexed by `JobState as usize`.
    /// Terminal states are final, so for them this is also the
    /// daemon-lifetime total.
    counts: [usize; 5],
    tenants: BTreeMap<String, Tenant>,
    /// Job `id` lives at `jobs[id - 1]`: ids are handed out densely from 1.
    jobs: Vec<Entry>,
    /// Parked jobs in arrival order: exactly the entries holding a run
    /// payload.
    queue: VecDeque<u64>,
    /// Set by the collect that saw shutdown: nothing parks any more.
    closed: bool,
}

/// Where job `id` sits in [`Inner::jobs`].
fn slot(id: u64) -> Option<usize> {
    usize::try_from(id.checked_sub(1)?).ok()
}

impl Inner {
    fn entry(&self, id: u64) -> Option<&Entry> {
        self.jobs.get(slot(id)?)
    }

    fn entry_mut(&mut self, id: u64) -> Option<&mut Entry> {
        self.jobs.get_mut(slot(id)?)
    }

    /// `name`'s account, opened on first sight (the only time its name
    /// is copied into the map).
    fn tenant(&mut self, name: &str) -> &mut Tenant {
        if !self.tenants.contains_key(name) {
            self.tenants.insert(name.to_string(), Tenant::default());
        }
        self.tenants.get_mut(name).expect("tenant just opened")
    }

    /// Jobs of `tenant` counting against its quota.
    fn in_flight(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.in_flight)
    }

    fn count(&self, state: JobState) -> usize {
        self.counts[state as usize]
    }

    /// Move job `id` to `to` — the one place a job's state changes —
    /// keeping the state counts and its tenant's in-flight count in step.
    fn transition(&mut self, id: u64, to: JobState) -> Option<&mut Entry> {
        let e = self.jobs.get_mut(slot(id)?)?;
        let from = std::mem::replace(&mut e.record.state, to);
        self.counts[from as usize] -= 1;
        self.counts[to as usize] += 1;
        if from.in_flight() != to.in_flight() {
            let t = self
                .tenants
                .get_mut(e.record.tenant.as_str())
                .expect("every job's tenant has an account");
            if to.in_flight() {
                t.in_flight += 1;
            } else {
                t.in_flight -= 1;
            }
        }
        Some(e)
    }

    /// Move job `id` to the terminal `state`, record how it ended and
    /// return the record; `None`, and nothing changed or counted, when
    /// the job is unknown or already terminal. A job still parked leaves
    /// the queue (its payload, and with it its reply channel, is dropped).
    fn finish(
        &mut self,
        id: u64,
        state: JobState,
        hits: usize,
        resumes: u64,
        error: Option<String>,
        now_us: u64,
    ) -> Option<JobRecord> {
        debug_assert!(!state.in_flight(), "{state:?} is not terminal");
        if !self.entry(id)?.record.state.in_flight() {
            return None;
        }
        let e = self.transition(id, state).expect("job looked up above");
        e.record.hits = hits;
        e.record.resumes = resumes;
        e.record.error = error;
        e.record.phases.finished_us = Some(now_us);
        let rec = e.record.clone();
        if e.run.take().is_some() {
            self.queue.retain(|&q| q != id);
        }
        let totals = &mut self.tenant(&rec.tenant).totals;
        match state {
            JobState::Done => totals.done += 1,
            JobState::Failed => totals.failed += 1,
            JobState::Cancelled => totals.cancelled += 1,
            JobState::Queued | JobState::Running => {}
        }
        Some(rec)
    }
}

/// Counts over the whole registry, for `stats` and the CI smoke gate.
/// The first block are current-state gauges (jobs in each state now);
/// the `*_total` fields and per-tenant totals are cumulative since
/// daemon start and never decrease.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs ever accepted.
    pub total: usize,
    /// Currently waiting for a slot.
    pub queued: usize,
    /// Currently holding a slot.
    pub running: usize,
    /// Completed with hits.
    pub done: usize,
    /// Errored.
    pub failed: usize,
    /// Drained before completion.
    pub cancelled: usize,
    /// Submissions bounced at the door (tenant over quota).
    pub rejected: u64,
    /// Jobs ever finished successfully.
    pub done_total: u64,
    /// Jobs ever finished in failure.
    pub failed_total: u64,
    /// Jobs ever cancelled.
    pub cancelled_total: u64,
    /// Cumulative per-tenant outcome totals, tenant-sorted.
    pub(crate) tenants: Vec<(String, TenantTotals)>,
    /// Admitted jobs parked for the next region (health's `parked`).
    pub(crate) parked: usize,
}

impl StatsSnapshot {
    /// One flat JSON line (the `stats` response body). Legacy keys keep
    /// their position so existing `"done":N` greps stay valid; the
    /// cumulative counters and tenant count extend the line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"jobs\":{},\"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"cancelled\":{},\"rejected\":{},\"done_total\":{},\"failed_total\":{},\"cancelled_total\":{},\"tenants\":{}}}",
            self.total,
            self.queued,
            self.running,
            self.done,
            self.failed,
            self.cancelled,
            self.rejected,
            self.done_total,
            self.failed_total,
            self.cancelled_total,
            self.tenants.len()
        )
    }
}

/// Thread-safe job table and queue. See the module docs for the locking
/// story.
pub(crate) struct Registry {
    inner: Mutex<Inner>,
    /// Wakes the collector blocked in [`Registry::collect`] when a job
    /// parks.
    parked: Condvar,
    obs: Arc<Obs>,
}

impl Registry {
    /// An empty registry reporting every lifecycle transition to `obs`
    /// (phase stamps use its daemon-epoch clock); ids start at 1 (`0` is
    /// the solo-run trace id, never a job).
    pub(crate) fn new(obs: Arc<Obs>) -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            parked: Condvar::new(),
            obs,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics holding the registry")
    }

    /// `true` while any job is queued or running — what the drain-time
    /// accept loop checks so health/metrics probes keep answering until
    /// the last in-flight job reaches a terminal state.
    pub(crate) fn has_inflight(&self) -> bool {
        let g = self.lock();
        g.count(JobState::Queued) + g.count(JobState::Running) > 0
    }

    /// Accept a job, enforcing the per-tenant in-flight quota. Returns
    /// the job id, or the rejection message. `drain` is the job's
    /// cancel: [`Registry::cancel`] requests it.
    pub(crate) fn submit(
        &self,
        tenant: &str,
        query_len: usize,
        quota: usize,
        drain: Arc<DrainSignal>,
    ) -> Result<u64, String> {
        let mut g = self.lock();
        let in_flight = g.in_flight(tenant);
        if in_flight >= quota {
            g.rejected += 1;
            g.tenant(tenant).totals.rejected += 1;
            drop(g);
            self.obs.log(
                LogLevel::Warn,
                "job_rejected",
                &format!(
                    ",\"tenant\":\"{}\",\"in_flight\":{in_flight},\"quota\":{quota}",
                    json::escape(tenant)
                ),
            );
            return Err(format!(
                "tenant '{tenant}' quota exceeded ({in_flight} jobs in flight, quota {quota})"
            ));
        }
        let id = g.jobs.len() as u64 + 1;
        let account = g.tenant(tenant);
        account.totals.submitted += 1;
        account.in_flight += 1;
        g.counts[JobState::Queued as usize] += 1;
        g.jobs.push(Entry {
            record: JobRecord {
                id,
                tenant: tenant.to_string(),
                state: JobState::Queued,
                query_len,
                hits: 0,
                resumes: 0,
                batch: 0,
                phases: Phases {
                    submitted_us: self.obs.now_us(),
                    ..Phases::default()
                },
                error: None,
            },
            drain,
            run: None,
        });
        drop(g);
        self.obs.log(
            LogLevel::Info,
            "job_submitted",
            &format!(
                ",\"job\":{id},\"tenant\":\"{}\",\"query_len\":{query_len}",
                json::escape(tenant)
            ),
        );
        Ok(id)
    }

    /// Admit job `id` — its ack reached the client — and park it for the
    /// next region: stamp the admission phase, keep `run` in its entry,
    /// queue its id and wake the collector. `false` when the job cannot
    /// park: shutdown already closed the queue (nobody will ever run it,
    /// so the caller cancels it), or the job is unknown, parked already
    /// or past `Queued`.
    pub(crate) fn admit(&self, id: u64, run: RunPayload) -> bool {
        let mut g = self.lock();
        let now = self.obs.now_us();
        let open = !g.closed;
        let Some(e) = g.entry_mut(id) else {
            return false;
        };
        e.record.phases.admitted_us = Some(now);
        let parks = open && e.record.state == JobState::Queued && e.run.is_none();
        if parks {
            e.run = Some(run);
            g.queue.push_back(id);
        }
        drop(g);
        self.obs
            .log(LogLevel::Debug, "job_admitted", &format!(",\"job\":{id}"));
        if parks {
            self.parked.notify_all();
        }
        parks
    }

    /// Collector side: block until at least one job is parked (or
    /// shutdown fires), hold the gather window open until `max` jobs are
    /// parked or its deadline — fixed at the first arrival, not moved by
    /// later ones — passes, so concurrent submits join the same region;
    /// then take up to `max` jobs in arrival order, with why the window
    /// closed. In the same lock trip every job taken is stamped gathered
    /// (with the number taken as its `batch`) and moved to `Running`, or
    /// to `Cancelled` when its drain fired while it was parked.
    ///
    /// Returns `None` once shutdown has fired and the queue is empty —
    /// the collector's exit condition. Shutdown with jobs still parked,
    /// before or inside the window, closes the queue and takes them all
    /// (no window closed: the reason is `None`); their drains are scoped
    /// under the shutdown, so they come back cancelled. Launching a
    /// region would race the drain, and an open queue would let a late
    /// submit park where no collector will ever look.
    pub(crate) fn collect(
        &self,
        max: usize,
        window: Duration,
        shutdown: &DrainSignal,
    ) -> Option<Gathered> {
        let max = max.max(1);
        let mut g = self.lock();
        let mut deadline: Option<Instant> = None;
        let (n, closed) = loop {
            if shutdown.is_requested() {
                g.closed = true;
                if g.queue.is_empty() {
                    return None;
                }
                break (g.queue.len(), None);
            }
            let mut wait = SHUTDOWN_POLL;
            if !g.queue.is_empty() {
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + window);
                if g.queue.len() >= max {
                    break (max, Some(WindowClosed::Full));
                }
                if now >= deadline {
                    break (g.queue.len(), Some(WindowClosed::Deadline));
                }
                wait = wait.min(deadline - now);
            }
            g = (self.parked.wait_timeout(g, wait))
                .expect("no thread panics holding the registry")
                .0;
        };
        let now = self.obs.now_us();
        let mut gathered = Gathered {
            live: Vec::with_capacity(n),
            cancelled: Vec::new(),
            closed,
        };
        // Per job taken, in arrival order: its tenant when it runs, its
        // final record when it was cancelled while parked.
        let mut taken: Vec<(u64, Result<String, JobRecord>)> = Vec::with_capacity(n);
        for id in g.queue.drain(..n).collect::<Vec<_>>() {
            let e = g.entry_mut(id).expect("a parked job has an entry");
            e.record.phases.gathered_us = Some(now);
            e.record.batch = n;
            let run = e.run.take().expect("a parked job holds its payload");
            if e.drain.is_requested() {
                let rec = g.finish(id, JobState::Cancelled, 0, 0, None, now);
                taken.push((id, Err(rec.expect("a parked job is queued"))));
                gathered.cancelled.push(run.reply);
            } else {
                let e = g
                    .transition(id, JobState::Running)
                    .expect("a parked job has an entry");
                e.record.phases.started_us = Some(now);
                taken.push((id, Ok(json::escape(&e.record.tenant))));
                let drain = Arc::clone(&e.drain);
                gathered.live.push(LiveJob { id, drain, run });
            }
        }
        drop(g);
        for (id, job) in &taken {
            let kv = format!(",\"job\":{id},\"batch\":{n}");
            self.obs.log(LogLevel::Debug, "job_gathered", &kv);
            match job {
                Ok(tenant) => self.obs.log(
                    LogLevel::Info,
                    "job_running",
                    &format!(",\"job\":{id},\"tenant\":\"{tenant}\",\"batch\":{n}"),
                ),
                Err(rec) => {
                    self.report_finish(rec);
                }
            }
        }
        Some(gathered)
    }

    /// Stamp the first hit line streamed back to the submitter (first
    /// call wins; later hits don't move the stamp).
    pub(crate) fn record_first_hit(&self, id: u64) {
        let mut g = self.lock();
        if let Some(e) = g.entry_mut(id) {
            if e.record.phases.first_hit_us.is_none() {
                let now = self.obs.now_us();
                e.record.phases.first_hit_us = Some(now);
                self.obs
                    .on_first_hit(now.saturating_sub(e.record.phases.submitted_us));
            }
        }
    }

    /// Record how job `id` ended: its one terminal transition, releasing
    /// its quota slot. Safe on jobs that never ran (ack-write failure,
    /// refused at a closed queue). `None` when the job is unknown or
    /// already terminal — then nothing is counted, and the caller must
    /// not reply: whoever made the terminal transition replied.
    ///
    /// Stamps the terminal phase, bumps the per-tenant counters, and
    /// folds the job's phase latencies into the obs histograms. Returns
    /// the updated record plus whether the job crossed the slow-query
    /// threshold (the caller then dumps its merged timeline).
    pub(crate) fn finish(
        &self,
        id: u64,
        state: JobState,
        hits: usize,
        resumes: u64,
        error: Option<String>,
    ) -> Option<(JobRecord, bool)> {
        let now = self.obs.now_us();
        let rec = self.lock().finish(id, state, hits, resumes, error, now)?;
        let slow = self.report_finish(&rec);
        Some((rec, slow))
    }

    /// Fold a finished job into the obs histograms and the ops log;
    /// `true` when it crossed the slow-query threshold.
    fn report_finish(&self, rec: &JobRecord) -> bool {
        let slow = self.obs.record_finish(&rec.phases, rec.resumes);
        let level = match (rec.state, slow) {
            (JobState::Failed, _) => LogLevel::Error,
            (_, true) => LogLevel::Warn,
            _ => LogLevel::Info,
        };
        let mut kv = format!(
            ",\"job\":{},\"tenant\":\"{}\",\"state\":\"{}\",\"hits\":{},\"resumes\":{},\"batch\":{}",
            rec.id,
            json::escape(&rec.tenant),
            rec.state.name(),
            rec.hits,
            rec.resumes,
            rec.batch
        );
        if let Some(f) = rec.phases.finished_us {
            kv.push_str(&format!(
                ",\"total_us\":{}",
                f.saturating_sub(rec.phases.submitted_us)
            ));
        }
        if slow {
            kv.push_str(",\"slow\":true");
        }
        if let Some(e) = &rec.error {
            kv.push_str(&format!(",\"error\":\"{}\"", json::escape(e)));
        }
        self.obs.log(level, "job_finished", &kv);
        slow
    }

    /// Request job `id`'s drain. Running jobs stop at the next chunk
    /// boundary (checkpointed if the daemon has a checkpoint dir); a
    /// parked job is cancelled by the collect that reaches it. Returns
    /// the state observed at cancel time.
    pub(crate) fn cancel(&self, id: u64) -> Result<JobState, String> {
        let g = self.lock();
        let e = g.entry(id).ok_or(format!("no such job {id}"))?;
        let state = e.record.state;
        e.drain.request();
        Ok(state)
    }

    /// Snapshot of one record.
    pub(crate) fn status(&self, id: u64) -> Option<JobRecord> {
        self.lock().entry(id).map(|e| e.record.clone())
    }

    /// Counts across all jobs, read from the kept counts and totals.
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let g = self.lock();
        let count = |state: JobState| g.count(state);
        StatsSnapshot {
            total: g.jobs.len(),
            queued: count(JobState::Queued),
            running: count(JobState::Running),
            done: count(JobState::Done),
            failed: count(JobState::Failed),
            cancelled: count(JobState::Cancelled),
            rejected: g.rejected,
            done_total: count(JobState::Done) as u64,
            failed_total: count(JobState::Failed) as u64,
            cancelled_total: count(JobState::Cancelled) as u64,
            tenants: g
                .tenants
                .iter()
                .map(|(k, v)| (k.clone(), v.totals))
                .collect(),
            parked: g.queue.len(),
        }
    }

    /// The whole table as JSONL, one record per line in id order (the
    /// shutdown dump artifact).
    pub(crate) fn dump_jsonl(&self) -> String {
        let g = self.lock();
        let mut out = String::new();
        for e in &g.jobs {
            out.push_str(&e.record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Never requested: a collect under it only ends at a window's close.
    static OFF: DrainSignal = DrainSignal::new();

    fn registry() -> Registry {
        Registry::new(Arc::new(Obs::disabled()))
    }

    fn drain() -> Arc<DrainSignal> {
        Arc::new(DrainSignal::new())
    }

    /// A run payload whose reply nobody reads.
    fn run() -> RunPayload {
        RunPayload {
            residues: vec![1, 2, 3],
            top: 5,
            drill: None,
            reply: mpsc::channel().0,
        }
    }

    /// Park job `id` and collect it alone; whether it now runs.
    fn start(r: &Registry, id: u64) -> bool {
        assert!(r.admit(id, run()), "job {id} parks");
        let g = r.collect(1, Duration::ZERO, &OFF).expect("a parked job");
        g.live.iter().any(|j| j.id == id)
    }

    /// Submit and park `n` jobs whose drains are scoped under `parent`.
    fn park(r: &Registry, n: usize, parent: &'static DrainSignal) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let d = Arc::new(DrainSignal::scoped(parent));
                let id = r.submit("t", 3, usize::MAX, d).unwrap();
                assert!(r.admit(id, run()), "job {id} parks");
                id
            })
            .collect()
    }

    fn live_ids(g: &Gathered) -> Vec<u64> {
        g.live.iter().map(|j| j.id).collect()
    }

    #[test]
    fn quota_counts_only_in_flight_jobs() {
        let r = registry();
        let a = r.submit("acme", 10, 2, drain()).unwrap();
        let _b = r.submit("acme", 10, 2, drain()).unwrap();
        let err = r.submit("acme", 10, 2, drain()).unwrap_err();
        assert!(err.contains("quota"), "{err}");
        assert_eq!(r.stats().rejected, 1);
        // Another tenant is unaffected.
        r.submit("other", 10, 2, drain()).unwrap();
        // Finishing one frees the quota.
        assert!(start(&r, a));
        r.finish(a, JobState::Done, 3, 0, None);
        r.submit("acme", 10, 2, drain()).unwrap();
    }

    #[test]
    fn finish_on_never_admitted_job_leaks_no_slot() {
        let r = registry();
        let a = r.submit("t", 5, 4, drain()).unwrap();
        // Ack write failed before the job ever ran: finishing the
        // still-Queued job must release quota without touching the run
        // slot count.
        r.finish(a, JobState::Failed, 0, 0, Some("client gone".into()));
        assert_eq!(r.stats().running, 0);
        assert_eq!(r.stats().failed, 1);
        // And a pre-drained job never takes a slot either.
        let db = drain();
        let b = r.submit("t", 5, 4, Arc::clone(&db)).unwrap();
        db.request();
        assert!(!start(&r, b));
        assert_eq!(r.status(b).unwrap().state, JobState::Cancelled);
        assert_eq!(r.stats().running, 0);
        // A live job does, and finish gives it back exactly once.
        let c = r.submit("t", 5, 4, drain()).unwrap();
        assert!(start(&r, c));
        assert_eq!(r.stats().running, 1);
        r.finish(c, JobState::Done, 2, 0, None);
        assert_eq!(r.stats().running, 0);
        assert!(!r.admit(99, run()), "unknown job never parks");
        // A terminal job's second finish changes and counts nothing.
        assert!(r.finish(c, JobState::Failed, 0, 0, None).is_none());
        let s = r.stats();
        assert_eq!((s.done, s.failed, s.cancelled), (1, 1, 1), "{s:?}");
        assert_eq!(r.status(c).unwrap().state, JobState::Done);
    }

    #[test]
    fn cumulative_counters_and_tenant_totals_survive_all_transitions() {
        // Sequence every lifecycle transition and audit the cumulative
        // counters after each: done, failed, cancelled, rejected, plus
        // per-tenant running totals that never decrement.
        let r = registry();

        // acme #1: full happy path with all phase stamps.
        let a = r.submit("acme", 10, 2, drain()).unwrap();
        assert!(start(&r, a));
        r.record_first_hit(a);
        let (rec, slow) = r.finish(a, JobState::Done, 5, 2, None).unwrap();
        assert!(!slow, "no slow-query threshold configured");
        assert_eq!(rec.batch, 1, "collected alone");
        assert!(rec.phases.admitted_us.is_some());
        assert!(rec.phases.gathered_us.is_some());
        assert!(rec.phases.started_us.is_some());
        assert!(rec.phases.first_hit_us.is_some());
        assert!(rec.phases.finished_us.is_some());
        let p = rec.phases;
        assert!(p.submitted_us <= p.admitted_us.unwrap());
        assert!(p.admitted_us <= p.gathered_us && p.gathered_us <= p.started_us);

        // acme #2: fails mid-run.
        let b = r.submit("acme", 10, 2, drain()).unwrap();
        assert!(start(&r, b));
        r.finish(b, JobState::Failed, 0, 0, Some("boom".into()));

        // acme #3 + #4 fill the quota; #5 is rejected.
        let c = r.submit("acme", 10, 2, drain()).unwrap();
        let d = r.submit("acme", 10, 2, drain()).unwrap();
        assert!(r.submit("acme", 10, 2, drain()).is_err());

        // #3 is cancelled while queued (never charged a slot).
        r.cancel(c).unwrap();
        r.finish(c, JobState::Cancelled, 0, 0, None);
        // #4 runs to completion.
        assert!(start(&r, d));
        r.finish(d, JobState::Done, 1, 0, None);

        // beta: one clean run, its totals independent of acme's.
        let e = r.submit("beta", 7, 2, drain()).unwrap();
        assert!(start(&r, e));
        r.finish(e, JobState::Done, 2, 1, None);

        let s = r.stats();
        assert_eq!((s.done, s.failed, s.cancelled), (3, 1, 1));
        assert_eq!(
            (s.done_total, s.failed_total, s.cancelled_total, s.rejected),
            (3, 1, 1, 1)
        );
        assert_eq!(s.tenants.len(), 2);
        let acme = &s.tenants[0];
        assert_eq!(acme.0, "acme");
        assert_eq!(
            acme.1,
            TenantTotals {
                submitted: 4,
                done: 2,
                failed: 1,
                cancelled: 1,
                rejected: 1,
            }
        );
        let beta = &s.tenants[1];
        assert_eq!(beta.0, "beta");
        assert_eq!(
            beta.1,
            TenantTotals {
                submitted: 1,
                done: 1,
                failed: 0,
                cancelled: 0,
                rejected: 0,
            }
        );

        // The stats line keeps legacy keys and gains cumulative ones.
        let line = s.to_json();
        assert_eq!(crate::json::field_u64(&line, "done"), Some(3));
        assert_eq!(crate::json::field_u64(&line, "done_total"), Some(3));
        assert_eq!(crate::json::field_u64(&line, "cancelled_total"), Some(1));
        assert_eq!(crate::json::field_u64(&line, "tenants"), Some(2));

        // Phase stamps serialize only when reached: the cancelled job
        // never started.
        let dump = r.dump_jsonl();
        let cancelled_line = dump
            .lines()
            .find(|l| crate::json::field_u64(l, "job") == Some(c))
            .unwrap();
        assert!(crate::json::field_u64(cancelled_line, "submitted_us").is_some());
        assert!(!cancelled_line.contains("started_us"), "{cancelled_line}");
        assert!(cancelled_line.contains("finished_us"), "{cancelled_line}");

        // No in-flight jobs remain.
        assert!(!r.has_inflight());
    }

    /// Jobs per state and per-tenant in-flight counts, recounted from the
    /// dump — the full walk the kept counts replace.
    fn recount(r: &Registry) -> ([usize; 5], BTreeMap<String, usize>) {
        let mut states = [0; 5];
        let mut in_flight = BTreeMap::new();
        for line in r.dump_jsonl().lines() {
            let state = match crate::json::field_str(line, "state").as_deref() {
                Some("queued") => JobState::Queued,
                Some("running") => JobState::Running,
                Some("done") => JobState::Done,
                Some("failed") => JobState::Failed,
                Some("cancelled") => JobState::Cancelled,
                other => panic!("unknown state {other:?} in {line}"),
            };
            states[state as usize] += 1;
            if state.in_flight() {
                let tenant = crate::json::field_str(line, "tenant").expect("tenant");
                *in_flight.entry(tenant).or_default() += 1;
            }
        }
        (states, in_flight)
    }

    #[test]
    fn kept_counts_equal_a_full_recount_after_every_operation() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const TENANTS: [&str; 3] = ["acme", "beta", "gamma"];
        const TERMINAL: [JobState; 3] = [JobState::Done, JobState::Failed, JobState::Cancelled];
        const QUOTA: usize = 2;
        let r = registry();
        let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
        // Model of what the registry must report: drain per job (index
        // `id - 1`), the parked ids in arrival order, cumulative outcome
        // totals (indexed like `TERMINAL`), per-tenant totals.
        let mut drains: Vec<Arc<DrainSignal>> = Vec::new();
        let mut parked: VecDeque<u64> = VecDeque::new();
        let (mut outcomes, mut rejected) = ([0u64; 3], 0u64);
        let mut tenants: BTreeMap<String, TenantTotals> = BTreeMap::new();
        // Count one terminal transition of a `tenant` job in the model.
        let tally = |outcomes: &mut [u64; 3],
                     tenants: &mut BTreeMap<String, TenantTotals>,
                     tenant: &str,
                     state: JobState| {
            let totals = tenants.get_mut(tenant).unwrap();
            let per_tenant = match state {
                JobState::Done => &mut totals.done,
                JobState::Failed => &mut totals.failed,
                _ => &mut totals.cancelled,
            };
            *per_tenant += 1;
            outcomes[state as usize - JobState::Done as usize] += 1;
        };
        let (mut collects, mut refinished) = (0, 0);
        for step in 0..4_000 {
            let n = drains.len() as u64;
            // Mostly one of the newest jobs (they are the ones still in
            // flight), sometimes an id that was never handed out.
            let id = match rng.gen_range(0..10) {
                0 => 0,
                1 => n + rng.gen_range(1..4u64),
                _ => n.saturating_sub(rng.gen_range(0..8u64)).max(1),
            };
            let known = (1..=n).contains(&id);
            let before = r.status(id);
            match rng.gen_range(0..9) {
                0..=2 => {
                    let tenant: &str = TENANTS[rng.gen_range(0..3usize)];
                    let admits = recount(&r).1.get(tenant).copied().unwrap_or(0) < QUOTA;
                    let d = drain();
                    let totals = tenants.entry(tenant.to_string()).or_default();
                    match r.submit(tenant, 10, QUOTA, Arc::clone(&d)) {
                        Ok(new) => {
                            assert!(admits, "step {step}: {tenant} admitted over quota");
                            assert_eq!(new, n + 1, "ids are dense");
                            drains.push(d);
                            totals.submitted += 1;
                        }
                        Err(_) => {
                            assert!(!admits, "step {step}: {tenant} rejected under quota");
                            rejected += 1;
                            totals.rejected += 1;
                        }
                    }
                }
                3 => {
                    let queued = before
                        .as_ref()
                        .is_some_and(|rec| rec.state == JobState::Queued);
                    let parks = queued && !parked.contains(&id);
                    assert_eq!(r.admit(id, run()), parks, "step {step}: job {id}");
                    if parks {
                        parked.push_back(id);
                    }
                }
                // An empty queue would block until shutdown.
                4 if !parked.is_empty() => {
                    for &p in &parked {
                        if rng.gen_bool(0.2) {
                            drains[p as usize - 1].request();
                        }
                    }
                    let max = rng.gen_range(1..4usize);
                    let got = r.collect(max, Duration::ZERO, &OFF).expect("a parked job");
                    let taken: Vec<u64> = parked.drain(..max.min(parked.len())).collect();
                    let closed = match taken.len() == max {
                        true => WindowClosed::Full,
                        false => WindowClosed::Deadline,
                    };
                    assert_eq!(got.closed, Some(closed), "step {step}");
                    let (live, gone): (Vec<u64>, Vec<u64>) =
                        (taken.iter()).partition(|&&p| !drains[p as usize - 1].is_requested());
                    assert_eq!(live_ids(&got), live, "step {step}");
                    assert_eq!(got.cancelled.len(), gone.len(), "step {step}");
                    for &p in &taken {
                        let rec = r.status(p).unwrap();
                        assert_eq!(rec.batch, taken.len(), "step {step}: job {p}");
                        if gone.contains(&p) {
                            assert_eq!(rec.state, JobState::Cancelled, "step {step}");
                            tally(&mut outcomes, &mut tenants, &rec.tenant, rec.state);
                        } else {
                            assert_eq!(rec.state, JobState::Running, "step {step}");
                        }
                    }
                    collects += 1;
                }
                // A second finish: the job is terminal already.
                5 if before.as_ref().is_some_and(|rec| !rec.state.in_flight()) => {
                    let state = TERMINAL[rng.gen_range(0..3usize)];
                    assert!(r.finish(id, state, 1, 0, None).is_none(), "step {step}");
                    assert_eq!(r.status(id).unwrap().state, before.unwrap().state);
                    refinished += 1;
                }
                6 => assert_eq!(r.cancel(id).is_ok(), known, "step {step}: job {id}"),
                _ => {
                    let state = TERMINAL[rng.gen_range(0..3usize)];
                    let finished = r.finish(id, state, 1, 0, None);
                    let in_flight = before.as_ref().is_some_and(|rec| rec.state.in_flight());
                    assert_eq!(finished.is_some(), in_flight, "step {step}: job {id}");
                    if let Some(rec) = before.filter(|_| in_flight) {
                        tally(&mut outcomes, &mut tenants, &rec.tenant, state);
                        parked.retain(|&p| p != id);
                    }
                }
            }

            let (states, in_flight) = recount(&r);
            let s = r.stats();
            let gauges = [s.queued, s.running, s.done, s.failed, s.cancelled];
            assert_eq!(gauges, states, "step {step}: gauges drifted");
            assert_eq!(s.total as u64, drains.len() as u64);
            assert_eq!(r.has_inflight(), s.queued + s.running > 0, "step {step}");
            assert_eq!(
                [s.done_total, s.failed_total, s.cancelled_total, s.rejected],
                [outcomes[0], outcomes[1], outcomes[2], rejected],
                "step {step}"
            );
            let want: Vec<_> = tenants.iter().map(|(t, v)| (t.clone(), *v)).collect();
            assert_eq!(s.tenants, want, "step {step}");
            assert_eq!(s.parked, parked.len(), "step {step}");
            let g = r.lock();
            assert_eq!(g.queue, parked, "step {step}: queue drifted");
            for tenant in TENANTS {
                let kept = g.in_flight(tenant);
                let counted = in_flight.get(tenant).copied().unwrap_or(0);
                assert_eq!(kept, counted, "step {step}: {tenant} in flight");
            }
        }
        // The walk reached every corner: each state was held by some job,
        // and collects and second finishes both ran.
        let s = r.stats();
        assert!(
            s.done > 0 && s.failed > 0 && s.cancelled > 0 && s.rejected > 0,
            "{s:?}"
        );
        assert!(collects > 20 && refinished > 100, "{collects} {refinished}");
    }

    #[test]
    fn records_serialize_one_line_each() {
        let r = registry();
        let id = r.submit("acme \"inc\"", 42, 4, drain()).unwrap();
        assert_eq!(id, 1, "ids start at 1; 0 is the solo trace id");
        r.cancel(id).unwrap();
        let dump = r.dump_jsonl();
        assert_eq!(dump.lines().count(), 1);
        let line = dump.lines().next().unwrap();
        assert_eq!(crate::json::field_u64(line, "job"), Some(1));
        assert_eq!(
            crate::json::field_str(line, "tenant").as_deref(),
            Some("acme \"inc\"")
        );
        assert!(r.cancel(99).is_err());
    }

    #[test]
    fn gather_window_coalesces_and_cap_splits() {
        let r = registry();
        park(&r, 5, &OFF);
        let first = r.collect(4, Duration::ZERO, &OFF).unwrap();
        assert_eq!(
            live_ids(&first),
            vec![1, 2, 3, 4],
            "arrival order, capped at max_concurrent"
        );
        assert_eq!(first.closed, Some(WindowClosed::Full));
        // A window that is not full is a deadline that is waited out, not
        // a poll.
        let (window, t0) = (Duration::from_millis(60), Instant::now());
        let second = r.collect(4, window, &OFF).unwrap();
        assert_eq!(second.live.len(), 1, "overflow lands in the next region");
        assert!(t0.elapsed() >= window, "{:?}", t0.elapsed());
        assert_eq!(second.closed, Some(WindowClosed::Deadline));
    }

    #[test]
    fn full_window_closes_at_once_and_a_lone_job_waits() {
        static LONE: DrainSignal = DrainSignal::new();
        let r = registry();
        let window = Duration::from_secs(60);
        // Two parked jobs fill a region of two: nothing to wait for.
        park(&r, 2, &LONE);
        let t0 = Instant::now();
        let pair = r.collect(2, window, &LONE).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(
            (pair.live.len(), pair.closed),
            (2, Some(WindowClosed::Full))
        );
        // One job does not: it stays parked for its window, and shutdown
        // hands it back, cancelled, with no window closed.
        park(&r, 1, &LONE);
        std::thread::scope(|s| {
            let t = s.spawn(|| r.collect(2, window, &LONE));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!t.is_finished(), "a lone job is not a full window");
            LONE.request();
            let rest = t.join().unwrap().expect("parked job hands back");
            assert_eq!((rest.cancelled.len(), rest.closed), (1, None));
        });
    }

    #[test]
    fn shutdown_mid_window_closes_queue() {
        // Shutdown landing INSIDE the gather window (after the pre-sleep
        // check) must still close the queue: otherwise the drained jobs
        // launch a region racing the drain, and a submit arriving after
        // this collect parks forever in a queue nobody reads again.
        static MID: DrainSignal = DrainSignal::new();
        let r = registry();
        park(&r, 1, &MID);
        std::thread::scope(|s| {
            let t = s.spawn(|| r.collect(4, Duration::from_millis(200), &MID));
            std::thread::sleep(Duration::from_millis(50));
            MID.request();
            let drained = t.join().unwrap().expect("parked job hands back");
            assert_eq!((drained.cancelled.len(), drained.closed), (1, None));
        });
        let late = r.submit("t", 3, 4, drain()).unwrap();
        assert!(
            !r.admit(late, run()),
            "queue must close when shutdown lands inside the gather window"
        );
        assert!(r.collect(4, Duration::ZERO, &MID).is_none(), "then closed");
    }

    #[test]
    fn shutdown_drains_queue_then_closes() {
        static DOWN: DrainSignal = DrainSignal::new();
        let r = registry();
        park(&r, 1, &DOWN);
        DOWN.request();
        let last = r.collect(4, Duration::ZERO, &DOWN).unwrap();
        assert_eq!(
            last.cancelled.len(),
            1,
            "queued jobs hand back for cancel replies"
        );
        assert!(r.collect(4, Duration::ZERO, &DOWN).is_none(), "then closed");
        let late = r.submit("t", 3, 4, drain()).unwrap();
        assert!(!r.admit(late, run()), "no parking after close");
    }

    #[test]
    fn submits_racing_shutdown_each_get_exactly_one_terminal_reply() {
        static RACE: DrainSignal = DrainSignal::new();
        let r = registry();
        let submit = || {
            let d = Arc::new(DrainSignal::scoped(&RACE));
            let id = r.submit("t", 3, usize::MAX, d).unwrap();
            let (tx, rx) = mpsc::channel();
            let payload = RunPayload { reply: tx, ..run() };
            // What `op_submit` does: a job the closed queue refuses is
            // cancelled by its handler, any other is answered by the
            // collector.
            let parked = r.admit(id, payload);
            let reply = if parked {
                rx.recv().expect("a parked job is answered")
            } else {
                assert!(r.finish(id, JobState::Cancelled, 0, 0, None).is_some());
                JobReply::Cancelled {
                    resumes: 0,
                    batch: 0,
                }
            };
            (parked, (id, reply, rx))
        };
        let (progress, answers) = mpsc::channel();
        let answered = std::thread::scope(|s| {
            // The collector, running nothing: every live job is done at
            // once, and replied to only by the transition that ended it.
            s.spawn(|| {
                while let Some(g) = r.collect(3, Duration::from_millis(1), &RACE) {
                    for reply in g.cancelled {
                        let _ = reply.send(JobReply::Cancelled {
                            resumes: 0,
                            batch: 0,
                        });
                    }
                    for j in g.live {
                        if r.finish(j.id, JobState::Done, 0, 0, None).is_some() {
                            let _ = j.run.reply.send(JobReply::Done {
                                hits: Vec::new(),
                                resumes: 0,
                                batch: 0,
                            });
                        }
                    }
                }
            });
            let submitters: Vec<_> = (0..3)
                .map(|_| {
                    let progress = progress.clone();
                    s.spawn(move || {
                        // Submit until the closed queue refuses one.
                        let mut out = Vec::new();
                        loop {
                            let (parked, answered) = submit();
                            out.push(answered);
                            let _ = progress.send(());
                            if !parked {
                                return out;
                            }
                        }
                    })
                })
                .collect();
            // Shut down once 30 submits have their answers.
            for _ in 0..30 {
                answers.recv().expect("submitters run");
            }
            RACE.request();
            (submitters.into_iter())
                .flat_map(|t| t.join().unwrap())
                .collect::<Vec<_>>()
        });
        let s = r.stats();
        assert_eq!(answered.len(), s.total, "one reply per submit");
        for (id, reply, rx) in &answered {
            // The reply reports the job's one terminal state, and no
            // second reply follows it.
            let state = r.status(*id).unwrap().state;
            let name = match reply {
                JobReply::Done { .. } => "done",
                JobReply::Cancelled { .. } => "cancelled",
                JobReply::Failed { .. } => "failed",
            };
            assert_eq!(state.name(), name, "job {id}");
            assert!(matches!(
                rx.try_recv(),
                Err(mpsc::TryRecvError::Disconnected)
            ));
        }
        assert_eq!(s.done + s.cancelled, s.total, "{s:?}");
        assert_eq!(s.done_total + s.cancelled_total, s.total as u64);
        assert!(s.done >= 30 && s.cancelled >= 3, "{s:?}");
        assert!(!r.has_inflight());
    }
}
