//! The daemon's job registry: every submitted search, its lifecycle
//! state, and the per-tenant quota checked at the door.
//!
//! One `Mutex` guards the whole table, and every operation on the
//! request path does a fixed amount of work under it, however many jobs
//! the daemon has served: a record is found by indexing (ids are dense),
//! and the counts that `submit`, `stats` and `has_inflight` answer from
//! are kept, not recounted. `submit` counts a new job as queued and in
//! flight; every later state change goes through one transition helper
//! (`Inner::transition`) that moves the per-state gauges and the
//! tenant's in-flight count together, so the counts cannot drift from
//! the records. Only `dump_jsonl` walks the table, which keeps every
//! record for the daemon's lifetime.
//! Nothing blocks here: the batching collector is the concurrency gate
//! (one region at a time, `max_concurrent` queries per region) and
//! moves jobs `Queued` → `Running` itself.

use crate::json;
use crate::obs::{LogLevel, Obs, Phases};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use sw_sched::DrainSignal;

/// Lifecycle of one submitted search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for an admission slot.
    Queued,
    /// Holding a slot, search in flight.
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
    fn in_flight(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }

    /// Wire name of the state.
    pub fn name(self) -> &'static str {
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
pub struct JobRecord {
    /// Monotone job id; doubles as the trace query id.
    pub id: u64,
    /// Tenant the job is accounted against.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Query length in residues.
    pub query_len: usize,
    /// Hits reported (0 until done).
    pub hits: usize,
    /// How many checkpoint resumes this run stitched together.
    pub resumes: u64,
    /// Queries sharing this job's region (0 until gathered).
    pub batch: usize,
    /// Lifecycle stamps, µs since the daemon epoch.
    pub phases: Phases,
    /// Failure message for [`JobState::Failed`].
    pub error: Option<String>,
}

impl JobRecord {
    /// One flat JSON line (the registry dump format; also the `status`
    /// response body). Lifecycle stamps appear only for phases the job
    /// actually reached.
    pub fn to_json(&self) -> String {
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
pub struct TenantTotals {
    /// Submits accepted into the registry.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that errored.
    pub failed: u64,
    /// Jobs drained before completion.
    pub cancelled: u64,
    /// Submits bounced at the door.
    pub rejected: u64,
}

struct Entry {
    record: JobRecord,
    drain: Arc<DrainSignal>,
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
    done_total: u64,
    failed_total: u64,
    cancelled_total: u64,
    /// Jobs currently in each state, indexed by `JobState as usize`.
    gauges: [usize; 5],
    tenants: BTreeMap<String, Tenant>,
    /// Job `id` lives at `jobs[id - 1]`: ids are handed out densely from 1.
    jobs: Vec<Entry>,
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

    /// Move job `id` to `to` — the one place a job's state changes —
    /// keeping the state gauges and its tenant's in-flight count in step.
    fn transition(&mut self, id: u64, to: JobState) -> Option<&mut Entry> {
        let e = self.jobs.get_mut(slot(id)?)?;
        let from = std::mem::replace(&mut e.record.state, to);
        self.gauges[from as usize] -= 1;
        self.gauges[to as usize] += 1;
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
    pub tenants: Vec<(String, TenantTotals)>,
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

/// Thread-safe job table. See the module docs for the locking story.
pub struct Registry {
    inner: Mutex<Inner>,
    obs: Arc<Obs>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry; ids start at 1 (`0` is the solo-run trace id,
    /// never a job). Wired to a silent obs plane — embedders that want
    /// metrics/logging use [`Registry::with_obs`].
    pub fn new() -> Self {
        Registry::with_obs(Arc::new(Obs::disabled()))
    }

    /// An empty registry reporting every lifecycle transition to `obs`
    /// (phase stamps use its daemon-epoch clock).
    pub fn with_obs(obs: Arc<Obs>) -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            obs,
        }
    }

    /// The observability plane this registry reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// `true` while any job is queued or running — what the drain-time
    /// accept loop checks so health/metrics probes keep answering until
    /// the last in-flight job reaches a terminal state.
    pub fn has_inflight(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.gauges[JobState::Queued as usize] + g.gauges[JobState::Running as usize] > 0
    }

    /// Accept a job, enforcing the per-tenant in-flight quota. Returns
    /// the job id and its drain signal, or the rejection message.
    pub fn submit(
        &self,
        tenant: &str,
        query_len: usize,
        quota: usize,
        drain: Arc<DrainSignal>,
    ) -> Result<(u64, Arc<DrainSignal>), String> {
        let mut g = self.inner.lock().unwrap();
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
        g.gauges[JobState::Queued as usize] += 1;
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
            drain: Arc::clone(&drain),
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
        Ok((id, drain))
    }

    /// Stamp the admission phase: the ack line reached the client.
    pub fn mark_admitted(&self, id: u64) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.entry_mut(id) {
            e.record.phases.admitted_us = Some(self.obs.now_us());
        }
        drop(g);
        self.obs
            .log(LogLevel::Debug, "job_admitted", &format!(",\"job\":{id}"));
    }

    /// Stamp the gather phase: the collector pulled the job out of the
    /// gather window into a region of `batch` queries.
    pub fn mark_gathered(&self, id: u64, batch: usize) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.entry_mut(id) {
            e.record.phases.gathered_us = Some(self.obs.now_us());
            e.record.batch = batch;
        }
        drop(g);
        self.obs.log(
            LogLevel::Debug,
            "job_gathered",
            &format!(",\"job\":{id},\"batch\":{batch}"),
        );
    }

    /// Stamp the first hit line streamed back to the submitter (first
    /// call wins; later hits don't move the stamp).
    pub fn record_first_hit(&self, id: u64) {
        let mut g = self.inner.lock().unwrap();
        if let Some(e) = g.entry_mut(id) {
            if e.record.phases.first_hit_us.is_none() {
                let now = self.obs.now_us();
                e.record.phases.first_hit_us = Some(now);
                self.obs
                    .on_first_hit(now.saturating_sub(e.record.phases.submitted_us));
            }
        }
    }

    /// Move job `id` to `Running` and charge a run slot — unless its
    /// drain already fired, in which case the job is marked `Cancelled`
    /// and no slot is taken. The batching collector calls this for every
    /// member of a shared region just before the region starts; it never
    /// blocks, because the collector itself is the concurrency gate (one
    /// region at a time, `max_concurrent` queries per region).
    pub fn mark_running(&self, id: u64) -> bool {
        let mut g = self.inner.lock().unwrap();
        let Some(e) = g.entry(id) else {
            return false;
        };
        if e.drain.is_requested() {
            g.transition(id, JobState::Cancelled);
            return false;
        }
        let e = g
            .transition(id, JobState::Running)
            .expect("job looked up above");
        e.record.phases.started_us = Some(self.obs.now_us());
        let tenant = json::escape(&e.record.tenant);
        let batch = e.record.batch;
        drop(g);
        self.obs.log(
            LogLevel::Info,
            "job_running",
            &format!(",\"job\":{id},\"tenant\":\"{tenant}\",\"batch\":{batch}"),
        );
        true
    }

    /// Record how job `id` ended, releasing its run slot if it held one.
    /// Safe on jobs that never reached `Running` (ack-write failure,
    /// cancelled while queued): the slot count only drops when the job
    /// actually charged it.
    ///
    /// Stamps the terminal phase, bumps the cumulative daemon-lifetime
    /// and per-tenant counters, and folds the job's phase latencies into
    /// the obs histograms. Returns the updated record plus whether the
    /// job crossed the slow-query threshold (the caller then dumps its
    /// merged timeline).
    pub fn finish(
        &self,
        id: u64,
        state: JobState,
        hits: usize,
        resumes: u64,
        error: Option<String>,
    ) -> Option<(JobRecord, bool)> {
        let mut g = self.inner.lock().unwrap();
        let e = g.transition(id, state)?;
        e.record.hits = hits;
        e.record.resumes = resumes;
        e.record.error = error;
        e.record.phases.finished_us = Some(self.obs.now_us());
        let rec = e.record.clone();
        let totals = &mut g.tenant(&rec.tenant).totals;
        match state {
            JobState::Done => totals.done += 1,
            JobState::Failed => totals.failed += 1,
            JobState::Cancelled => totals.cancelled += 1,
            JobState::Queued | JobState::Running => {}
        }
        match state {
            JobState::Done => g.done_total += 1,
            JobState::Failed => g.failed_total += 1,
            JobState::Cancelled => g.cancelled_total += 1,
            JobState::Queued | JobState::Running => {}
        }
        drop(g);
        let slow = self.obs.record_finish(&rec.phases, rec.resumes);
        let level = match (state, slow) {
            (JobState::Failed, _) => LogLevel::Error,
            (_, true) => LogLevel::Warn,
            _ => LogLevel::Info,
        };
        let mut kv = format!(
            ",\"job\":{id},\"tenant\":\"{}\",\"state\":\"{}\",\"hits\":{hits},\"resumes\":{resumes},\"batch\":{}",
            json::escape(&rec.tenant),
            state.name(),
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
        Some((rec, slow))
    }

    /// Request job `id`'s drain. Running jobs stop at the next chunk
    /// boundary (checkpointed if the daemon has a checkpoint dir);
    /// queued jobs leave the queue. Returns the state observed at
    /// cancel time.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let g = self.inner.lock().unwrap();
        let e = g.entry(id).ok_or(format!("no such job {id}"))?;
        let state = e.record.state;
        e.drain.request();
        Ok(state)
    }

    /// Snapshot of one record.
    pub fn status(&self, id: u64) -> Option<JobRecord> {
        self.inner
            .lock()
            .unwrap()
            .entry(id)
            .map(|e| e.record.clone())
    }

    /// Counts across all jobs, read from the kept gauges and totals.
    pub fn stats(&self) -> StatsSnapshot {
        let g = self.inner.lock().unwrap();
        let gauge = |state: JobState| g.gauges[state as usize];
        StatsSnapshot {
            total: g.jobs.len(),
            queued: gauge(JobState::Queued),
            running: gauge(JobState::Running),
            done: gauge(JobState::Done),
            failed: gauge(JobState::Failed),
            cancelled: gauge(JobState::Cancelled),
            rejected: g.rejected,
            done_total: g.done_total,
            failed_total: g.failed_total,
            cancelled_total: g.cancelled_total,
            tenants: g
                .tenants
                .iter()
                .map(|(k, v)| (k.clone(), v.totals))
                .collect(),
        }
    }

    /// The whole table as JSONL, one record per line in id order (the
    /// shutdown dump artifact).
    pub fn dump_jsonl(&self) -> String {
        let g = self.inner.lock().unwrap();
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

    fn drain() -> Arc<DrainSignal> {
        Arc::new(DrainSignal::new())
    }

    #[test]
    fn quota_counts_only_in_flight_jobs() {
        let r = Registry::new();
        let (a, _) = r.submit("acme", 10, 2, drain()).unwrap();
        let (_b, _) = r.submit("acme", 10, 2, drain()).unwrap();
        let err = r.submit("acme", 10, 2, drain()).unwrap_err();
        assert!(err.contains("quota"), "{err}");
        assert_eq!(r.stats().rejected, 1);
        // Another tenant is unaffected.
        r.submit("other", 10, 2, drain()).unwrap();
        // Finishing one frees the quota.
        assert!(r.mark_running(a));
        r.finish(a, JobState::Done, 3, 0, None);
        r.submit("acme", 10, 2, drain()).unwrap();
    }

    #[test]
    fn finish_on_never_admitted_job_leaks_no_slot() {
        let r = Registry::new();
        let (a, _) = r.submit("t", 5, 4, drain()).unwrap();
        // Ack write failed before the job ever ran: finishing the
        // still-Queued job must release quota without touching the run
        // slot count.
        r.finish(a, JobState::Failed, 0, 0, Some("client gone".into()));
        assert_eq!(r.stats().running, 0);
        assert_eq!(r.stats().failed, 1);
        // And a pre-drained job never takes a slot either.
        let (b, db) = r.submit("t", 5, 4, drain()).unwrap();
        db.request();
        assert!(!r.mark_running(b));
        assert_eq!(r.status(b).unwrap().state, JobState::Cancelled);
        assert_eq!(r.stats().running, 0);
        // A live job does, and finish gives it back exactly once.
        let (c, _) = r.submit("t", 5, 4, drain()).unwrap();
        assert!(r.mark_running(c));
        assert_eq!(r.stats().running, 1);
        r.finish(c, JobState::Done, 2, 0, None);
        assert_eq!(r.stats().running, 0);
        assert!(!r.mark_running(99), "unknown job never runs");
    }

    #[test]
    fn cumulative_counters_and_tenant_totals_survive_all_transitions() {
        // Sequence every lifecycle transition and audit the cumulative
        // counters after each: done, failed, cancelled, rejected, plus
        // per-tenant running totals that never decrement.
        let r = Registry::new();

        // acme #1: full happy path with all phase stamps.
        let (a, _) = r.submit("acme", 10, 2, drain()).unwrap();
        r.mark_admitted(a);
        r.mark_gathered(a, 3);
        assert!(r.mark_running(a));
        r.record_first_hit(a);
        let (rec, slow) = r.finish(a, JobState::Done, 5, 2, None).unwrap();
        assert!(!slow, "no slow-query threshold configured");
        assert_eq!(rec.batch, 3);
        assert!(rec.phases.admitted_us.is_some());
        assert!(rec.phases.gathered_us.is_some());
        assert!(rec.phases.started_us.is_some());
        assert!(rec.phases.first_hit_us.is_some());
        assert!(rec.phases.finished_us.is_some());

        // acme #2: fails mid-run.
        let (b, _) = r.submit("acme", 10, 2, drain()).unwrap();
        assert!(r.mark_running(b));
        r.finish(b, JobState::Failed, 0, 0, Some("boom".into()));

        // acme #3 + #4 fill the quota; #5 is rejected.
        let (c, _) = r.submit("acme", 10, 2, drain()).unwrap();
        let (d, _) = r.submit("acme", 10, 2, drain()).unwrap();
        assert!(r.submit("acme", 10, 2, drain()).is_err());

        // #3 is cancelled while queued (never charged a slot).
        r.cancel(c).unwrap();
        r.finish(c, JobState::Cancelled, 0, 0, None);
        // #4 runs to completion.
        assert!(r.mark_running(d));
        r.finish(d, JobState::Done, 1, 0, None);

        // beta: one clean run, its totals independent of acme's.
        let (e, _) = r.submit("beta", 7, 2, drain()).unwrap();
        assert!(r.mark_running(e));
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
        let r = Registry::new();
        let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
        // Model of what the registry must report: drain per job (index
        // `id - 1`), cumulative outcome totals, per-tenant totals.
        let mut drains: Vec<Arc<DrainSignal>> = Vec::new();
        let (mut done, mut failed, mut cancelled, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let mut tenants: BTreeMap<String, TenantTotals> = BTreeMap::new();
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
            match rng.gen_range(0..9) {
                0..=2 => {
                    let tenant: &str = TENANTS[rng.gen_range(0..3usize)];
                    let admits = recount(&r).1.get(tenant).copied().unwrap_or(0) < QUOTA;
                    let d = drain();
                    let totals = tenants.entry(tenant.to_string()).or_default();
                    match r.submit(tenant, 10, QUOTA, Arc::clone(&d)) {
                        Ok((new, _)) => {
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
                3 => r.mark_admitted(id),
                4 => r.mark_gathered(id, rng.gen_range(1..4)),
                5 => {
                    let d = known.then(|| &drains[id as usize - 1]);
                    if let Some(d) = d.filter(|_| rng.gen_bool(0.3)) {
                        d.request();
                    }
                    let runs = d.is_some_and(|d| !d.is_requested());
                    assert_eq!(r.mark_running(id), runs, "step {step}: job {id}");
                    if known && !runs {
                        assert_eq!(r.status(id).unwrap().state, JobState::Cancelled);
                    }
                }
                6 => assert_eq!(r.cancel(id).is_ok(), known, "step {step}: job {id}"),
                _ => {
                    let state = TERMINAL[rng.gen_range(0..3usize)];
                    let tenant = r.status(id).map(|rec| rec.tenant);
                    let finished = r.finish(id, state, 1, 0, None);
                    assert_eq!(finished.is_some(), known, "step {step}: job {id}");
                    if let Some(tenant) = tenant {
                        let totals = tenants.get_mut(&tenant).unwrap();
                        let (all, per_tenant) = match state {
                            JobState::Done => (&mut done, &mut totals.done),
                            JobState::Failed => (&mut failed, &mut totals.failed),
                            _ => (&mut cancelled, &mut totals.cancelled),
                        };
                        *all += 1;
                        *per_tenant += 1;
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
                (s.done_total, s.failed_total, s.cancelled_total, s.rejected),
                (done, failed, cancelled, rejected),
                "step {step}"
            );
            let want: Vec<_> = tenants.iter().map(|(t, v)| (t.clone(), *v)).collect();
            assert_eq!(s.tenants, want, "step {step}");
            let g = r.inner.lock().unwrap();
            for tenant in TENANTS {
                let kept = g.in_flight(tenant);
                let counted = in_flight.get(tenant).copied().unwrap_or(0);
                assert_eq!(kept, counted, "step {step}: {tenant} in flight");
            }
        }
        // The walk reached every corner: each state was held by some job.
        let s = r.stats();
        assert!(
            s.done > 0 && s.failed > 0 && s.cancelled > 0 && s.rejected > 0,
            "{s:?}"
        );
    }

    #[test]
    fn records_serialize_one_line_each() {
        let r = Registry::new();
        let (id, _) = r.submit("acme \"inc\"", 42, 4, drain()).unwrap();
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
}
