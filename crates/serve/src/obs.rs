//! `sw-obs` — the daemon-lifetime observability plane.
//!
//! Three concerns live here, all fed by the lifecycle stamps the
//! registry records on every job:
//!
//! 1. **Aggregation** ([`Obs`]): fixed-bucket latency histograms per
//!    request phase (admit / gather / run / first-hit / total), SLO
//!    counters (rejections, cancels, degraded runs, resumes, checkpoint
//!    writes, broken-pipe streams, slow queries) and a windowed
//!    aggregate-GCUPS series, rendered as a Prometheus text snapshot by
//!    [`Obs::prometheus`] for the `{"op":"metrics"}` wire operation and
//!    the `--metrics-file` periodic dump.
//! 2. **Structured ops log** ([`Obs::log`]): one flat JSON line per
//!    lifecycle transition, leveled (`--log-level`), to stderr or
//!    `--log-file`. The slow-query path (`--slow-query-ms`) rides on
//!    the same sink and counts into `sw_serve_slow_queries_total`.
//! 3. **Health** ([`Obs::health_json`]): readiness/liveness for the
//!    `{"op":"health"}` operation — ready only once the snapshot is
//!    digest-verified and resident, the collector thread is alive, and
//!    the daemon is not draining.
//!
//! Everything is lock-cheap by construction: the hot path takes one
//! short mutex per transition (a handful of integer adds), and the
//! scrape renders from a clone of the aggregate under the same lock.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sw_trace::export::{Histogram, PromWriter};

use crate::batch::WindowClosed;
use crate::registry::StatsSnapshot;

/// Phase-latency bucket bounds (µs). Wider than the kernel-level
/// `HIST_BUCKETS_US` table because daemon phases span from
/// sub-millisecond admission to multi-second drilled runs.
pub static PHASE_BUCKETS_US: [u64; 12] = [
    100,
    500,
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    30_000_000,
    120_000_000,
];

/// Region-size bucket bounds (queries coalesced per dual-pool region).
pub static REGION_SIZE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Width of one aggregate-GCUPS window (µs).
pub const GCUPS_WINDOW_US: u64 = 1_000_000;

/// Windows retained for the `sw_serve_gcups_window` series.
const GCUPS_WINDOWS_KEPT: usize = 64;

/// Ops-log severity. Ordered so `Error < Warn < Info < Debug`; a sink
/// configured at level L emits every line with level ≤ L, and `Off`
/// silences the log entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No ops log.
    #[default]
    Off,
    /// Failures only (broken pipes, engine errors).
    Error,
    /// Errors plus degraded runs, slow queries, drains.
    Warn,
    /// One line per lifecycle transition (the operational default).
    Info,
    /// Everything, including per-region gather detail.
    Debug,
}

impl LogLevel {
    /// Parse a CLI-facing level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// Stable lowercase name (what log lines carry).
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// Observability configuration carried by `ServeConfig`.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Ops-log threshold.
    pub log_level: LogLevel,
    /// Ops-log destination (stderr when `None`).
    pub log_file: Option<PathBuf>,
    /// Slow-query threshold in milliseconds; `None` disables the
    /// slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Content digest of the resident snapshot, when it was
    /// digest-verified at load (surfaces in health as
    /// `snapshot_verified` / `snapshot_digest`).
    pub snapshot_digest: Option<u64>,
    /// Set when this daemon is a shard worker: every Prometheus series
    /// gains a `shard="<index>"` label and health reports the shard
    /// placement, so a coordinator (or an aggregating scrape) can tell
    /// workers apart.
    pub shard: Option<ShardRole>,
}

/// The shard a worker daemon serves, as the obs plane reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRole {
    /// Shard index, `0..count`.
    pub index: u64,
    /// Total shards in the split.
    pub count: u64,
    /// Global id of this shard's first sequence.
    pub base: u64,
}

/// Monotonic lifecycle stamps for one job, µs since the daemon epoch.
/// `submitted_us` is always present (stamped by `Registry::submit`);
/// later phases stay `None` on paths that never reach them (a job
/// cancelled while parked never starts; a cancelled run streams no
/// first hit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Registry accepted the submit.
    pub submitted_us: u64,
    /// Ack streamed back to the client.
    pub admitted_us: Option<u64>,
    /// Collector pulled the job out of the gather window.
    pub gathered_us: Option<u64>,
    /// Dual-pool region started executing the job.
    pub started_us: Option<u64>,
    /// First hit line streamed to the client.
    pub first_hit_us: Option<u64>,
    /// Terminal state reached.
    pub finished_us: Option<u64>,
}

#[derive(Debug, Clone)]
struct Agg {
    admit: Histogram,
    gather: Histogram,
    run: Histogram,
    first_hit: Histogram,
    total: Histogram,
    region_size: Histogram,
    resumes: u64,
    degraded_runs: u64,
    checkpoint_writes: u64,
    broken_pipes: u64,
    slow_queries: u64,
    connection_evictions: u64,
    connection_threads: u64,
    regions: u64,
    region_queries: u64,
    /// Gather windows closed, indexed by [`WindowClosed`].
    gather_closed: [u64; 2],
    cells_total: u64,
    /// `(window index, cells finishing in window)`, ascending, capped
    /// at [`GCUPS_WINDOWS_KEPT`].
    windows: Vec<(u64, u64)>,
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            admit: Histogram::new(&PHASE_BUCKETS_US),
            gather: Histogram::new(&PHASE_BUCKETS_US),
            run: Histogram::new(&PHASE_BUCKETS_US),
            first_hit: Histogram::new(&PHASE_BUCKETS_US),
            total: Histogram::new(&PHASE_BUCKETS_US),
            region_size: Histogram::new(&REGION_SIZE_BUCKETS),
            resumes: 0,
            degraded_runs: 0,
            checkpoint_writes: 0,
            broken_pipes: 0,
            slow_queries: 0,
            connection_evictions: 0,
            connection_threads: 0,
            regions: 0,
            region_queries: 0,
            gather_closed: [0; 2],
            cells_total: 0,
            windows: Vec::new(),
        }
    }
}

enum Sink {
    Stderr,
    File(std::fs::File),
}

/// The daemon-lifetime aggregator + ops log + health state. One
/// instance per daemon, shared by the registry, the collector and
/// every connection thread through an `Arc`.
pub struct Obs {
    epoch: Instant,
    config: ObsConfig,
    ready: AtomicBool,
    draining: AtomicBool,
    collector_alive: AtomicBool,
    agg: Mutex<Agg>,
    log: Mutex<Sink>,
}

impl Obs {
    /// Build the plane from config. The daemon starts *not ready*:
    /// readiness is granted by `serve()` only after the snapshot is
    /// loaded and the worker scope is up ([`Obs::set_ready`]).
    pub fn new(config: ObsConfig) -> Obs {
        let sink = match &config.log_file {
            Some(path) => OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map(Sink::File)
                .unwrap_or(Sink::Stderr),
            None => Sink::Stderr,
        };
        Obs {
            epoch: Instant::now(),
            config,
            ready: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            collector_alive: AtomicBool::new(false),
            agg: Mutex::new(Agg::default()),
            log: Mutex::new(sink),
        }
    }

    /// A silent plane (log off, no thresholds) — what `Registry::new`
    /// wires up for embedders and tests that don't care about obs.
    pub fn disabled() -> Obs {
        Obs::new(ObsConfig::default())
    }

    /// µs since the daemon epoch — the clock every lifecycle stamp and
    /// log line shares.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Grant/revoke readiness (snapshot resident + digest verified).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Mark the daemon as draining (shutdown requested, in-flight jobs
    /// finishing). A draining daemon reports `ready:false`.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::SeqCst);
    }

    /// Track whether the collector thread is running; health reports
    /// `collector_alive` and readiness requires it.
    pub fn set_collector_alive(&self, alive: bool) {
        self.collector_alive.store(alive, Ordering::SeqCst);
    }

    /// Whether a drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether the collector thread is running.
    pub fn is_collector_alive(&self) -> bool {
        self.collector_alive.load(Ordering::SeqCst)
    }

    /// The slow-query threshold in µs, when configured.
    pub fn slow_query_us(&self) -> Option<u64> {
        self.config.slow_query_ms.map(|ms| ms.saturating_mul(1_000))
    }

    /// Emit one structured log line when `level` clears the configured
    /// threshold. `kv` is a pre-rendered JSON fragment starting with a
    /// comma (`,"job":3,"tenant":"acme"`) or empty; callers escape
    /// their own strings with [`crate::json::escape`]. Sink errors are
    /// deliberately ignored — observability must never take the
    /// daemon down.
    pub fn log(&self, level: LogLevel, event: &str, kv: &str) {
        if level == LogLevel::Off || level > self.config.log_level {
            return;
        }
        let line = format!(
            "{{\"t_us\":{},\"level\":\"{}\",\"event\":\"{}\"{}}}",
            self.now_us(),
            level.name(),
            event,
            kv
        );
        if let Ok(mut sink) = self.log.lock() {
            let _ = match &mut *sink {
                Sink::Stderr => writeln!(std::io::stderr().lock(), "{line}"),
                Sink::File(f) => writeln!(f, "{line}"),
            };
        }
    }

    /// Record why a gather window closed.
    pub(crate) fn on_window_closed(&self, closed: WindowClosed) {
        self.agg.lock().expect("obs agg").gather_closed[closed as usize] += 1;
    }

    /// Record one coalesced region of `queries` jobs.
    pub fn on_region(&self, queries: usize) {
        let mut agg = self.agg.lock().expect("obs agg");
        agg.regions += 1;
        agg.region_queries += queries as u64;
        agg.region_size.record(queries as u64);
    }

    /// Credit `cells` DP cells to the GCUPS window containing `at_us`.
    pub fn on_cells(&self, cells: u64, at_us: u64) {
        if cells == 0 {
            return;
        }
        let idx = at_us / GCUPS_WINDOW_US;
        let mut agg = self.agg.lock().expect("obs agg");
        agg.cells_total += cells;
        match agg.windows.iter_mut().find(|(w, _)| *w == idx) {
            Some(slot) => slot.1 += cells,
            None => {
                agg.windows.push((idx, cells));
                agg.windows.sort_unstable_by_key(|&(w, _)| w);
                let excess = agg.windows.len().saturating_sub(GCUPS_WINDOWS_KEPT);
                if excess > 0 {
                    agg.windows.drain(..excess);
                }
            }
        }
    }

    /// Count a degraded run (a device pool was retired mid-region).
    pub fn on_degraded(&self) {
        self.agg.lock().expect("obs agg").degraded_runs += 1;
    }

    /// Count checkpoint files written by a region.
    pub fn on_checkpoint_writes(&self, n: u64) {
        if n > 0 {
            self.agg.lock().expect("obs agg").checkpoint_writes += n;
        }
    }

    /// Count a reply stream that died mid-write (client gone).
    pub fn on_broken_pipe(&self) {
        self.agg.lock().expect("obs agg").broken_pipes += 1;
    }

    /// Count a connection evicted for not completing its request line
    /// within the per-connection deadline (half-line stalled client).
    pub fn on_connection_evicted(&self) {
        self.agg.lock().expect("obs agg").connection_evictions += 1;
    }

    /// Count a connection-handler thread started by the accept loop
    /// (it found no parked handler to take the connection).
    pub(crate) fn on_connection_thread(&self) {
        self.agg.lock().expect("obs agg").connection_threads += 1;
    }

    /// Record one submit-to-first-hit latency. Recorded at streaming
    /// time, not folded from the phase stamps in [`Obs::record_finish`]:
    /// the collector finishes the registry record *before* the reply
    /// streams, so the first-hit stamp lands after the finish fold.
    pub fn on_first_hit(&self, delta_us: u64) {
        self.agg.lock().expect("obs agg").first_hit.record(delta_us);
    }

    /// Fold one finished job's phase stamps into the lifetime
    /// histograms (`first_hit_us` is recorded separately through
    /// [`Obs::on_first_hit`] — it is stamped after the finish).
    /// Returns `true` when the job's total latency crossed the
    /// slow-query threshold (the caller then dumps its timeline).
    pub fn record_finish(&self, phases: &Phases, resumes: u64) -> bool {
        let sub = phases.submitted_us;
        let gap = |a: Option<u64>, b: u64| a.map(|v| v.saturating_sub(b));
        let mut agg = self.agg.lock().expect("obs agg");
        if let Some(d) = gap(phases.admitted_us, sub) {
            agg.admit.record(d);
        }
        if let (Some(g), Some(a)) = (phases.gathered_us, phases.admitted_us) {
            agg.gather.record(g.saturating_sub(a));
        }
        if let (Some(f), Some(s)) = (phases.finished_us, phases.started_us) {
            agg.run.record(f.saturating_sub(s));
        }
        let total = gap(phases.finished_us, sub);
        if let Some(d) = total {
            agg.total.record(d);
        }
        agg.resumes += resumes;
        let slow = match (self.slow_query_us(), total) {
            (Some(limit), Some(d)) => d > limit,
            _ => false,
        };
        if slow {
            agg.slow_queries += 1;
        }
        slow
    }

    /// Render the `{"op":"health"}` reply: liveness is answering at
    /// all; readiness is snapshot-resident + collector alive + not
    /// draining. `parked` is the batcher's queue depth, reported
    /// against `queue_cap` (the region size cap).
    pub fn health_json(&self, stats: &StatsSnapshot, queue_cap: usize, parked: usize) -> String {
        let ready = self.ready.load(Ordering::SeqCst)
            && self.collector_alive.load(Ordering::SeqCst)
            && !self.draining.load(Ordering::SeqCst);
        let mut out = format!(
            "{{\"ok\":true,\"ready\":{},\"live\":true,\"draining\":{},\"engine_resident\":{},\"collector_alive\":{},\"snapshot_verified\":{},\"queued\":{},\"running\":{},\"parked\":{},\"queue_cap\":{},\"uptime_us\":{}",
            ready,
            self.draining.load(Ordering::SeqCst),
            self.ready.load(Ordering::SeqCst),
            self.collector_alive.load(Ordering::SeqCst),
            self.config.snapshot_digest.is_some(),
            stats.queued,
            stats.running,
            parked,
            queue_cap,
            self.now_us(),
        );
        if let Some(d) = self.config.snapshot_digest {
            out.push_str(&format!(",\"snapshot_digest\":\"{d:016x}\""));
        }
        if let Some(s) = self.config.shard {
            out.push_str(&format!(
                ",\"shard\":{},\"shard_count\":{},\"shard_base\":{}",
                s.index, s.count, s.base
            ));
        }
        out.push('}');
        out
    }

    /// Render the daemon-lifetime Prometheus snapshot for
    /// `{"op":"metrics"}` and `--metrics-file`: tables over the one
    /// [`PromWriter`], so the scrape is clean under
    /// `sw_trace::validate::validate_prometheus_strict` by construction.
    pub fn prometheus(&self, stats: &StatsSnapshot, queue_cap: usize) -> String {
        let agg = self.agg.lock().expect("obs agg").clone();
        // Shard workers label every series so an aggregating scrape
        // (or the coordinator's debugging eye) can tell workers apart;
        // an unsharded daemon emits the label-free families unchanged.
        let shard = self.config.shard.map(|s| s.index.to_string());
        let mut w = PromWriter::new(shard.as_deref().map(|index| ("shard", index)));

        for (name, help, v) in [
            (
                "sw_serve_submitted_total",
                "submit requests admitted to the registry",
                stats.total as u64,
            ),
            (
                "sw_serve_done_total",
                "jobs finished successfully since daemon start",
                stats.done_total,
            ),
            (
                "sw_serve_failed_total",
                "jobs that finished in failure since daemon start",
                stats.failed_total,
            ),
            (
                "sw_serve_cancelled_total",
                "jobs cancelled since daemon start",
                stats.cancelled_total,
            ),
            (
                "sw_serve_rejected_total",
                "submits bounced at the door (tenant over quota)",
                stats.rejected,
            ),
            (
                "sw_serve_resumes_total",
                "checkpoint resumes performed by finished jobs",
                agg.resumes,
            ),
            (
                "sw_serve_degraded_runs_total",
                "finished runs that lost a device pool",
                agg.degraded_runs,
            ),
            (
                "sw_serve_checkpoint_writes_total",
                "checkpoint files written by regions",
                agg.checkpoint_writes,
            ),
            (
                "sw_serve_broken_pipe_total",
                "reply streams that died mid-write",
                agg.broken_pipes,
            ),
            (
                "sw_serve_slow_queries_total",
                "jobs whose total latency crossed --slow-query-ms",
                agg.slow_queries,
            ),
            (
                "sw_serve_connection_evictions_total",
                "connections evicted for stalling before a full request line",
                agg.connection_evictions,
            ),
            (
                "sw_serve_connection_threads_total",
                "connection-handler threads started (an idle handler takes the next connection)",
                agg.connection_threads,
            ),
            (
                "sw_serve_regions_total",
                "dual-pool regions executed",
                agg.regions,
            ),
            (
                "sw_serve_region_queries_total",
                "jobs executed through regions (coalesced or solo)",
                agg.region_queries,
            ),
            (
                "sw_serve_cells_total",
                "DP cells computed across all regions",
                agg.cells_total,
            ),
        ] {
            w.counter(name, help).sample(&[], v);
        }

        let mut per_tenant = w.counter(
            "sw_serve_tenant_jobs_total",
            "per-tenant lifecycle outcomes",
        );
        for (tenant, t) in &stats.tenants {
            for (outcome, v) in [
                ("submitted", t.submitted),
                ("done", t.done),
                ("failed", t.failed),
                ("cancelled", t.cancelled),
                ("rejected", t.rejected),
            ] {
                per_tenant.sample(&[("tenant", tenant), ("outcome", outcome)], v);
            }
        }

        let mut closed = w.counter(
            "sw_serve_windows_total",
            "gather windows closed, by what closed them (full = --max-concurrent jobs parked)",
        );
        for why in [WindowClosed::Full, WindowClosed::Deadline] {
            closed.sample(&[("closed", why.label())], agg.gather_closed[why as usize]);
        }

        let draining = self.draining.load(Ordering::SeqCst);
        let ready = self.ready.load(Ordering::SeqCst)
            && self.collector_alive.load(Ordering::SeqCst)
            && !draining;
        for (name, help, v) in [
            (
                "sw_serve_ready",
                "1 when the daemon would pass a readiness probe",
                u64::from(ready).to_string(),
            ),
            (
                "sw_serve_draining",
                "1 while shutdown drains in-flight jobs",
                u64::from(draining).to_string(),
            ),
            (
                "sw_serve_queued",
                "jobs waiting for the collector",
                stats.queued.to_string(),
            ),
            (
                "sw_serve_running",
                "jobs currently executing in a region",
                stats.running.to_string(),
            ),
            (
                "sw_serve_queue_cap",
                "max queries per coalesced region (--max-concurrent)",
                queue_cap.to_string(),
            ),
            (
                "sw_serve_uptime_seconds",
                "seconds since the daemon epoch",
                format!("{:.3}", self.now_us() as f64 / 1e6),
            ),
        ] {
            w.gauge(name, help).sample(&[], v);
        }

        for (name, help, h) in [
            (
                "sw_serve_admit_us",
                "submit accepted to ack streamed",
                &agg.admit,
            ),
            (
                "sw_serve_gather_us",
                "ack to gather-window exit (batch coalescing wait)",
                &agg.gather,
            ),
            (
                "sw_serve_run_us",
                "region start to terminal state",
                &agg.run,
            ),
            (
                "sw_serve_first_hit_us",
                "submit accepted to first hit streamed",
                &agg.first_hit,
            ),
            (
                "sw_serve_total_us",
                "submit accepted to terminal state",
                &agg.total,
            ),
            (
                "sw_serve_region_size",
                "queries coalesced per region",
                &agg.region_size,
            ),
        ] {
            w.histogram(name, help).series(&[], h);
        }

        let help = format!("aggregate GCUPS over fixed windows ({GCUPS_WINDOW_US} us wide)");
        let mut windows = w.gauge("sw_serve_gcups_window", &help);
        let window_secs = GCUPS_WINDOW_US as f64 / 1e6;
        for (idx, cells) in &agg.windows {
            windows.sample(
                &[("start_us", &(idx * GCUPS_WINDOW_US).to_string())],
                format_args!("{:.6}", *cells as f64 / window_secs / 1e9),
            );
        }
        w.finish()
    }
}

/// Render the *coordinator's* own Prometheus snapshot after a sharded
/// search: transport and failover counters no single worker can see
/// (`search --shards --metrics-out` writes this file; the CI net-smoke
/// job strict-validates it). Kept in the `sw_serve_` namespace so one
/// scrape config covers daemons and coordinators alike.
pub fn coord_prometheus(
    shards: u64,
    requeues: u64,
    failovers: u64,
    net_retries: u64,
    journal_skipped: u64,
) -> String {
    let mut w = PromWriter::new(None);
    for (name, help, v) in [
        (
            "sw_serve_shard_requeues_total",
            "Shard executions requeued after a failed attempt",
            requeues,
        ),
        (
            "sw_serve_shard_failovers_total",
            "Requeues that moved a shard to a replica endpoint",
            failovers,
        ),
        (
            "sw_serve_net_retries_total",
            "Connect retries absorbed by the transport backoff",
            net_retries,
        ),
        (
            "sw_serve_coord_journal_skipped_total",
            "Shards skipped on --resume-coord because the journal had committed them",
            journal_skipped,
        ),
    ] {
        w.counter(name, help).sample(&[], v);
    }
    w.gauge("sw_serve_coord_shards", "Shards coordinated by this search")
        .sample(&[], shards);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TenantTotals;
    use sw_trace::validate::validate_prometheus_strict;

    fn stats_with_tenant() -> StatsSnapshot {
        StatsSnapshot {
            total: 4,
            queued: 1,
            running: 1,
            done: 2,
            failed: 0,
            cancelled: 0,
            rejected: 1,
            done_total: 2,
            failed_total: 0,
            cancelled_total: 0,
            tenants: vec![(
                "ac\"me".to_string(),
                TenantTotals {
                    submitted: 4,
                    done: 2,
                    failed: 0,
                    cancelled: 0,
                    rejected: 1,
                },
            )],
        }
    }

    #[test]
    fn readiness_requires_grant_collector_and_no_drain() {
        let obs = Obs::disabled();
        let stats = StatsSnapshot::default();
        // Before the snapshot is loaded: live but not ready.
        let h = obs.health_json(&stats, 4, 0);
        assert!(h.contains("\"ready\":false"), "{h}");
        assert!(h.contains("\"live\":true"), "{h}");
        assert!(h.contains("\"snapshot_verified\":false"), "{h}");

        obs.set_ready(true);
        obs.set_collector_alive(true);
        let h = obs.health_json(&stats, 4, 0);
        assert!(h.contains("\"ready\":true"), "{h}");

        // Draining flips readiness off while liveness stays up.
        obs.set_draining(true);
        let h = obs.health_json(&stats, 4, 0);
        assert!(h.contains("\"ready\":false"), "{h}");
        assert!(h.contains("\"draining\":true"), "{h}");
        assert!(h.contains("\"live\":true"), "{h}");

        // A digest-verified snapshot surfaces its digest.
        let obs = Obs::new(ObsConfig {
            snapshot_digest: Some(0xabcd),
            ..Default::default()
        });
        let h = obs.health_json(&stats, 4, 0);
        assert!(h.contains("\"snapshot_verified\":true"), "{h}");
        assert!(
            h.contains("\"snapshot_digest\":\"000000000000abcd\""),
            "{h}"
        );
        assert!(crate::json::field_bool(&h, "ok") == Some(true));
    }

    #[test]
    fn snapshot_is_strict_validator_clean_with_hostile_tenant_name() {
        let obs = Obs::disabled();
        obs.set_ready(true);
        obs.set_collector_alive(true);
        obs.on_region(2);
        obs.on_cells(1_000_000, 1_500_000);
        obs.on_cells(2_000_000, 2_100_000);
        obs.on_degraded();
        obs.on_checkpoint_writes(3);
        obs.on_broken_pipe();
        obs.on_connection_thread();
        let phases = Phases {
            submitted_us: 100,
            admitted_us: Some(150),
            gathered_us: Some(3_200),
            started_us: Some(3_300),
            first_hit_us: Some(9_000),
            finished_us: Some(9_100),
        };
        assert!(!obs.record_finish(&phases, 1));
        obs.on_first_hit(8_900);

        let text = obs.prometheus(&stats_with_tenant(), 4);
        let rep = validate_prometheus_strict(&text).expect("strict-clean scrape");
        assert!(rep.families >= 20, "families = {}", rep.families);
        // The quote in the tenant name must have been escaped.
        assert!(text.contains("tenant=\"ac\\\"me\""), "{text}");
        assert!(text.contains("sw_serve_resumes_total 1"), "{text}");
        assert!(text.contains("sw_serve_degraded_runs_total 1"), "{text}");
        assert!(
            text.contains("sw_serve_checkpoint_writes_total 3"),
            "{text}"
        );
        assert!(text.contains("sw_serve_broken_pipe_total 1"), "{text}");
        assert!(
            text.contains("sw_serve_connection_threads_total 1"),
            "{text}"
        );
        assert!(text.contains("sw_serve_total_us_count 1"), "{text}");
        assert!(text.contains("sw_serve_first_hit_us_count 1"), "{text}");
        // Two distinct GCUPS windows were credited.
        assert_eq!(text.matches("sw_serve_gcups_window{").count(), 2, "{text}");
    }

    #[test]
    fn shard_role_labels_every_series_and_stays_strict_clean() {
        let obs = Obs::new(ObsConfig {
            shard: Some(ShardRole {
                index: 1,
                count: 2,
                base: 12,
            }),
            ..Default::default()
        });
        obs.set_ready(true);
        obs.set_collector_alive(true);
        obs.on_region(1);
        obs.on_cells(1_000_000, 500);
        obs.on_connection_evicted();
        let phases = Phases {
            submitted_us: 0,
            admitted_us: Some(10),
            finished_us: Some(50),
            ..Default::default()
        };
        obs.record_finish(&phases, 0);

        let text = obs.prometheus(&stats_with_tenant(), 4);
        validate_prometheus_strict(&text).expect("shard-labelled scrape is strict-clean");
        // Every sample line (non-comment) must carry the shard label.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("shard=\"1\""), "unlabelled sample: {line}");
        }
        assert!(
            text.contains("sw_serve_connection_evictions_total{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sw_serve_tenant_jobs_total{shard=\"1\",tenant="),
            "{text}"
        );
        assert!(
            text.contains("sw_serve_total_us_bucket{shard=\"1\",le="),
            "{text}"
        );

        let h = obs.health_json(&StatsSnapshot::default(), 4, 0);
        assert!(h.contains("\"shard\":1"), "{h}");
        assert!(h.contains("\"shard_count\":2"), "{h}");
        assert!(h.contains("\"shard_base\":12"), "{h}");
    }

    #[test]
    fn slow_query_threshold_counts_and_reports() {
        let obs = Obs::new(ObsConfig {
            slow_query_ms: Some(5),
            ..Default::default()
        });
        let fast = Phases {
            submitted_us: 0,
            finished_us: Some(4_000),
            ..Default::default()
        };
        let slow = Phases {
            submitted_us: 0,
            finished_us: Some(6_000),
            ..Default::default()
        };
        assert!(!obs.record_finish(&fast, 0));
        assert!(obs.record_finish(&slow, 0));
        let text = obs.prometheus(&StatsSnapshot::default(), 4);
        assert!(text.contains("sw_serve_slow_queries_total 1"), "{text}");
    }

    #[test]
    fn log_level_gates_lines_into_file() {
        let dir = std::env::temp_dir().join(format!("sw-obs-log-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("ops.jsonl");
        let _ = std::fs::remove_file(&path);
        let obs = Obs::new(ObsConfig {
            log_level: LogLevel::Info,
            log_file: Some(path.clone()),
            ..Default::default()
        });
        obs.log(LogLevel::Error, "boom", ",\"job\":1");
        obs.log(
            LogLevel::Info,
            "job_finished",
            ",\"job\":1,\"state\":\"done\"",
        );
        obs.log(LogLevel::Debug, "region_detail", ""); // below threshold
        drop(obs);
        let text = std::fs::read_to_string(&path).expect("log file written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"event\":\"boom\""));
        assert!(lines[1].contains("\"event\":\"job_finished\""));
        for l in &lines {
            assert!(crate::json::field_u64(l, "t_us").is_some(), "{l}");
            assert!(crate::json::field_str(l, "level").is_some(), "{l}");
        }
        let _ = std::fs::remove_file(&path);

        // Off silences everything, even errors.
        let silent = Obs::disabled();
        silent.log(LogLevel::Error, "dropped", "");
        // (sink is stderr; nothing to assert beyond "does not panic")
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in [
            LogLevel::Off,
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
        ] {
            assert_eq!(LogLevel::parse(l.name()), Some(l));
        }
        assert_eq!(LogLevel::parse("verbose"), None);
        assert!(LogLevel::Error < LogLevel::Debug);
    }

    #[test]
    fn coord_scrape_is_strict_clean_with_failover_counters() {
        let text = coord_prometheus(4, 3, 2, 5, 1);
        validate_prometheus_strict(&text).expect("coordinator scrape is strict-clean");
        assert!(text.contains("sw_serve_shard_failovers_total 2"), "{text}");
        assert!(text.contains("sw_serve_net_retries_total 5"), "{text}");
        assert!(text.contains("sw_serve_shard_requeues_total 3"), "{text}");
        assert!(
            text.contains("sw_serve_coord_journal_skipped_total 1"),
            "{text}"
        );
        assert!(text.contains("sw_serve_coord_shards 4"), "{text}");
    }
}
