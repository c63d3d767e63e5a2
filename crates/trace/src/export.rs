//! Timeline exporters: JSONL event log, Chrome trace-event JSON
//! (Perfetto / `chrome://tracing`), and a Prometheus-style text
//! snapshot with a windowed GCUPS time-series.
//!
//! All three are hand-rolled string formatting — the workspace builds
//! offline and its `serde` is a no-op shim, so nothing here derives
//! serialization.

use crate::{device_label, DeviceCounters, EventKind, Phase, Timeline, SCHEMA};
use std::fmt::Write as _;

/// Fixed histogram bucket upper bounds (µs) for chunk latency and
/// queue wait. Chosen to straddle the µs-to-100ms range the dual-pool
/// scheduler actually produces; the exporter adds `+Inf`.
pub const HIST_BUCKETS_US: [u64; 9] = [
    50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000,
];

/// Default window width for the GCUPS time-series (µs).
pub const DEFAULT_GCUPS_WINDOW_US: u64 = 50_000;

/// Export the timeline as JSON Lines: a header line carrying the schema
/// version, then one event object per line in global timestamp order.
///
/// Event lines carry `t_us`, `query` (the id of the search that emitted
/// the event — `0` for solo runs), `device`, `worker`, `ph` (Chrome
/// phase letter), `ev` (stable event name) and the kind's payload
/// fields. The query tag is what keeps a merged export of concurrent
/// daemon searches separable: filter on it and each per-search stream
/// reads exactly like a solo run's.
pub fn jsonl(tl: &Timeline) -> String {
    let mut out = String::with_capacity(64 * (tl.total_events() + 1));
    let _ = writeln!(
        out,
        "{{\"schema\":\"{}\",\"tracks\":{},\"dropped\":{}}}",
        SCHEMA,
        tl.tracks.len(),
        tl.total_dropped()
    );
    for (query, device, worker, ev) in tl.events_sorted_q() {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"query\":{},\"device\":{},\"worker\":{},\"ph\":\"{}\",\"ev\":\"{}\"",
            ev.t_us,
            query,
            device,
            worker,
            ev.kind.phase().code(),
            ev.kind.name()
        );
        ev.kind.write_args_json(&mut out);
        out.push_str("}\n");
    }
    out
}

fn chrome_args(kind: &EventKind) -> String {
    // Reuse the JSONL payload writer: it emits `,"k":v` members, which
    // become an args object by trimming the leading comma.
    let mut buf = String::new();
    kind.write_args_json(&mut buf);
    if buf.is_empty() {
        "{}".to_string()
    } else {
        format!("{{{}}}", &buf[1..])
    }
}

/// Chrome-trace process id for a (query, device) pair.
///
/// Solo runs (query 0) keep the historical `pid = device + 1`; each
/// additional concurrent query gets its own pid block so Perfetto
/// renders one process group per (search, device pool) and interleaved
/// runs never share a lane. The block stride bounds devices per query at
/// 64 — far above the dual-pool reality.
fn chrome_pid(query: u64, device: usize) -> u64 {
    query * 64 + device as u64 + 1
}

/// Export the timeline in Chrome trace-event format (JSON object with a
/// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
///
/// Each (query, device pool) pair becomes a process (see `chrome_pid`;
/// solo runs keep `pid = device + 1`) so its worker lanes group
/// together; each worker is a named thread track. Span kinds map to
/// `B`/`E` pairs, instants to `I`, and the split estimator's rebalances
/// to a `C` counter track (`accel_share`).
pub fn chrome_trace(tl: &Timeline) -> String {
    let mut out = String::with_capacity(96 * (tl.total_events() + 8));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\"},\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };

    // Metadata: name each (query, device pool) process and each worker
    // thread. Query 0 keeps the bare pool name so solo-run traces look
    // exactly as before; concurrent queries are prefixed `qN`.
    let mut seen_pools: Vec<(u64, usize)> = Vec::new();
    for t in &tl.tracks {
        if !seen_pools.contains(&(t.query, t.device)) {
            seen_pools.push((t.query, t.device));
            let pool_name = if t.query == 0 {
                format!("{} pool", device_label(t.device))
            } else {
                format!("q{} {} pool", t.query, device_label(t.device))
            };
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"{pool_name}\"}}}}",
                    chrome_pid(t.query, t.device)
                ),
            );
        }
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{} worker {}\"}}}}",
                chrome_pid(t.query, t.device),
                t.worker,
                device_label(t.device),
                t.worker
            ),
        );
    }

    for (query, device, worker, ev) in tl.events_sorted_q() {
        let pid = chrome_pid(query, device);
        let line = match ev.kind.phase() {
            Phase::Counter => format!(
                "{{\"ph\":\"C\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{}}}",
                pid,
                worker,
                ev.t_us,
                "accel_share",
                chrome_args(&ev.kind)
            ),
            Phase::Instant => format!(
                "{{\"ph\":\"I\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{}}}",
                pid,
                worker,
                ev.t_us,
                ev.kind.name(),
                chrome_args(&ev.kind)
            ),
            ph => format!(
                "{{\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{}}}",
                ph.code(),
                pid,
                worker,
                ev.t_us,
                ev.kind.name(),
                chrome_args(&ev.kind)
            ),
        };
        push(&mut out, line);
    }
    out.push_str("\n]}\n");
    out
}

/// A fixed-bucket histogram over `u64` observations — the primitive
/// behind every Prometheus histogram this workspace emits: the
/// per-search chunk-latency/queue-wait families here, and the
/// daemon-lifetime request-phase families in `sw-serve`'s obs plane.
/// Bucket upper bounds are borrowed `'static` tables (one shared table
/// serves every instance); [`Histogram::write_prom`] renders the
/// cumulative `_bucket`/`_sum`/`_count` triplet with the `+Inf`
/// terminal bucket the exposition format requires.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    sum: u64,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&HIST_BUCKETS_US)
    }
}

impl Histogram {
    /// Empty histogram over `bounds` (ascending upper bounds; the
    /// overflow `+Inf` bucket is implicit).
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            n: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.n += 1;
    }

    /// Fold another histogram in (same bucket table — merging across
    /// epochs/workers only makes sense over identical bounds).
    ///
    /// # Panics
    /// Panics when the bucket tables differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge needs identical bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.n += other.n;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Append the Prometheus exposition triplet: cumulative `_bucket`
    /// series ending in `+Inf`, then `_sum` and `_count`. `labels` is a
    /// pre-rendered label body (`device="cpu"` — no braces) shared by
    /// every sample, or `""` for a label-free family.
    pub fn write_prom(&self, out: &mut String, metric: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        for (i, &b) in self.bounds.iter().enumerate() {
            cum += self.counts[i];
            let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"{b}\"}} {cum}");
        }
        cum += self.counts[self.bounds.len()];
        let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}");
        if labels.is_empty() {
            let _ = writeln!(out, "{metric}_sum {}", self.sum);
            let _ = writeln!(out, "{metric}_count {}", self.n);
        } else {
            let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", self.sum);
            let _ = writeln!(out, "{metric}_count{{{labels}}} {}", self.n);
        }
    }

    fn write(&self, out: &mut String, metric: &str, device: usize) {
        self.write_prom(out, metric, &format!("device=\"{}\"", device_label(device)));
    }
}

fn counter_line(out: &mut String, metric: &str, help: &str, rows: &[(usize, u64)]) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} counter");
    for &(device, v) in rows {
        let _ = writeln!(out, "{metric}{{device=\"{}\"}} {v}", device_label(device));
    }
}

/// [`prometheus`] plus a `sw_kernel_isa_info{isa="..."} 1` gauge naming
/// the instruction set the run's intrinsic kernels executed on, so a
/// scrape can tell an AVX2 run from a forced-portable one.
pub fn prometheus_with_isa(
    tl: &Timeline,
    counters: &[DeviceCounters],
    gcups_window_us: u64,
    isa: &str,
) -> String {
    let mut out = prometheus(tl, counters, gcups_window_us);
    let _ = writeln!(
        out,
        "# HELP sw_kernel_isa_info instruction set of the run's intrinsic kernels"
    );
    let _ = writeln!(out, "# TYPE sw_kernel_isa_info gauge");
    let _ = writeln!(out, "sw_kernel_isa_info{{isa=\"{isa}\"}} 1");
    out
}

/// Export a Prometheus text-exposition snapshot.
///
/// Counters (cells, chunks, tasks, retries, requeues, lost leases,
/// failures, overflow recomputes) come from `counters` — the same
/// aggregates the caller prints — so the snapshot matches printed
/// metrics exactly. Histograms (chunk latency, queue wait) and the
/// windowed per-device GCUPS time-series are derived from the timeline;
/// `gcups_window_us` sets the window width (0 picks
/// [`DEFAULT_GCUPS_WINDOW_US`]).
pub fn prometheus(tl: &Timeline, counters: &[DeviceCounters], gcups_window_us: u64) -> String {
    let window = if gcups_window_us == 0 {
        DEFAULT_GCUPS_WINDOW_US
    } else {
        gcups_window_us
    };
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# HELP sw_trace_info trace schema version marker");
    let _ = writeln!(out, "# TYPE sw_trace_info gauge");
    let _ = writeln!(out, "sw_trace_info{{schema=\"{SCHEMA}\"}} 1");

    let row = |f: fn(&DeviceCounters) -> u64| -> Vec<(usize, u64)> {
        counters.iter().map(|c| (c.device, f(c))).collect()
    };
    counter_line(
        &mut out,
        "sw_cells_total",
        "DP cells computed",
        &row(|c| c.cells),
    );
    counter_line(
        &mut out,
        "sw_chunks_total",
        "chunks completed",
        &row(|c| c.chunks),
    );
    counter_line(
        &mut out,
        "sw_tasks_total",
        "tasks completed",
        &row(|c| c.tasks),
    );
    counter_line(
        &mut out,
        "sw_retries_total",
        "chunks that succeeded on a retry",
        &row(|c| c.retries),
    );
    counter_line(
        &mut out,
        "sw_requeues_total",
        "ranges pushed back onto the requeue",
        &row(|c| c.requeues),
    );
    counter_line(
        &mut out,
        "sw_lost_leases_total",
        "leases reclaimed after expiry",
        &row(|c| c.lost_leases),
    );
    counter_line(
        &mut out,
        "sw_failures_total",
        "failures charged against the pool",
        &row(|c| c.failures),
    );
    counter_line(
        &mut out,
        "sw_overflow_recomputes_total",
        "saturated lanes recomputed at wider precision",
        &row(|c| c.overflow_recomputes),
    );

    // Durability counters, derived from the timeline (checkpointing is a
    // run-level activity, not a per-device one).
    for (metric, name, help) in [
        (
            "sw_checkpoints_written_total",
            "checkpoint_written",
            "checkpoint files written by the durable executor",
        ),
        (
            "sw_resumes_total",
            "resume_loaded",
            "runs resumed from a checkpoint",
        ),
        (
            "sw_drains_total",
            "drain_started",
            "graceful drains requested (signal or threshold)",
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {}", tl.count(name));
    }

    let _ = writeln!(out, "# HELP sw_busy_seconds summed worker busy time");
    let _ = writeln!(out, "# TYPE sw_busy_seconds gauge");
    for c in counters {
        let _ = writeln!(
            out,
            "sw_busy_seconds{{device=\"{}\"}} {:.6}",
            device_label(c.device),
            c.busy_secs
        );
    }
    let _ = writeln!(
        out,
        "# HELP sw_queue_wait_seconds summed worker queue-wait time"
    );
    let _ = writeln!(out, "# TYPE sw_queue_wait_seconds gauge");
    for c in counters {
        let _ = writeln!(
            out,
            "sw_queue_wait_seconds{{device=\"{}\"}} {:.6}",
            device_label(c.device),
            c.queue_wait_secs
        );
    }
    let _ = writeln!(out, "# HELP sw_degraded pool retired after failure budget");
    let _ = writeln!(out, "# TYPE sw_degraded gauge");
    for c in counters {
        let _ = writeln!(
            out,
            "sw_degraded{{device=\"{}\"}} {}",
            device_label(c.device),
            u64::from(c.degraded)
        );
    }

    // Realised split fraction: each device's share of total cells.
    let total_cells: u64 = counters.iter().map(|c| c.cells).sum();
    let _ = writeln!(
        out,
        "# HELP sw_split_fraction realised fraction of DP cells"
    );
    let _ = writeln!(out, "# TYPE sw_split_fraction gauge");
    for c in counters {
        let frac = if total_cells == 0 {
            0.0
        } else {
            c.cells as f64 / total_cells as f64
        };
        let _ = writeln!(
            out,
            "sw_split_fraction{{device=\"{}\"}} {:.6}",
            device_label(c.device),
            frac
        );
    }

    // Whole-run GCUPS per device (cells / busy / 1e9).
    let _ = writeln!(
        out,
        "# HELP sw_gcups whole-run billions of DP cell updates per second"
    );
    let _ = writeln!(out, "# TYPE sw_gcups gauge");
    for c in counters {
        let g = if c.busy_secs > 0.0 {
            c.cells as f64 / c.busy_secs / 1e9
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "sw_gcups{{device=\"{}\"}} {:.6}",
            device_label(c.device),
            g
        );
    }

    // Histograms from the timeline.
    let mut chunk_hist: Vec<(usize, Histogram)> = Vec::new();
    for (device, us) in tl.span_durations_us("chunk") {
        hist_for(&mut chunk_hist, device).record(us);
    }
    let mut wait_hist: Vec<(usize, Histogram)> = Vec::new();
    for t in &tl.tracks {
        for ev in &t.events {
            if let EventKind::QueueWaitEnd { us } = ev.kind {
                hist_for(&mut wait_hist, t.device).record(us);
            }
        }
    }
    let _ = writeln!(out, "# HELP sw_chunk_latency_us chunk execution latency");
    let _ = writeln!(out, "# TYPE sw_chunk_latency_us histogram");
    for (device, h) in &chunk_hist {
        h.write(&mut out, "sw_chunk_latency_us", *device);
    }
    let _ = writeln!(out, "# HELP sw_queue_wait_us worker queue-wait latency");
    let _ = writeln!(out, "# TYPE sw_queue_wait_us histogram");
    for (device, h) in &wait_hist {
        h.write(&mut out, "sw_queue_wait_us", *device);
    }

    // GCUPS time-series: cells of chunks *finishing* inside each window,
    // divided by the window width. A coarse but honest throughput curve.
    let mut windows: Vec<(usize, u64, u64)> = Vec::new(); // (device, window_idx, cells)
    for t in &tl.tracks {
        for ev in &t.events {
            if let EventKind::ChunkFinish { cells, .. } = ev.kind {
                let idx = ev.t_us / window;
                match windows
                    .iter_mut()
                    .find(|(d, w, _)| *d == t.device && *w == idx)
                {
                    Some(slot) => slot.2 += cells,
                    None => windows.push((t.device, idx, cells)),
                }
            }
        }
    }
    windows.sort_by_key(|&(d, w, _)| (d, w));
    let _ = writeln!(
        out,
        "# HELP sw_gcups_window GCUPS over fixed windows ({window} us wide)"
    );
    let _ = writeln!(out, "# TYPE sw_gcups_window gauge");
    let window_secs = window as f64 / 1e6;
    for (device, idx, cells) in windows {
        let _ = writeln!(
            out,
            "sw_gcups_window{{device=\"{}\",start_us=\"{}\"}} {:.6}",
            device_label(device),
            idx * window,
            cells as f64 / window_secs / 1e9
        );
    }
    out
}

fn hist_for(v: &mut Vec<(usize, Histogram)>, device: usize) -> &mut Histogram {
    if let Some(pos) = v.iter().position(|(d, _)| *d == device) {
        return &mut v[pos].1;
    }
    v.push((device, Histogram::default()));
    &mut v.last_mut().expect("just pushed").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, WorkerTrack};

    fn sample_timeline() -> Timeline {
        let tr = Tracer::full();
        let mut cpu = tr.worker(0, 0);
        let mut acc = tr.worker(1, 0);
        cpu.emit_at(0, EventKind::QueueWaitBegin);
        cpu.emit_at(10, EventKind::QueueWaitEnd { us: 10 });
        cpu.emit_at(
            10,
            EventKind::ChunkStart {
                lease: 0,
                lo: 0,
                hi: 4,
            },
        );
        cpu.emit_at(
            200,
            EventKind::ChunkFinish {
                lease: 0,
                lo: 0,
                hi: 4,
                cells: 4_000,
            },
        );
        acc.emit_at(
            5,
            EventKind::LeaseGranted {
                lease: 1,
                lo: 4,
                hi: 8,
            },
        );
        acc.emit_at(50, EventKind::SplitRebalance { share: 0.625 });
        acc.emit_at(
            60,
            EventKind::LeaseLost {
                lease: 1,
                victim: 1,
            },
        );
        drop(cpu);
        drop(acc);
        tr.timeline()
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let tl = sample_timeline();
        let text = jsonl(&tl);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + tl.total_events());
        assert!(lines[0].contains("\"schema\":\"sw-trace/1\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "line {line}");
        }
        // Global timestamp order.
        let ts: Vec<u64> = lines[1..]
            .iter()
            .map(|l| {
                let at = l.find("\"t_us\":").expect("t_us") + 7;
                l[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .expect("number")
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chrome_trace_groups_tracks_and_balances_spans() {
        let text = chrome_trace(&sample_timeline());
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"name\":\"process_name\""));
        assert!(text.contains("cpu pool"));
        assert!(text.contains("accel pool"));
        assert!(text.contains("\"name\":\"thread_name\""));
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 2);
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("accel_share"));
        // CPU events carry pid 1, accel pid 2.
        assert!(text.contains("\"pid\":1"));
        assert!(text.contains("\"pid\":2"));
    }

    #[test]
    fn prometheus_counters_match_input_and_histograms_fill() {
        let tl = sample_timeline();
        let counters = [
            DeviceCounters {
                device: 0,
                workers: 1,
                tasks: 4,
                chunks: 1,
                cells: 4_000,
                busy_secs: 0.000_19,
                retries: 0,
                requeues: 0,
                lost_leases: 0,
                failures: 0,
                degraded: false,
                overflow_recomputes: 2,
                queue_wait_secs: 0.000_01,
            },
            DeviceCounters {
                device: 1,
                workers: 1,
                lost_leases: 1,
                requeues: 1,
                failures: 1,
                ..DeviceCounters::default()
            },
        ];
        let text = prometheus(&tl, &counters, 1_000);
        assert!(text.contains("sw_cells_total{device=\"cpu\"} 4000"));
        assert!(text.contains("sw_lost_leases_total{device=\"accel\"} 1"));
        assert!(text.contains("sw_requeues_total{device=\"accel\"} 1"));
        assert!(text.contains("sw_overflow_recomputes_total{device=\"cpu\"} 2"));
        assert!(text.contains("sw_split_fraction{device=\"cpu\"} 1.000000"));
        assert!(text.contains("sw_chunk_latency_us_count{device=\"cpu\"} 1"));
        assert!(text.contains("sw_queue_wait_us_count{device=\"cpu\"} 1"));
        // The 190 µs chunk lands in the le=500 bucket cumulatively.
        assert!(text.contains("sw_chunk_latency_us_bucket{device=\"cpu\",le=\"500\"} 1"));
        // GCUPS window: 4000 cells finishing in window starting at 0.
        assert!(text.contains("sw_gcups_window{device=\"cpu\",start_us=\"0\"}"));
        assert!(text.contains("sw_trace_info{schema=\"sw-trace/1\"} 1"));
    }

    #[test]
    fn prometheus_empty_run_is_well_formed() {
        let tl = Timeline { tracks: vec![] };
        let text = prometheus(&tl, &[], 0);
        assert!(text.contains("sw_trace_info"));
        assert!(crate::validate::validate_prometheus(&text).is_ok());
    }

    #[test]
    fn prometheus_isa_gauge() {
        let tl = Timeline { tracks: vec![] };
        let text = prometheus_with_isa(&tl, &[], 0, "avx2");
        assert!(
            text.contains("sw_kernel_isa_info{isa=\"avx2\"} 1"),
            "{text}"
        );
        assert!(crate::validate::validate_prometheus(&text).is_ok());
    }

    #[test]
    fn interleaved_two_query_export_stays_separable() {
        // Two concurrent searches, each with its own tracer (own epoch,
        // own query id), emitting interleaved timestamps.
        let t1 = Tracer::for_query(crate::TraceLevel::Full, 64, 1);
        let t2 = Tracer::for_query(crate::TraceLevel::Full, 64, 2);
        let mut j1 = t1.worker(0, 0);
        let mut j2 = t2.worker(0, 0);
        for (i, (a, b)) in [(0u64, 3u64), (10, 12), (20, 21)].iter().enumerate() {
            let lease = i as u64;
            j1.emit_at(
                *a,
                EventKind::ChunkStart {
                    lease,
                    lo: 0,
                    hi: 1,
                },
            );
            j1.emit_at(
                a + 5,
                EventKind::ChunkFinish {
                    lease,
                    lo: 0,
                    hi: 1,
                    cells: 100,
                },
            );
            j2.emit_at(
                *b,
                EventKind::ChunkStart {
                    lease,
                    lo: 1,
                    hi: 2,
                },
            );
            j2.emit_at(
                b + 4,
                EventKind::ChunkFinish {
                    lease,
                    lo: 1,
                    hi: 2,
                    cells: 200,
                },
            );
        }
        drop(j1);
        drop(j2);
        let merged = Timeline::merge([t1.timeline(), t2.timeline()]);
        assert!(crate::validate::validate_jsonl(&jsonl(&merged)).is_ok());

        // Every event line names its query, and filtering on the tag
        // reconstructs each solo stream exactly.
        let text = jsonl(&merged);
        let q1_lines: Vec<&str> = text
            .lines()
            .skip(1)
            .filter(|l| l.contains("\"query\":1,"))
            .collect();
        let q2_lines: Vec<&str> = text
            .lines()
            .skip(1)
            .filter(|l| l.contains("\"query\":2,"))
            .collect();
        assert_eq!(q1_lines.len(), 6);
        assert_eq!(q2_lines.len(), 6);
        assert_eq!(q1_lines.len() + q2_lines.len(), text.lines().count() - 1);
        assert!(q1_lines.iter().all(|l| l.contains("\"hi\":1")));
        assert!(q2_lines.iter().all(|l| l.contains("\"hi\":2")));

        // Chrome export: distinct process groups per query, labelled.
        let chrome = chrome_trace(&merged);
        assert!(chrome.contains("q1 cpu pool"));
        assert!(chrome.contains("q2 cpu pool"));
        assert!(chrome.contains(&format!("\"pid\":{}", chrome_pid(1, 0))));
        assert!(chrome.contains(&format!("\"pid\":{}", chrome_pid(2, 0))));

        // Per-query projection matches a solo export of the same run.
        let solo1 = merged.for_query(1);
        assert_eq!(solo1.total_events(), 6);
        assert_eq!(solo1.span_durations_us("chunk").len(), 3);
    }

    #[test]
    fn solo_run_chrome_pids_are_unchanged() {
        assert_eq!(chrome_pid(0, 0), 1);
        assert_eq!(chrome_pid(0, 1), 2);
        assert_ne!(chrome_pid(1, 0), chrome_pid(0, 1), "no pid collisions");
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::default();
        h.record(2_000_000); // beyond the last bound → +Inf bucket only
        let mut s = String::new();
        h.write(&mut s, "m", 0);
        assert!(s.contains("m_bucket{device=\"cpu\",le=\"1000000\"} 0"));
        assert!(s.contains("m_bucket{device=\"cpu\",le=\"+Inf\"} 1"));
        assert!(s.contains("m_sum{device=\"cpu\"} 2000000"));
    }

    #[test]
    fn unbalanced_span_is_ignored_in_durations() {
        let tl = Timeline {
            tracks: vec![WorkerTrack {
                query: 0,
                device: 0,
                worker: 0,
                events: vec![crate::Event {
                    t_us: 1,
                    kind: EventKind::ChunkStart {
                        lease: 0,
                        lo: 0,
                        hi: 1,
                    },
                }],
                dropped: 0,
            }],
        };
        assert!(tl.span_durations_us("chunk").is_empty());
    }
}
