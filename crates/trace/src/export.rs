//! Timeline exporters: JSONL event log, Chrome trace-event JSON
//! (Perfetto / `chrome://tracing`), and a Prometheus-style text
//! snapshot with a windowed GCUPS time-series.
//!
//! All three are hand-rolled string formatting — the workspace builds
//! offline and its `serde` is a no-op shim, so nothing here derives
//! serialization.

use crate::{device_label, DeviceMetrics, EventKind, Phase, Timeline, SCHEMA};
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
/// serves every instance); [`HistogramFamily::series`] renders it.
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
}

/// The one Prometheus text-exposition writer: the per-search snapshot
/// ([`prometheus`]), the daemon-lifetime scrape and the coordinator
/// scrape (`sw-serve`'s obs plane) are tables over it. The structural
/// rules of [`crate::validate::validate_prometheus_strict`] hold by
/// construction — a sample can only be written through the family that
/// declared it (`# HELP` then `# TYPE`, once), label values are escaped
/// here and nowhere else, and a histogram series is always the
/// cumulative `_bucket…+Inf` / `_sum` / `_count` triplet.
#[derive(Debug)]
pub struct PromWriter {
    out: String,
    /// Pre-rendered `name="value"` carried first on every sample, or
    /// empty.
    base: String,
}

/// A declared counter or gauge family; see [`PromWriter::counter`].
#[derive(Debug)]
pub struct Family<'w> {
    w: &'w mut PromWriter,
    name: &'w str,
}

/// A declared histogram family; see [`PromWriter::histogram`].
#[derive(Debug)]
pub struct HistogramFamily<'w>(Family<'w>);

impl PromWriter {
    /// A writer whose every sample carries the `base` label first (a
    /// shard worker's `("shard", "3")`), or none.
    pub fn new(base: Option<(&str, &str)>) -> Self {
        let mut w = PromWriter {
            out: String::with_capacity(4096),
            base: String::new(),
        };
        if let Some((name, value)) = base {
            push_label(&mut w.base, name, value);
        }
        w
    }

    fn family<'w>(&'w mut self, name: &'w str, kind: &str, help: &str) -> Family<'w> {
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        Family { w: self, name }
    }

    /// Declare a counter family (`name` must end in `_total`).
    pub fn counter<'w>(&'w mut self, name: &'w str, help: &str) -> Family<'w> {
        debug_assert!(
            name.ends_with("_total"),
            "counter {name} must end in _total"
        );
        self.family(name, "counter", help)
    }

    /// Declare a gauge family.
    pub fn gauge<'w>(&'w mut self, name: &'w str, help: &str) -> Family<'w> {
        self.family(name, "gauge", help)
    }

    /// Declare a histogram family.
    pub fn histogram<'w>(&'w mut self, name: &'w str, help: &str) -> HistogramFamily<'w> {
        HistogramFamily(self.family(name, "histogram", help))
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Append `name="value"` with the exposition format's label-value
/// escapes (`\\`, `\"`, `\n` — the only ones it defines).
fn push_label(out: &mut String, name: &str, value: &str) {
    out.push_str(name);
    out.push_str("=\"");
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

impl Family<'_> {
    /// One sample line: `name+suffix{base,labels…,le} value` (braces
    /// only when there is a label).
    fn line(
        &mut self,
        suffix: &str,
        labels: &[(&str, &str)],
        le: Option<&str>,
        value: impl std::fmt::Display,
    ) {
        let out = &mut self.w.out;
        out.push_str(self.name);
        out.push_str(suffix);
        let mut sep = '{';
        if !self.w.base.is_empty() {
            out.push(sep);
            out.push_str(&self.w.base);
            sep = ',';
        }
        for (name, value) in labels.iter().copied().chain(le.map(|le| ("le", le))) {
            out.push(sep);
            push_label(out, name, value);
            sep = ',';
        }
        if sep == ',' {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }

    /// Write one sample of this family.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        self.line("", labels, None, value);
    }
}

impl HistogramFamily<'_> {
    /// Write one series of this family: cumulative `_bucket` samples
    /// (`le` last among the labels) ending in `+Inf`, then `_sum` and
    /// `_count`.
    pub fn series(&mut self, labels: &[(&str, &str)], h: &Histogram) {
        let mut cum = 0u64;
        let bounds = h.bounds.iter().map(u64::to_string);
        for (le, count) in bounds.chain(["+Inf".to_string()]).zip(&h.counts) {
            cum += count;
            self.0.line("_bucket", labels, Some(&le), cum);
        }
        self.0.line("_sum", labels, None, h.sum);
        self.0.line("_count", labels, None, h.n);
    }
}

/// Export a Prometheus text-exposition snapshot.
///
/// Per-pool counters and gauges (cells, chunks, tasks, retries,
/// requeues, lost leases, failures, busy and queue-wait time, degraded)
/// come from `devices` — the same records the caller prints — so the
/// snapshot matches printed metrics exactly. Everything else is derived
/// from the timeline: the overflow recomputes (the lanes of each
/// device's 16 → 64 `overflow_recompute` events), the durability
/// counters, the histograms (chunk latency, queue wait) and the windowed
/// per-device GCUPS time-series; `gcups_window_us` sets the window width
/// (0 picks [`DEFAULT_GCUPS_WINDOW_US`]). The closing
/// `sw_kernel_isa_info{isa=…}` gauge names the instruction set the run's
/// intrinsic kernels executed on, so a scrape can tell an AVX2 run from a
/// forced-portable one.
pub fn prometheus(
    tl: &Timeline,
    counters: &[DeviceMetrics],
    gcups_window_us: u64,
    isa: &str,
) -> String {
    let window = if gcups_window_us == 0 {
        DEFAULT_GCUPS_WINDOW_US
    } else {
        gcups_window_us
    };
    let mut w = PromWriter::new(None);
    w.gauge("sw_trace_info", "trace schema version marker")
        .sample(&[("schema", SCHEMA)], 1);

    device_samples(
        w.counter("sw_cells_total", "DP cells computed"),
        counters,
        |c| c.cells,
    );
    device_samples(
        w.counter("sw_chunks_total", "chunks completed"),
        counters,
        |c| c.chunks,
    );
    device_samples(
        w.counter("sw_tasks_total", "tasks completed"),
        counters,
        |c| c.tasks,
    );
    device_samples(
        w.counter("sw_retries_total", "chunks that succeeded on a retry"),
        counters,
        |c| c.retries,
    );
    device_samples(
        w.counter("sw_requeues_total", "ranges pushed back onto the requeue"),
        counters,
        |c| c.requeues,
    );
    device_samples(
        w.counter("sw_lost_leases_total", "leases reclaimed after expiry"),
        counters,
        |c| c.lost_leases,
    );
    device_samples(
        w.counter("sw_failures_total", "failures charged against the pool"),
        counters,
        |c| c.failures,
    );
    device_samples(
        w.counter(
            "sw_overflow_recomputes_total",
            "saturated lanes recomputed at wider precision",
        ),
        counters,
        |c| {
            let tracks = tl.tracks.iter().filter(|t| t.device == c.device);
            let rescues = tracks.flat_map(|t| &t.events).map(|ev| match ev.kind {
                EventKind::OverflowRecompute {
                    from_bits: 16,
                    to_bits: 64,
                    lanes,
                } => lanes,
                _ => 0,
            });
            rescues.sum::<u64>()
        },
    );

    // Durability counters, derived from the timeline (checkpointing is a
    // run-level activity, not a per-device one).
    for (name, event, help) in [
        (
            "sw_checkpoints_written_total",
            "checkpoint_written",
            "checkpoint commit frames appended by durable regions",
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
        w.counter(name, help).sample(&[], tl.count(event));
    }

    // Per-device gauges; the realised split fraction is each device's
    // share of total cells, whole-run GCUPS is cells / busy / 1e9.
    let total_cells: u64 = counters.iter().map(|c| c.cells).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    device_samples(
        w.gauge("sw_busy_seconds", "summed worker busy time"),
        counters,
        |c| format!("{:.6}", c.busy.as_secs_f64()),
    );
    device_samples(
        w.gauge("sw_queue_wait_seconds", "summed worker queue-wait time"),
        counters,
        |c| format!("{:.6}", c.queue_wait.as_secs_f64()),
    );
    device_samples(
        w.gauge("sw_degraded", "pool retired after failure budget"),
        counters,
        |c| u64::from(c.degraded),
    );
    device_samples(
        w.gauge("sw_split_fraction", "realised fraction of DP cells"),
        counters,
        |c| format!("{:.6}", ratio(c.cells as f64, total_cells as f64)),
    );
    device_samples(
        w.gauge(
            "sw_gcups",
            "whole-run billions of DP cell updates per second",
        ),
        counters,
        |c| format!("{:.6}", c.gcups()),
    );

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
    for (name, help, hists) in [
        (
            "sw_chunk_latency_us",
            "chunk execution latency",
            &chunk_hist,
        ),
        ("sw_queue_wait_us", "worker queue-wait latency", &wait_hist),
    ] {
        let mut family = w.histogram(name, help);
        for (device, h) in hists {
            family.series(&[("device", &device_label(*device))], h);
        }
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
    let help = format!("GCUPS over fixed windows ({window} us wide)");
    let mut family = w.gauge("sw_gcups_window", &help);
    let window_secs = window as f64 / 1e6;
    for (device, idx, cells) in windows {
        family.sample(
            &[
                ("device", &device_label(device)),
                ("start_us", &(idx * window).to_string()),
            ],
            format_args!("{:.6}", cells as f64 / window_secs / 1e9),
        );
    }

    w.gauge(
        "sw_kernel_isa_info",
        "instruction set of the run's intrinsic kernels",
    )
    .sample(&[("isa", isa)], 1);
    w.finish()
}

/// One `device="…"` sample per pool under `family`.
fn device_samples<V: std::fmt::Display>(
    mut family: Family<'_>,
    counters: &[DeviceMetrics],
    value: impl Fn(&DeviceMetrics) -> V,
) {
    for c in counters {
        family.sample(&[("device", &device_label(c.device))], value(c));
    }
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
    use std::time::Duration;

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

    /// The full snapshot of a fixed two-device run: every family, label
    /// set and formatted value. `sw_overflow_recomputes_total` is each
    /// device's 16 → 64 lanes on its own tracks; the 8 → 16 promotion is
    /// not a rescue and counts nowhere.
    #[test]
    fn prometheus_golden_text() {
        let tr = Tracer::full();
        let mut cpu = tr.worker(0, 0);
        let mut acc = tr.worker(1, 0);
        cpu.emit_at(0, EventKind::QueueWaitBegin);
        cpu.emit_at(10, EventKind::QueueWaitEnd { us: 10 });
        let chunk = |lease, lo, hi| EventKind::ChunkStart { lease, lo, hi };
        cpu.emit_at(10, chunk(0, 0, 4));
        let recompute = |from_bits, to_bits, lanes| EventKind::OverflowRecompute {
            from_bits,
            to_bits,
            lanes,
        };
        cpu.emit_at(50, recompute(8, 16, 3));
        cpu.emit_at(60, recompute(16, 64, 2));
        let finish = |lease, lo, hi, cells| EventKind::ChunkFinish {
            lease,
            lo,
            hi,
            cells,
        };
        cpu.emit_at(200, finish(0, 0, 4, 4_000));
        acc.emit_at(1_100, chunk(1, 4, 6));
        acc.emit_at(1_150, recompute(16, 64, 1));
        acc.emit_at(1_400, finish(1, 4, 6, 2_000));
        acc.emit_at(1_500, EventKind::SplitRebalance { share: 0.5 });
        acc.emit_at(1_600, EventKind::DrainStarted);
        drop(cpu);
        drop(acc);
        let devices = [
            DeviceMetrics {
                device: 0,
                workers: 1,
                tasks: 4,
                chunks: 1,
                cells: 4_000,
                busy: Duration::from_micros(190),
                queue_wait: Duration::from_micros(10),
                ..DeviceMetrics::default()
            },
            DeviceMetrics {
                device: 1,
                workers: 1,
                tasks: 2,
                chunks: 1,
                cells: 2_000,
                busy: Duration::from_micros(300),
                retries: 1,
                requeues: 1,
                lost_leases: 1,
                failures: 2,
                degraded: true,
                ..DeviceMetrics::default()
            },
        ];
        let text = prometheus(&tr.timeline(), &devices, 1_000, "avx2");
        assert_eq!(text, GOLDEN_PROMETHEUS);
    }

    const GOLDEN_PROMETHEUS: &str = r##"# HELP sw_trace_info trace schema version marker
# TYPE sw_trace_info gauge
sw_trace_info{schema="sw-trace/1"} 1
# HELP sw_cells_total DP cells computed
# TYPE sw_cells_total counter
sw_cells_total{device="cpu"} 4000
sw_cells_total{device="accel"} 2000
# HELP sw_chunks_total chunks completed
# TYPE sw_chunks_total counter
sw_chunks_total{device="cpu"} 1
sw_chunks_total{device="accel"} 1
# HELP sw_tasks_total tasks completed
# TYPE sw_tasks_total counter
sw_tasks_total{device="cpu"} 4
sw_tasks_total{device="accel"} 2
# HELP sw_retries_total chunks that succeeded on a retry
# TYPE sw_retries_total counter
sw_retries_total{device="cpu"} 0
sw_retries_total{device="accel"} 1
# HELP sw_requeues_total ranges pushed back onto the requeue
# TYPE sw_requeues_total counter
sw_requeues_total{device="cpu"} 0
sw_requeues_total{device="accel"} 1
# HELP sw_lost_leases_total leases reclaimed after expiry
# TYPE sw_lost_leases_total counter
sw_lost_leases_total{device="cpu"} 0
sw_lost_leases_total{device="accel"} 1
# HELP sw_failures_total failures charged against the pool
# TYPE sw_failures_total counter
sw_failures_total{device="cpu"} 0
sw_failures_total{device="accel"} 2
# HELP sw_overflow_recomputes_total saturated lanes recomputed at wider precision
# TYPE sw_overflow_recomputes_total counter
sw_overflow_recomputes_total{device="cpu"} 2
sw_overflow_recomputes_total{device="accel"} 1
# HELP sw_checkpoints_written_total checkpoint commit frames appended by durable regions
# TYPE sw_checkpoints_written_total counter
sw_checkpoints_written_total 0
# HELP sw_resumes_total runs resumed from a checkpoint
# TYPE sw_resumes_total counter
sw_resumes_total 0
# HELP sw_drains_total graceful drains requested (signal or threshold)
# TYPE sw_drains_total counter
sw_drains_total 1
# HELP sw_busy_seconds summed worker busy time
# TYPE sw_busy_seconds gauge
sw_busy_seconds{device="cpu"} 0.000190
sw_busy_seconds{device="accel"} 0.000300
# HELP sw_queue_wait_seconds summed worker queue-wait time
# TYPE sw_queue_wait_seconds gauge
sw_queue_wait_seconds{device="cpu"} 0.000010
sw_queue_wait_seconds{device="accel"} 0.000000
# HELP sw_degraded pool retired after failure budget
# TYPE sw_degraded gauge
sw_degraded{device="cpu"} 0
sw_degraded{device="accel"} 1
# HELP sw_split_fraction realised fraction of DP cells
# TYPE sw_split_fraction gauge
sw_split_fraction{device="cpu"} 0.666667
sw_split_fraction{device="accel"} 0.333333
# HELP sw_gcups whole-run billions of DP cell updates per second
# TYPE sw_gcups gauge
sw_gcups{device="cpu"} 0.021053
sw_gcups{device="accel"} 0.006667
# HELP sw_chunk_latency_us chunk execution latency
# TYPE sw_chunk_latency_us histogram
sw_chunk_latency_us_bucket{device="cpu",le="50"} 0
sw_chunk_latency_us_bucket{device="cpu",le="100"} 0
sw_chunk_latency_us_bucket{device="cpu",le="500"} 1
sw_chunk_latency_us_bucket{device="cpu",le="1000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="5000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="10000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="50000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="100000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="1000000"} 1
sw_chunk_latency_us_bucket{device="cpu",le="+Inf"} 1
sw_chunk_latency_us_sum{device="cpu"} 190
sw_chunk_latency_us_count{device="cpu"} 1
sw_chunk_latency_us_bucket{device="accel",le="50"} 0
sw_chunk_latency_us_bucket{device="accel",le="100"} 0
sw_chunk_latency_us_bucket{device="accel",le="500"} 1
sw_chunk_latency_us_bucket{device="accel",le="1000"} 1
sw_chunk_latency_us_bucket{device="accel",le="5000"} 1
sw_chunk_latency_us_bucket{device="accel",le="10000"} 1
sw_chunk_latency_us_bucket{device="accel",le="50000"} 1
sw_chunk_latency_us_bucket{device="accel",le="100000"} 1
sw_chunk_latency_us_bucket{device="accel",le="1000000"} 1
sw_chunk_latency_us_bucket{device="accel",le="+Inf"} 1
sw_chunk_latency_us_sum{device="accel"} 300
sw_chunk_latency_us_count{device="accel"} 1
# HELP sw_queue_wait_us worker queue-wait latency
# TYPE sw_queue_wait_us histogram
sw_queue_wait_us_bucket{device="cpu",le="50"} 1
sw_queue_wait_us_bucket{device="cpu",le="100"} 1
sw_queue_wait_us_bucket{device="cpu",le="500"} 1
sw_queue_wait_us_bucket{device="cpu",le="1000"} 1
sw_queue_wait_us_bucket{device="cpu",le="5000"} 1
sw_queue_wait_us_bucket{device="cpu",le="10000"} 1
sw_queue_wait_us_bucket{device="cpu",le="50000"} 1
sw_queue_wait_us_bucket{device="cpu",le="100000"} 1
sw_queue_wait_us_bucket{device="cpu",le="1000000"} 1
sw_queue_wait_us_bucket{device="cpu",le="+Inf"} 1
sw_queue_wait_us_sum{device="cpu"} 10
sw_queue_wait_us_count{device="cpu"} 1
# HELP sw_gcups_window GCUPS over fixed windows (1000 us wide)
# TYPE sw_gcups_window gauge
sw_gcups_window{device="cpu",start_us="0"} 0.004000
sw_gcups_window{device="accel",start_us="1000"} 0.002000
# HELP sw_kernel_isa_info instruction set of the run's intrinsic kernels
# TYPE sw_kernel_isa_info gauge
sw_kernel_isa_info{isa="avx2"} 1
"##;

    #[test]
    fn prometheus_empty_run_is_well_formed_and_names_the_isa() {
        let tl = Timeline { tracks: vec![] };
        let text = prometheus(&tl, &[], 0, "avx2");
        assert!(text.contains("sw_trace_info"));
        assert!(
            text.ends_with("sw_kernel_isa_info{isa=\"avx2\"} 1\n"),
            "{text}"
        );
        crate::validate::validate_prometheus_strict(&text).expect("strict-clean");
    }

    #[test]
    fn writer_escapes_hostile_labels_and_carries_the_base_label() {
        let hostile = "a\"b\\c\nd";
        let mut h = Histogram::new(&[10, 100]);
        h.record(7);
        h.record(5_000);
        let mut w = PromWriter::new(Some(("shard", hostile)));
        w.counter("jobs_total", "jobs").sample(&[], 3);
        w.gauge("depth", "queue depth").sample(
            &[("tenant", hostile), ("kind", "x")],
            format_args!("{:.1}", 2.5),
        );
        w.histogram("lat_us", "latency")
            .series(&[("tenant", hostile)], &h);
        let text = w.finish();
        crate::validate::validate_prometheus_strict(&text).expect("strict-clean");

        let esc = "a\\\"b\\\\c\\nd";
        assert!(!text.contains(hostile), "raw value must never appear");
        assert!(
            text.contains(&format!("jobs_total{{shard=\"{esc}\"}} 3\n")),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "depth{{shard=\"{esc}\",tenant=\"{esc}\",kind=\"x\"}} 2.5\n"
            )),
            "{text}"
        );
        // Base label first, own labels next, `le` last; cumulative counts.
        let series = format!("shard=\"{esc}\",tenant=\"{esc}\"");
        for line in [
            format!("lat_us_bucket{{{series},le=\"10\"}} 1\n"),
            format!("lat_us_bucket{{{series},le=\"100\"}} 1\n"),
            format!("lat_us_bucket{{{series},le=\"+Inf\"}} 2\n"),
            format!("lat_us_sum{{{series}}} 5007\n"),
            format!("lat_us_count{{{series}}} 2\n"),
        ] {
            assert!(text.contains(&line), "missing {line:?} in {text}");
        }
        // Every sample line carries the base label.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("{shard="), "unlabelled sample: {line}");
        }
        // No base label, no own labels: no braces at all.
        let mut w = PromWriter::new(None);
        w.counter("jobs_total", "jobs").sample(&[], 3);
        assert_eq!(
            w.finish(),
            "# HELP jobs_total jobs\n# TYPE jobs_total counter\njobs_total 3\n"
        );
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
        let mut w = PromWriter::new(None);
        w.histogram("m", "overflow")
            .series(&[("device", "cpu")], &h);
        let s = w.finish();
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
