//! `perf` — the repo's one pinned benchmark. See README.md beside this
//! package for the metric glossary and why each workload exists.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! perf [--seed 42] [--seconds 30] [--repeats 1] [--out FILE]      all four, each in a child process
//! perf --compare A.json B.json [--bounds BENCHMARK.json]          judge B against A
//! ```
//!
//! `--trace 0` measures end to end with the benchmark's spans off,
//! calling only each path's top-level public function; `--trace 1`
//! re-runs the workload decomposed into calls to each layer's public
//! functions, records spans in memory and reports the per-layer
//! numbers. The last stdout line of a single-workload run is the result
//! object the driver reads.

mod compare;
mod daemon;
mod host;
mod inputs;
mod json;
mod layers;
mod loops;
mod setup;
mod spans;
mod stats;

use layers::{Own, Sweep};
use loops::Run;
use setup::Parts;
use spans::{Recorder, SpanId};
use stats::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use sw_core::PreparedDb;

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Closed-loop clients of `serve_closed` (= `nproc` on the reference
/// host; each is a blocking caller like `swsearch submit`).
const CLIENTS: usize = 2;

/// One row of `BENCHMARK.json`'s `workloads` (which says why it exists).
struct Workload {
    name: &'static str,
    spec: fn(u64, bool) -> sw_seq::gen::DbSpec,
    lens: &'static [u32],
    /// The path its end-to-end pass measures.
    own: Own,
}

impl Workload {
    fn plan(&self, o: &Opts) -> inputs::Plan {
        inputs::Plan {
            spec: (self.spec)(o.seed, o.quick),
            lens: self.lens,
            seed: o.seed,
            quick: o.quick,
        }
    }
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo_long",
        spec: inputs::sp500,
        lens: &inputs::LONG_LENS,
        own: Own::Engine,
    },
    Workload {
        name: "solo_short",
        spec: inputs::sp2k,
        lens: &inputs::SHORT_LENS,
        own: Own::Engine,
    },
    Workload {
        name: "serve_closed",
        spec: inputs::sp100,
        lens: &inputs::SERVE_LENS,
        own: Own::Serve,
    },
    Workload {
        name: "shard2_tcp",
        spec: inputs::sp2k,
        lens: &inputs::SHARD_LENS,
        own: Own::Coord,
    },
];

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    flip: bool,
    out: Option<String>,
    repeats: usize,
    compare: Option<(String, String)>,
    bounds: String,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        flip: false,
        out: None,
        repeats: 1,
        compare: None,
        bounds: "BENCHMARK.json".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number '{v}'"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => o.seconds = num(value()?)?,
            "--trace" => o.trace = num(value()?)? != 0.0,
            "--repeats" => o.repeats = num(value()?)? as usize,
            "--out" => o.out = Some(value()?),
            "--bounds" => o.bounds = value()?,
            "--compare" => o.compare = Some((value()?, value()?)),
            // Few samples, tiny inputs, no gating: only so the bin's own
            // smoke test runs in seconds (and may run a debug build).
            "--quick" => o.quick = true,
            // Perturb one expected score: shows the checker can fail.
            "--flip-expected" => o.flip = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.quick {
        o.seconds = o.seconds.min(1.0);
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 || o.repeats == 0 {
        return Err("--seconds and --repeats must be positive".into());
    }
    Ok(o)
}

/// Oracle-check `expected` (one top-K per query) against the scalar
/// kernel; every disagreement is a failure.
fn oracle(
    run: &mut Run,
    state: &setup::State,
    db: &PreparedDb,
    expected: &[Vec<inputs::WireHit>],
    o: &Opts,
) {
    for (k, (q, top)) in state.queries.iter().zip(expected).enumerate() {
        // Only the first query's first hit is flipped: one wrong
        // expectation must be enough to fail the run.
        let flip = o.flip && k == 0;
        if let Err(e) = inputs::oracle_check(&q.residues, db.sorted.db(), top, o.seed, flip) {
            run.fail(format!("oracle, query {}: {e}", q.len()));
        }
    }
}

/// Stop the daemon over the wire and hold it to its own counters.
fn stop_daemon(run: &mut Run, state: &mut setup::State) -> Result<(), String> {
    if let Some(daemon) = state.daemon.take() {
        let stats = daemon.stop()?;
        if stats.rejected > 0 || stats.failed_total > 0 {
            run.fail(format!(
                "daemon counted {} rejected and {} failed jobs",
                stats.rejected, stats.failed_total
            ));
        }
    }
    Ok(())
}

/// What one pass measured.
struct Pass {
    /// The metrics `BENCHMARK.json` lists for this pass, in its order.
    listed: Vec<Metric>,
    /// Printed beside them, not in the result line: numbers only some
    /// workloads have enough samples for.
    extra: Vec<Metric>,
    run: Run,
}

/// End to end: spans off, only the top-level public function of the
/// workload's path inside the timed loop.
fn run_untraced(w: &Workload, o: &Opts, tmp: &host::TmpDir) -> Result<Pass, String> {
    let rec = Recorder::off(w.name);
    let plan = w.plan(o);
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Tearing the previous repetition down is not set-up.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup::build(
            w.own.parts(),
            &plan,
            tmp.path(),
            &rec,
            SpanId::NONE,
        )?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUP_REPS > 0");

    let db: Arc<PreparedDb> = match &state.fabric {
        Some(fabric) => Arc::new(fabric.prepare_parent()),
        None => Arc::clone(state.prepared.as_ref().expect("engine part is up")),
    };
    let expected = setup::reference_hits(&db, &state.queries);
    let measure = |seconds: f64| match w.own {
        Own::Engine => loops::solo(&state, &db, &expected, seconds),
        Own::Serve => {
            let endpoint = &state.daemon.as_ref().expect("serve part is up").endpoint;
            loops::closed_loop(endpoint, &state, &expected, &rec, 0, CLIENTS, seconds).0
        }
        Own::Coord => {
            let fabric = state.fabric.as_ref().expect("fabric part is up");
            loops::sharded(fabric, &state, &expected, seconds).0
        }
    };
    // One untimed cycle — every caller sends every query once — fills
    // caches and pools. Memory is read here, after a fixed amount of
    // work: at the end of the timed loop it would grow with the number
    // of operations the run got through, so faster code would read as
    // more memory.
    let warm_up = measure(0.0);
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut run = measure(o.seconds);
    run.attempted += warm_up.attempted;
    run.failed += warm_up.failed;
    run.errors.extend(warm_up.errors);
    let rss_end = host::peak_rss_mb().unwrap_or(rss);
    oracle(&mut run, &state, &db, &expected, o);
    stop_daemon(&mut run, &mut state)?;
    drop(state);

    if let Some(k) = run.kinds.iter().find(|k| k.walls.is_empty()) {
        return Err(format!(
            "no successful operation for query length {}: {:?}",
            k.query_len, run.errors
        ));
    }
    let n = stats::n_samples(&run.kinds);
    let listed = vec![
        Metric::new("setup_s", "s", stats::median(&setup_s), setup_s.len()),
        Metric::new("gcups", "GCUPS", stats::gcups_fold(&run.kinds), n),
        Metric::new("op_ms_p10", "ms", stats::floor_ms_fold(&run.kinds), n),
        Metric::new("peak_rss_mb", "MB", rss, 1),
    ];
    let failed_frac = run.failed as f64 / run.attempted as f64;
    let mut extra = vec![
        Metric::new("failed_frac", "ratio", failed_frac, run.attempted as usize),
        Metric::new("queries_per_s", "1/s", run.per_second(), n),
        Metric::new("op_ms_p50", "ms", stats::p50_ms_fold(&run.kinds), n),
        Metric::new("peak_rss_end_mb", "MB", rss_end, 1),
    ];
    for (name, pct) in [("op_ms_p90", 90.0), ("op_ms_p99", 99.0)] {
        if let Some(ms) = stats::tail_ms_fold(&run.kinds, pct) {
            extra.push(Metric::new(name, "ms", ms, n));
        }
    }
    Ok(Pass { listed, extra, run })
}

/// Per layer: spans on, every layer's public functions timed on this
/// workload's inputs.
fn run_traced(w: &Workload, o: &Opts, tmp: &host::TmpDir) -> Result<Pass, String> {
    let rec = Recorder::on(w.name);
    let plan = w.plan(o);
    let root = rec.begin("bench.setup", SpanId::NONE, 0);
    let mut state = setup::build(Parts::ALL, &plan, tmp.path(), &rec, root)?;
    rec.end(root);

    let db = Arc::clone(state.prepared.as_ref().expect("engine part is up"));
    let expected = setup::reference_hits(&db, &state.queries);
    let parent = state
        .fabric
        .as_ref()
        .expect("fabric part is up")
        .prepare_parent();
    let parent_expected = setup::reference_hits(&parent, &state.queries);
    let mut sweep = Sweep {
        state: &state,
        db: &db,
        expected: &expected,
        parent: &parent,
        parent_expected: &parent_expected,
        rec: &rec,
        tmp: tmp.path(),
        seconds: o.seconds,
        own: w.own,
        metrics: Vec::new(),
        tally: Run::new(&state),
    };
    sweep.run()?;
    let (listed, mut run) = (sweep.metrics, sweep.tally);
    // The own path's reference answers to the scalar oracle.
    match w.own {
        Own::Coord => oracle(&mut run, &state, &parent, &parent_expected, o),
        _ => oracle(&mut run, &state, &db, &expected, o),
    }
    stop_daemon(&mut run, &mut state)?;
    drop(state);

    let path = std::path::Path::new(host::TMP_ROOT).join(format!("spans-{}.jsonl", w.name));
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    rec.dump_jsonl(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("# {} spans -> {}", rec.len(), path.display());
    Ok(Pass {
        listed,
        extra: Vec::new(),
        run,
    })
}

/// One workload in this process; prints every metric by name with its
/// unit and sample count, then the result line.
fn run_workload(w: &Workload, o: &Opts) -> Result<bool, String> {
    let tmp = host::TmpDir::create().map_err(|e| format!("{}: {e}", host::TMP_ROOT))?;
    let Pass { listed, extra, run } = if o.trace {
        run_traced(w, o, &tmp)?
    } else {
        run_untraced(w, o, &tmp)?
    };
    println!(
        "# {{{}}}",
        host::fingerprint_json(o.seed, o.seconds, o.quick)
    );
    for m in listed.iter().chain(&extra) {
        println!(
            "metric\t{}\t{}\t{}\t{}\t{}",
            w.name, m.name, m.value, m.unit, m.n
        );
    }
    for e in &run.errors {
        eprintln!("FAILED {}: {e}", w.name);
    }
    println!(
        "{}",
        stats::result_line(w.name, run.attempted, run.failed, &listed)?
    );
    Ok(run.failed == 0)
}

/// Run `f` on a spawned thread. The main thread's stack starts at an
/// offset inside its page that address-space randomisation and the size
/// of the environment pick per process, and the kernels' speed follows
/// it: the same binary and inputs measured 3.1 or 3.5 GCUPS from one
/// process to the next on the main thread. A spawned thread's stack is
/// mapped page-aligned, so the layout — and the number — repeats.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn_scoped(s, f)
            .expect("spawn the measuring thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Values of one metric over the repeats of a full run.
#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
    n: Vec<usize>,
}

#[derive(Default)]
struct WorkloadReport {
    attempted: u64,
    failed: u64,
    /// `[end_to_end, per_layer]`.
    tables: [BTreeMap<String, Series>; 2],
}

/// Run one workload pass in a fresh child of this binary, so RSS and
/// allocator state do not leak between workloads; fold what it printed
/// into `report`.
fn run_child(
    w: &Workload,
    o: &Opts,
    trace: bool,
    report: &mut WorkloadReport,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    if o.flip {
        cmd.arg("--flip-expected");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .ok_or(format!(
            "{} (trace {}) printed no result line",
            w.name, trace as u8
        ))?;
    let count = |k: &str| result.get(k).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
    report.attempted += count("attempted");
    report.failed += count("failed");
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if let ["metric", _, name, value, unit, n] = f[..] {
            let s = report.tables[trace as usize]
                .entry(name.to_string())
                .or_default();
            s.unit = unit.to_string();
            s.values.push(
                value
                    .parse()
                    .map_err(|_| format!("bad metric line: {line}"))?,
            );
            s.n.push(n.parse().map_err(|_| format!("bad metric line: {line}"))?);
        }
    }
    Ok(out.status.success())
}

fn report_json(o: &Opts, reports: &BTreeMap<&str, WorkloadReport>) -> String {
    let mut out = format!(
        "{{\"fingerprint\":{{{}}},\"claim\":null,\"repeats\":{},\"workloads\":{{",
        host::fingerprint_json(o.seed, o.seconds, o.quick),
        o.repeats
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r = &reports[w.name];
        let _ = write!(
            out,
            "{}\n\"{}\":{{\"attempted\":{},\"failed\":{},\"failed_frac\":{}",
            if i > 0 { "," } else { "" },
            w.name,
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64
        );
        for (key, table) in ["end_to_end", "per_layer"].iter().zip(&r.tables) {
            let _ = write!(out, ",\n \"{key}\":{{");
            for (j, (name, s)) in table.iter().enumerate() {
                let list = |v: Vec<String>| v.join(",");
                let _ = write!(
                    out,
                    "{}\n  \"{name}\":{{\"unit\":\"{}\",\"values\":[{}],\"n\":[{}]}}",
                    if j > 0 { "," } else { "" },
                    s.unit,
                    list(s.values.iter().map(f64::to_string).collect()),
                    list(s.n.iter().map(usize::to_string).collect())
                );
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// All four workloads, untraced then traced, each pass in a child.
fn run_all(o: &Opts) -> Result<bool, String> {
    let mut reports: BTreeMap<&str, WorkloadReport> = BTreeMap::new();
    let mut ok = true;
    for _ in 0..o.repeats {
        for w in &WORKLOADS {
            let report = reports.entry(w.name).or_default();
            for trace in [false, true] {
                ok &= run_child(w, o, trace, report)?;
            }
        }
    }
    let text = report_json(o, &reports);
    json::parse(&text).map_err(|e| format!("internal: report is not valid JSON: {e}"))?;
    match &o.out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    // A debug build's numbers are not the program's. `--quick` gates
    // nothing, so the smoke test may run one.
    if cfg!(debug_assertions) && !o.quick && o.compare.is_none() {
        eprintln!("perf: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let outcome = if let Some((a, b)) = &o.compare {
        compare::run(a, b, &o.bounds).map(|(table, worse)| {
            print!("{table}");
            !worse
        })
    } else if let Some(name) = &o.workload {
        match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => on_fresh_thread(|| run_workload(w, &o)),
            None => Err(format!("unknown workload '{name}'")),
        }
    } else {
        run_all(&o)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}
