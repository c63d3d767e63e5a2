//! Drives the built `perf` binary the way the benchmark driver does, in
//! `--quick` mode (tiny inputs, one second, no gating) so it runs in
//! seconds even in the dev profile: every workload, both passes, must
//! print a result line whose metric names are exactly the ones
//! `BENCHMARK.json` lists, and a flipped expectation must fail the run.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        // Each test process gets its own scratch root: tests run side by
        // side and the bin keeps its files under `.perf_tmp/<pid>`.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perf")
}

// The bin's own JSON reader (it has tests of its own there).
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

/// The `name` of every entry of the top-level array `list`.
fn names_in(benchmark: &json::Value, list: &str) -> BTreeSet<String> {
    let entries = benchmark
        .get(list)
        .and_then(json::Value::as_arr)
        .expect("list present");
    entries
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(json::Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

/// Metric names of a result line, which must have exactly the four keys
/// the driver reads.
fn metrics_of(result: &str) -> BTreeSet<String> {
    let result = json::parse(result).expect("result line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = result
        .get("metrics")
        .and_then(json::Value::as_obj)
        .expect("metrics object");
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_prints_the_metrics_benchmark_json_lists() {
    let benchmark =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let benchmark = json::parse(&benchmark).expect("BENCHMARK.json is JSON");
    let workloads = names_in(&benchmark, "workloads");
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    for w in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perf(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} trace {trace}: {stderr}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{w}: {last}"
            );
            assert!(last.contains("\"failed\":0,"), "{w}: {last}");
            assert_eq!(
                metrics_of(last),
                names_in(&benchmark, list),
                "{w} trace {trace}"
            );
        }
    }
}

#[test]
fn a_flipped_expectation_or_a_bad_argument_fails_the_command() {
    let out = perf(&[
        "--workload",
        "solo_short",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
        "--flip-expected",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout
        .lines()
        .last()
        .expect("a result line")
        .starts_with("{\"correct\":false"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("scalar oracle"));

    assert_eq!(
        perf(&["--workload", "nope", "--quick"]).status.code(),
        Some(1)
    );
    assert_eq!(perf(&["--bogus"]).status.code(), Some(2));
}
