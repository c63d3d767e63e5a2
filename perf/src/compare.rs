//! `perf --compare A.json B.json`: one row per (end-to-end metric,
//! workload) with parent, change, delta and a verdict under the bounds
//! `BENCHMARK.json` fixes (choosing-metrics §6.5). The seed of the
//! noise-aware gate: with four or more repeats per side the parent's
//! own quartile spread decides between `within-bound` and `unresolved`.

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};

/// How a change reads against the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Direction and worsening bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without '{k}'"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("better must be higher|lower, got {other:?}")),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Judge `change` against `parent` (one value per repeat each).
///
/// * `worse`: the change's median is worse than the parent's by more
///   than the bound.
/// * `better`: it is better by more than the bound.
/// * otherwise `within-bound` — unless the parent's own quartile spread
///   (needs ≥ 4 repeats) is wider than the bound, in which case the
///   comparison cannot resolve a bound-sized shift: `unresolved`, unless
///   every run of the change reads better than every run of the parent.
pub fn judge(parent: &[f64], change: &[f64], b: &Bound) -> (f64, Verdict) {
    let (p, c) = (median(parent), median(change));
    // Positive = improvement, as a share of the parent.
    let gain = (if b.higher_is_better { c - p } else { p - c }) / p;
    let spread = quartile_spread(parent);
    let all_better = change.iter().all(|&c| {
        parent
            .iter()
            .all(|&p| if b.higher_is_better { c > p } else { c < p })
    });
    let verdict = if spread.is_some_and(|s| s > b.bound) && !all_better {
        Verdict::Unresolved
    } else if gain < -b.bound {
        Verdict::Worse
    } else if gain > b.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    ((c - p) / p, verdict)
}

fn values_of(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Render the comparison table; the flag is true when any row is
/// `worse` or any workload of the change had failed operations.
pub fn compare(parent: &Value, change: &Value, bounds: &[Bound]) -> Result<(String, bool), String> {
    let workloads = parent
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("parent report has no workloads")?;
    let mut out = format!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    let mut any_worse = false;
    for name in workloads.keys() {
        for b in bounds {
            let (Some(p), Some(c)) = (
                values_of(parent, name, &b.name),
                values_of(change, name, &b.name),
            ) else {
                return Err(format!(
                    "{name}/{}: missing from one of the reports",
                    b.name
                ));
            };
            let (delta, verdict) = judge(&p, &c, b);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{name:<14} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}\n",
                b.name,
                median(&p),
                median(&c),
                delta * 100.0,
                b.bound * 100.0,
                verdict.name()
            ));
        }
        // failed_frac has no bound to spend: it must stay 0.
        let failed = |r: &Value| r.get("workloads")?.get(name)?.get("failed_frac")?.as_f64();
        let (p, c) = (failed(parent).unwrap_or(0.0), failed(change).unwrap_or(1.0));
        let bad = c > 0.0;
        any_worse |= bad;
        out.push_str(&format!(
            "{name:<14} {:<16} {p:>12.4} {c:>12.4} {:>8} {:>6}  {}\n",
            "failed_frac",
            "",
            "0",
            if bad { "worse" } else { "within-bound" }
        ));
    }
    Ok((out, any_worse))
}

/// Load the three documents and compare.
pub fn run(parent: &str, change: &str, benchmark: &str) -> Result<(String, bool), String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(
        &load(parent)?,
        &load(change)?,
        &bounds_of(&load(benchmark)?)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let up = bound(true, 0.10);
        assert_eq!(judge(&[5.0], &[5.2], &up).1, Verdict::WithinBound);
        assert_eq!(judge(&[5.0], &[4.4], &up).1, Verdict::Worse);
        assert_eq!(judge(&[5.0], &[5.6], &up).1, Verdict::Better);
        let down = bound(false, 0.10);
        assert_eq!(judge(&[20.0], &[23.0], &down).1, Verdict::Worse);
        assert_eq!(judge(&[20.0], &[17.0], &down).1, Verdict::Better);
        assert_eq!(judge(&[20.0], &[21.0], &down).1, Verdict::WithinBound);
        let (delta, _) = judge(&[20.0], &[21.0], &down);
        assert!(
            (delta - 0.05).abs() < 1e-12,
            "delta is signed change over parent"
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_wins() {
        let up = bound(true, 0.10);
        let noisy = [4.0, 5.0, 6.0, 5.0, 4.2, 5.8];
        assert_eq!(
            judge(&noisy, &[5.1, 5.0, 4.9, 5.2], &up).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[7.0, 7.1, 7.2, 7.3], &up).1, Verdict::Better);
        // A tight parent resolves normally.
        let tight = [5.0, 5.01, 4.99, 5.0];
        assert_eq!(judge(&tight, &[4.0, 4.0, 4.1, 4.0], &up).1, Verdict::Worse);
    }

    #[test]
    fn compare_renders_rows_and_flags_worse_and_failures() {
        let report = |gcups: &str, failed: &str| {
            json::parse(&format!(
                r#"{{"workloads":{{"solo_long":{{"failed_frac":{failed},
                "end_to_end":{{"gcups":{{"unit":"GCUPS","values":[{gcups}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bench = json::parse(
            r#"{"end_to_end":[{"name":"gcups","unit":"GCUPS","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&bench).unwrap();
        let (table, worse) = compare(&report("5.0", "0"), &report("5.1", "0"), &bounds).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("within-bound"));
        let (table, worse) = compare(&report("5.0", "0"), &report("4.0", "0"), &bounds).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&report("5.0", "0"), &report("5.0", "0.01"), &bounds).unwrap();
        assert!(worse, "a failed operation is never within bound");
        assert!(compare(&report("5.0", "0"), &json::parse("{}").unwrap(), &bounds).is_err());
    }
}
