//! The benchmark's arithmetic: quantiles, the quiet-decile → GCUPS
//! fold, span self time, the layer reconcile sum, and the checked
//! metric emitter. Everything a reported number passes through lives
//! here so it can be unit-tested without running a workload.

use std::fmt::Write as _;

/// A tail percentile is only reported with at least this many samples
/// beyond it (choosing-metrics §1).
pub const MIN_BEYOND: f64 = 10.0;

/// Linear-interpolated quantile of `samples` at percentile `pct`
/// (0–100). Percentiles above the median are refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond them: a p90 of 20
/// samples is the second-worst sample, not a percentile. The median and
/// anything faster are central / fast-side estimators and need one sample.
pub fn quantile(samples: &[f64], pct: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    if samples.is_empty() {
        return None;
    }
    let n = samples.len() as f64;
    if pct > 50.0 && n * (100.0 - pct) / 100.0 < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = pct / 100.0 * (n - 1.0);
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median; panics on an empty sample set (every caller measured at
/// least one cycle).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 50.0).expect("median of no samples")
}

/// Run-to-run spread of one metric: the distance between the first and
/// third quartile of `values` as a share of their median, quartiles by
/// the exclusive method (Python's `statistics.quantiles(values, n=4)`),
/// which is how the benchmark's acceptance rule reads ten runs. `None`
/// below four values, where the quartiles are the extremes.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(values))
}

/// Median of `a[i] ÷ b[i]` over interleaved pairs. Each pair ran back
/// to back, so the host's multi-second speed drift cancels inside a
/// pair instead of landing on whichever side ran during a dip — which
/// is what a ratio of two medians reads on this host.
pub fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(a, b)| a / b).collect::<Vec<_>>())
}

/// Arithmetic mean (0 for no samples — only used on counters that may
/// legitimately be empty, e.g. checkpoint writes).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Percentile of sample *time* the gated throughput and floor-latency
/// numbers are read at. Neighbours only ever slow this host down, in
/// bursts a short operation can fall between: across runs of one commit
/// the fastest decile repeats within a few percent while the median
/// follows the host (see README, host noise).
pub const QUIET_PCT: f64 = 10.0;

/// Wall samples of one operation kind (one query length).
#[derive(Debug, Clone, Default)]
pub struct Kind {
    /// Query length — the kind's label in reports.
    pub query_len: usize,
    /// Real (unpadded) DP cells one operation of this kind computes.
    pub cells: u64,
    /// Wall seconds of every successful operation.
    pub walls: Vec<f64>,
}

/// The [`QUIET_PCT`] wall of every kind, seconds.
fn quiet_walls(kinds: &[Kind]) -> Vec<f64> {
    kinds
        .iter()
        .map(|k| quantile(&k.walls, QUIET_PCT).expect("kind without samples"))
        .collect()
}

/// Throughput fold: Σ cells ÷ Σ per-kind quiet walls, in 10⁹ cells/s.
pub fn gcups_fold(kinds: &[Kind]) -> f64 {
    let cells: f64 = kinds.iter().map(|k| k.cells as f64).sum();
    cells / quiet_walls(kinds).iter().sum::<f64>() / 1e9
}

/// Floor-latency fold: the per-kind quiet wall, averaged over kinds, ms.
pub fn floor_ms_fold(kinds: &[Kind]) -> f64 {
    mean(&quiet_walls(kinds)) * 1e3
}

/// Latency fold: the per-kind median wall, averaged over kinds, in ms.
/// Pooling kinds first would put the median of a two-length mix in the
/// gap between the clusters, where it jumps with the sample count.
pub fn p50_ms_fold(kinds: &[Kind]) -> f64 {
    mean(&kinds.iter().map(|k| median(&k.walls)).collect::<Vec<_>>()) * 1e3
}

/// Tail fold: the per-kind quantile at `pct`, averaged over kinds, in
/// ms; `None` when any kind's tail is too thin for [`quantile`].
pub fn tail_ms_fold(kinds: &[Kind], pct: f64) -> Option<f64> {
    let tails: Option<Vec<f64>> = kinds.iter().map(|k| quantile(&k.walls, pct)).collect();
    tails.map(|t| mean(&t) * 1e3)
}

/// Total successful samples over all kinds.
pub fn n_samples(kinds: &[Kind]) -> usize {
    kinds.iter().map(|k| k.walls.len()).sum()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn cover(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in v {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its child
/// spans cover (overlapping children are counted once).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - cover(children, span.0, span.1)
}

/// The spine's honesty check: |Σ layer times − untraced wall| ÷ wall.
pub fn reconcile_err(layers: &[f64], untraced_wall: f64) -> f64 {
    (layers.iter().sum::<f64>() - untraced_wall).abs() / untraced_wall
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the README glossary.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
}

impl Metric {
    /// A metric computed from `n` samples.
    pub fn new(name: &str, unit: &str, value: f64, n: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
        }
    }
}

/// True when `name` is non-empty, at most 64 characters of
/// `[A-Za-z0-9_.-]`, and starts with a letter or digit — the alphabet
/// `BENCHMARK.json` allows for metric and workload names.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Render `{"name":{"value":…,"unit":…},…}`, rejecting any name outside
/// the allowed alphabet, a duplicate, or a non-finite value — a NaN in
/// a result line would be silently unparseable downstream.
pub fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("metric name '{}' outside [A-Za-z0-9_.-]", m.name));
        }
        if metrics[..i].iter().any(|p| p.name == m.name) {
            return Err(format!("metric '{}' reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric '{}' is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            m.name, m.value, m.unit
        );
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    workload: &str,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if !valid_name(workload) {
        return Err(format!("workload name '{workload}' outside [A-Za-z0-9_.-]"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && attempted > 0,
        metrics_json(metrics)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(cells: u64, walls: &[f64]) -> Kind {
        Kind {
            query_len: 1,
            cells,
            walls: walls.to_vec(),
        }
    }

    #[test]
    fn quantiles_interpolate_and_refuse_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 50.0), Some(50.5));
        assert_eq!(quantile(&v, 25.0), Some(25.75));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        // p90 of 100 has exactly ten beyond; p99 has one.
        assert!((quantile(&v, 90.0).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(quantile(&v, 99.0), None);
        assert_eq!(quantile(&v[..99], 90.0), None, "9.9 beyond is not ten");
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(quantile(&big, 99.0).is_some());
        // The median never refuses, even on one sample.
        assert_eq!(quantile(&[7.0], 50.0), Some(7.0));
        assert_eq!(quantile(&[], 50.0), None);
        // Order of input does not matter.
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn quartile_spread_matches_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([4, 5, 6, 5], n=4) == [4.25, 5.0, 5.75].
        assert!((quartile_spread(&[4.0, 5.0, 6.0, 5.0]).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn paired_ratio_cancels_drift_shared_by_a_pair() {
        // Both sides slow down 3x in the second pair; the ratio holds.
        let (a, b) = ([1.1, 3.3, 1.1], [1.0, 3.0, 1.0]);
        assert!((paired_ratio(&a, &b) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn throughput_and_floor_read_the_quiet_wall_of_each_kind() {
        // Kind A: quiet wall of [1,1,1,9] = 1 s for 2e9 cells; kind B:
        // 2 s for 4e9 cells → 6e9 / 3 s = 2 GCUPS, floor 1.5 s. A mean
        // would have read 6e9 / 5 s.
        let kinds = [
            kind(2_000_000_000, &[1.0, 9.0, 1.0, 1.0]),
            kind(4_000_000_000, &[2.0; 4]),
        ];
        assert!((gcups_fold(&kinds) - 2.0).abs() < 1e-12);
        assert!((floor_ms_fold(&kinds) - 1500.0).abs() < 1e-9);
        assert_eq!(n_samples(&kinds), 8);
    }

    #[test]
    fn p50_fold_averages_per_kind_medians() {
        let kinds = [kind(1, &[0.001, 0.002, 0.003]), kind(1, &[0.010; 3])];
        assert!((p50_ms_fold(&kinds) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn tail_fold_needs_every_kind_to_have_a_tail() {
        let long: Vec<f64> = (1..=100).map(|i| f64::from(i) / 1e3).collect();
        let both = [kind(1, &long), kind(1, &long)];
        assert!((tail_ms_fold(&both, 90.0).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(
            tail_ms_fold(&[kind(1, &long), kind(1, &long[..50])], 90.0),
            None
        );
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        // Children [10,30] and [20,50] overlap: cover 40 of [0,100].
        assert_eq!(cover(&[(10, 30), (20, 50)], 0, 100), 40);
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 50)]), 60);
        // A child sticking out of the parent is clipped.
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        // Disjoint children add.
        assert_eq!(self_time((0, 10), &[(0, 2), (8, 10)]), 6);
        assert_eq!(self_time((0, 10), &[]), 10);
    }

    #[test]
    fn reconcile_is_relative_to_the_untraced_wall() {
        assert!((reconcile_err(&[0.5, 0.4, 0.05], 1.0) - 0.05).abs() < 1e-12);
        assert!((reconcile_err(&[1.1], 1.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn emitter_rejects_bad_names_duplicates_and_nan() {
        let ok = [Metric::new("serve.request_ms_p50", "ms", 21.25, 900)];
        assert_eq!(
            metrics_json(&ok).unwrap(),
            "{\"serve.request_ms_p50\":{\"value\":21.25,\"unit\":\"ms\"}}"
        );
        for bad in ["", "has space", "sl/ash", "_lead", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
            assert!(metrics_json(&[Metric::new(bad, "s", 1.0, 1)]).is_err());
        }
        let dup = [Metric::new("a", "s", 1.0, 1), Metric::new("a", "s", 2.0, 1)];
        assert!(metrics_json(&dup).unwrap_err().contains("twice"));
        let nan = [Metric::new("a", "s", f64::NAN, 1)];
        assert!(metrics_json(&nan).unwrap_err().contains("finite"));
        assert!(result_line("bad name", 1, 0, &ok).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let line = result_line(
            "solo_long",
            48,
            0,
            &[Metric::new("gcups", "GCUPS", 5.1, 48)],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":48,\"failed\":0,\
             \"metrics\":{\"gcups\":{\"value\":5.1,\"unit\":\"GCUPS\"}}}"
        );
        let bad = result_line("solo_long", 48, 1, &[]).unwrap();
        assert!(bad.starts_with("{\"correct\":false"));
    }
}
