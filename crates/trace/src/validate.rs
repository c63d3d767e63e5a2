//! Schema validation for exported traces — what CI runs against real
//! trace output: JSONL well-formedness, monotonic timestamps, balanced
//! span begin/end per worker track, and Prometheus text parseability.
//!
//! The JSONL checker is deliberately a line-shape validator, not a full
//! JSON parser: the format is ours (one flat object per line, no nested
//! strings with braces), so brace/quote balance plus required-key
//! extraction is both sufficient and dependency-free.

use crate::json::{field_str, field_u64};
use std::collections::HashMap;

/// Summary of a successfully validated JSONL trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlReport {
    /// Event lines validated (header excluded).
    pub events: usize,
    /// Distinct (query, device, worker) tracks seen.
    pub tracks: usize,
    /// Spans successfully matched begin→end.
    pub spans: usize,
    /// Distinct query ids seen (1 for a solo run).
    pub queries: usize,
}

fn shape_ok(line: &str) -> bool {
    if !(line.starts_with('{') && line.ends_with('}')) {
        return false;
    }
    let mut depth = 0i32;
    let mut quotes = 0usize;
    let mut prev = '\0';
    for c in line.chars() {
        match c {
            '"' if prev != '\\' => quotes += 1,
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
        prev = c;
    }
    depth == 0 && quotes.is_multiple_of(2)
}

/// Validate a JSONL trace export: header line with the right schema,
/// well-formed event lines carrying `t_us`/`device`/`worker`/`ph`/`ev`,
/// globally non-decreasing timestamps, and balanced `B`/`E` spans per
/// (query, device, worker) track. The `query` field is optional and
/// defaults to 0 (pre-daemon exports), so legacy traces still validate;
/// when present it keys span balance, which is what lets a merged
/// export of concurrent searches pass even though their worker indices
/// collide.
pub fn validate_jsonl(text: &str) -> Result<JsonlReport, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace")?;
    if !shape_ok(header) {
        return Err(format!("malformed header line: {header}"));
    }
    match field_str(header, "schema") {
        Some(s) if s == crate::SCHEMA => {}
        Some(s) => return Err(format!("schema {s:?}, expected {:?}", crate::SCHEMA)),
        None => return Err("header missing schema".to_string()),
    }

    let mut events = 0usize;
    let mut spans = 0usize;
    let mut last_t = 0u64;
    // Per-track stack of open span names, keyed (query, device, worker).
    let mut open: HashMap<(u64, u64, u64), Vec<String>> = HashMap::new();
    for (i, line) in lines {
        let n = i + 1; // 1-based for messages
        if line.is_empty() {
            continue;
        }
        if !shape_ok(line) {
            return Err(format!("line {n}: malformed JSON shape"));
        }
        let t = field_u64(line, "t_us").ok_or(format!("line {n}: missing t_us"))?;
        let query = field_u64(line, "query").unwrap_or(0);
        let device = field_u64(line, "device").ok_or(format!("line {n}: missing device"))?;
        let worker = field_u64(line, "worker").ok_or(format!("line {n}: missing worker"))?;
        let ph = field_str(line, "ph").ok_or(format!("line {n}: missing ph"))?;
        let ev = field_str(line, "ev").ok_or(format!("line {n}: missing ev"))?;
        if t < last_t {
            return Err(format!("line {n}: timestamp {t} < previous {last_t}"));
        }
        last_t = t;
        let stack = open.entry((query, device, worker)).or_default();
        match ph.as_str() {
            "B" => stack.push(ev),
            "E" => match stack.pop() {
                Some(b) if b == ev => spans += 1,
                Some(b) => {
                    return Err(format!("line {n}: span end {ev:?} closes open {b:?}"));
                }
                None => return Err(format!("line {n}: span end {ev:?} with no open span")),
            },
            "I" | "C" => {}
            other => return Err(format!("line {n}: unknown phase {other:?}")),
        }
        events += 1;
    }
    for ((q, d, w), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("track q{q} {d}/{w}: span {name:?} never ended"));
        }
    }
    let mut queries: Vec<u64> = open.keys().map(|&(q, _, _)| q).collect();
    queries.sort_unstable();
    queries.dedup();
    Ok(JsonlReport {
        events,
        tracks: open.len(),
        spans,
        queries: queries.len(),
    })
}

/// Summary of a successfully validated Prometheus snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromReport {
    /// Metric families declared (`# HELP` + `# TYPE` pairs).
    pub families: usize,
    /// Samples validated.
    pub samples: usize,
}

fn metric_name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
        })
}

/// Parse a label body (`k="v",k2="v2"` — the text between `{` and `}`)
/// into pairs, enforcing exposition-format escaping: only `\\`, `\"`
/// and `\n` are legal in label values.
fn parse_labels(n: usize, body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .ok_or(format!("line {n}: label without =\" in {body:?}"))?;
        let name = &rest[..eq];
        if !metric_name_ok(name) || name.contains(':') {
            return Err(format!("line {n}: bad label name {name:?}"));
        }
        let mut val = String::new();
        let mut end = None;
        let mut chars = rest[eq + 2..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, e @ ('\\' | '"' | 'n'))) => {
                        val.push('\\');
                        val.push(e);
                    }
                    other => {
                        return Err(format!(
                            "line {n}: illegal escape {:?} in label value",
                            other.map(|(_, c)| c)
                        ));
                    }
                },
                '"' => {
                    end = Some(eq + 2 + i);
                    break;
                }
                _ => val.push(c),
            }
        }
        let end = end.ok_or(format!("line {n}: unterminated label value"))?;
        out.push((name.to_string(), val));
        rest = &rest[end + 1..];
        match rest.strip_prefix(',') {
            Some(r) if !r.is_empty() => rest = r,
            Some(_) => return Err(format!("line {n}: trailing comma in label set")),
            None if rest.is_empty() => {}
            None => return Err(format!("line {n}: junk after label value: {rest:?}")),
        }
    }
    Ok(out)
}

fn parse_sample_value(n: usize, s: &str) -> Result<f64, String> {
    let v = match s {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        _ => s
            .parse::<f64>()
            .map_err(|_| format!("line {n}: unparseable value {s:?}"))?,
    };
    if v.is_nan() {
        return Err(format!("line {n}: NaN sample value"));
    }
    Ok(v)
}

/// Strict Prometheus text-exposition validator — what the exporter
/// tests and CI run against both the per-search snapshot
/// ([`crate::export::prometheus`]) and the daemon-lifetime snapshot
/// (`sw-serve`'s obs plane). Every non-comment line must be
/// `name{labels} value` (or `name value`) with a parseable value; beyond
/// that line shape it enforces:
///
/// - every family is declared with `# HELP` *then* `# TYPE`, and every
///   `# HELP` has a matching `# TYPE`;
/// - declared types are `counter` / `gauge` / `histogram` only;
/// - every sample belongs to a declared family (histogram samples are
///   attributed by stripping `_bucket` / `_sum` / `_count`);
/// - label sets parse with legal names and legal value escapes
///   (`\\`, `\"`, `\n`);
/// - counter families end in `_total` and carry non-negative finite
///   values (counter monotonicity within one snapshot: cumulative
///   histogram buckets never decrease, counters never go negative);
/// - per histogram series (family + labels minus `le`): `le` bounds
///   strictly increase and terminate at `+Inf`, cumulative bucket
///   counts are non-decreasing, `_count` equals the `+Inf` bucket, and
///   `_sum` is present;
/// - no sample anywhere is NaN.
pub fn validate_prometheus_strict(text: &str) -> Result<PromReport, String> {
    use std::collections::BTreeMap;

    let mut help: HashMap<String, usize> = HashMap::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    #[derive(Default)]
    struct HistSeries {
        buckets: Vec<(f64, f64)>, // (le, cumulative count) in file order
        sum: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: BTreeMap<(String, String), HistSeries> = BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let n = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, doc) = rest
                .split_once(' ')
                .ok_or(format!("line {n}: HELP without text"))?;
            if !metric_name_ok(name) || doc.is_empty() {
                return Err(format!("line {n}: malformed HELP for {name:?}"));
            }
            if help.insert(name.to_string(), n).is_some() {
                return Err(format!("line {n}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or(format!("line {n}: TYPE without kind"))?;
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown type {ty:?} for {name}"));
            }
            if !help.contains_key(name) {
                return Err(format!("line {n}: TYPE {name} precedes its HELP"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        let (name_part, value_str) = line
            .rsplit_once(' ')
            .ok_or(format!("line {n}: no value separator"))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((m, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {n}: unclosed label set"))?;
                (m, parse_labels(n, body)?)
            }
            None => (name_part, Vec::new()),
        };
        if !metric_name_ok(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let value = parse_sample_value(n, value_str)?;
        samples += 1;

        // Attribute the sample to its declared family.
        let hist_base = |suffix: &str| {
            name.strip_suffix(suffix)
                .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
        };
        let series_key = |labels: &[(String, String)], drop_le: bool| {
            let mut kv: Vec<String> = labels
                .iter()
                .filter(|(k, _)| !(drop_le && k == "le"))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            kv.sort();
            kv.join(",")
        };
        if let Some(base) = hist_base("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or(format!("line {n}: histogram bucket without le label"))?;
            let bound = parse_sample_value(n, &le.1)?;
            hists
                .entry((base.to_string(), series_key(&labels, true)))
                .or_default()
                .buckets
                .push((bound, value));
        } else if let Some(base) = hist_base("_sum") {
            hists
                .entry((base.to_string(), series_key(&labels, false)))
                .or_default()
                .sum = Some(value);
        } else if let Some(base) = hist_base("_count") {
            hists
                .entry((base.to_string(), series_key(&labels, false)))
                .or_default()
                .count = Some(value);
        } else {
            match types.get(name).map(String::as_str) {
                Some("counter") => {
                    if !name.ends_with("_total") {
                        return Err(format!("line {n}: counter {name} does not end in _total"));
                    }
                    if !(value.is_finite() && value >= 0.0) {
                        return Err(format!("line {n}: counter {name} value {value} not a non-negative finite number"));
                    }
                }
                Some("gauge") => {}
                Some("histogram") => {
                    return Err(format!(
                        "line {n}: bare sample {name} for a histogram family"
                    ));
                }
                Some(_) | None => {
                    return Err(format!("line {n}: sample {name} has no declared TYPE"));
                }
            }
        }
    }

    for name in help.keys() {
        if !types.contains_key(name) {
            return Err(format!("HELP {name} has no TYPE"));
        }
    }
    for ((family, series), h) in &hists {
        let at = format!("histogram {family}{{{series}}}");
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = -1.0;
        for &(le, cum) in &h.buckets {
            if le <= prev_le {
                return Err(format!("{at}: le bounds not strictly increasing"));
            }
            if cum < prev_cum {
                return Err(format!("{at}: cumulative bucket counts decrease"));
            }
            if !(cum.is_finite() && cum >= 0.0) {
                return Err(format!("{at}: bucket count {cum} invalid"));
            }
            prev_le = le;
            prev_cum = cum;
        }
        match h.buckets.last() {
            Some(&(le, cum)) if le.is_infinite() => {
                if h.count != Some(cum) {
                    return Err(format!("{at}: _count does not equal the +Inf bucket"));
                }
            }
            _ => return Err(format!("{at}: missing terminal +Inf bucket")),
        }
        if h.sum.is_none() {
            return Err(format!("{at}: missing _sum"));
        }
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(PromReport {
        families: types.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;
    use crate::{EventKind, Tracer};

    fn traced_jsonl() -> String {
        let tr = Tracer::full();
        let mut j = tr.worker(0, 0);
        j.emit_at(0, EventKind::QueueWaitBegin);
        j.emit_at(4, EventKind::QueueWaitEnd { us: 4 });
        j.emit_at(
            5,
            EventKind::ChunkStart {
                lease: 0,
                lo: 0,
                hi: 2,
            },
        );
        j.emit_at(
            9,
            EventKind::ChunkFinish {
                lease: 0,
                lo: 0,
                hi: 2,
                cells: 64,
            },
        );
        drop(j);
        export::jsonl(&tr.timeline())
    }

    #[test]
    fn real_export_validates() {
        let text = traced_jsonl();
        let rep = validate_jsonl(&text).expect("valid");
        assert_eq!(rep.events, 4);
        assert_eq!(rep.tracks, 1);
        assert_eq!(rep.spans, 2);
    }

    #[test]
    fn precision_promotions_validate_inside_a_chunk_span() {
        // Both hand-overs of the precision chain are instants a kernel
        // emits mid-chunk: bytes → i16 (the fused kernel's promotion) and
        // i16 → i64 (the scalar rescue).
        let tr = Tracer::full();
        let mut j = tr.worker(0, 0);
        let (lease, lo, hi) = (0, 0, 1);
        j.emit_at(1, EventKind::ChunkStart { lease, lo, hi });
        for (t, from_bits, to_bits) in [(2, 8, 16), (3, 16, 64)] {
            j.emit_at(
                t,
                EventKind::OverflowRecompute {
                    from_bits,
                    to_bits,
                    lanes: 1,
                },
            );
        }
        let cells = 64;
        j.emit_at(
            4,
            EventKind::ChunkFinish {
                lease,
                lo,
                hi,
                cells,
            },
        );
        drop(j);
        let text = export::jsonl(&tr.timeline());
        assert!(text.contains("\"from_bits\":8,\"to_bits\":16,\"lanes\":1"));
        let rep = validate_jsonl(&text).expect("valid");
        assert_eq!((rep.events, rep.spans), (4, 1));
    }

    #[test]
    fn merged_two_query_export_validates_with_colliding_workers() {
        // Same (device, worker) on both queries: span balance must key on
        // the query tag or the interleaved spans would cross-close.
        let t1 = Tracer::for_query(crate::TraceLevel::Full, 64, 1);
        let t2 = Tracer::for_query(crate::TraceLevel::Full, 64, 2);
        let mut j1 = t1.worker(0, 0);
        let mut j2 = t2.worker(0, 0);
        j1.emit_at(
            0,
            EventKind::ChunkStart {
                lease: 0,
                lo: 0,
                hi: 1,
            },
        );
        j2.emit_at(1, EventKind::QueueWaitBegin);
        j1.emit_at(
            2,
            EventKind::ChunkFinish {
                lease: 0,
                lo: 0,
                hi: 1,
                cells: 8,
            },
        );
        j2.emit_at(3, EventKind::QueueWaitEnd { us: 2 });
        drop(j1);
        drop(j2);
        let merged = crate::Timeline::merge([t1.timeline(), t2.timeline()]);
        let rep = validate_jsonl(&export::jsonl(&merged)).expect("valid");
        assert_eq!(rep.events, 4);
        assert_eq!(rep.tracks, 2);
        assert_eq!(rep.spans, 2);
        assert_eq!(rep.queries, 2);
    }

    #[test]
    fn legacy_lines_without_query_default_to_query_zero() {
        let text = traced_jsonl().replace("\"query\":0,", "");
        let rep = validate_jsonl(&text).expect("legacy trace still valid");
        assert_eq!(rep.queries, 1);
        assert_eq!(rep.spans, 2);
    }

    #[test]
    fn rejects_regressing_timestamps() {
        let text = traced_jsonl().replace("\"t_us\":9", "\"t_us\":1");
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("timestamp"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_span() {
        let mut text = traced_jsonl();
        // Drop the ChunkFinish line.
        text = text
            .lines()
            .filter(|l| !l.contains("\"cells\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("never ended"), "{err}");
    }

    #[test]
    fn rejects_mismatched_span_names() {
        let text = traced_jsonl().replace(
            "\"ph\":\"E\",\"ev\":\"chunk\"",
            "\"ph\":\"E\",\"ev\":\"zz\"",
        );
        assert!(validate_jsonl(&text).is_err());
    }

    #[test]
    fn rejects_malformed_line_and_wrong_schema() {
        let text = format!("{}not json\n", traced_jsonl());
        assert!(validate_jsonl(&text).is_err());
        let text = traced_jsonl().replace("sw-trace/1", "sw-trace/0");
        assert!(validate_jsonl(&text).unwrap_err().contains("schema"));
    }

    fn traced_prometheus() -> String {
        let tr = Tracer::full();
        let mut j = tr.worker(0, 0);
        j.emit_at(0, EventKind::QueueWaitBegin);
        j.emit_at(4, EventKind::QueueWaitEnd { us: 4 });
        j.emit_at(
            5,
            EventKind::ChunkStart {
                lease: 0,
                lo: 0,
                hi: 2,
            },
        );
        j.emit_at(
            9,
            EventKind::ChunkFinish {
                lease: 0,
                lo: 0,
                hi: 2,
                cells: 64,
            },
        );
        j.emit_at(
            10,
            EventKind::CheckpointWritten {
                seq: 1,
                tasks_done: 2,
                bytes: 128,
            },
        );
        drop(j);
        export::prometheus(
            &tr.timeline(),
            &[crate::DeviceMetrics {
                device: 0,
                cells: 64,
                chunks: 1,
                busy: std::time::Duration::from_millis(1),
                ..Default::default()
            }],
            0,
            "avx2",
        )
    }

    #[test]
    fn strict_validator_passes_real_per_search_snapshot() {
        let text = traced_prometheus();
        let rep = validate_prometheus_strict(&text).expect("valid");
        assert!(rep.families >= 15, "families = {}", rep.families);
        assert!(rep.samples >= 30, "samples = {}", rep.samples);
    }

    #[test]
    fn strict_validator_rejects_structural_defects() {
        let ok = "# HELP m_total things\n# TYPE m_total counter\nm_total 3\n";
        validate_prometheus_strict(ok).expect("minimal counter family");

        // TYPE before HELP.
        let t = "# TYPE m_total counter\n# HELP m_total things\nm_total 3\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("precedes"));
        // Sample without any declaration.
        assert!(validate_prometheus_strict("orphan 1\n")
            .unwrap_err()
            .contains("no declared TYPE"));
        // HELP with no TYPE.
        let t = "# HELP a_total x\n# TYPE a_total counter\na_total 1\n# HELP lonely y\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("no TYPE"));
        // Counter family not ending in _total.
        let t = "# HELP m things\n# TYPE m counter\nm 3\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("_total"));
        // Negative counter.
        let t = "# HELP m_total things\n# TYPE m_total counter\nm_total -1\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("non-negative"));
        // NaN sample.
        let t = "# HELP g stuff\n# TYPE g gauge\ng NaN\n";
        assert!(validate_prometheus_strict(t).unwrap_err().contains("NaN"));
        // Unknown type.
        let t = "# HELP m stuff\n# TYPE m summary\nm 1\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("unknown type"));
        // Illegal label escape.
        let t = "# HELP g stuff\n# TYPE g gauge\ng{tenant=\"a\\tb\"} 1\n";
        assert!(validate_prometheus_strict(t)
            .unwrap_err()
            .contains("escape"));
    }

    #[test]
    fn strict_validator_rejects_histogram_defects() {
        let decl = "# HELP h_us lat\n# TYPE h_us histogram\n";
        let good = format!(
            "{decl}h_us_bucket{{le=\"10\"}} 1\nh_us_bucket{{le=\"+Inf\"}} 2\nh_us_sum 12\nh_us_count 2\n"
        );
        validate_prometheus_strict(&good).expect("well-formed histogram");

        // Missing +Inf terminal bucket.
        let t = format!("{decl}h_us_bucket{{le=\"10\"}} 1\nh_us_sum 12\nh_us_count 1\n");
        assert!(validate_prometheus_strict(&t).unwrap_err().contains("+Inf"));
        // le bounds out of order.
        let t = format!(
            "{decl}h_us_bucket{{le=\"10\"}} 1\nh_us_bucket{{le=\"5\"}} 1\nh_us_bucket{{le=\"+Inf\"}} 2\nh_us_sum 1\nh_us_count 2\n"
        );
        assert!(validate_prometheus_strict(&t)
            .unwrap_err()
            .contains("strictly increasing"));
        // Cumulative counts decreasing.
        let t = format!(
            "{decl}h_us_bucket{{le=\"10\"}} 3\nh_us_bucket{{le=\"+Inf\"}} 2\nh_us_sum 1\nh_us_count 2\n"
        );
        assert!(validate_prometheus_strict(&t)
            .unwrap_err()
            .contains("decrease"));
        // _count disagrees with the +Inf bucket.
        let t = format!(
            "{decl}h_us_bucket{{le=\"10\"}} 1\nh_us_bucket{{le=\"+Inf\"}} 2\nh_us_sum 1\nh_us_count 7\n"
        );
        assert!(validate_prometheus_strict(&t)
            .unwrap_err()
            .contains("_count"));
        // _sum missing.
        let t = format!("{decl}h_us_bucket{{le=\"+Inf\"}} 0\nh_us_count 0\n");
        assert!(validate_prometheus_strict(&t).unwrap_err().contains("_sum"));
    }

    #[test]
    fn strict_validator_rejects_garbage_lines() {
        let decl = "# HELP sw_cells_total cells\n# TYPE sw_cells_total counter\n";
        let bad_value = format!("{decl}sw_cells_total{{device=\"cpu\"}} notanumber\n");
        assert!(validate_prometheus_strict(&bad_value)
            .unwrap_err()
            .contains("unparseable value"));
        assert!(validate_prometheus_strict("")
            .unwrap_err()
            .contains("no samples"));
        assert!(validate_prometheus_strict("bad metric name} 1\n")
            .unwrap_err()
            .contains("bad metric name"));
    }
}
