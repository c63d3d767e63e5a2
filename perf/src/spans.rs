//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer (choosing-metrics §4). A disabled recorder
//! takes no time stamps and no lock, so the untraced pass measures the
//! program alone; the traced pass keeps everything in memory and dumps
//! JSONL once, at exit.

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span; [`SpanId::NONE`] when recording is
/// off (and the parent of every root span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    sample: u32,
}

/// Self seconds of every span: its duration minus what its children
/// cover.
fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            children[s.parent.0 as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| stats::self_time((s.start_ns, s.end_ns), kids) as f64 / 1e9)
        .collect()
}

/// Span store of one workload run.
pub struct Recorder {
    workload: &'static str,
    epoch: Instant,
    /// `None` = recording off.
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that records nothing (the untraced pass).
    pub fn off(workload: &'static str) -> Self {
        Recorder {
            workload,
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// A recording recorder (the traced pass).
    pub fn on(workload: &'static str) -> Self {
        Recorder {
            spans: Some(Mutex::new(Vec::new())),
            ..Recorder::off(workload)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. `sample` ties the spans of one operation together.
    pub fn begin(&self, name: &'static str, parent: SpanId, sample: u32) -> SpanId {
        let Some(spans) = &self.spans else {
            return SpanId::NONE;
        };
        let start_ns = self.now_ns();
        let mut g = spans.lock().expect("span store poisoned");
        g.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sample,
        });
        SpanId(g.len() as u32 - 1)
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&self, id: SpanId) {
        let Some(spans) = &self.spans else { return };
        let end_ns = self.now_ns();
        spans.lock().expect("span store poisoned")[id.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        sample: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, sample);
        let out = f();
        self.end(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("span store poisoned").len())
    }

    /// Per span name: `(count, total seconds, total self seconds)`,
    /// self = duration minus what the span's children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out = BTreeMap::new();
        let Some(spans) = &self.spans else { return out };
        let spans = spans.lock().expect("span store poisoned");
        let self_s = self_seconds(&spans);
        for (s, own) in spans.iter().zip(self_s) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e9;
            e.2 += own;
        }
        out
    }

    /// For every root span named `root`: its sample id and the self
    /// seconds of the root and all its descendants, summed by span
    /// name. The values of one entry add up to the root's duration
    /// (children of one operation never overlap here: each measured
    /// operation runs on the thread that opened its root).
    pub fn per_root(&self, root: &str) -> Vec<(u32, BTreeMap<&'static str, f64>)> {
        let Some(spans) = &self.spans else {
            return Vec::new();
        };
        let spans = spans.lock().expect("span store poisoned");
        let self_s = self_seconds(&spans);
        // Parents are always recorded before their children, so one
        // forward pass resolves every span's root.
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        let mut out: Vec<(u32, BTreeMap<&'static str, f64>)> = Vec::new();
        let mut slot_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let r = if s.parent == SpanId::NONE {
                i
            } else {
                root_of[s.parent.0 as usize]
            };
            root_of.push(r);
            if spans[r].name != root {
                continue;
            }
            let slot = *slot_of.entry(r).or_insert_with(|| {
                out.push((spans[r].sample, BTreeMap::new()));
                out.len() - 1
            });
            *out[slot].1.entry(s.name).or_insert(0.0) += self_s[i];
        }
        out
    }

    /// One JSON object per span: id, name, start, end, parent, workload,
    /// sample id.
    pub fn dump_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        for (id, s) in spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .enumerate()
        {
            let parent = match s.parent {
                SpanId::NONE => "null".to_string(),
                SpanId(p) => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"workload\":\"{}\",\"sample\":{}}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.sample
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::off("w");
        let id = r.begin("a", SpanId::NONE, 0);
        assert_eq!(id, SpanId::NONE);
        r.end(id);
        assert_eq!(r.span("b", id, 0, || 7), 7);
        assert_eq!(r.len(), 0);
        assert!(r.totals().is_empty());
        let mut buf = Vec::new();
        r.dump_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn nested_spans_yield_self_time_and_jsonl() {
        let r = Recorder::on("solo_long");
        let root = r.begin("engine.search", SpanId::NONE, 3);
        r.span("kernels.sp_i16", root, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        r.end(root);
        let t = r.totals();
        let (n, total, own) = t["engine.search"];
        assert_eq!(n, 1);
        assert!(total >= 0.005);
        assert!(own < total, "child cover is subtracted");
        assert!((t["kernels.sp_i16"].1 - t["kernels.sp_i16"].2).abs() < 1e-12);
        assert!((own + t["kernels.sp_i16"].1 - total).abs() < 1e-9);

        let mut buf = Vec::new();
        r.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"workload\":\"solo_long\""));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"sample\":3"));
        for l in lines {
            crate::json::parse(l).expect("each span line is valid JSON");
        }
    }
}
