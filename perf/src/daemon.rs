//! In-process `sw_serve::serve` daemons and the timed client that talks
//! to them. A [`Daemon`] is started exactly as `swsearch serve` starts
//! one (same `serve` call, same `ServeConfig`), answers `health` ready
//! before `start` returns, and is shut down and joined when stopped or
//! dropped — a failed run leaks no thread and no socket.

use crate::spans::{Recorder, SpanId};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sw_core::{HeteroEngine, HeteroSearchConfig, PreparedDb, SearchEngine};
use sw_sched::DrainSignal;
use sw_seq::Alphabet;
use sw_serve::client::{self, SubmitOutcome};
use sw_serve::{json, Endpoint, ServeConfig, StatsSnapshot};

/// Longest any daemon may take to answer `health` ready.
const READY_WAIT: Duration = Duration::from_secs(10);

/// A running in-process daemon.
pub struct Daemon {
    pub endpoint: Endpoint,
    shutdown: &'static DrainSignal,
    thread: Option<JoinHandle<Result<StatsSnapshot, String>>>,
}

impl Daemon {
    /// Serve `prepared` under `config`, pools 1 + 1; returns once the
    /// `health` op reports `ready`.
    pub fn start(prepared: Arc<PreparedDb>, config: ServeConfig) -> Result<Daemon, String> {
        // `serve` wants a `'static` signal and a signal never resets, so
        // each start mints one (a few bytes, for the process lifetime).
        let shutdown: &'static DrainSignal = Box::leak(Box::new(DrainSignal::new()));
        let endpoint = config.listen.clone();
        let thread = std::thread::spawn(move || {
            let engine = HeteroEngine::new(SearchEngine::paper_default());
            sw_serve::serve(
                &engine,
                &prepared,
                &Alphabet::protein(),
                &HeteroSearchConfig::best(1, 1),
                &config,
                shutdown,
            )
            .map_err(|e| e.to_string())
        });
        let daemon = Daemon {
            endpoint,
            shutdown,
            thread: Some(thread),
        };
        let deadline = Instant::now() + READY_WAIT;
        loop {
            let ready = client::request_endpoint(&daemon.endpoint, &client::health_request())
                .ok()
                .and_then(|l| l.first().and_then(|h| json::field_bool(h, "ready")));
            if ready == Some(true) {
                return Ok(daemon);
            }
            let died = daemon.thread.as_ref().is_some_and(JoinHandle::is_finished);
            if died || Instant::now() >= deadline {
                // Dropping `daemon` requests shutdown and joins.
                return Err(format!(
                    "daemon at {} {}",
                    daemon.endpoint,
                    if died {
                        "exited during start"
                    } else {
                        "never became ready"
                    }
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Shut down over the wire (the public `shutdown` op, as an operator
    /// would), join the serve thread and return its final counts.
    pub fn stop(mut self) -> Result<StatsSnapshot, String> {
        let _ = sw_serve::coord::shutdown_worker(&self.endpoint);
        self.join()
    }

    fn join(&mut self) -> Result<StatsSnapshot, String> {
        // Also set the signal directly: if the wire request failed the
        // accept loop still sees it within one poll.
        self.shutdown.request();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(stats)) => stats,
            Some(Err(_)) => Err("serve thread panicked".into()),
            None => Err("daemon already joined".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.join();
        }
    }
}

/// Client-side timeline of one submit, seconds from connect start.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTimes {
    /// Ack line (`queued`) read.
    pub ack: f64,
    /// First hit line read (equals `eof` when no hit came).
    pub first_hit: f64,
    /// Stream closed by the daemon.
    pub eof: f64,
}

/// One blocking submit on a fresh connection, as `swsearch submit` does
/// it, with client-side spans connect / write / ack / first hit / EOF
/// under `parent`. A refusal, a truncated stream or a non-`done` state
/// is an `Err` — never retried.
pub fn timed_submit(
    endpoint: &Endpoint,
    request: &str,
    rec: &Recorder,
    parent: SpanId,
    sample: u32,
) -> Result<(SubmitOutcome, RequestTimes), String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("submit to {endpoint}: {e}");
    let mut stream = rec
        .span("serve.client.connect", parent, sample, || {
            endpoint.connect(Duration::from_secs(1))
        })
        .map_err(io)?;
    rec.span("serve.client.write", parent, sample, || {
        stream.write_all(request.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        stream.shutdown_write()
    })
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut lines: Vec<String> = Vec::new();
    let mut times = RequestTimes::default();
    // Wire order: ack, state, hits…, end. Each phase span runs from the
    // previous line to the line that ends it.
    let mut phase = rec.begin("serve.client.wait_ack", parent, sample);
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(io)?;
        let now = t0.elapsed().as_secs_f64();
        match lines.len() {
            _ if n == 0 => {
                rec.end(phase);
                times.eof = now;
                break;
            }
            0 => {
                rec.end(phase);
                times.ack = now;
                phase = rec.begin("serve.client.wait_first_hit", parent, sample);
            }
            2 => {
                rec.end(phase);
                times.first_hit = now;
                phase = rec.begin("serve.client.stream", parent, sample);
            }
            _ => {}
        }
        lines.push(line.trim_end().to_string());
    }
    if times.first_hit == 0.0 {
        times.first_hit = times.eof;
    }
    let outcome = client::parse_submit_response(&lines)?;
    if outcome.state != "done" {
        return Err(format!(
            "job {} ended {}: {}",
            outcome.job,
            outcome.state,
            outcome.error.clone().unwrap_or_default()
        ));
    }
    Ok((outcome, times))
}

/// Sum ÷ count of one histogram family in a `{"op":"metrics"}` scrape,
/// in the family's own unit (µs for the phase histograms), summed over
/// label sets. `None` when the family has no observations.
pub fn scrape_mean(scrape: &[String], family: &str) -> Option<f64> {
    let total = |suffix: &str| -> f64 {
        scrape
            .iter()
            .filter_map(|l| l.strip_prefix(family)?.strip_prefix(suffix))
            .filter(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            .filter_map(|rest| rest.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let count = total("_count");
    (count > 0.0).then(|| total("_sum") / count)
}

/// Value of a label-free or single-label counter/gauge line.
pub fn scrape_value(scrape: &[String], name: &str) -> Option<f64> {
    scrape
        .iter()
        .filter_map(|l| l.strip_prefix(name))
        .filter(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        .find_map(|rest| rest.rsplit(' ').next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_helpers_read_prometheus_text() {
        let scrape: Vec<String> = [
            "# TYPE sw_serve_gather_us histogram",
            "sw_serve_gather_us_bucket{le=\"100\"} 1",
            "sw_serve_gather_us_sum 9000",
            "sw_serve_gather_us_count 3",
            "sw_serve_run_us_sum{shard=\"1\"} 50",
            "sw_serve_run_us_count{shard=\"1\"} 2",
            "sw_serve_rejected_total 4",
            "sw_serve_rejected_total_other 9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(scrape_mean(&scrape, "sw_serve_gather_us"), Some(3000.0));
        assert_eq!(scrape_mean(&scrape, "sw_serve_run_us"), Some(25.0));
        assert_eq!(scrape_mean(&scrape, "sw_serve_admit_us"), None);
        assert_eq!(scrape_value(&scrape, "sw_serve_rejected_total"), Some(4.0));
    }
}
