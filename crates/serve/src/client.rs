//! Client side of the serve protocol: request builders, a one-shot
//! request runner, and the submit-stream parser. Used by the `swsearch
//! submit` front-end, the coordinator and the integration tests. The
//! hit line has its one writer ([`HitLine::to_json`], which the daemon
//! streams and `search --shards --json` re-renders) and its one parser
//! here; line framing is `transport`'s.

use crate::json;
use crate::transport::{Endpoint, LineReader, NetTransport, RetryPolicy, ShardTransport};
use std::io;
use std::path::Path;
use std::time::Duration;

/// Build a `submit` request line.
pub fn submit_request(tenant: &str, query_fasta: &str, top: usize, drill: Option<&str>) -> String {
    let mut line = format!(
        "{{\"op\":\"submit\",\"tenant\":\"{}\",\"top\":{top},\"query\":\"{}\"",
        json::escape(tenant),
        json::escape(query_fasta)
    );
    if let Some(d) = drill {
        line.push_str(&format!(",\"drill\":\"{}\"", json::escape(d)));
    }
    line.push('}');
    line
}

/// Build a `status` request line.
pub fn status_request(job: u64) -> String {
    format!("{{\"op\":\"status\",\"job\":{job}}}")
}

/// Build a `cancel` request line.
pub fn cancel_request(job: u64) -> String {
    format!("{{\"op\":\"cancel\",\"job\":{job}}}")
}

/// Build a `stats` request line.
pub fn stats_request() -> String {
    "{\"op\":\"stats\"}".to_string()
}

/// Build a `shutdown` request line.
pub fn shutdown_request() -> String {
    "{\"op\":\"shutdown\"}".to_string()
}

/// Build a `metrics` request line. The daemon answers with a raw
/// Prometheus text snapshot (many lines, not JSON).
pub fn metrics_request() -> String {
    "{\"op\":\"metrics\"}".to_string()
}

/// Build a `health` request line. The daemon answers with one JSON
/// line; `ready` carries the readiness verdict, answering at all is
/// liveness.
pub fn health_request() -> String {
    "{\"op\":\"health\"}".to_string()
}

/// Send one request line and collect every response line until the
/// daemon closes the connection. For `submit` this blocks until the job
/// finishes (the daemon streams the result on the same connection).
pub fn request(socket: &Path, line: &str) -> io::Result<Vec<String>> {
    request_endpoint(&Endpoint::Unix(socket.to_path_buf()), line)
}

/// [`request`] over any [`Endpoint`] (unix socket or `tcp://host:port`)
/// — one connect attempt, fail fast.
pub fn request_endpoint(endpoint: &Endpoint, line: &str) -> io::Result<Vec<String>> {
    request_endpoint_retry(endpoint, line, &RetryPolicy::default()).map(|(lines, _)| lines)
}

/// [`request_endpoint`] with bounded connect retries under jittered
/// exponential backoff, so a daemon mid-restart does not fail the whole
/// query. Only the *connect* is retried — once a connection is up, a
/// broken stream is the caller's decision to repeat (a submit may have
/// side effects). Returns the reply lines and how many retries were
/// spent.
pub fn request_endpoint_retry(
    endpoint: &Endpoint,
    line: &str,
    policy: &RetryPolicy,
) -> io::Result<(Vec<String>, u32)> {
    let (mut stream, used) =
        NetTransport.connect_retry(endpoint, Duration::from_millis(1_000), policy)?;
    stream.send_line(line)?;
    let mut reader = LineReader::new(stream);
    let mut lines = Vec::new();
    while let Some(l) = reader.read_line()? {
        lines.push(l);
    }
    Ok((lines, used))
}

/// One streamed hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitLine {
    /// 1-based rank.
    pub rank: u64,
    /// Exact Smith-Waterman score.
    pub score: i64,
    /// Global database index of the hit sequence. Shard workers report
    /// `shard base + in-shard id`, so the coordinator's merge tie-break
    /// (score, then this index) matches the unsharded run's.
    pub id: u64,
    /// Database header.
    pub header: String,
}

impl HitLine {
    /// The wire form — the one place a hit line is rendered.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rank\":{},\"score\":{},\"id\":{},\"header\":\"{}\"}}",
            self.rank,
            self.score,
            self.id,
            json::escape(&self.header)
        )
    }

    /// Parse the wire form back (`id` defaults to 0: pre-shard daemons
    /// did not send it).
    fn from_json(line: &str) -> Option<HitLine> {
        Some(HitLine {
            rank: json::field_u64(line, "rank")?,
            score: json::field_u64(line, "score")? as i64,
            id: json::field_u64(line, "id").unwrap_or(0),
            header: json::field_str(line, "header")?,
        })
    }
}

/// Parsed outcome of a submit stream.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Job id the daemon assigned.
    pub job: u64,
    /// Final state: `done`, `cancelled` or `failed`.
    pub state: String,
    /// Checkpoint resumes the run stitched together.
    pub resumes: u64,
    /// Queries that shared this job's dual-pool region (0 when the job
    /// never reached a region, e.g. cancelled while queued).
    pub batch: u64,
    /// Streamed hits (`done` only).
    pub hits: Vec<HitLine>,
    /// Failure message (`failed` only).
    pub error: Option<String>,
}

/// Parse a full submit response. A rejection (quota, bad query, bad
/// drill) or a truncated stream is an `Err` with the daemon's message.
pub fn parse_submit_response(lines: &[String]) -> Result<SubmitOutcome, String> {
    let ack = lines.first().ok_or("empty response")?;
    if json::field_bool(ack, "ok") != Some(true) {
        return Err(json::field_str(ack, "error").unwrap_or_else(|| "rejected".to_string()));
    }
    let job = json::field_u64(ack, "job").ok_or("ack without job id")?;
    if lines.last().map(|l| json::field_bool(l, "end")) != Some(Some(true)) {
        return Err(format!("job {job}: response stream truncated"));
    }
    let state_line = lines
        .get(1)
        .ok_or(format!("job {job}: no final state line"))?;
    let state =
        json::field_str(state_line, "state").ok_or(format!("job {job}: malformed state"))?;
    // (`get`: a stream whose state line is also its end marker has no
    // hit range at all.)
    let hits = lines
        .get(2..lines.len() - 1)
        .unwrap_or(&[])
        .iter()
        .map(|l| HitLine::from_json(l).ok_or(format!("job {job}: malformed hit line")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SubmitOutcome {
        job,
        state,
        resumes: json::field_u64(state_line, "resumes").unwrap_or(0),
        batch: json::field_u64(state_line, "batch").unwrap_or(0),
        hits,
        error: json::field_str(state_line, "error"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_stream_roundtrips() {
        let lines: Vec<String> = [
            "{\"ok\":true,\"job\":3,\"state\":\"queued\"}",
            "{\"job\":3,\"state\":\"done\",\"hits\":2,\"resumes\":1,\"batch\":4}",
            "{\"rank\":1,\"score\":99,\"id\":17,\"header\":\"sp|A|one\"}",
            "{\"rank\":2,\"score\":42,\"id\":4,\"header\":\"sp|B|two\"}",
            "{\"end\":true}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_submit_response(&lines).unwrap();
        assert_eq!(o.job, 3);
        assert_eq!(o.state, "done");
        assert_eq!(o.resumes, 1);
        assert_eq!(o.batch, 4, "region size rides the state line");
        assert_eq!(o.hits.len(), 2);
        assert_eq!(o.hits[0].score, 99);
        assert_eq!(o.hits[0].id, 17);
        assert_eq!(o.hits[1].header, "sp|B|two");
        // The writer renders exactly the line the parser read.
        assert_eq!(o.hits[0].to_json(), lines[2]);
        let hostile = HitLine {
            rank: 1,
            score: 7,
            id: 2,
            header: "sp|\"q\"\\\n".into(),
        };
        assert_eq!(HitLine::from_json(&hostile.to_json()), Some(hostile));

        // Rejection surfaces the daemon's message.
        let rej = vec!["{\"ok\":false,\"error\":\"tenant 'x' quota exceeded\"}".to_string()];
        assert!(parse_submit_response(&rej).unwrap_err().contains("quota"));

        // A two-line stream (state line doubling as end marker) has no
        // hit range; it must parse, not panic.
        let two = vec![
            lines[0].clone(),
            "{\"job\":3,\"state\":\"cancelled\",\"end\":true}".to_string(),
        ];
        assert!(parse_submit_response(&two).unwrap().hits.is_empty());

        // A missing end marker is a truncated stream.
        let trunc = lines[..2].to_vec();
        assert!(parse_submit_response(&trunc)
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn request_builders_are_wellformed() {
        let r = submit_request("acme", ">q\nMKV\n", 5, Some("delay@0:100"));
        assert_eq!(json::field_str(&r, "op").as_deref(), Some("submit"));
        assert_eq!(json::field_str(&r, "query").as_deref(), Some(">q\nMKV\n"));
        assert_eq!(json::field_u64(&r, "top"), Some(5));
        assert_eq!(json::field_str(&r, "drill").as_deref(), Some("delay@0:100"));
        assert_eq!(json::field_u64(&status_request(7), "job"), Some(7));
        assert_eq!(json::field_u64(&cancel_request(9), "job"), Some(9));
        assert_eq!(
            json::field_str(&stats_request(), "op").as_deref(),
            Some("stats")
        );
        assert_eq!(
            json::field_str(&shutdown_request(), "op").as_deref(),
            Some("shutdown")
        );
        assert_eq!(
            json::field_str(&metrics_request(), "op").as_deref(),
            Some("metrics")
        );
        assert_eq!(
            json::field_str(&health_request(), "op").as_deref(),
            Some("health")
        );
    }
}
