//! Client side of the serve protocol, and the one home of every line
//! the daemon speaks: [`Request`] renders and parses request lines (the
//! daemon reads nothing else), the submit reply stream — ack, final
//! state, hit lines, end marker — has its writers beside its one
//! parser, [`parse_submit_response`], and a hit line has its one writer
//! ([`HitLine::to_json`], which the daemon streams and
//! `search --shards --json` re-renders). Used by the `swsearch submit`
//! front-end, the daemon, the coordinator and the integration tests;
//! line framing is `transport`'s.

use crate::json;
use crate::transport::{Endpoint, LineReader, NetTransport, RetryPolicy, ShardTransport};
use std::io;
use std::path::Path;
use std::time::Duration;

/// One request line: a connection carries exactly one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one query; the connection streams the reply.
    Submit {
        /// Tenant the job is accounted against (`anon` when absent).
        tenant: String,
        /// Query FASTA text.
        query: String,
        /// Hits to stream; `None` leaves the daemon's `default_top`.
        top: Option<usize>,
        /// Fault drill, validated by the daemon (`delay@CHUNK:MS`).
        drill: Option<String>,
    },
    /// One job's registry record.
    Status(u64),
    /// Drain one job gracefully.
    Cancel(u64),
    /// Registry summary counts.
    Stats,
    /// The daemon-lifetime Prometheus snapshot (many lines, not JSON).
    Metrics,
    /// One JSON line; `ready` carries the readiness verdict, answering
    /// at all is liveness.
    Health,
    /// Drain in-flight jobs and stop the daemon.
    Shutdown,
}

impl Request {
    /// The wire form: `{"op":…}` first, then the operation's fields.
    pub fn render(&self) -> String {
        let (op, fields) = match self {
            Request::Submit {
                tenant,
                query,
                top,
                drill,
            } => {
                let top = top.map_or(String::new(), |t| format!(",\"top\":{t}"));
                let drill = drill.as_ref().map_or(String::new(), |d| {
                    format!(",\"drill\":\"{}\"", json::escape(d))
                });
                let (tenant, query) = (json::escape(tenant), json::escape(query));
                let fields = format!(",\"tenant\":\"{tenant}\"{top},\"query\":\"{query}\"{drill}");
                ("submit", fields)
            }
            Request::Status(job) => ("status", format!(",\"job\":{job}")),
            Request::Cancel(job) => ("cancel", format!(",\"job\":{job}")),
            Request::Stats => ("stats", String::new()),
            Request::Metrics => ("metrics", String::new()),
            Request::Health => ("health", String::new()),
            Request::Shutdown => ("shutdown", String::new()),
        };
        format!("{{\"op\":\"{op}\"{fields}}}")
    }

    /// Read a request line — the daemon's only request reader. Field
    /// lookup is lenient (order and unknown keys do not matter); the
    /// error is the reply's message.
    pub fn parse(line: &str) -> Result<Request, String> {
        let job = |op: &str| json::field_u64(line, "job").ok_or(format!("{op} needs a job id"));
        Ok(match json::field_str(line, "op").as_deref() {
            Some("submit") => Request::Submit {
                query: json::field_str(line, "query").ok_or("submit needs a query")?,
                tenant: json::field_str(line, "tenant").unwrap_or_else(|| "anon".to_string()),
                top: json::field_u64(line, "top").and_then(|t| usize::try_from(t).ok()),
                drill: json::field_str(line, "drill"),
            },
            Some("status") => Request::Status(job("status")?),
            Some("cancel") => Request::Cancel(job("cancel")?),
            Some("stats") => Request::Stats,
            Some("metrics") => Request::Metrics,
            Some("health") => Request::Health,
            Some("shutdown") => Request::Shutdown,
            _ => return Err("unknown op".to_string()),
        })
    }
}

/// Build a `submit` request line. Kept for `perf/` until ROADMAP item
/// 2; new code renders a [`Request`].
pub fn submit_request(tenant: &str, query_fasta: &str, top: usize, drill: Option<&str>) -> String {
    Request::Submit {
        tenant: tenant.to_string(),
        query: query_fasta.to_string(),
        top: Some(top),
        drill: drill.map(String::from),
    }
    .render()
}

/// Build a `metrics` request line. Kept for `perf/` until ROADMAP item
/// 2; new code renders [`Request::Metrics`].
pub fn metrics_request() -> String {
    Request::Metrics.render()
}

/// Build a `health` request line. Kept for `perf/` until ROADMAP item
/// 2; new code renders [`Request::Health`].
pub fn health_request() -> String {
    Request::Health.render()
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

/// The submit stream's first line: the job was admitted and is queued.
pub(crate) fn ack_line(job: u64) -> String {
    format!("{{\"ok\":true,\"job\":{job},\"state\":\"queued\"}}")
}

/// The submit stream's last line.
pub(crate) const END_LINE: &str = "{\"end\":true}";

/// What the collector sends back to the connection thread: a job's
/// final state. The registry record is final before this is sent, so a
/// client that hangs up while the reply streams cannot wedge the job.
pub(crate) enum JobReply {
    Done {
        /// The ranked hits as they go on the wire. Ids are global:
        /// shard workers add their shard base so a coordinator can
        /// merge per-shard streams with the unsharded tie-break.
        hits: Vec<HitLine>,
        resumes: u64,
        batch: usize,
    },
    Cancelled {
        resumes: u64,
        batch: usize,
    },
    Failed {
        error: String,
    },
}

impl JobReply {
    /// The stream's state line for `job`; a `done` stream's hit lines
    /// follow it.
    pub(crate) fn state_line(&self, job: u64) -> String {
        let (state, hits, resumes, batch) = match self {
            JobReply::Done {
                hits,
                resumes,
                batch,
            } => ("done", hits.len(), resumes, batch),
            JobReply::Cancelled { resumes, batch } => ("cancelled", 0, resumes, batch),
            JobReply::Failed { error } => {
                let error = json::escape(error);
                return format!("{{\"job\":{job},\"state\":\"failed\",\"error\":\"{error}\"}}");
            }
        };
        format!(
            "{{\"job\":{job},\"state\":\"{state}\",\"hits\":{hits},\"resumes\":{resumes},\"batch\":{batch}}}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The request lines the daemon has always read, byte for byte.
    #[test]
    fn request_render_is_the_wire_format() {
        let submit = |drill: Option<&str>| Request::Submit {
            tenant: "acme".into(),
            query: ">q\nMKV\n".into(),
            top: Some(5),
            drill: drill.map(String::from),
        };
        for (req, wire) in [
            (
                submit(None),
                "{\"op\":\"submit\",\"tenant\":\"acme\",\"top\":5,\"query\":\">q\\nMKV\\n\"}",
            ),
            (
                submit(Some("delay@0:100")),
                "{\"op\":\"submit\",\"tenant\":\"acme\",\"top\":5,\"query\":\">q\\nMKV\\n\",\
                 \"drill\":\"delay@0:100\"}",
            ),
            (Request::Status(7), "{\"op\":\"status\",\"job\":7}"),
            (Request::Cancel(9), "{\"op\":\"cancel\",\"job\":9}"),
            (Request::Stats, "{\"op\":\"stats\"}"),
            (Request::Metrics, "{\"op\":\"metrics\"}"),
            (Request::Health, "{\"op\":\"health\"}"),
            (Request::Shutdown, "{\"op\":\"shutdown\"}"),
        ] {
            assert_eq!(req.render(), wire);
            assert_eq!(Request::parse(wire), Ok(req));
        }
        assert_eq!(
            submit_request("acme", ">q\nMKV\n", 5, Some("delay@0:100")),
            submit(Some("delay@0:100")).render()
        );
        assert_eq!(metrics_request(), Request::Metrics.render());
        assert_eq!(health_request(), Request::Health.render());
    }

    /// The submit reply stream's lines, byte for byte — the not-parked
    /// cancel (a drain closed the collector first) included.
    #[test]
    fn reply_lines_are_the_wire_format() {
        let hit = |rank| HitLine {
            rank,
            score: 50,
            id: rank,
            header: "h".into(),
        };
        assert_eq!(ack_line(3), "{\"ok\":true,\"job\":3,\"state\":\"queued\"}");
        assert_eq!(END_LINE, "{\"end\":true}");
        for (reply, wire) in [
            (
                JobReply::Done {
                    hits: vec![hit(1), hit(2)],
                    resumes: 1,
                    batch: 4,
                },
                "{\"job\":3,\"state\":\"done\",\"hits\":2,\"resumes\":1,\"batch\":4}",
            ),
            (
                JobReply::Cancelled {
                    resumes: 2,
                    batch: 3,
                },
                "{\"job\":3,\"state\":\"cancelled\",\"hits\":0,\"resumes\":2,\"batch\":3}",
            ),
            (
                JobReply::Cancelled {
                    resumes: 0,
                    batch: 0,
                },
                "{\"job\":3,\"state\":\"cancelled\",\"hits\":0,\"resumes\":0,\"batch\":0}",
            ),
            (
                JobReply::Failed {
                    error: "region \"x\" died".into(),
                },
                "{\"job\":3,\"state\":\"failed\",\"error\":\"region \\\"x\\\" died\"}",
            ),
        ] {
            assert_eq!(reply.state_line(3), wire);
        }
    }

    /// Defaults and refusals of the daemon's request reader.
    #[test]
    fn request_parse_defaults_and_errors() {
        assert_eq!(
            Request::parse("{\"op\":\"submit\",\"query\":\">q\\nM\\n\"}"),
            Ok(Request::Submit {
                tenant: "anon".into(),
                query: ">q\nM\n".into(),
                top: None,
                drill: None,
            })
        );
        for (line, error) in [
            (
                "{\"op\":\"submit\",\"tenant\":\"acme\"}",
                "submit needs a query",
            ),
            ("{\"op\":\"status\"}", "status needs a job id"),
            ("{\"op\":\"cancel\",\"job\":\"7\"}", "cancel needs a job id"),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"job\":7}", "unknown op"),
            ("", "unknown op"),
        ] {
            assert_eq!(Request::parse(line), Err(error.to_string()), "{line}");
        }
    }

    /// Pieces of strings that try to break the framing or spoof a field.
    const HOSTILE: [&str; 16] = [
        "",
        "\"",
        "\\",
        "\\\"",
        "\"op\":\"shutdown\"",
        "\\\"op\\\":\\\"shutdown\\\"",
        "\",\"top\":3,\"x\":\"",
        "\"end\":true",
        "\u{1}\u{1f}\u{7f}",
        "\n\r\t",
        "\\u0041",
        "é日本🧬",
        "{}",
        ">q\nMKVLAT\n",
        "acme",
        "}",
    ];

    fn hostile(rng: &mut SmallRng) -> String {
        (0..rng.gen_range(0..4usize))
            .map(|_| HOSTILE[rng.gen_range(0..HOSTILE.len())])
            .collect()
    }

    fn any_u64(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0..3) {
            0 => rng.gen_range(0..10u64),
            1 => u64::MAX - rng.gen_range(0..3u64),
            _ => rng.next_u64(),
        }
    }

    fn any_request(rng: &mut SmallRng) -> Request {
        match rng.gen_range(0..7) {
            0 => Request::Status(any_u64(rng)),
            1 => Request::Cancel(any_u64(rng)),
            2 => Request::Stats,
            3 => Request::Metrics,
            4 => Request::Health,
            5 => Request::Shutdown,
            _ => Request::Submit {
                tenant: hostile(rng),
                query: hostile(rng),
                top: rng.gen_bool(0.7).then(|| any_u64(rng) as usize),
                drill: rng.gen_bool(0.5).then(|| hostile(rng)),
            },
        }
    }

    /// A submit stream as the daemon writes it, with the reply it
    /// carries.
    fn any_stream(rng: &mut SmallRng) -> (u64, JobReply, Vec<String>) {
        let job = any_u64(rng);
        let reply = match rng.gen_range(0..3) {
            0 => JobReply::Done {
                hits: (1..=rng.gen_range(0..4u64))
                    .map(|rank| HitLine {
                        rank,
                        score: rng.gen_range(0..100_000i64),
                        id: any_u64(rng),
                        header: hostile(rng),
                    })
                    .collect(),
                resumes: any_u64(rng),
                batch: rng.gen_range(0..9usize),
            },
            1 => JobReply::Cancelled {
                resumes: any_u64(rng),
                batch: rng.gen_range(0..9usize),
            },
            _ => JobReply::Failed {
                error: hostile(rng),
            },
        };
        let mut lines = vec![ack_line(job), reply.state_line(job)];
        if let JobReply::Done { hits, .. } = &reply {
            lines.extend(hits.iter().map(HitLine::to_json));
        }
        lines.push(END_LINE.to_string());
        (job, reply, lines)
    }

    #[test]
    fn every_line_parses_back_to_what_was_rendered() {
        let mut rng = SmallRng::seed_from_u64(0x31fe_2026);
        for _ in 0..2_000 {
            let r = any_request(&mut rng);
            let line = r.render();
            assert!(!line.contains('\n'), "one line on the wire: {line}");
            assert_eq!(Request::parse(&line), Ok(r), "{line}");

            let (job, reply, lines) = any_stream(&mut rng);
            let o = parse_submit_response(&lines).unwrap_or_else(|e| panic!("{e}: {lines:?}"));
            assert_eq!(o.job, job);
            let (state, hits, resumes, batch, error) = match reply {
                JobReply::Done {
                    hits,
                    resumes,
                    batch,
                } => ("done", hits, resumes, batch, None),
                JobReply::Cancelled { resumes, batch } => {
                    ("cancelled", vec![], resumes, batch, None)
                }
                JobReply::Failed { error } => ("failed", vec![], 0, 0, Some(error)),
            };
            assert_eq!(
                (o.state.as_str(), o.hits, o.resumes, o.batch, o.error),
                (state, hits, resumes, batch as u64, error),
                "{lines:?}"
            );
        }
    }

    /// One random edit of a line: truncate it, drop or duplicate one of
    /// its comma-separated pieces, turn its digits into letters, or
    /// swap a number for one past `u64::MAX`.
    fn mutate(line: &str, rng: &mut SmallRng) -> String {
        let pieces: Vec<&str> = line.split(',').collect();
        let k = rng.gen_range(0..pieces.len());
        match rng.gen_range(0..5) {
            0 => line.chars().take(rng.gen_range(0..=line.len())).collect(),
            1 => [&pieces[..k], &pieces[k + 1..]].concat().join(","),
            2 => [&pieces[..=k], &pieces[k..]].concat().join(","),
            3 => line.replace(|c: char| c.is_ascii_digit(), "x"),
            _ => {
                let at = line.find(|c: char| c.is_ascii_digit()).unwrap_or(0);
                format!("{}99999999999999999999999{}", &line[..at], &line[at..])
            }
        }
    }

    /// The line-JSON half of a fuzz target: no mangled request line or
    /// submit stream panics either reader, and a request line that parses
    /// at all renders to one that parses to the same request.
    #[test]
    fn mangled_lines_never_panic() {
        let mut rng = SmallRng::seed_from_u64(0xf022_0032);
        for _ in 0..3_000 {
            let line = mutate(&any_request(&mut rng).render(), &mut rng);
            if let Ok(r) = Request::parse(&line) {
                assert_eq!(Request::parse(&r.render()), Ok(r), "{line}");
            }

            let (_, _, mut lines) = any_stream(&mut rng);
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..lines.len());
                match rng.gen_range(0..3) {
                    0 if lines.len() > 1 => {
                        lines.remove(i);
                    }
                    1 => lines.insert(i, lines[i].clone()),
                    _ => lines[i] = mutate(&lines[i], &mut rng),
                }
            }
            let _ = parse_submit_response(&lines);
        }
    }
}
