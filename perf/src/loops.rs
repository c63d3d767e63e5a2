//! The three measured loops — one per way a query reaches the kernels.
//! Each calls only the top-level public function of its path
//! (`SearchEngine::search`, a `submit` on a socket, `search_sharded`),
//! times every call from outside, and compares every answer with the
//! oracle-checked expected hits. With the recorder off they are the
//! end-to-end measurement; the traced pass runs the same loops with it
//! on.

use crate::daemon::{timed_submit, RequestTimes};
use crate::inputs::{self, WireHit, TOP};
use crate::setup::{Fabric, State};
use crate::spans::{Recorder, SpanId};
use crate::stats::Kind;
use std::time::Instant;
use sw_core::{PreparedDb, SearchConfig, SearchEngine};
use sw_serve::{client, coord, CoordConfig, Endpoint, ShardSpec};

/// Failure messages kept per run (the count is never truncated).
const MAX_ERRORS: usize = 5;

/// Outcome of one measured loop.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Successful samples per query length.
    pub kinds: Vec<Kind>,
    /// Wall seconds the loop measured for.
    pub wall: f64,
    pub attempted: u64,
    /// Errored, refused or mismatching operations.
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Run {
    /// An empty run over `state`'s queries against its database.
    pub fn new(state: &State) -> Run {
        Run {
            kinds: state
                .queries
                .iter()
                .map(|q| Kind {
                    query_len: q.len(),
                    cells: q.len() as u64 * state.residues,
                    walls: Vec::new(),
                })
                .collect(),
            ..Run::default()
        }
    }

    /// Count one operation: a sample when it answered `expected`, a
    /// failure otherwise.
    pub fn record(
        &mut self,
        kind: usize,
        wall: f64,
        got: Result<Vec<WireHit>, String>,
        expected: &[WireHit],
    ) {
        self.attempted += 1;
        let err = match got {
            Ok(hits) if hits == expected => {
                self.kinds[kind].walls.push(wall);
                return;
            }
            Ok(hits) => format!(
                "query {}: hits differ from the in-process reference: {hits:?}",
                self.kinds[kind].query_len
            ),
            Err(e) => format!("query {}: {e}", self.kinds[kind].query_len),
        };
        self.fail(err);
    }

    /// Count a failure that is not an operation sample (oracle, wiring).
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(err);
        }
    }

    /// Verified operations per measured second.
    pub fn per_second(&self) -> f64 {
        crate::stats::n_samples(&self.kinds) as f64 / self.wall
    }

    /// Fold another run's samples and counts into this one.
    pub fn absorb(&mut self, other: Run) {
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            mine.walls.extend(theirs.walls);
        }
        self.wall += other.wall;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// Call `cycle(i)` until `seconds` have passed, at least once; returns
/// the wall it took. The clock is read between cycles only, so every
/// query length gets the same number of samples.
pub fn for_seconds(seconds: f64, mut cycle: impl FnMut(u32)) -> f64 {
    let t0 = Instant::now();
    let mut i = 0;
    loop {
        cycle(i);
        i += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return elapsed;
        }
    }
}

/// `SearchEngine::search`, one thread, query lengths interleaved.
pub fn solo(state: &State, db: &PreparedDb, expected: &[Vec<WireHit>], seconds: f64) -> Run {
    let engine = SearchEngine::paper_default();
    let config = SearchConfig::best(1);
    let mut run = Run::new(state);
    run.wall = for_seconds(seconds, |_| {
        for (k, q) in state.queries.iter().enumerate() {
            let t0 = Instant::now();
            let res = engine.search(&q.residues, db, &config);
            let wall = t0.elapsed().as_secs_f64();
            run.record(
                k,
                wall,
                Ok(inputs::wire_of_hits(res.top(TOP), db, 0)),
                &expected[k],
            );
        }
    });
    run
}

/// What the closed loop saw beside request walls.
#[derive(Debug, Clone, Default)]
pub struct ServeSeen {
    /// Client-side phase times of every successful request.
    pub times: Vec<RequestTimes>,
    /// Wire `"batch"` of every successful request.
    pub batches: Vec<f64>,
}

/// Closed loop of `clients` blocking callers (each a `swsearch submit`:
/// one new connection per request, next request only after the previous
/// stream ended) against the daemon at `endpoint`. Even clients cycle
/// the queries upwards, odd ones downwards, so the work two coalesced
/// requests bring to a region stays near constant instead of swinging
/// between shortest + shortest and longest + longest. Span sample ids
/// count up from `first_sample`.
pub fn closed_loop(
    endpoint: &Endpoint,
    state: &State,
    expected: &[Vec<WireHit>],
    rec: &Recorder,
    first_sample: u32,
    clients: usize,
    seconds: f64,
) -> (Run, ServeSeen) {
    let nq = state.queries.len();
    let t0 = Instant::now();
    let per_client: Vec<(Run, ServeSeen)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut run = Run::new(state);
                    let mut seen = ServeSeen::default();
                    let tenant = format!("client{c}");
                    let mut i = 0usize;
                    // Every client sends every query at least once.
                    while i < nq || t0.elapsed().as_secs_f64() < seconds {
                        let k = if c % 2 == 0 { i % nq } else { nq - 1 - i % nq };
                        let sample = first_sample + (i * clients + c) as u32;
                        let request = client::submit_request(&tenant, &state.fastas[k], TOP, None);
                        let root = rec.begin("serve.request", SpanId::NONE, sample);
                        let start = Instant::now();
                        let out = timed_submit(endpoint, &request, rec, root, sample);
                        let wall = start.elapsed().as_secs_f64();
                        rec.end(root);
                        let got = out.and_then(|(outcome, times)| {
                            seen.times.push(times);
                            seen.batches.push(outcome.batch as f64);
                            inputs::wire_of_lines(&outcome.hits)
                        });
                        run.record(k, wall, got, &expected[k]);
                        i += 1;
                    }
                    (run, seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = Run::new(state);
    let mut seen = ServeSeen::default();
    for (r, s) in per_client {
        run.absorb(r);
        seen.times.extend(s.times);
        seen.batches.extend(s.batches);
    }
    // Clients ran side by side: the loop's wall is the clock's, not the
    // sum of theirs.
    run.wall = t0.elapsed().as_secs_f64();
    (run, seen)
}

/// What the coordinator reported beside its hits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordSeen {
    pub requeues: u64,
    pub net_retries: u64,
}

/// The coordinator never gets to respawn a benchmark worker: a shard
/// that needs a retry is a failed operation.
fn no_respawn(_: &ShardSpec, _: u32) -> Result<(), String> {
    Err("benchmark shard workers are not respawned".into())
}

/// One `coord::search_sharded` per query over the fabric; `cycle` is the
/// sample id of the spans.
pub fn sharded_cycle(
    fabric: &Fabric,
    state: &State,
    expected: &[Vec<WireHit>],
    rec: &Recorder,
    cycle: u32,
    run: &mut Run,
    seen: &mut CoordSeen,
) {
    let config = CoordConfig::new(TOP);
    for (k, fasta) in state.fastas.iter().enumerate() {
        let root = rec.begin("serve.coord.search_sharded", SpanId::NONE, cycle);
        let t0 = Instant::now();
        let out = coord::search_sharded(&fabric.specs, fasta, &config, &no_respawn);
        let wall = t0.elapsed().as_secs_f64();
        rec.end(root);
        let got = out.map_err(|e| e.to_string()).and_then(|o| {
            seen.requeues += o.requeues;
            seen.net_retries += o.net_retries;
            if o.requeues > 0 {
                return Err(format!("{} shard requeue(s) on a clean fabric", o.requeues));
            }
            inputs::wire_of_lines(&o.hits)
        });
        run.record(k, wall, got, &expected[k]);
    }
}

/// `coord::search_sharded` over the fabric, back to back.
pub fn sharded(
    fabric: &Fabric,
    state: &State,
    expected: &[Vec<WireHit>],
    seconds: f64,
) -> (Run, CoordSeen) {
    let rec = Recorder::off("untraced");
    let mut run = Run::new(state);
    let mut seen = CoordSeen::default();
    run.wall = for_seconds(seconds, |cycle| {
        sharded_cycle(fabric, state, expected, &rec, cycle, &mut run, &mut seen);
    });
    (run, seen)
}
