//! The shard coordinator: fan one query out over shard-worker daemons,
//! recover dead or wedged shards, fail over to replicas, and merge
//! per-shard top-K streams into the unsharded run's exact hit list.
//!
//! ## Lease at shard granularity
//!
//! The unit of work here is one *shard*, not one chunk, and each
//! uncommitted shard gets one coordinator thread that is its retry
//! loop: a shard never has two attempts in flight. A shard whose worker
//! cannot be reached, stalls past the lease deadline, or returns a
//! broken stream is retried by that thread with an incremented attempt
//! count. Before a retry the thread backs off, then invokes the
//! caller-supplied `respawn` launcher so a SIGKILL'd worker comes back
//! as a fresh process; the worker then resumes from its own SWCKPT1
//! checkpoint, whose fingerprint embeds the per-shard db digest — shard
//! checkpoints cannot collide even in a shared checkpoint directory. A
//! per-shard attempt cap and a global failure budget bound the retry
//! storm, mirroring `RecoveryConfig` semantics.
//!
//! ## Replica failover
//!
//! A [`ShardSpec`] now carries a *list* of endpoints (primary first,
//! replicas after, from the placement plan). Attempt `a` of a shard
//! runs against `endpoints[a % len]`, so the first retry of a dead
//! primary automatically lands on its replica — a fresh lease on a
//! different worker. Where the replica shares the checkpoint directory
//! it resumes the primary's partial work; where it doesn't, it re-runs
//! the shard from scratch. Either way the merge contract is untouched:
//! every replica serves the same SWSHRD1 shard (digest-checked before
//! any submit), so per-shard top-K lists are identical no matter which
//! endpoint produced them.
//!
//! ## Crash-survivable coordination
//!
//! With a journal path configured ([`CoordDrill`]), every accepted
//! per-shard result and every requeue is recorded in an SWCRDJ1 file
//! (CRC-guarded, tmp + fsync + rename — see [`crate::journal`]). A coordinator
//! that is SIGKILLed mid-search restarts with `resume`, skips committed
//! shards entirely, re-runs only the rest, and merges to bytes
//! identical to an uninterrupted run.
//!
//! ## Byte-identical merge
//!
//! Workers report hit ids *globally* (shard base + in-shard index), and
//! shards partition the id space, so sorting the union by the engine's
//! own tie-break — score descending, global id ascending
//! ([`merge_hits`]) — reproduces the unsharded hit list
//! byte-for-byte, equal-score ties included.

use crate::client::{self, parse_submit_response, HitLine, Request};
use crate::journal::{CommittedShard, CoordJournal};
use crate::json;
use crate::transport::{
    is_timeout, Endpoint, LineReader, NetTransport, RetryPolicy, ShardTransport, Stream,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sw_sched::{NetFaultInjector, NetFaultKind};
use sw_swdb::integrity::{fnv1a64, tmp_path};

/// Consecutive missed heartbeats before a silent stream is declared
/// black-holed and its shard lease is requeued.
const HEARTBEAT_MISSES: u32 = 3;

/// Tenant name stamped on every per-shard submit.
const TENANT: &str = "coord";

/// Lease deadline for one shard submit: a worker that accepts the query
/// but never finishes streaming within this window is treated as wedged
/// and its shard is requeued.
const LEASE_TIMEOUT_MS: u64 = 120_000;

/// Extra connect attempts per exchange (jittered exponential backoff from
/// [`CONNECT_BACKOFF_MS`]) — absorbs a worker mid-restart without
/// spending a shard attempt.
const CONNECT_RETRIES: u32 = 2;

/// Base backoff for connect retries.
const CONNECT_BACKOFF_MS: u64 = 25;

/// One shard worker the coordinator talks to.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Shard index: `shards[i].index == i` in every search.
    pub index: u64,
    /// Candidate endpoints: primary first, replicas after. Attempt `a`
    /// targets `endpoints[a % len]`, so retries walk the replica ring.
    pub endpoints: Vec<Endpoint>,
    /// When set, the worker's health probe must report exactly this
    /// snapshot digest before a submit goes out — a worker serving the
    /// wrong shard is a fatal wiring error, not a retry.
    pub expect_digest: Option<u64>,
}

impl ShardSpec {
    /// The endpoint attempt `attempt` runs against.
    pub fn endpoint_for(&self, attempt: u32) -> &Endpoint {
        &self.endpoints[attempt as usize % self.endpoints.len()]
    }
}

/// Coordinator knobs. Defaults mirror the executor's recovery
/// temperament: a few attempts per shard, a small global budget.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Hits to request from each shard and to keep after the merge.
    pub top: usize,
    /// Optional fault drill forwarded to every shard worker.
    pub drill: Option<String>,
    /// Max executions of one shard before the search fails.
    pub max_attempts: u32,
    /// Total shard failures tolerated across the whole search.
    pub failure_budget: u32,
    /// How long to wait for a (re)spawned worker's socket to answer.
    pub connect_wait_ms: u64,
    /// Backoff before a retry attempt (scaled by the attempt count).
    pub backoff_ms: u64,
    /// When a submit stream has been silent this long, probe the worker
    /// with a side-channel health heartbeat; `HEARTBEAT_MISSES`
    /// consecutive failed probes requeue the shard. 0 disables.
    pub heartbeat_ms: u64,
    /// Seed for connect-retry jitter (same seed → same schedule).
    pub seed: u64,
    /// Parent snapshot digest, when known — pinned in the journal so a
    /// resume against a different database is rejected. 0 = unknown.
    pub parent_digest: u64,
}

impl CoordConfig {
    /// Defaults for `top` hits.
    pub fn new(top: usize) -> Self {
        CoordConfig {
            top,
            drill: None,
            max_attempts: 3,
            failure_budget: 4,
            connect_wait_ms: 5_000,
            backoff_ms: 50,
            heartbeat_ms: 500,
            seed: 0,
            parent_digest: 0,
        }
    }
}

/// Durability and drill hooks for one sharded search: an optional
/// armed network-fault injector, and an optional SWCRDJ1 journal path
/// plus the resume flag.
#[derive(Default)]
pub struct CoordDrill<'a> {
    /// Seeded network faults to apply (None = clean wire).
    pub faults: Option<&'a NetFaultInjector>,
    /// Where to persist the coordinator journal (None = no journal).
    pub journal: Option<PathBuf>,
    /// Load the journal first and skip shards it has committed.
    pub resume: bool,
}

/// Why a sharded search gave up.
#[derive(Debug)]
pub enum CoordError {
    /// One shard exhausted its per-shard attempt cap.
    ShardFailed {
        /// The shard that kept failing.
        index: u64,
        /// Executions attempted.
        attempts: u32,
        /// Last failure observed.
        last: String,
    },
    /// The global failure budget ran out before every shard finished.
    BudgetExhausted {
        /// Failures counted across all shards.
        failures: u32,
    },
    /// A worker answered with the wrong identity (shard index or db
    /// digest mismatch) — wiring error, never retried.
    WrongShard {
        /// The shard the coordinator wanted.
        index: u64,
        /// What the worker's health probe reported.
        detail: String,
    },
    /// The coordinator journal could not be loaded, validated or
    /// written — durability was requested and cannot be honoured.
    Journal {
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::ShardFailed {
                index,
                attempts,
                last,
            } => write!(f, "shard {index} failed after {attempts} attempts: {last}"),
            CoordError::BudgetExhausted { failures } => {
                write!(
                    f,
                    "failure budget exhausted after {failures} shard failures"
                )
            }
            CoordError::WrongShard { index, detail } => {
                write!(f, "worker for shard {index} has wrong identity: {detail}")
            }
            CoordError::Journal { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for CoordError {}

/// Per-shard outcome accounting.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Executions this shard needed (1 = clean first pass).
    pub attempts: u32,
    /// Checkpoint resumes the final successful run stitched together.
    pub resumes: u64,
    /// Hits this shard contributed before the merge.
    pub hits: usize,
}

/// The merged result of a sharded search.
#[derive(Debug, Clone)]
pub struct CoordOutcome {
    /// Global top-K, merged with the unsharded tie-break.
    pub hits: Vec<HitLine>,
    /// Per-shard accounting, indexed by shard.
    pub reports: Vec<ShardReport>,
    /// Shard executions requeued after a failure.
    pub requeues: u64,
    /// Requeues that moved the shard to a different endpoint (replica
    /// failover, as opposed to a same-worker respawn).
    pub failovers: u64,
    /// Connect retries spent across all exchanges (the wire-level
    /// recoveries that did *not* cost a shard attempt).
    pub net_retries: u64,
    /// Shards skipped on resume because the journal had already
    /// committed their results.
    pub journal_skipped: u64,
}

enum AttemptError {
    /// Transient: respawn + requeue (connect refused, wedged lease,
    /// broken stream, failed job).
    Retry(String),
    /// Permanent: wrong worker identity, broken journal.
    Fatal(CoordError),
}

/// What the shard threads share, under one mutex.
struct CoordState {
    journal: CoordJournal,
    failures: u32,
    requeues: u64,
    failovers: u64,
    fatal: Option<CoordError>,
}

/// Run one query over every shard and merge, with the default
/// transport, no network faults and no journal. `respawn` is invoked
/// before each retry of a shard (the worker may be gone entirely) with
/// the spec and the attempt number about to run — `endpoint_for`
/// tells the launcher which replica to bring up; it should return once
/// the launch is underway — the coordinator itself waits for the
/// socket. Blocks until every shard reports or the search fails.
pub fn search_sharded(
    shards: &[ShardSpec],
    query_fasta: &str,
    cfg: &CoordConfig,
    respawn: &(dyn Fn(&ShardSpec, u32) -> Result<(), String> + Sync),
) -> Result<CoordOutcome, CoordError> {
    search_sharded_durable(
        shards,
        query_fasta,
        cfg,
        respawn,
        &NetTransport,
        &CoordDrill::default(),
    )
}

/// [`search_sharded`] with an explicit transport and the durability /
/// fault-drill hooks: replica failover, seeded network faults, and the
/// SWCRDJ1 journal with crash-resume.
pub fn search_sharded_durable(
    shards: &[ShardSpec],
    query_fasta: &str,
    cfg: &CoordConfig,
    respawn: &(dyn Fn(&ShardSpec, u32) -> Result<(), String> + Sync),
    transport: &dyn ShardTransport,
    drill: &CoordDrill<'_>,
) -> Result<CoordOutcome, CoordError> {
    assert!(!shards.is_empty(), "no shards to search");
    assert!(
        shards.iter().enumerate().all(|(i, s)| s.index == i as u64),
        "shards must be listed in index order"
    );
    let n = shards.len();
    let query_digest = fnv1a64(query_fasta.as_bytes());

    // Load-or-create the journal. A resumed journal must describe this
    // exact search; a mismatch is an operator error, never silent.
    let journal = if drill.resume {
        let path = drill.journal.as_deref().ok_or(CoordError::Journal {
            detail: "resume requested but no journal path configured".into(),
        })?;
        let j = CoordJournal::load(path).map_err(|detail| CoordError::Journal { detail })?;
        j.validate(query_digest, cfg.parent_digest, cfg.top as u64, n as u64)
            .map_err(|detail| CoordError::Journal { detail })?;
        j
    } else {
        CoordJournal::new(query_digest, cfg.parent_digest, cfg.top as u64, n as u64)
    };

    // Uncommitted shards run, each from its surviving attempt count;
    // committed ones are served from the journal.
    let pending: Vec<(&ShardSpec, u32)> = shards
        .iter()
        .zip(&journal.shards)
        .filter(|(_, slot)| slot.committed.is_none())
        .map(|(spec, slot)| (spec, slot.attempts))
        .collect();
    let journal_skipped = (n - pending.len()) as u64;
    let state = Mutex::new(CoordState {
        journal,
        failures: 0,
        requeues: 0,
        failovers: 0,
        fatal: None,
    });
    let net_retries = AtomicU64::new(0);
    let journal_path = drill.journal.as_deref();

    const POISONED: &str = "a shard thread panicked holding the coordinator state";
    // One thread per pending shard, looping over that shard's attempts:
    // a shard never has two attempts in flight.
    std::thread::scope(|s| {
        for (spec, mut attempts) in pending {
            let (state, net_retries) = (&state, &net_retries);
            s.spawn(move || loop {
                if state.lock().expect(POISONED).fatal.is_some() {
                    return;
                }
                let outcome = run_shard_attempt(
                    spec,
                    query_fasta,
                    cfg,
                    attempts,
                    respawn,
                    transport,
                    drill.faults,
                    net_retries,
                );
                let mut g = state.lock().expect(POISONED);
                let slot = spec.index as usize;
                match outcome {
                    Ok(committed) => {
                        g.journal.shards[slot].attempts = attempts + 1;
                        g.journal.shards[slot].committed = Some(committed);
                        persist_journal(&mut g, journal_path);
                        return;
                    }
                    Err(AttemptError::Fatal(e)) => {
                        g.fatal.get_or_insert(e);
                        return;
                    }
                    Err(AttemptError::Retry(e)) => {
                        g.failures += 1;
                        let failures = g.failures;
                        if failures > cfg.failure_budget {
                            g.fatal
                                .get_or_insert(CoordError::BudgetExhausted { failures });
                            return;
                        }
                        if attempts + 1 >= cfg.max_attempts {
                            g.fatal.get_or_insert(CoordError::ShardFailed {
                                index: spec.index,
                                attempts: attempts + 1,
                                last: e,
                            });
                            return;
                        }
                        if spec.endpoint_for(attempts + 1) != spec.endpoint_for(attempts) {
                            g.failovers += 1;
                        }
                        g.requeues += 1;
                        attempts += 1;
                        g.journal.shards[slot].attempts = attempts;
                        persist_journal(&mut g, journal_path);
                    }
                }
            });
        }
    });

    let g = state.into_inner().expect(POISONED);
    if let Some(e) = g.fatal {
        return Err(e);
    }
    // Clean finish: the journal has served its purpose.
    if let Some(path) = journal_path {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tmp_path(path));
    }
    // Every slot is committed now, whether this run or a resumed one
    // committed it: the journal is the one record of what each shard
    // returned.
    let mut reports = Vec::with_capacity(n);
    let mut per_shard = Vec::with_capacity(n);
    for slot in g.journal.shards {
        let c = slot
            .committed
            .expect("no fatal error means every shard committed");
        reports.push(ShardReport {
            attempts: slot.attempts,
            resumes: c.resumes,
            hits: c.hits.len(),
        });
        per_shard.push(c.hits);
    }
    Ok(CoordOutcome {
        hits: merge_hits(per_shard, cfg.top),
        reports,
        requeues: g.requeues,
        failovers: g.failovers,
        net_retries: net_retries.load(Ordering::Relaxed),
        journal_skipped,
    })
}

/// Rewrite the journal under the state lock. A failed write poisons the
/// search with a fatal error — durability was requested, so a journal
/// the operator cannot trust is worse than no result.
fn persist_journal(g: &mut CoordState, path: Option<&Path>) {
    if let Some(path) = path {
        if let Err(e) = g.journal.save(path) {
            g.fatal.get_or_insert(CoordError::Journal {
                detail: format!("coord journal write {}: {e}", path.display()),
            });
        }
    }
}

/// Merge per-shard ranked hit streams into the global top `k` with the
/// single-process tie-break (score descending, global id ascending), the
/// order [`sw_core::SearchResults::new`] sorts by, re-ranked 1-based.
///
/// Each input list holds hits over *global* database ids (a shard worker
/// adds its base offset before reporting). Because shards partition the
/// id space, that order is total over the union, so merging and
/// truncating reproduces the unsharded run's top `k` byte-for-byte,
/// equal-score ties included.
pub fn merge_hits(per_shard: Vec<Vec<HitLine>>, k: usize) -> Vec<HitLine> {
    let mut all: Vec<HitLine> = per_shard.into_iter().flatten().collect();
    all.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    all.truncate(k);
    for (i, h) in all.iter_mut().enumerate() {
        h.rank = i as u64 + 1;
    }
    all
}

#[allow(clippy::too_many_arguments)]
fn run_shard_attempt(
    spec: &ShardSpec,
    query_fasta: &str,
    cfg: &CoordConfig,
    attempts: u32,
    respawn: &(dyn Fn(&ShardSpec, u32) -> Result<(), String> + Sync),
    transport: &dyn ShardTransport,
    faults: Option<&NetFaultInjector>,
    net_retries: &AtomicU64,
) -> Result<CommittedShard, AttemptError> {
    let endpoint = spec.endpoint_for(attempts);
    if attempts > 0 {
        // The worker may be dead (that is usually why we are here): back
        // off, then bring it back; resume does the rest.
        std::thread::sleep(Duration::from_millis(cfg.backoff_ms * attempts as u64));
        respawn(spec, attempts).map_err(AttemptError::Retry)?;
    }

    // Injected network fault for this (shard, attempt), if the drill
    // scheduled one. Refuse and black-hole preempt the exchange; drop
    // and slow-drip shape the submit stream below.
    let fault = faults.and_then(|f| f.on_shard_attempt(spec.index, attempts));
    match fault {
        Some(NetFaultKind::Refuse) => {
            return Err(AttemptError::Retry(format!(
                "injected fault: connection refused by {endpoint}"
            )));
        }
        Some(NetFaultKind::BlackHole) => {
            // The wire eats everything, heartbeats included: after
            // HEARTBEAT_MISSES silent beats the lease is declared lost.
            let grace = cfg
                .heartbeat_ms
                .max(1)
                .saturating_mul(HEARTBEAT_MISSES as u64)
                .min(LEASE_TIMEOUT_MS);
            std::thread::sleep(Duration::from_millis(grace));
            return Err(AttemptError::Retry(format!(
                "injected fault: {endpoint} black-holed, \
                 {HEARTBEAT_MISSES} heartbeats missed"
            )));
        }
        _ => {}
    }

    let retry = RetryPolicy {
        retries: CONNECT_RETRIES,
        backoff_ms: CONNECT_BACKOFF_MS,
        seed: cfg.seed ^ spec.index ^ ((attempts as u64) << 32),
    };

    // Identity check: never submit to a worker serving the wrong shard.
    // Dialling the probe under `connect_wait_ms` is also the wait for a
    // (re)spawned worker's socket: its answer shows the worker is up.
    let deadline = Instant::now() + Duration::from_millis(LEASE_TIMEOUT_MS);
    let wire = Wire {
        transport,
        endpoint,
        retry: &retry,
        heartbeat_ms: cfg.heartbeat_ms,
        net_retries,
    };
    let probe = transport
        .connect_wait(endpoint, cfg.connect_wait_ms)
        .map_err(AttemptError::Retry)?;
    let health = wire
        .exchange(probe, &Request::Health.render(), deadline, None, None)
        .map_err(|e| AttemptError::Retry(format!("health probe failed: {e}")))?;
    let health = health
        .first()
        .cloned()
        .ok_or_else(|| AttemptError::Retry("empty health reply".into()))?;
    match json::field_u64(&health, "shard") {
        Some(i) if i == spec.index => {}
        other => {
            return Err(AttemptError::Fatal(CoordError::WrongShard {
                index: spec.index,
                detail: format!("health reports shard {other:?}"),
            }))
        }
    }
    if let Some(want) = spec.expect_digest {
        let got = json::field_str(&health, "snapshot_digest");
        if got.as_deref() != Some(format!("{want:016x}").as_str()) {
            return Err(AttemptError::Fatal(CoordError::WrongShard {
                index: spec.index,
                detail: format!("db digest {got:?}, want {want:016x}"),
            }));
        }
    }

    let (drop_after, drip) = match fault {
        Some(NetFaultKind::Drop(n)) => (Some(n), None),
        Some(NetFaultKind::SlowDrip(d)) => (None, Some(d)),
        _ => (None, None),
    };
    let req = Request::Submit {
        tenant: TENANT.to_string(),
        query: query_fasta.to_string(),
        top: Some(cfg.top),
        drill: cfg.drill.clone(),
    }
    .render();
    let lines = wire
        .request(&req, deadline, drop_after, drip)
        .map_err(|e| AttemptError::Retry(format!("submit failed: {e}")))?;
    let outcome = parse_submit_response(&lines).map_err(AttemptError::Retry)?;
    if outcome.state != "done" {
        return Err(AttemptError::Retry(format!(
            "job {} ended {}: {}",
            outcome.job,
            outcome.state,
            outcome.error.unwrap_or_default()
        )));
    }
    Ok(CommittedShard {
        resumes: outcome.resumes,
        hits: outcome.hits,
    })
}

/// One coordinator→worker exchange context: transport, target, connect
/// retry policy and heartbeat cadence.
struct Wire<'a> {
    transport: &'a dyn ShardTransport,
    endpoint: &'a Endpoint,
    retry: &'a RetryPolicy,
    heartbeat_ms: u64,
    net_retries: &'a AtomicU64,
}

impl Wire<'_> {
    /// Connect under the retry policy (retries spent feed
    /// `net_retries`), then [`Wire::exchange`] on that connection.
    fn request(
        &self,
        line: &str,
        deadline: Instant,
        drop_after: Option<u64>,
        drip: Option<Duration>,
    ) -> io::Result<Vec<String>> {
        let (stream, used) =
            self.transport
                .connect_retry(self.endpoint, Duration::from_millis(250), self.retry)?;
        self.net_retries.fetch_add(used as u64, Ordering::Relaxed);
        self.exchange(stream, line, deadline, drop_after, drip)
    }

    /// Send one request line on `stream` and collect the reply under the
    /// lease `deadline`. While the stream is silent longer than the
    /// heartbeat interval, a side-channel health probe checks the
    /// worker is still alive; [`HEARTBEAT_MISSES`] consecutive failed
    /// probes end the lease early instead of waiting out the full
    /// deadline. `drop_after` / `drip` are the injected-fault shaping
    /// hooks (cut the stream after N lines; delay every line).
    fn exchange(
        &self,
        mut stream: Stream,
        line: &str,
        deadline: Instant,
        drop_after: Option<u64>,
        drip: Option<Duration>,
    ) -> io::Result<Vec<String>> {
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        stream.send_line(line)?;
        let mut reader = LineReader::new(stream);
        let mut lines = Vec::new();
        let mut last_activity = Instant::now();
        let mut misses = 0u32;
        loop {
            if let Some(n) = drop_after {
                if lines.len() as u64 >= n {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("injected fault: stream dropped after {n} lines"),
                    ));
                }
            }
            // A read timeout mid-line keeps the partial line in the
            // reader; the next turn continues it.
            match reader.read_line() {
                Ok(None) => return Ok(lines),
                Ok(Some(reply)) => {
                    if let Some(d) = drip {
                        std::thread::sleep(d);
                    }
                    lines.push(reply);
                    last_activity = Instant::now();
                    misses = 0;
                }
                Err(e) if is_timeout(&e) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "shard lease expired mid-stream",
                        ));
                    }
                    if self.heartbeat_ms > 0
                        && last_activity.elapsed() >= Duration::from_millis(self.heartbeat_ms)
                    {
                        match self.heartbeat() {
                            Ok(()) => misses = 0,
                            Err(_) => misses += 1,
                        }
                        last_activity = Instant::now();
                        if misses >= HEARTBEAT_MISSES {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "worker heartbeat lost ({HEARTBEAT_MISSES} consecutive misses)"
                                ),
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One health heartbeat on a fresh connection (the submit stream
    /// itself may legitimately be silent for a long time mid-search).
    fn heartbeat(&self) -> io::Result<()> {
        let timeout = Duration::from_millis(250);
        let mut stream = self.transport.connect(self.endpoint, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.send_line(&Request::Health.render())?;
        match LineReader::new(stream).read_line()? {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty heartbeat reply",
            )),
        }
    }
}

/// Politely shut a worker down (used by launchers that own the worker
/// processes they spawned). Errors are reported, not fatal — the
/// caller usually also holds the child handle and can wait/kill.
pub fn shutdown_worker(endpoint: &Endpoint) -> io::Result<()> {
    client::request_endpoint(endpoint, &Request::Shutdown.render()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(score: i64, id: u64) -> HitLine {
        HitLine {
            rank: 0,
            score,
            id,
            header: format!("sp|{id}|h"),
        }
    }

    #[test]
    fn merge_reproduces_single_process_tie_break() {
        // Equal scores straddling the shard boundary: global id breaks
        // the tie, regardless of which shard contributed which hit.
        let shard0 = vec![hit(50, 2), hit(40, 0), hit(40, 1)];
        let shard1 = vec![hit(60, 7), hit(40, 3), hit(12, 9)];
        let merged = merge_hits(vec![shard0, shard1], 5);
        let key: Vec<(i64, u64, u64)> = merged.iter().map(|h| (h.score, h.id, h.rank)).collect();
        assert_eq!(
            key,
            vec![(60, 7, 1), (50, 2, 2), (40, 0, 3), (40, 1, 4), (40, 3, 5)]
        );
    }

    #[test]
    fn merge_truncates_and_reranks() {
        let merged = merge_hits(vec![vec![hit(1, 0)], vec![hit(3, 5), hit(2, 4)]], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].rank, 1);
        assert_eq!(merged[0].id, 5);
        assert_eq!(merged[1].rank, 2);
        assert_eq!(merged[1].id, 4);
    }

    #[test]
    fn merge_tie_break_exactly_at_k_boundary_with_replica_results() {
        // Five hits share one score and straddle the K=4 boundary; the
        // two halves come from different shards, and shard 1's list is
        // the replica-substituted copy of what its dead primary would
        // have sent (identical bytes — both replicas serve the same
        // SWSHRD1 shard). The merge must keep ids 2,3,5,8 and cut id 9
        // no matter which side contributed which hit.
        let shard0_primary = vec![hit(70, 3), hit(70, 8), hit(70, 9)];
        let shard1_replica = vec![hit(70, 2), hit(70, 5), hit(60, 4)];
        let merged = merge_hits(vec![shard0_primary.clone(), shard1_replica.clone()], 4);
        let key: Vec<(i64, u64, u64)> = merged.iter().map(|h| (h.score, h.id, h.rank)).collect();
        assert_eq!(
            key,
            vec![(70, 2, 1), (70, 3, 2), (70, 5, 3), (70, 8, 4)],
            "equal scores at the K boundary truncate by ascending global id"
        );
        // Order of shard lists (who failed over, who didn't) is
        // irrelevant: the merge is a pure function of the union.
        let swapped = merge_hits(vec![shard1_replica, shard0_primary], 4);
        assert_eq!(merged, swapped);
    }

    #[test]
    fn endpoint_ring_walks_replicas_per_attempt() {
        let spec = ShardSpec {
            index: 0,
            endpoints: vec![
                Endpoint::parse("/run/p.sock").unwrap(),
                Endpoint::parse("tcp://127.0.0.1:9001").unwrap(),
            ],
            expect_digest: None,
        };
        assert_eq!(spec.endpoint_for(0).to_string(), "/run/p.sock");
        assert_eq!(spec.endpoint_for(1).to_string(), "tcp://127.0.0.1:9001");
        assert_eq!(spec.endpoint_for(2).to_string(), "/run/p.sock");
        let single = ShardSpec {
            index: 1,
            endpoints: vec![Endpoint::parse("/run/only.sock").unwrap()],
            expect_digest: Some(7),
        };
        assert_eq!(single.endpoint_for(5).to_string(), "/run/only.sock");
    }

    #[test]
    fn budget_and_attempt_caps_stop_a_dead_shard() {
        // No worker listening anywhere: every attempt fails to connect.
        let dir = std::env::temp_dir().join(format!("sw-coord-dead-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let shards = vec![ShardSpec {
            index: 0,
            endpoints: vec![Endpoint::Unix(dir.join("nobody.sock"))],
            expect_digest: None,
        }];
        let mut cfg = CoordConfig::new(5);
        cfg.connect_wait_ms = 30;
        cfg.backoff_ms = 1;
        cfg.max_attempts = 2;
        let respawns = std::sync::atomic::AtomicU32::new(0);
        let err = search_sharded(&shards, ">q\nARN\n", &cfg, &|_, _| {
            respawns.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        })
        .expect_err("nothing to talk to");
        match err {
            CoordError::ShardFailed {
                index, attempts, ..
            } => {
                assert_eq!(index, 0);
                assert_eq!(attempts, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(
            respawns.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one respawn before the second (and last) attempt"
        );
    }

    #[test]
    fn failure_budget_stops_two_dead_shards() {
        // Two dead shards, a budget of one failure: the first failure
        // requeues its shard, the second exhausts the budget.
        let dir = std::env::temp_dir().join(format!("sw-coord-budget-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let shards: Vec<ShardSpec> = (0..2u64)
            .map(|i| ShardSpec {
                index: i,
                endpoints: vec![Endpoint::Unix(dir.join(format!("nobody-{i}.sock")))],
                expect_digest: None,
            })
            .collect();
        let mut cfg = CoordConfig::new(5);
        cfg.connect_wait_ms = 30;
        cfg.failure_budget = 1;
        cfg.max_attempts = 3;
        let respawns = std::sync::atomic::AtomicU32::new(0);
        let err = search_sharded(&shards, ">q\nARN\n", &cfg, &|_, _| {
            respawns.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        })
        .expect_err("nothing to talk to");
        assert!(
            matches!(err, CoordError::BudgetExhausted { failures: 2 }),
            "{err}"
        );
        // The requeued shard respawns only if its retry starts before
        // the other shard's failure ends the search.
        assert!(respawns.load(std::sync::atomic::Ordering::SeqCst) <= 1);
    }

    #[test]
    fn resume_requires_a_journal_path() {
        let shards = vec![ShardSpec {
            index: 0,
            endpoints: vec![Endpoint::parse("/nonexistent.sock").unwrap()],
            expect_digest: None,
        }];
        let drill = CoordDrill {
            faults: None,
            journal: None,
            resume: true,
        };
        let err = search_sharded_durable(
            &shards,
            ">q\nARN\n",
            &CoordConfig::new(5),
            &|_, _| Ok(()),
            &NetTransport,
            &drill,
        )
        .expect_err("resume without a journal is an operator error");
        assert!(matches!(err, CoordError::Journal { .. }), "{err}");
    }
}
