//! The daemon itself: an accept loop (unix socket or TCP) multiplexing
//! searches over one resident [`HeteroEngine`] + [`PreparedDb`].
//!
//! Every connection carries exactly one request line, read by
//! [`Request::parse`] and answered by a `match` on the value. Control
//! ops answer with one line and close; `submit` keeps the connection
//! open and streams — ack, final state, the top-K hit lines, an `end`
//! marker, each rendered by its writer in `client` — so the client needs
//! no polling loop for the common case.
//!
//! Searches are *batched across queries*: connection handlers park
//! accepted submits in the [`Registry`], and one collector thread takes
//! everything parked into a single shared dual-pool region over the
//! resident database ([`HeteroEngine::search_many_resumable`]) — up to
//! `max_concurrent` queries per region. Nothing is held back to wait for
//! company: a submit that finds the collector idle runs at once, and the
//! submits that park while a region runs form the next one, so
//! concurrent short queries share scheduling overhead and fill lanes a
//! solo run would leave idle. Per-query
//! isolation survives the sharing: each job keeps its own
//! [`DrainSignal`] scoped under the daemon's shutdown signal (cancel
//! removes that query's tasks from the region without touching
//! batch-mates), its own trace epoch and query id via
//! [`TraceConfig::for_query`], and its own fingerprint-keyed checkpoint
//! file inside `checkpoint_dir`.
//!
//! No request waits on a timer: the accept loop blocks in `accept` and
//! hands a connection over the moment it arrives, the request line is
//! read under one timeout (the eviction deadline), the collector takes a
//! parked job as soon as it is idle (see [`Registry::collect`]), the
//! collector thread is the region's first worker, and a query's reply
//! leaves when its own last batch commits, not when its batch-mates
//! finish.
//!
//! Nothing on a request's path costs more as the daemon ages, either. The
//! registry keeps its counts instead of recounting its table (see
//! `registry.rs`), and connection handlers are reused: a handler that
//! finished its connection parks on a channel fed by the accept loop,
//! which gives each new connection to a parked handler and starts a
//! thread only when none is parked. The thread count therefore follows
//! the peak of simultaneous connections, a steady closed loop starts no
//! thread at all (`sw_serve_connection_threads_total` counts them), and a
//! probe never waits behind a submit that holds its handler for a whole
//! search.
//!
//! Shutdown is a bare atomic that a `shutdown` request, a process SIGINT
//! (routed through the signal's parent) or an embedder flips with no
//! wire traffic, so a watcher thread polls it — off the request path —
//! and wakes the listener by dialling its bound address and the
//! connections still reading a request by hanging up on them. All three
//! stop the daemon the same way: readiness flips off, probes keep
//! answering while the in-flight region drains (checkpointing incomplete
//! queries) and queued jobs are cancel-replied; then the loop stops
//! accepting, the parked handlers are released, the registry is dumped
//! and the socket removed.

use crate::client::{ack_line, HitLine, JobReply, Request, END_LINE};
use crate::json;
use crate::obs::{LogLevel, Obs, ObsConfig, ShardRole};
use crate::registry::{
    JobRecord, JobState, LiveJob, Registry, RunPayload, StatsSnapshot, SHUTDOWN_POLL,
};
use crate::transport::{is_timeout, Endpoint, LineReader, Listener, Stream};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use sw_core::{
    BatchQuery, BatchQueryOutcome, DurableOptions, HeteroEngine, HeteroSearchConfig, PreparedDb,
    TraceConfig,
};
use sw_sched::{DrainSignal, FaultInjector, FaultKind, FaultPlan, FaultSpec, DEVICE_ANY};
use sw_seq::Alphabet;
use sw_swdb::integrity::replace_file;

/// Boxed error for daemon startup/teardown failures (per-connection
/// errors never propagate here).
pub type ServeError = Box<dyn std::error::Error + Send + Sync>;

/// Accelerator-share seed for each region's split plan (the dynamic
/// scheduler rebalances from there).
const ACCEL_FRAC: f64 = 0.55;

/// Daemon knobs. [`ServeConfig::new`] gives the defaults the CLI
/// advertises.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen: a unix socket (created on start, removed on
    /// stop) or a `tcp://host:port` bind for remote shard workers.
    pub listen: Endpoint,
    /// Queries batched into one shared dual-pool region; submits past
    /// the cap wait for the next region.
    pub max_concurrent: usize,
    /// Max queued+running jobs per tenant; a submit over the quota is
    /// rejected at the door.
    pub tenant_quota: usize,
    /// Ignored: every clean chunk of a job is appended to its checkpoint
    /// log. Kept only because the pinned benchmark still names the field.
    pub interval_chunks: u64,
    /// Fingerprint-named per-job checkpoints live here; `None` disables
    /// checkpointing (cancelled jobs then restart from scratch).
    pub checkpoint_dir: Option<PathBuf>,
    /// Per-job query-tagged JSONL trace exports (`job-<id>.jsonl`)
    /// live here; `None` disables tracing.
    pub trace_dir: Option<PathBuf>,
    /// Dump the job registry as JSONL here on shutdown.
    pub registry_out: Option<PathBuf>,
    /// Hits streamed per job when the submit carries no `top`.
    pub default_top: usize,
    /// Ignored: the collector takes whatever is parked, with no gather
    /// window. Kept only because the pinned benchmark still names the
    /// field.
    pub batch_window_ms: u64,
    /// Ops-log threshold (structured JSON lines, one per lifecycle
    /// transition).
    pub log_level: LogLevel,
    /// Ops-log destination; stderr when `None`.
    pub log_file: Option<PathBuf>,
    /// Jobs slower than this (submit→terminal) are counted, warn-logged
    /// and — when `trace_dir` is set — get their merged timeline dumped
    /// as `slow-job-<id>.jsonl`. `None` disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Periodically dump the daemon-lifetime Prometheus snapshot here
    /// (atomic tmp+rename), plus once at shutdown.
    pub metrics_file: Option<PathBuf>,
    /// Interval between `metrics_file` dumps.
    pub metrics_interval_ms: u64,
    /// Content digest of the resident snapshot when it was verified at
    /// load; surfaces through the health probe.
    pub snapshot_digest: Option<u64>,
    /// A connection whose request line stalls for this long is evicted
    /// (counted in the SLO counters) — a half-line stalled client must
    /// not pin a thread and fd until shutdown.
    pub request_timeout_ms: u64,
    /// Set when this daemon serves one shard of a sharded database:
    /// hit ids on the wire become global (`base +` in-shard id) and the
    /// obs plane labels every metric with the shard index.
    pub shard: Option<ShardRole>,
}

impl ServeConfig {
    /// Defaults: 2 queries per batch, tenant quota 4, top-10, no
    /// checkpoints, traces or other artifact outputs.
    /// (Every region seeds its split plan at the fixed 55 % accelerator
    /// share, and a checkpointing daemon appends every clean chunk.)
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig::at(Endpoint::Unix(socket.into()))
    }

    /// Defaults with an explicit listen endpoint (unix or TCP).
    pub fn at(listen: Endpoint) -> Self {
        ServeConfig {
            listen,
            max_concurrent: 2,
            tenant_quota: 4,
            interval_chunks: 4,
            checkpoint_dir: None,
            trace_dir: None,
            registry_out: None,
            default_top: 10,
            batch_window_ms: 3,
            log_level: LogLevel::Off,
            log_file: None,
            slow_query_ms: None,
            metrics_file: None,
            metrics_interval_ms: 1_000,
            snapshot_digest: None,
            request_timeout_ms: 10_000,
            shard: None,
        }
    }

    /// The unix socket path, when listening on one (tests and local
    /// tooling reach for the path; TCP binds have none).
    pub fn unix_socket(&self) -> Option<&Path> {
        match &self.listen {
            Endpoint::Unix(p) => Some(p),
            Endpoint::Tcp(_) => None,
        }
    }
}

/// Everything a connection handler needs, by reference. `shutdown` is
/// `'static` because per-job signals are scoped under it and outlive
/// the borrow checker's patience otherwise.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    engine: &'a HeteroEngine,
    prepared: &'a PreparedDb,
    alphabet: &'a Alphabet,
    base: &'a HeteroSearchConfig,
    config: &'a ServeConfig,
    registry: &'a Registry,
    obs: &'a Obs,
    readers: &'a RequestReaders,
    shutdown: &'static DrainSignal,
}

/// How long a connection accepted while the daemon drains may take to
/// send its request line: a probe writes it right after connecting, and a
/// silent connection must not hold `serve`'s scoped join.
const DRAIN_READ_GRACE: Duration = Duration::from_millis(100);

/// The connections still reading their request line, so a drain can wake
/// them: nothing else tells a thread blocked in `read` that the shutdown
/// signal flipped. [`RequestReaders::hang_up`] runs once, when the
/// shutdown watcher first sees the signal; a connection accepted after
/// the signal is not listed (it reads under [`DRAIN_READ_GRACE`]
/// instead), so probes that watch the drain are never hung up on.
#[derive(Default)]
struct RequestReaders {
    inner: Mutex<ReadersState>,
}

#[derive(Default)]
struct ReadersState {
    next_id: u64,
    hung_up: bool,
    reading: Vec<(u64, Stream)>,
}

impl RequestReaders {
    /// List `stream` as reading its request; `None` once the drain has
    /// begun.
    fn enter(&self, stream: &Stream, shutdown: &DrainSignal) -> io::Result<Option<u64>> {
        let mut g = self.inner.lock().expect("request readers");
        if g.hung_up || shutdown.is_requested() {
            return Ok(None);
        }
        let id = g.next_id;
        g.next_id += 1;
        g.reading.push((id, stream.try_clone()?));
        Ok(Some(id))
    }

    /// The request line of connection `id` has been read (or given up on).
    fn leave(&self, id: u64) {
        let mut g = self.inner.lock().expect("request readers");
        g.reading.retain(|(other, _)| *other != id);
    }

    /// Close every listed connection and list no more.
    fn hang_up(&self) {
        let mut g = self.inner.lock().expect("request readers");
        g.hung_up = true;
        for (_, stream) in g.reading.drain(..) {
            let _ = stream.shutdown_both();
        }
    }
}

/// Connection handlers waiting for their next connection. The accept
/// loop claims one ([`Parked::claim`]) and sends it the stream; a handler
/// announces itself (`idle`) before it blocks on `next`, so every claimed
/// send has a receiver on its way. When the accept loop stops it drops
/// the sending half, and every parked handler's `recv` ends.
struct Parked {
    idle: AtomicUsize,
    next: Mutex<mpsc::Receiver<Stream>>,
}

impl Parked {
    /// Take one parked handler for the next connection, if any is parked.
    fn claim(&self) -> bool {
        self.idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// A handler thread: serve `stream`, park, and serve each connection
    /// handed over until the accept loop hangs up.
    fn run(&self, ctx: Ctx<'_>, mut stream: Stream) {
        loop {
            // Connection errors (peer hung up mid-stream) affect that
            // connection only.
            let _ = handle_connection(ctx, &mut stream);
            // Idle before the connection closes: a client that reads to
            // EOF and reconnects at once finds this handler parked.
            self.idle.fetch_add(1, Ordering::SeqCst);
            drop(stream);
            match self.next.lock().expect("parked handlers").recv() {
                Ok(next) => stream = next,
                Err(_) => return,
            }
        }
    }
}

/// Run the daemon until `shutdown` (or a parent of it) is requested.
/// Blocks the calling thread. Connections are served by handler threads
/// inside a scope — reused across connections, started only when none is
/// parked (see `Parked`) — so every job has drained and every handler
/// has exited before this returns. Returns the final registry counts.
pub fn serve(
    engine: &HeteroEngine,
    prepared: &PreparedDb,
    alphabet: &Alphabet,
    base: &HeteroSearchConfig,
    config: &ServeConfig,
    shutdown: &'static DrainSignal,
) -> Result<StatsSnapshot, ServeError> {
    // `Listener::bind` removes a stale unix socket from a crashed
    // daemon but refuses to evict a live one (someone answers on it).
    let listener = Listener::bind(&config.listen)?;
    let wake = listener.wake_endpoint()?;
    let accepting = AtomicBool::new(true);
    let obs = Arc::new(Obs::new(ObsConfig {
        log_level: config.log_level,
        log_file: config.log_file.clone(),
        slow_query_ms: config.slow_query_ms,
        snapshot_digest: config.snapshot_digest,
        shard: config.shard,
    }));
    let registry = Registry::new(Arc::clone(&obs));
    let readers = RequestReaders::default();
    let (handoff, next) = mpsc::channel();
    let parked = Parked {
        idle: AtomicUsize::new(0),
        next: Mutex::new(next),
    };
    let ctx = Ctx {
        engine,
        prepared,
        alphabet,
        base,
        config,
        registry: &registry,
        obs: obs.as_ref(),
        readers: &readers,
        shutdown,
    };
    std::thread::scope(|s| {
        // The one region runner: groups queued submits into shared
        // batches until shutdown empties the queue.
        obs.set_collector_alive(true);
        s.spawn(move || {
            collector_loop(ctx);
            ctx.obs.set_collector_alive(false);
        });
        if ctx.config.metrics_file.is_some() {
            s.spawn(move || metrics_file_loop(ctx));
        }
        // The engine and snapshot are resident and the collector is up:
        // the readiness probe flips true here and nowhere earlier.
        obs.set_ready(true);
        obs.log(
            LogLevel::Info,
            "daemon_ready",
            &format!(
                ",\"socket\":\"{}\",\"snapshot_verified\":{}",
                json::escape(&config.listen.to_string()),
                config.snapshot_digest.is_some()
            ),
        );
        let waker = s.spawn(|| shutdown_waker(ctx, &wake, &accepting));
        // Keep accepting while draining so health/metrics probes can
        // watch the drain itself; stop once nothing is in flight.
        loop {
            let accepted = listener.accept();
            // Flip before dispatch: whoever connects after a `shutdown`
            // reply was written must already read `draining`.
            let draining = shutdown.is_requested();
            if draining && !obs.is_draining() {
                obs.set_draining(true);
                obs.log(LogLevel::Warn, "daemon_draining", "");
            }
            match accepted {
                // The claimed handler is parked or on its way to `recv`;
                // the receiver outlives this loop, so the send lands.
                Ok(stream) if parked.claim() => {
                    let _ = handoff.send(stream);
                }
                Ok(stream) => {
                    obs.on_connection_thread();
                    let parked = &parked;
                    s.spawn(move || parked.run(ctx, stream));
                }
                // Out of descriptors, say: don't spin on the error.
                Err(_) => std::thread::sleep(SHUTDOWN_POLL),
            }
            if draining && !registry.has_inflight() {
                break;
            }
        }
        accepting.store(false, Ordering::SeqCst);
        waker.thread().unpark();
        // Release the parked handlers. Scope exit joins every handler:
        // in-flight jobs see the shutdown through their scoped drains
        // and checkpoint out, then their handlers find no next
        // connection either.
        drop(handoff);
    });
    obs.set_ready(false);
    let stats = registry.stats();
    obs.log(
        LogLevel::Info,
        "daemon_stopped",
        &format!(
            ",\"done_total\":{},\"failed_total\":{},\"cancelled_total\":{},\"rejected\":{}",
            stats.done_total, stats.failed_total, stats.cancelled_total, stats.rejected
        ),
    );
    if let Some(path) = &config.registry_out {
        replace_file(path, registry.dump_jsonl().as_bytes(), false)?;
    }
    if let Some(path) = config.unix_socket() {
        let _ = std::fs::remove_file(path);
    }
    Ok(stats)
}

/// The shutdown watcher. Nothing tells a blocked `accept` or a blocked
/// request read that a SIGINT or an embedder's `request()` flipped the
/// signal, so this thread polls it. On first sight it hangs up on every
/// connection still reading its request line; and it dials `wake` — a
/// connect-and-close, which the handler ignores — to make the accept
/// loop run its drain check: once when shutdown is first seen, then
/// whenever nothing is in flight and the loop is still accepting (a
/// failed dial is retried next poll). `serve` clears `accepting` and
/// unparks it once the loop has stopped.
fn shutdown_waker(ctx: Ctx<'_>, wake: &Endpoint, accepting: &AtomicBool) {
    let (mut seen, mut announced) = (false, false);
    while accepting.load(Ordering::SeqCst) {
        if ctx.shutdown.is_requested() {
            if !seen {
                ctx.readers.hang_up();
                seen = true;
            }
            if !announced || !ctx.registry.has_inflight() {
                announced |= wake.connect(Duration::from_millis(250)).is_ok();
            }
        }
        std::thread::park_timeout(SHUTDOWN_POLL);
    }
}

/// Periodically dump the daemon-lifetime scrape to `metrics_file`
/// (`replace_file`, so a scraper never reads a torn file), plus one
/// final dump after the collector exits so the artifact reflects the
/// completed session.
fn metrics_file_loop(ctx: Ctx<'_>) {
    let Some(path) = &ctx.config.metrics_file else {
        return;
    };
    let interval = Duration::from_millis(ctx.config.metrics_interval_ms.max(50));
    let mut last = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let done = ctx.shutdown.is_requested() && !ctx.obs.is_collector_alive();
        if done || last.elapsed() >= interval {
            let stats = ctx.registry.stats();
            let text = ctx.obs.prometheus(&stats, ctx.config.max_concurrent);
            let _ = replace_file(path, text.as_bytes(), false);
            last = std::time::Instant::now();
        }
        if done {
            return;
        }
    }
}

fn handle_connection(ctx: Ctx<'_>, stream: &mut Stream) -> io::Result<()> {
    // The request line is read under one timeout, set once: the request
    // deadline — a client that sends half a line and stalls would
    // otherwise pin this thread and its fd until daemon shutdown, so
    // crossing it evicts the connection (an SLO counter, not an error —
    // the daemon is healthy, the client is not). A silent client must not
    // wedge shutdown either (`serve`'s scoped join waits on this
    // thread): the drain hangs up on listed readers, and a connection
    // accepted during the drain gets only a short grace.
    let listed = ctx.readers.enter(stream, ctx.shutdown)?;
    let limit = match listed {
        Some(_) => Duration::from_millis(ctx.config.request_timeout_ms.max(1)),
        None => DRAIN_READ_GRACE,
    };
    stream.set_read_timeout(Some(limit))?;
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    let read = reader.read_line();
    if let Some(id) = listed {
        ctx.readers.leave(id);
    }
    let request = match read {
        // Connect-and-close (the shutdown waker, a liveness dial, a port
        // scan, a reader the drain hung up on) is not a request: no
        // reply, no counter.
        Ok(None) => return Ok(()),
        Ok(Some(line)) => Request::parse(line.trim_end()),
        // Daemon draining: drop the idle connection.
        Err(e) if is_timeout(&e) && ctx.shutdown.is_requested() => return Ok(()),
        Err(e) if is_timeout(&e) => {
            ctx.obs.on_connection_evicted();
            ctx.obs.log(
                LogLevel::Warn,
                "connection_evicted",
                &format!(
                    ",\"deadline_ms\":{},\"partial_bytes\":{}",
                    ctx.config.request_timeout_ms,
                    reader.partial_len()
                ),
            );
            return Ok(());
        }
        // Over the line bound, or not UTF-8: tell the client why before
        // closing — the daemon itself is fine.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(format!("request {e}")),
        Err(e) => return Err(e),
    };
    let request = match request {
        Ok(r) => r,
        Err(e) => {
            fail(&mut w, &e)?;
            return w.flush();
        }
    };
    match request {
        Request::Submit {
            tenant,
            query,
            top,
            drill,
        } => {
            let top = top.unwrap_or(ctx.config.default_top);
            if let Err(e) = op_submit(ctx, &tenant, &query, top, drill.as_deref(), &mut w) {
                // The reply stream died mid-write: count it — job state
                // was already finalised by the collector/ack path.
                ctx.obs.on_broken_pipe();
                ctx.obs.log(
                    LogLevel::Warn,
                    "broken_pipe",
                    &format!(",\"error\":\"{}\"", json::escape(&e.to_string())),
                );
                return Err(e);
            }
        }
        Request::Metrics => {
            let stats = ctx.registry.stats();
            w.write_all(
                ctx.obs
                    .prometheus(&stats, ctx.config.max_concurrent)
                    .as_bytes(),
            )?;
        }
        Request::Health => {
            let stats = ctx.registry.stats();
            writeln!(
                w,
                "{}",
                ctx.obs.health_json(&stats, ctx.config.max_concurrent)
            )?;
        }
        Request::Status(id) => match ctx.registry.status(id) {
            Some(rec) => writeln!(w, "{}", rec.to_json())?,
            None => fail(&mut w, "no such job")?,
        },
        Request::Cancel(id) => match ctx.registry.cancel(id) {
            Ok(state) => writeln!(
                w,
                "{{\"ok\":true,\"job\":{id},\"was\":\"{}\"}}",
                state.name()
            )?,
            Err(e) => fail(&mut w, &e)?,
        },
        Request::Stats => writeln!(w, "{}", ctx.registry.stats().to_json())?,
        Request::Shutdown => {
            ctx.shutdown.request();
            writeln!(w, "{{\"ok\":true,\"state\":\"draining\"}}")?;
        }
    }
    w.flush()
}

fn fail<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    writeln!(w, "{{\"ok\":false,\"error\":\"{}\"}}", json::escape(msg))
}

fn op_submit<W: Write>(
    ctx: Ctx<'_>,
    tenant: &str,
    fasta: &str,
    top: usize,
    drill: Option<&str>,
    w: &mut W,
) -> io::Result<()> {
    let query = match parse_query(fasta, ctx.alphabet) {
        Ok(q) => q,
        Err(e) => return fail(w, &e),
    };
    // The daemon takes only the benign drill, aimed at whichever pool
    // starts the chunk: a job held in flight for a test cannot depend on
    // the accelerator pool winning a chunk before the CPU pool drains a
    // small queue. Kill and wedge drills stay CLI-only — a shared daemon
    // is no place for them.
    let drill = match drill.map(|s| (s, FaultSpec::parse(s, DEVICE_ANY))) {
        None => None,
        Some((_, Ok(spec))) if matches!(spec.kind, FaultKind::Delay(_)) => Some(spec),
        Some((s, _)) => {
            let e = format!("bad drill '{s}': the daemon accepts delay@CHUNK:MS only");
            return fail(w, &e);
        }
    };
    let drain = Arc::new(DrainSignal::scoped(ctx.shutdown));
    let quota = ctx.config.tenant_quota;
    let id = match ctx
        .registry
        .submit(tenant, query.residues.len(), quota, drain)
    {
        Ok(id) => id,
        Err(e) => return fail(w, &e),
    };
    // Ack immediately so the submitter learns its job id (and can
    // cancel) before the queue wait. From here on every error path must
    // finish the job — an early return would leave it Queued forever,
    // holding tenant quota for a client that is already gone.
    let ack = (|| -> io::Result<()> {
        writeln!(w, "{}", ack_line(id))?;
        w.flush()
    })();
    if let Err(e) = ack {
        ctx.registry.finish(
            id,
            JobState::Failed,
            0,
            0,
            Some(format!("client gone before ack: {e}")),
        );
        return Err(e);
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let parked = ctx.registry.admit(
        id,
        RunPayload {
            residues: query.residues,
            top,
            drill,
            reply: reply_tx,
        },
    );
    let reply = if !parked {
        // Shutdown already closed the queue (daemon draining): nobody
        // will ever run or reply to this job.
        ctx.registry.finish(id, JobState::Cancelled, 0, 0, None);
        JobReply::Cancelled {
            resumes: 0,
            batch: 0,
        }
    } else {
        // The registry record is final *before* the collector replies,
        // so a client that hangs up during streaming cannot wedge the
        // job; and shutdown cancels the whole queue, so this recv always
        // ends.
        reply_rx.recv().unwrap_or_else(|_| {
            let msg = "batch collector died".to_string();
            ctx.registry
                .finish(id, JobState::Failed, 0, 0, Some(msg.clone()));
            JobReply::Failed { error: msg }
        })
    };
    writeln!(w, "{}", reply.state_line(id))?;
    if let JobReply::Done { hits, .. } = &reply {
        if !hits.is_empty() {
            ctx.registry.record_first_hit(id);
        }
        for hit in hits {
            writeln!(w, "{}", hit.to_json())?;
        }
    }
    writeln!(w, "{END_LINE}")
}

/// The region runner. Lives on one thread inside `serve`'s scope:
/// repeatedly collects a batch of parked submits, answers the ones
/// cancelled while parked and runs the rest as one shared dual-pool
/// region, until shutdown empties the queue.
fn collector_loop(ctx: Ctx<'_>) {
    while let Some(gathered) = ctx
        .registry
        .collect(ctx.config.max_concurrent, ctx.shutdown)
    {
        // `collect` already made these jobs `Cancelled`.
        for reply in gathered.cancelled {
            let _ = reply.send(JobReply::Cancelled {
                resumes: 0,
                batch: 0,
            });
        }
        if !gathered.live.is_empty() {
            run_region(ctx, gathered.live);
        }
    }
}

/// Run one shared region over jobs `collect` made `Running`, and demux
/// per-query outcomes back to their connections. Each job's terminal
/// transition is a registry `finish`, and a job is replied to only by
/// the `finish` that made it, so connection threads never own job state
/// after the ack. This thread is the region's first worker, and a
/// finished query's reply leaves from whichever worker committed its
/// last batch — it does not wait for its batch-mates.
fn run_region(ctx: Ctx<'_>, live: Vec<LiveJob>) {
    let batch = live.len();
    ctx.obs.on_region(batch);
    ctx.obs.log(
        LogLevel::Debug,
        "region_started",
        &format!(",\"batch\":{batch}"),
    );
    // Per-query tracers: fresh epoch at region start, job id as the
    // query tag — exports stay separable even though the region is
    // shared. The region's own trace stays off; the per-query spans
    // carry the story.
    let tracers: Vec<sw_trace::Tracer> = live
        .iter()
        .map(|j| {
            TraceConfig {
                level: if ctx.config.trace_dir.is_some() {
                    sw_trace::TraceLevel::Full
                } else {
                    sw_trace::TraceLevel::Off
                },
                ..TraceConfig::default()
            }
            .for_query(j.id)
            .tracer()
        })
        .collect();
    // The plan seeds from the longest member: lane batching means every
    // query shares the same device split, rebalanced dynamically.
    let plan_len = live.iter().map(|j| j.run.residues.len()).max().unwrap_or(1);
    let plan = ctx.engine.plan_split(ctx.prepared, plan_len, ACCEL_FRAC);
    let cfg = *ctx.base;
    // One injector per region: the first parked drill arms it (the
    // daemon only accepts the benign delay drill).
    let injector = match live.iter().find_map(|j| j.run.drill) {
        Some(spec) => FaultInjector::new(FaultPlan::single(spec)),
        None => FaultInjector::none(),
    };
    let queries: Vec<BatchQuery<'_>> = live
        .iter()
        .zip(&tracers)
        .map(|(j, tr)| BatchQuery {
            residues: &j.run.residues,
            id: j.id,
            cancel: Some(j.drain.as_ref()),
            tracer: Some(tr),
        })
        .collect();
    let reply_done = |qi: usize, q: &BatchQueryOutcome| {
        let j = &live[qi];
        let results = q.results.as_ref().expect("a finished query has results");
        let timeline = tracers[qi].timeline();
        if let Some(dir) = &ctx.config.trace_dir {
            // Trace export is best-effort: a full disk must not fail a
            // finished search.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join(format!("job-{}.jsonl", j.id)),
                sw_trace::export::jsonl(&timeline),
            );
        }
        // Cells = query residues × db residues, the same product the
        // GCUPS bench reports.
        let cells = j.run.residues.len() as u64 * ctx.prepared.stats.total_residues;
        ctx.obs.on_cells(cells, ctx.obs.now_us());
        if results.degraded {
            ctx.obs.on_degraded();
        }
        // Report ids globally: a shard worker's local id plus its base
        // IS the parent database index, so the coordinator's merge
        // tie-break matches the unsharded run.
        let base = ctx.config.shard.map_or(0, |s| s.base);
        let hits: Vec<HitLine> = results
            .top(j.run.top)
            .iter()
            .zip(1..)
            .map(|(h, rank)| HitLine {
                rank,
                score: h.score,
                id: base + h.id.0 as u64,
                header: ctx.prepared.sorted.db().header(h.id).to_string(),
            })
            .collect();
        let finished = ctx
            .registry
            .finish(j.id, JobState::Done, hits.len(), q.resumes, None);
        if let Some((rec, slow)) = finished {
            if slow {
                slow_query_dump(ctx, &rec, timeline);
            }
            let _ = j.run.reply.send(JobReply::Done {
                hits,
                resumes: q.resumes,
                batch,
            });
        }
    };
    let dopts = DurableOptions {
        checkpoint_dir: ctx.config.checkpoint_dir.as_deref(),
        drain: Some(ctx.shutdown),
        resume: true,
        on_query_done: Some(&reply_done),
        ..DurableOptions::default()
    };
    let out =
        ctx.engine
            .search_many_resumable(&queries, ctx.prepared, &plan, &cfg, &injector, &dopts);
    if let Ok(out) = &out {
        ctx.obs.on_checkpoint_writes(out.checkpoints_written);
    }
    // Every finished query was answered from inside the region; the rest
    // were cancelled or drained out of it, or — when the region itself
    // failed — failed with it. `finish` refuses the answered ones.
    let (state, error) = match &out {
        Ok(_) => (JobState::Cancelled, None),
        Err(e) => (JobState::Failed, Some(e.to_string())),
    };
    for (qi, j) in live.iter().enumerate() {
        let resumes = out.as_ref().map_or(0, |out| out.queries[qi].resumes);
        let finished = ctx.registry.finish(j.id, state, 0, resumes, error.clone());
        if finished.is_some() {
            let _ = j.run.reply.send(match &error {
                Some(error) => JobReply::Failed {
                    error: error.clone(),
                },
                None => JobReply::Cancelled { resumes, batch },
            });
        }
    }
    if out.is_ok() {
        ctx.obs.log(
            LogLevel::Debug,
            "region_finished",
            &format!(",\"batch\":{batch}"),
        );
    }
}

/// The slow-query log: a job crossed `--slow-query-ms`, so dump its
/// per-query timeline rebased onto the daemon clock (epoch-relative
/// stamps shifted by the job's region-start stamp) as
/// `slow-job-<id>.jsonl`, next to the regular per-job traces. Without a
/// `--trace-dir` the event is still counted and warn-logged — there is
/// just nowhere to put the timeline.
fn slow_query_dump(ctx: Ctx<'_>, rec: &JobRecord, timeline: sw_trace::Timeline) {
    let Some(dir) = &ctx.config.trace_dir else {
        return;
    };
    let offset = rec.phases.started_us.unwrap_or(0);
    let merged = sw_trace::Timeline::merge_with_offsets([(timeline, offset)]);
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("slow-job-{}.jsonl", rec.id));
    let _ = std::fs::write(&path, sw_trace::export::jsonl(&merged));
    ctx.obs.log(
        LogLevel::Warn,
        "slow_query_dumped",
        &format!(
            ",\"job\":{},\"path\":\"{}\"",
            rec.id,
            json::escape(&path.display().to_string())
        ),
    );
}

fn parse_query(fasta: &str, alphabet: &Alphabet) -> Result<sw_seq::EncodedSeq, String> {
    let seqs = sw_seq::fasta::read_encoded(io::Cursor::new(fasta.as_bytes()), alphabet)
        .map_err(|e| format!("query FASTA: {e}"))?;
    seqs.into_iter()
        .next()
        .ok_or_else(|| "query FASTA holds no sequences".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_core::SearchEngine;
    use sw_seq::gen::{generate_database, DbSpec};

    /// A client that hung up before the ack: every write fails.
    struct BrokenPipe;
    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        }
    }

    /// Run `f` against a daemon context over a four-sequence database
    /// with tenant quota 1 and no collector.
    fn with_ctx(shutdown: &'static DrainSignal, f: impl FnOnce(Ctx<'_>)) {
        let alphabet = Alphabet::protein();
        let db = generate_database(&DbSpec {
            n_seqs: 4,
            mean_len: 40.0,
            max_len: 64,
            seed: 7,
        });
        let prepared = PreparedDb::prepare(db, 4, &alphabet);
        let engine = HeteroEngine::new(SearchEngine::paper_default());
        let base = HeteroSearchConfig::best(1, 1);
        let mut config = ServeConfig::new("/tmp/unused-ack-test.sock");
        config.tenant_quota = 1;
        let obs = Arc::new(Obs::disabled());
        let registry = Registry::new(Arc::clone(&obs));
        let readers = RequestReaders::default();
        f(Ctx {
            engine: &engine,
            prepared: &prepared,
            alphabet: &alphabet,
            base: &base,
            config: &config,
            registry: &registry,
            obs: &obs,
            readers: &readers,
            shutdown,
        });
    }

    #[test]
    fn failed_ack_write_finishes_job_and_releases_quota() {
        static ACK_SHUTDOWN: DrainSignal = DrainSignal::new();
        with_ctx(&ACK_SHUTDOWN, |ctx| {
            let err = op_submit(ctx, "acme", ">q\nMKVLAT\n", 5, None, &mut BrokenPipe).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
            // The job must not be stuck Queued: it failed, released its
            // quota, and charged no run slot.
            let rec = ctx.registry.status(1).expect("job was submitted");
            assert_eq!(rec.state, JobState::Failed, "finished on the error path");
            assert_eq!(ctx.registry.stats().running, 0);
            ctx.registry
                .submit("acme", 6, 1, Arc::new(DrainSignal::scoped(&ACK_SHUTDOWN)))
                .expect("quota released after the failed ack");
        });
    }

    #[test]
    fn the_daemon_refuses_every_drill_but_delay() {
        static DRILL_SHUTDOWN: DrainSignal = DrainSignal::new();
        with_ctx(&DRILL_SHUTDOWN, |ctx| {
            for drill in ["kill@3", "wedge@0", "delay@3", "delay@x:9"] {
                let mut reply = Vec::new();
                op_submit(ctx, "t", ">q\nMKVLAT\n", 5, Some(drill), &mut reply).unwrap();
                let reply = String::from_utf8(reply).unwrap();
                let want = format!("bad drill '{drill}': the daemon accepts delay@CHUNK:MS only");
                assert!(reply.contains(&want), "{reply}");
            }
            assert_eq!(ctx.registry.stats().total, 0, "no refused drill is a job");
        });
    }

    #[test]
    fn query_parser_rejects_garbage() {
        let a = Alphabet::protein();
        assert!(parse_query(">q\nMKVL\n", &a).unwrap().residues.len() == 4);
        assert!(parse_query("", &a).is_err());
    }
}
