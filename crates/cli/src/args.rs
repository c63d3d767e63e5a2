//! Hand-rolled argument parsing for `swsearch` (no external CLI crates —
//! the dependency budget is documented in DESIGN.md).

use std::fmt;
use std::time::Duration;
use sw_kernels::{KernelIsa, KernelVariant, ProfileMode, Vectorization};
use sw_sched::{FaultKind, FaultSpec, DEVICE_ACCEL};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
swsearch — Smith-Waterman protein database search (Rucci et al., CLUSTER 2014 reproduction)

USAGE:
  swsearch search   --query <fasta> --db <fasta|swdb> [options]
  swsearch search   --query <fasta> --shards <manifest> [--top <k>] [options]
  swsearch makedb   --in <fasta> --out <swdb>
  swsearch shard-prepare --db <fasta|swdb> --out <dir> --shards <n>
                    [--replicas <r>] [--endpoints <ep,ep,...>]
  swsearch gendb    --seqs <n> --out <fasta|swdb> [--seed <u64>] [--mean-len <f>]
  swsearch stats    --db <fasta|swdb>
  swsearch selftest [--lanes <4|8|16|32>] [--scale <n>]
  swsearch simulate --device <xeon|phi|hetero> [--threads <n>] [--query-len <m>]
                    [--frac <0..1>] [--variant <v>] [--db-scale <0..1>]
  swsearch align    --query <fasta> --subject <fasta> [--matrix <name>] [--open <q>] [--extend <r>]
  swsearch bench    [--seqs <n>] [--query-len <m>] [--threads <t>] [--lanes <l>]
  swsearch hetero   --query <fasta> --db <fasta|swdb> [--frac <0..1>]
                    [--dynamic] [--accel-threads <n>] [--min-chunk <n>]
                    [--checkpoint <path> | --checkpoint-dir <dir>] [--resume] [options]
  swsearch serve    --db <swdb|fasta> (--socket <path> | --listen <endpoint>)
                    [--threads <n>]
                    [--accel-threads <n>] [--max-concurrent <n>]
                    [--tenant-quota <n>] [--batch-window-ms <ms>]
                    [--checkpoint-dir <dir>]
                    [--trace-dir <dir>] [--registry-out <path>] [--lanes <n>]
                    [--log-level <l>] [--log-file <path>]
                    [--slow-query-ms <ms>] [--metrics-file <path>]
                    [--metrics-interval-ms <ms>] [--request-timeout-ms <ms>]
                    [--shard-worker]
  swsearch submit   --socket <endpoint> (--query <fasta> | --status <job> |
                    --cancel <job> | --stats | --metrics | --health |
                    --shutdown) [--tenant <name>] [--top <k>] [--json]
                    [--connect-retries <n>] [--connect-backoff-ms <ms>]
  swsearch trace-check [--trace <jsonl>] [--metrics <prom>]

SEARCH OPTIONS:
  --matrix <name>     BLOSUM45/50/62/80 or PAM250 (default BLOSUM62)
  --open <q>          gap open penalty (default 10)
  --extend <r>        gap extension penalty (default 2)
  --threads <n>       worker threads (default 1)
  --lanes <n>         vector lanes: 4, 8, 16 or 32 (default 16)
  --variant <v>       no-vec-qp | no-vec-sp | simd-qp | simd-sp |
                      intrinsic-qp | intrinsic-sp  (default intrinsic-sp)
  --no-blocking       disable cache blocking
  --kernel-isa <i>    auto | portable | sse2 | avx2 — instruction set for
                      the intrinsic kernels (default auto: best the host
                      supports; results are identical on every choice)
  --top <k>           hits to print (default 10)
  --align             render the alignment of each reported hit
  --tabular           BLAST outfmt-6 style tabular output (12 columns)
  --dna               nucleotide mode (ACGTN; default scoring +5/-4, N=-2)
  --match <s>         DNA match score (with --dna; default 5)
  --mismatch <s>      DNA mismatch score (with --dna; default -4)
  --both-strands      with --dna: also search the reverse complement
  --quarantine        skip malformed FASTA records instead of aborting;
                      a per-issue summary is printed (also on makedb)

HETERO OPTIONS:
  --dynamic           dual-pool dynamic scheduler: both device pools pull
                      from one shared queue; --frac only seeds the
                      feedback estimator. Prints per-device metrics.
  --accel-threads <n> accelerator-pool workers (default: same as --threads)
  --min-chunk <n>     smallest batch chunk a pool grabs (default 1)
  --inject-fault <s>  (dynamic) fault-injection drill against the accel
                      pool: kill@N | delay@N:MS | wedge@N | kill-pool@N
                      (N = 0-based chunk index). Hits stay exact; the run
                      recovers on the surviving pool.
  --accel-timeout-ms <n>  reclaim a silent accel chunk lease after n ms
                      (default: never; required for wedge recovery)
  --failure-budget <n> failures before a pool is retired (default 3)
  --trace-out <path>  (dynamic) write the run's event timeline: a .jsonl
                      path gets one event per line; any other extension
                      gets Chrome trace-event JSON (open in Perfetto)
  --metrics-out <path> (dynamic) write a Prometheus text snapshot of the
                      run's counters, histograms and GCUPS time series
  --trace-level <l>   off | lite | full (default: full when --trace-out
                      or --metrics-out is given, else off)

DURABILITY OPTIONS (dynamic mode):
  --checkpoint <path> persist search progress to this file: versioned,
                      CRC32-checksummed, written atomically. SIGINT or
                      SIGTERM drains the run gracefully (workers finish
                      their in-flight chunks, a final checkpoint is
                      written) and prints how to resume. Deleted when the
                      search completes.
  --checkpoint-dir <dir>
                      like --checkpoint, but the file name is derived
                      from the search fingerprint (database digest, query
                      digest, lane packing), so any number of concurrent
                      searches can share the directory without clobbering
                      each other. Mutually exclusive with --checkpoint.
  --checkpoint-interval-chunks <n>
                      write a checkpoint every n committed chunks
                      (default 8; the graceful-drain checkpoint is
                      written regardless)
  --resume            load the checkpoint if it exists and skip its
                      completed batches. The checkpoint is verified
                      against the database content digest, query digest,
                      lane count and batch count first; a mismatch is a
                      hard error. The final hit list is byte-identical
                      to an uninterrupted run.
  --kill-after-chunks <n>
                      crash drill: abort the whole process (as SIGKILL
                      would) after n chunks have been committed — used
                      by the crash-resume test harness

SERVE OPTIONS:
  --socket <path>     Unix socket the daemon listens on (serve) or the
                      endpoint the client connects to (submit; a bare
                      path, unix://<path> or tcp://host:port)
  --listen <endpoint> (serve) listen on an explicit endpoint instead:
                      tcp://host:port binds a TCP listener (multi-node
                      shard workers), unix://<path> or a bare path a
                      Unix socket. Mutually exclusive with --socket
  --max-concurrent <n> queries batched into one shared dual-pool region;
                      further submits wait for the next region (default 2)
  --tenant-quota <n>  max queued+running jobs per tenant; a submit over
                      the quota is rejected immediately (default 4)
  --batch-window-ms <ms> gather window: concurrent submits arriving
                      within it share one region (default 3; refused with
                      --shard-worker, which gathers with no window)
  --checkpoint-dir <dir> (serve) per-job fingerprint-named checkpoints:
                      cancelled jobs stay resumable
  --trace-dir <dir>   (serve) write each job's query-tagged JSONL trace
                      to <dir>/job-<id>.jsonl
  --registry-out <path> (serve) dump the job registry as JSONL on
                      shutdown
  --log-level <l>     (serve) structured ops log threshold: off | error |
                      warn | info | debug (default info; one JSON line
                      per lifecycle transition)
  --log-file <path>   (serve) append ops-log lines here instead of stderr
  --slow-query-ms <ms> (serve) count + warn-log jobs slower than this
                      submit→terminal; with --trace-dir their merged
                      timeline is dumped as slow-job-<id>.jsonl
  --metrics-file <path> (serve) periodically dump the daemon-lifetime
                      Prometheus snapshot here (atomic replace)
  --metrics-interval-ms <ms> (serve) dump cadence for --metrics-file
                      (default 1000)
  --request-timeout-ms <ms> (serve) evict a connection that has not
                      completed its request line within this deadline —
                      a stalled half-line client must not pin a thread
                      and fd (default 10000)
  --shard-worker      (serve) --db names a .swshard file: serve that
                      shard, reporting hit ids globally (shard base +
                      in-shard index) and labelling metrics with the
                      shard index
  --drill <spec>      (submit) per-job fault drill forwarded to the
                      daemon, e.g. delay@0:1500 (the region's first
                      chunk, on either pool, sleeps 1500 ms) — test
                      hook, hits stay exact
  --tenant <name>     (submit) tenant the job is accounted against
                      (default 'anon')
  --status <job>      (submit) report one job instead of submitting
  --cancel <job>      (submit) drain a running job gracefully
  --stats             (submit) registry summary counts
  --metrics           (submit) fetch the daemon-lifetime Prometheus
                      snapshot (raw text on stdout)
  --health            (submit) readiness/liveness probe; exit code 0
                      only when the daemon reports ready
  --shutdown          (submit) drain the daemon and exit
  --json              (submit) print raw wire JSON lines instead of
                      human-formatted text (submit/status/stats)
  --connect-retries <n> (submit) extra connect attempts under jittered
                      exponential backoff before giving up — absorbs a
                      daemon mid-restart (default 0: fail fast)
  --connect-backoff-ms <ms> (submit) base backoff for --connect-retries;
                      retry k sleeps ~ms*2^k, jittered (default 25)

SHARD OPTIONS:
  --shards <n>        (shard-prepare) split the length-sorted database
                      into n digest-identified .swshard files plus a
                      sorted parent snapshot and a shards.manifest
  --shards <manifest> (search) sharded search: spawn one shard worker
                      per manifest entry (reusing any already listening
                      on the shard sockets), fan the query out, and
                      k-way-merge the per-shard top-K byte-identically
                      to the unsharded run over the sorted parent. A
                      dead or wedged worker's shard is requeued to a
                      respawned process and resumes from its checkpoint.
  --replicas <r>      (shard-prepare) also write placement.plan mapping
                      every shard to r endpoints (round-robin over
                      --endpoints, or per-replica socket names)
  --endpoints <list>  (shard-prepare) comma-separated endpoint pool the
                      placement plan spreads replicas over, e.g.
                      tcp://10.0.0.1:7001,tcp://10.0.0.2:7001
  --shard-dir <dir>   (search --shards) sockets, worker logs and the
                      shared checkpoint dir live here (default: the
                      manifest's directory)
  --placement <path>  (search --shards) placement plan mapping shards to
                      replica endpoints; the coordinator walks a shard's
                      replica ring on retry (default: placement.plan
                      next to the manifest, when present)
  --drill <spec>      (search --shards) fault drill forwarded to every
                      shard worker, e.g. delay@0:1500
  --net-fault <spec>  (search --shards) coordinator-side network fault
                      drill: refuse@S | drop@S:N | blackhole@S |
                      slowdrip@S:MS, comma-separated, optional #ATTEMPT
                      suffix. Hits stay byte-identical
  --net-fault-seed <u64> (search --shards) seeded random network fault
                      plan (one fault per shard, first attempts)
  --coord-journal <path> (search --shards) coordinator journal location
                      (default <shard-dir>/coord.journal); written
                      atomically on every commit/requeue, removed on a
                      clean finish
  --resume-coord      (search --shards) load the journal and skip shards
                      whose results it already committed — rerun after a
                      coordinator crash converges on identical bytes
  --metrics-out <path> (search --shards) write a Prometheus text snapshot
                      of the coordinator's counters (requeues, failovers,
                      net retries, journal skips) after the merge

TRACE-CHECK OPTIONS:
  --trace <path>      validate a JSONL event log: schema header, per-track
                      monotonic timestamps, balanced begin/end spans
  --metrics <path>    validate a Prometheus text snapshot
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Database search (Algorithm 1).
    Search {
        /// Query FASTA path.
        query: String,
        /// Database path (FASTA or `.swdb` snapshot).
        db: String,
        /// Scoring/search knobs.
        opts: SearchOpts,
    },
    /// Sharded search: spawn/reuse one worker daemon per shard, fan the
    /// query out, merge byte-identically to the unsharded run.
    SearchShards {
        /// Query FASTA path.
        query: String,
        /// `shards.manifest` written by `shard-prepare`.
        manifest: String,
        /// Sockets, worker logs and checkpoints live here (defaults to
        /// the manifest's directory).
        shard_dir: Option<String>,
        /// Hits to keep after the merge.
        top: usize,
        /// Fault drill forwarded to every shard worker.
        drill: Option<String>,
        /// Coordinator-side network fault drill (`refuse@S`, …).
        net_fault: Option<String>,
        /// Seeded random network fault plan.
        net_fault_seed: Option<u64>,
        /// Placement plan path (shard → replica endpoints).
        placement: Option<String>,
        /// Coordinator journal path override.
        coord_journal: Option<String>,
        /// Resume from the journal, skipping committed shards.
        resume_coord: bool,
        /// Write the coordinator's Prometheus counters here.
        metrics_out: Option<String>,
        /// Print raw wire JSON hit lines instead of the report.
        json: bool,
        /// Worker knobs (threads, lanes …) for spawned shard daemons.
        opts: SearchOpts,
    },
    /// Split a database into digest-identified snapshot shards.
    ShardPrepare {
        /// Input database (FASTA or `.swdb` snapshot).
        db: String,
        /// Output directory for shards, sorted parent and manifest.
        out: String,
        /// Number of shards.
        shards: usize,
        /// Replicas per shard; > 1 (or an endpoint pool) also writes a
        /// `placement.plan`.
        replicas: usize,
        /// Comma-separated endpoint pool for the placement plan.
        endpoints: Option<String>,
    },
    /// Preprocess a FASTA database into a binary snapshot.
    MakeDb {
        /// Input FASTA.
        input: String,
        /// Output snapshot path.
        output: String,
        /// Skip malformed records instead of aborting.
        quarantine: bool,
    },
    /// Generate a synthetic Swiss-Prot-like database.
    GenDb {
        /// Sequence count.
        seqs: u32,
        /// Output path (`.swdb` → snapshot, else FASTA).
        output: String,
        /// RNG seed.
        seed: u64,
        /// Mean sequence length.
        mean_len: f64,
    },
    /// Print database statistics.
    Stats {
        /// Database path.
        db: String,
    },
    /// Cross-variant correctness self-test.
    SelfTest {
        /// Lane width.
        lanes: usize,
        /// Workload scale factor.
        scale: u32,
    },
    /// Simulated performance of the paper's devices.
    Simulate {
        /// `xeon`, `phi` or `hetero`.
        device: String,
        /// Threads (0 = device maximum).
        threads: u32,
        /// Query length.
        query_len: usize,
        /// Fraction of work offloaded (hetero only).
        frac: f64,
        /// Kernel variant.
        variant: KernelVariant,
        /// Database scale relative to Swiss-Prot (1.0 = 541 561 seqs).
        db_scale: f64,
    },
    /// Pairwise alignment with traceback.
    Align {
        /// Query FASTA path.
        query: String,
        /// Subject FASTA path.
        subject: String,
        /// Scoring knobs.
        opts: SearchOpts,
    },
    /// Heterogeneous search (Algorithm 2): static split, or the dynamic
    /// dual-pool scheduler with `--dynamic`.
    Hetero {
        /// Query FASTA path.
        query: String,
        /// Database path.
        db: String,
        /// Fraction of DP cells sent to the accelerator share (seed of
        /// the feedback estimator under `--dynamic`).
        frac: f64,
        /// Use the dynamic dual-pool scheduler instead of the fixed
        /// prefix/suffix split.
        dynamic: bool,
        /// Accelerator-pool worker threads (dynamic mode).
        accel_threads: usize,
        /// Smallest batch chunk either pool grabs (dynamic mode).
        min_chunk: usize,
        /// Fault to inject into the accelerator pool (dynamic mode):
        /// exercises the lease/requeue recovery path end to end.
        inject_fault: Option<FaultSpec>,
        /// Reclaim a silent accelerator chunk lease after this many
        /// milliseconds (dynamic mode; `None` = never).
        accel_timeout_ms: Option<u64>,
        /// Failures a pool tolerates before it is retired (dynamic mode).
        failure_budget: u32,
        /// Write the event timeline here (dynamic mode): `.jsonl` → JSONL
        /// event log, anything else → Chrome trace-event JSON.
        trace_out: Option<String>,
        /// Write a Prometheus text snapshot of the run's metrics here
        /// (dynamic mode).
        metrics_out: Option<String>,
        /// Journal detail level. Defaults to `Full` when `--trace-out` or
        /// `--metrics-out` is given, `Off` otherwise.
        trace_level: sw_trace::TraceLevel,
        /// Persist search progress to this checkpoint file (dynamic
        /// mode); SIGINT/SIGTERM then drain gracefully instead of
        /// killing the run.
        checkpoint: Option<String>,
        /// Keep the checkpoint in this directory under a
        /// fingerprint-derived name (concurrency-safe alternative to
        /// `--checkpoint`).
        checkpoint_dir: Option<String>,
        /// Chunks between periodic checkpoint writes.
        checkpoint_interval: u64,
        /// Load the checkpoint (if present) and skip its batches.
        resume: bool,
        /// Crash drill: abort the process after this many committed
        /// chunks (simulates SIGKILL for the crash-resume harness).
        kill_after_chunks: Option<u64>,
        /// Scoring/search knobs.
        opts: SearchOpts,
    },
    /// Long-lived search daemon: load and verify the database once,
    /// serve line-delimited JSON queries over a Unix socket.
    Serve {
        /// Database path (`.swdb` snapshot or FASTA).
        db: String,
        /// Endpoint to listen on: a bare Unix socket path (`--socket`)
        /// or a `tcp://host:port` / `unix://path` URL (`--listen`).
        socket: String,
        /// Queries batched into one shared dual-pool region; submits
        /// past the cap wait for the next region.
        max_concurrent: usize,
        /// Max queued+running jobs per tenant; a submit over the quota
        /// is rejected immediately.
        tenant_quota: usize,
        /// Gather window in ms: concurrent submits arriving within it
        /// coalesce into the same shared region.
        batch_window_ms: u64,
        /// Accelerator-pool worker threads per search.
        accel_threads: usize,
        /// Fingerprint-named per-job checkpoints live here (cancelled
        /// jobs stay resumable).
        checkpoint_dir: Option<String>,
        /// Per-job query-tagged JSONL trace exports live here.
        trace_dir: Option<String>,
        /// Dump the job registry as JSONL here on shutdown.
        registry_out: Option<String>,
        /// Ops-log threshold.
        log_level: sw_serve::LogLevel,
        /// Ops-log destination (stderr when `None`).
        log_file: Option<String>,
        /// Slow-query threshold in ms (`None` disables).
        slow_query_ms: Option<u64>,
        /// Periodic Prometheus scrape dump path.
        metrics_file: Option<String>,
        /// Dump cadence for `metrics_file` in ms.
        metrics_interval_ms: u64,
        /// Per-connection request deadline in ms.
        request_timeout_ms: u64,
        /// Treat `db` as a `.swshard` file and serve that shard.
        shard_worker: bool,
        /// Scoring/search knobs shared by every job.
        opts: SearchOpts,
    },
    /// Client for a running `serve` daemon.
    Submit {
        /// Unix socket path of the daemon.
        socket: String,
        /// Query FASTA to submit (`None` for the control operations).
        query: Option<String>,
        /// Tenant the job is accounted against.
        tenant: String,
        /// Report this job id instead of submitting.
        status: Option<u64>,
        /// Drain this job id gracefully.
        cancel: Option<u64>,
        /// Print a registry summary.
        stats: bool,
        /// Fetch the daemon-lifetime Prometheus snapshot.
        metrics: bool,
        /// Readiness/liveness probe.
        health: bool,
        /// Drain in-flight jobs and stop the daemon.
        shutdown: bool,
        /// Fault drill forwarded with the job (e.g. `delay@0:1500`).
        drill: Option<String>,
        /// Hits to return.
        top: usize,
        /// Print raw wire JSON lines instead of human-formatted text.
        json: bool,
        /// Extra connect attempts under jittered exponential backoff.
        connect_retries: u32,
        /// Base backoff for connect retries in ms.
        connect_backoff_ms: u64,
    },
    /// Validate exported trace artifacts (CI gate for `--trace-out` /
    /// `--metrics-out` files).
    TraceCheck {
        /// JSONL event log to validate.
        trace: Option<String>,
        /// Prometheus text snapshot to validate.
        metrics: Option<String>,
    },
    /// Host throughput micro-benchmark.
    Bench {
        /// Database sequences to generate.
        seqs: u32,
        /// Query length.
        query_len: u32,
        /// Worker threads.
        threads: usize,
        /// Vector lanes.
        lanes: usize,
    },
    /// Print usage.
    Help,
}

/// Search options shared by `search` and `align`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOpts {
    /// Substitution matrix name.
    pub matrix: String,
    /// Gap open penalty.
    pub open: i32,
    /// Gap extension penalty.
    pub extend: i32,
    /// Worker threads.
    pub threads: usize,
    /// Vector lanes.
    pub lanes: usize,
    /// Kernel variant.
    pub variant: KernelVariant,
    /// Hits to print.
    pub top: usize,
    /// Render alignments of reported hits.
    pub align: bool,
    /// Forced kernel ISA (`--kernel-isa`); `None` = auto-detect the best
    /// the host supports. Availability is checked at execution time.
    pub kernel_isa: Option<KernelIsa>,
    /// Output format: plain report or BLAST-style 12-column tabular.
    pub tabular: bool,
    /// Nucleotide mode: DNA alphabet + match/mismatch scoring.
    pub dna: bool,
    /// DNA match score (nucleotide mode only).
    pub match_score: i32,
    /// DNA mismatch score (nucleotide mode only).
    pub mismatch: i32,
    /// Also search the reverse-complement strand (nucleotide mode only).
    pub both_strands: bool,
    /// Skip malformed FASTA records (with a printed per-issue summary)
    /// instead of aborting on the first one.
    pub quarantine: bool,
}

impl Default for SearchOpts {
    fn default() -> Self {
        SearchOpts {
            matrix: "BLOSUM62".to_string(),
            open: 10,
            extend: 2,
            threads: 1,
            lanes: 16,
            variant: KernelVariant::best(),
            top: 10,
            align: false,
            kernel_isa: None,
            tabular: false,
            dna: false,
            match_score: 5,
            mismatch: -4,
            both_strands: false,
            quarantine: false,
        }
    }
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parse an `--inject-fault` value: `kill@N`, `delay@N:MS`, `wedge@N` or
/// `kill-pool@N`, where `N` is the 0-based chunk index (in the accel
/// pool's grab order) at which the fault fires. Drills always target the
/// accelerator pool — the CPU pool is the recovery path.
pub fn parse_fault_spec(s: &str) -> Result<FaultSpec, ParseError> {
    let bad = || {
        err(format!(
            "bad --inject-fault '{s}': expected kill@N, delay@N:MS, wedge@N or kill-pool@N"
        ))
    };
    let (kind_s, at) = s.split_once('@').ok_or_else(bad)?;
    let parse_chunk = |t: &str| t.parse::<u64>().map_err(|_| bad());
    let (kind, chunk) = match kind_s.to_ascii_lowercase().as_str() {
        "kill" => (FaultKind::Kill, parse_chunk(at)?),
        "wedge" => (FaultKind::Wedge, parse_chunk(at)?),
        "kill-pool" | "killpool" => (FaultKind::KillPool, parse_chunk(at)?),
        "delay" => {
            let (n, ms) = at.split_once(':').ok_or_else(bad)?;
            let ms: u64 = ms.parse().map_err(|_| bad())?;
            (FaultKind::Delay(Duration::from_millis(ms)), parse_chunk(n)?)
        }
        _ => return Err(bad()),
    };
    Ok(FaultSpec {
        device: DEVICE_ACCEL,
        chunk,
        kind,
    })
}

/// Parse a `--variant` value.
pub fn parse_variant(s: &str, blocking: bool) -> Result<KernelVariant, ParseError> {
    let (vec, profile) = match s.to_ascii_lowercase().as_str() {
        "no-vec-qp" | "novec-qp" => (Vectorization::NoVec, ProfileMode::Query),
        "no-vec-sp" | "novec-sp" => (Vectorization::NoVec, ProfileMode::Sequence),
        "simd-qp" => (Vectorization::Guided, ProfileMode::Query),
        "simd-sp" => (Vectorization::Guided, ProfileMode::Sequence),
        "intrinsic-qp" => (Vectorization::Intrinsic, ProfileMode::Query),
        "intrinsic-sp" => (Vectorization::Intrinsic, ProfileMode::Sequence),
        other => return Err(err(format!("unknown variant '{other}'"))),
    };
    Ok(KernelVariant {
        vec,
        profile,
        blocking,
    })
}

/// The argv of one subcommand: each helper scans for the flag it is asked
/// about and marks the tokens it read, so [`Args::finish`] can refuse
/// whatever no helper ever asked for — a misspelt option, an option of
/// another subcommand, a stray positional.
struct Args<'a> {
    /// `tokens[0]` is the subcommand.
    tokens: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(tokens: &'a [String]) -> Self {
        let mut used = vec![false; tokens.len()];
        used[0] = true;
        Args { tokens, used }
    }

    /// Index of the first `flag` token after the subcommand, marked read.
    fn find(&mut self, flag: &str) -> Option<usize> {
        let i = 1 + self.tokens[1..].iter().position(|t| t == flag)?;
        self.used[i] = true;
        Some(i)
    }

    /// `flag <value>` anywhere after the subcommand, if the flag is there;
    /// a flag without its value is an error, not an absent flag. The value
    /// is taken as it stands, so a negative number (`--mismatch -4`) is a
    /// value.
    fn opt_value(&mut self, flag: &str) -> Result<Option<String>, ParseError> {
        let Some(i) = self.find(flag) else {
            return Ok(None);
        };
        let v = self
            .tokens
            .get(i + 1)
            .ok_or_else(|| err(format!("{flag} needs a value")))?;
        self.used[i + 1] = true;
        Ok(Some(v.clone()))
    }

    fn value_of(&mut self, flag: &str) -> Result<String, ParseError> {
        self.opt_value(flag)?
            .ok_or_else(|| err(format!("missing required {flag}")))
    }

    fn has_flag(&mut self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    fn opt_num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, ParseError> {
        self.opt_value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("bad value for {flag}: '{v}'")))
            })
            .transpose()
    }

    fn parse_num<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, ParseError> {
        Ok(self.opt_num(flag)?.unwrap_or(default))
    }

    /// Refuse the first token no helper read.
    fn finish(&self) -> Result<(), ParseError> {
        let Some(i) = self.used.iter().position(|u| !u) else {
            return Ok(());
        };
        let (tok, sub) = (&self.tokens[i], &self.tokens[0]);
        Err(err(if self.tokens[..i].contains(tok) {
            format!("'{tok}' given more than once for '{sub}'")
        } else if tok.starts_with("--") {
            format!("unknown option '{tok}' for '{sub}'")
        } else {
            format!("unexpected argument '{tok}' for '{sub}'")
        }))
    }
}

fn parse_search_opts(a: &mut Args<'_>) -> Result<SearchOpts, ParseError> {
    let d = SearchOpts::default();
    let blocking = !a.has_flag("--no-blocking");
    let variant = match a.opt_value("--variant")? {
        Some(v) => parse_variant(&v, blocking)?,
        None => KernelVariant {
            blocking,
            ..d.variant
        },
    };
    let lanes: usize = a.parse_num("--lanes", d.lanes)?;
    if !matches!(lanes, 4 | 8 | 16 | 32) {
        return Err(err(format!("--lanes must be 4, 8, 16 or 32 (got {lanes})")));
    }
    let kernel_isa = match a.opt_value("--kernel-isa")? {
        None => None,
        Some(v) if v.eq_ignore_ascii_case("auto") => None,
        Some(v) => Some(KernelIsa::from_name(&v).ok_or_else(|| {
            err(format!(
                "--kernel-isa must be auto, portable, sse2 or avx2 (got '{v}')"
            ))
        })?),
    };
    Ok(SearchOpts {
        matrix: a.opt_value("--matrix")?.unwrap_or(d.matrix),
        open: a.parse_num("--open", d.open)?,
        extend: a.parse_num("--extend", d.extend)?,
        threads: a.parse_num("--threads", d.threads)?,
        lanes,
        variant,
        top: a.parse_num("--top", d.top)?,
        align: a.has_flag("--align"),
        kernel_isa,
        tabular: a.has_flag("--tabular"),
        dna: a.has_flag("--dna"),
        match_score: a.parse_num("--match", d.match_score)?,
        mismatch: a.parse_num("--mismatch", d.mismatch)?,
        both_strands: a.has_flag("--both-strands"),
        quarantine: a.has_flag("--quarantine"),
    })
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    let mut a = Args::new(argv);
    let cmd = match sub.as_str() {
        "-h" | "--help" | "help" => return Ok(Command::Help),
        "search" => {
            if a.has_flag("--shards") {
                let top: usize = a.parse_num("--top", 10usize)?;
                let net_fault = a.opt_value("--net-fault")?;
                if let Some(spec) = &net_fault {
                    // Validate up front: a typo must not boot a fleet.
                    sw_sched::NetFaultPlan::parse(spec).map_err(err)?;
                }
                let net_fault_seed = a.opt_num::<u64>("--net-fault-seed")?;
                if net_fault.is_some() && net_fault_seed.is_some() {
                    return Err(err("pass --net-fault or --net-fault-seed, not both"));
                }
                Ok(Command::SearchShards {
                    query: a.value_of("--query")?,
                    manifest: a.value_of("--shards")?,
                    shard_dir: a.opt_value("--shard-dir")?,
                    top,
                    drill: a.opt_value("--drill")?,
                    net_fault,
                    net_fault_seed,
                    placement: a.opt_value("--placement")?,
                    coord_journal: a.opt_value("--coord-journal")?,
                    resume_coord: a.has_flag("--resume-coord"),
                    metrics_out: a.opt_value("--metrics-out")?,
                    json: a.has_flag("--json"),
                    opts: parse_search_opts(&mut a)?,
                })
            } else {
                Ok(Command::Search {
                    query: a.value_of("--query")?,
                    db: a.value_of("--db")?,
                    opts: parse_search_opts(&mut a)?,
                })
            }
        }
        "shard-prepare" => {
            let shards: usize = a.parse_num("--shards", 0usize)?;
            if shards == 0 {
                return Err(err("--shards is required and must be positive"));
            }
            let replicas: usize = a.parse_num("--replicas", 1usize)?;
            if replicas == 0 {
                return Err(err("--replicas must be at least 1"));
            }
            Ok(Command::ShardPrepare {
                db: a.value_of("--db")?,
                out: a.value_of("--out")?,
                shards,
                replicas,
                endpoints: a.opt_value("--endpoints")?,
            })
        }
        "makedb" => Ok(Command::MakeDb {
            input: a.value_of("--in")?,
            output: a.value_of("--out")?,
            quarantine: a.has_flag("--quarantine"),
        }),
        "gendb" => Ok(Command::GenDb {
            seqs: a.parse_num("--seqs", 0u32).and_then(|n| {
                if n == 0 {
                    Err(err("--seqs is required and must be positive"))
                } else {
                    Ok(n)
                }
            })?,
            output: a.value_of("--out")?,
            seed: a.parse_num("--seed", 42u64)?,
            mean_len: a.parse_num("--mean-len", 355.4f64)?,
        }),
        "stats" => Ok(Command::Stats {
            db: a.value_of("--db")?,
        }),
        "selftest" => {
            let lanes: usize = a.parse_num("--lanes", 8usize)?;
            if !matches!(lanes, 4 | 8 | 16 | 32) {
                return Err(err("--lanes must be 4, 8, 16 or 32"));
            }
            Ok(Command::SelfTest {
                lanes,
                scale: a.parse_num("--scale", 1u32)?,
            })
        }
        "simulate" => {
            let device = a.value_of("--device")?;
            if !matches!(device.as_str(), "xeon" | "phi" | "hetero") {
                return Err(err(format!(
                    "--device must be xeon, phi or hetero (got '{device}')"
                )));
            }
            let blocking = !a.has_flag("--no-blocking");
            let variant = match a.opt_value("--variant")? {
                Some(v) => parse_variant(&v, blocking)?,
                None => KernelVariant {
                    blocking,
                    ..KernelVariant::best()
                },
            };
            let frac: f64 = a.parse_num("--frac", 0.55f64)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(err("--frac must be in [0, 1]"));
            }
            let db_scale: f64 = a.parse_num("--db-scale", 1.0f64)?;
            if !(db_scale > 0.0 && db_scale <= 1.0) {
                return Err(err("--db-scale must be in (0, 1]"));
            }
            Ok(Command::Simulate {
                device,
                threads: a.parse_num("--threads", 0u32)?,
                query_len: a.parse_num("--query-len", 2000usize)?,
                frac,
                variant,
                db_scale,
            })
        }
        "hetero" => {
            let frac: f64 = a.parse_num("--frac", 0.55f64)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(err("--frac must be in [0, 1]"));
            }
            let opts = parse_search_opts(&mut a)?;
            let accel_threads: usize = a.parse_num("--accel-threads", opts.threads)?;
            let min_chunk: usize = a.parse_num("--min-chunk", 1usize)?;
            if min_chunk == 0 {
                return Err(err("--min-chunk must be at least 1"));
            }
            let inject_fault = a
                .opt_value("--inject-fault")?
                .map(|s| parse_fault_spec(&s))
                .transpose()?;
            let accel_timeout_ms = a.opt_num::<u64>("--accel-timeout-ms")?;
            let failure_budget: u32 = a.parse_num("--failure-budget", 3u32)?;
            let trace_out = a.opt_value("--trace-out")?;
            let metrics_out = a.opt_value("--metrics-out")?;
            let trace_level = match a.opt_value("--trace-level")? {
                Some(v) => sw_trace::TraceLevel::parse(&v).ok_or_else(|| {
                    err(format!(
                        "--trace-level must be off, lite or full (got '{v}')"
                    ))
                })?,
                None if trace_out.is_some() || metrics_out.is_some() => sw_trace::TraceLevel::Full,
                None => sw_trace::TraceLevel::Off,
            };
            let checkpoint = a.opt_value("--checkpoint")?;
            let checkpoint_dir = a.opt_value("--checkpoint-dir")?;
            if checkpoint.is_some() && checkpoint_dir.is_some() {
                return Err(err(
                    "--checkpoint and --checkpoint-dir are mutually exclusive",
                ));
            }
            let checkpoint_interval: u64 = a.parse_num("--checkpoint-interval-chunks", 8u64)?;
            if checkpoint_interval == 0 {
                return Err(err("--checkpoint-interval-chunks must be at least 1"));
            }
            let resume = a.has_flag("--resume");
            if resume && checkpoint.is_none() && checkpoint_dir.is_none() {
                return Err(err(
                    "--resume needs --checkpoint <path> or --checkpoint-dir <dir> to resume from",
                ));
            }
            let kill_after_chunks = a
                .opt_value("--kill-after-chunks")?
                .map(|v| {
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| err(format!("bad value for --kill-after-chunks: '{v}'")))
                })
                .transpose()?;
            Ok(Command::Hetero {
                query: a.value_of("--query")?,
                db: a.value_of("--db")?,
                frac,
                dynamic: a.has_flag("--dynamic"),
                accel_threads,
                min_chunk,
                inject_fault,
                accel_timeout_ms,
                failure_budget,
                trace_out,
                metrics_out,
                trace_level,
                checkpoint,
                checkpoint_dir,
                checkpoint_interval,
                resume,
                kill_after_chunks,
                opts,
            })
        }
        "serve" => {
            let opts = parse_search_opts(&mut a)?;
            let max_concurrent: usize = a.parse_num("--max-concurrent", 2usize)?;
            if max_concurrent == 0 {
                return Err(err("--max-concurrent must be at least 1"));
            }
            let tenant_quota: usize = a.parse_num("--tenant-quota", 4usize)?;
            if tenant_quota == 0 {
                return Err(err("--tenant-quota must be at least 1"));
            }
            let log_level = match a.opt_value("--log-level")? {
                None => sw_serve::LogLevel::Info,
                Some(v) => sw_serve::LogLevel::parse(&v)
                    .ok_or_else(|| err(format!("bad value for --log-level: '{v}'")))?,
            };
            let slow_query_ms = a.opt_num::<u64>("--slow-query-ms")?;
            let socket = match (a.opt_value("--socket")?, a.opt_value("--listen")?) {
                (Some(_), Some(_)) => {
                    return Err(err("pass --socket or --listen, not both"));
                }
                (Some(s), None) => s,
                (None, Some(l)) => l,
                (None, None) => {
                    return Err(err("serve needs --socket <path> or --listen <endpoint>"));
                }
            };
            // A shard worker gathers with no window (its one client sends
            // one request per query); an option it would not read is
            // refused, not ignored.
            let shard_worker = a.has_flag("--shard-worker");
            let batch_window_ms = a.opt_num::<u64>("--batch-window-ms")?;
            if shard_worker && batch_window_ms.is_some() {
                return Err(err(
                    "--batch-window-ms does not apply to --shard-worker (a shard worker gathers with no window)",
                ));
            }
            Ok(Command::Serve {
                db: a.value_of("--db")?,
                socket,
                max_concurrent,
                tenant_quota,
                batch_window_ms: batch_window_ms.unwrap_or(3),
                accel_threads: a.parse_num("--accel-threads", opts.threads)?,
                checkpoint_dir: a.opt_value("--checkpoint-dir")?,
                trace_dir: a.opt_value("--trace-dir")?,
                registry_out: a.opt_value("--registry-out")?,
                log_level,
                log_file: a.opt_value("--log-file")?,
                slow_query_ms,
                metrics_file: a.opt_value("--metrics-file")?,
                metrics_interval_ms: a.parse_num("--metrics-interval-ms", 1000u64)?,
                request_timeout_ms: a.parse_num("--request-timeout-ms", 10_000u64)?,
                shard_worker,
                opts,
            })
        }
        "submit" => {
            let socket = a.value_of("--socket")?;
            let query = a.opt_value("--query")?;
            let status = a.opt_num::<u64>("--status")?;
            let cancel = a.opt_num::<u64>("--cancel")?;
            let stats = a.has_flag("--stats");
            let shutdown = a.has_flag("--shutdown");
            let metrics = a.has_flag("--metrics");
            let health = a.has_flag("--health");
            let ops = usize::from(query.is_some())
                + usize::from(status.is_some())
                + usize::from(cancel.is_some())
                + usize::from(stats)
                + usize::from(shutdown)
                + usize::from(metrics)
                + usize::from(health);
            if ops != 1 {
                return Err(err(
                    "submit needs exactly one of --query, --status, --cancel, --stats, \
                     --shutdown, --metrics, --health",
                ));
            }
            Ok(Command::Submit {
                socket,
                query,
                tenant: a.opt_value("--tenant")?.unwrap_or_else(|| "anon".into()),
                status,
                cancel,
                stats,
                shutdown,
                metrics,
                health,
                drill: a.opt_value("--drill")?,
                top: a.parse_num("--top", 10usize)?,
                json: a.has_flag("--json"),
                connect_retries: a.parse_num("--connect-retries", 0u32)?,
                connect_backoff_ms: a.parse_num("--connect-backoff-ms", 25u64)?,
            })
        }
        "trace-check" => {
            let trace = a.opt_value("--trace")?;
            let metrics = a.opt_value("--metrics")?;
            if trace.is_none() && metrics.is_none() {
                return Err(err(
                    "trace-check needs --trace <jsonl> and/or --metrics <prom>",
                ));
            }
            Ok(Command::TraceCheck { trace, metrics })
        }
        "bench" => {
            let lanes: usize = a.parse_num("--lanes", 16usize)?;
            if !matches!(lanes, 4 | 8 | 16 | 32) {
                return Err(err("--lanes must be 4, 8, 16 or 32"));
            }
            Ok(Command::Bench {
                seqs: a.parse_num("--seqs", 2000u32)?,
                query_len: a.parse_num("--query-len", 400u32)?,
                threads: a.parse_num("--threads", 1usize)?,
                lanes,
            })
        }
        "align" => Ok(Command::Align {
            query: a.value_of("--query")?,
            subject: a.value_of("--subject")?,
            opts: parse_search_opts(&mut a)?,
        }),
        other => Err(err(format!("unknown command '{other}'"))),
    }?;
    a.finish()?;
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn search_defaults() {
        let c = parse(&argv("search --query q.fa --db d.fa")).unwrap();
        match c {
            Command::Search { query, db, opts } => {
                assert_eq!(query, "q.fa");
                assert_eq!(db, "d.fa");
                assert_eq!(opts, SearchOpts::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn search_full_options() {
        let c = parse(&argv(
            "search --query q.fa --db d.fa --matrix BLOSUM50 --open 12 --extend 1 \
             --threads 4 --lanes 32 --variant simd-qp --no-blocking --top 5 --align",
        ))
        .unwrap();
        match c {
            Command::Search { opts, .. } => {
                assert_eq!(opts.matrix, "BLOSUM50");
                assert_eq!(opts.open, 12);
                assert_eq!(opts.extend, 1);
                assert_eq!(opts.threads, 4);
                assert_eq!(opts.lanes, 32);
                assert_eq!(opts.variant.vec, Vectorization::Guided);
                assert_eq!(opts.variant.profile, ProfileMode::Query);
                assert!(!opts.variant.blocking);
                assert_eq!(opts.top, 5);
                assert!(opts.align);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_required_flag() {
        let e = parse(&argv("search --query q.fa")).unwrap_err();
        assert!(e.0.contains("--db"));
    }

    #[test]
    fn bad_variant_rejected() {
        assert!(parse(&argv("search --query q --db d --variant turbo")).is_err());
    }

    #[test]
    fn bad_lanes_rejected() {
        assert!(parse(&argv("search --query q --db d --lanes 7")).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let c = parse(&argv("simulate --device phi")).unwrap();
        match c {
            Command::Simulate {
                device,
                threads,
                query_len,
                frac,
                db_scale,
                ..
            } => {
                assert_eq!(device, "phi");
                assert_eq!(threads, 0);
                assert_eq!(query_len, 2000);
                assert!((frac - 0.55).abs() < 1e-12);
                assert!((db_scale - 1.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulate_validates_device_and_frac() {
        assert!(parse(&argv("simulate --device gpu")).is_err());
        assert!(parse(&argv("simulate --device hetero --frac 1.5")).is_err());
        assert!(parse(&argv("simulate --device xeon --db-scale 0")).is_err());
    }

    #[test]
    fn gendb_requires_seqs() {
        assert!(parse(&argv("gendb --out x.fa")).is_err());
        let c = parse(&argv("gendb --seqs 100 --out x.fa --seed 7")).unwrap();
        assert_eq!(
            c,
            Command::GenDb {
                seqs: 100,
                output: "x.fa".into(),
                seed: 7,
                mean_len: 355.4
            }
        );
    }

    #[test]
    fn all_variant_names_parse() {
        for (name, vec, prof) in [
            ("no-vec-qp", Vectorization::NoVec, ProfileMode::Query),
            ("no-vec-sp", Vectorization::NoVec, ProfileMode::Sequence),
            ("simd-qp", Vectorization::Guided, ProfileMode::Query),
            ("simd-sp", Vectorization::Guided, ProfileMode::Sequence),
            ("intrinsic-qp", Vectorization::Intrinsic, ProfileMode::Query),
            (
                "intrinsic-sp",
                Vectorization::Intrinsic,
                ProfileMode::Sequence,
            ),
        ] {
            let v = parse_variant(name, true).unwrap();
            assert_eq!(v.vec, vec, "{name}");
            assert_eq!(v.profile, prof, "{name}");
        }
    }

    #[test]
    fn kernel_isa_flag_parses() {
        // Default and explicit auto both mean "detect at execution time".
        for cmdline in [
            "search --query q --db d",
            "search --query q --db d --kernel-isa auto",
        ] {
            match parse(&argv(cmdline)).unwrap() {
                Command::Search { opts, .. } => assert_eq!(opts.kernel_isa, None, "{cmdline}"),
                other => panic!("{other:?}"),
            }
        }
        for (name, isa) in [
            ("portable", KernelIsa::Portable),
            ("sse2", KernelIsa::Sse2),
            ("AVX2", KernelIsa::Avx2),
        ] {
            match parse(&argv(&format!(
                "search --query q --db d --kernel-isa {name}"
            )))
            .unwrap()
            {
                Command::Search { opts, .. } => assert_eq!(opts.kernel_isa, Some(isa), "{name}"),
                other => panic!("{other:?}"),
            }
        }
        let e = parse(&argv("search --query q --db d --kernel-isa mmx")).unwrap_err();
        assert!(e.0.contains("--kernel-isa"), "{e}");
    }

    #[test]
    fn unknown_command() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("frobnicate"));
    }

    /// A valid line of each subcommand, then the same line with one token
    /// nothing reads: a misspelt option, an option of another subcommand,
    /// a stray positional. Each must be refused naming that token.
    #[test]
    fn unread_tokens_are_refused_by_name() {
        for (sub, line) in [
            ("search", "search --query q.fa --db d.fa"),
            ("hetero", "hetero --query q.fa --db d.fa --dynamic"),
            ("serve", "serve --db d.swdb --socket s.sock"),
            ("submit", "submit --socket s.sock --query q.fa"),
            ("stats", "stats --db d.fa"),
        ] {
            parse(&argv(line)).unwrap_or_else(|e| panic!("'{line}' must parse: {e}"));
            for (extra, token) in [
                ("--thread 4", "--thread"),
                ("--topp 3", "--topp"),
                ("--bogus", "--bogus"),
                ("--frobnicate-ms 5", "--frobnicate-ms"),
                ("junk", "junk"),
            ] {
                let e = parse(&argv(&format!("{line} {extra}"))).unwrap_err();
                assert!(
                    e.0.contains(&format!("'{token}'")) && e.0.contains(&format!("'{sub}'")),
                    "{line} {extra}: {e}"
                );
            }
        }
        // Options that exist, but not for this subcommand.
        for (line, token) in [
            (
                "search --query q --db d --resume --checkpoint x",
                "--resume",
            ),
            ("search --query q --db d --json", "--json"),
            ("hetero --query q --db d --socket s.sock", "--socket"),
            ("serve --db d --socket s --query q.fa", "--query"),
            ("submit --socket s --health --db d.fa", "--db"),
            ("stats --db d.fa --threads 2", "--threads"),
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.0.contains(&format!("option '{token}'")), "{line}: {e}");
        }
        // A second occurrence is never read either, and says so.
        let e = parse(&argv("search --query q --db d --top 3 --top 5")).unwrap_err();
        assert!(e.0.contains("'--top' given more than once"), "{e}");
        // An option at the end of the line without its value is not a
        // silent default.
        let e = parse(&argv("search --query q --db d --top")).unwrap_err();
        assert!(e.0.contains("--top needs a value"), "{e}");
    }

    #[test]
    fn negative_values_are_values_and_conditional_flags_always_read() {
        match parse(&argv("search --query q --db d --dna --mismatch -4")).unwrap() {
            Command::Search { opts, .. } => assert_eq!(opts.mismatch, -4),
            other => panic!("{other:?}"),
        }
        match parse(&argv("simulate --device phi --no-blocking")).unwrap() {
            Command::Simulate { variant, .. } => {
                assert!(!variant.blocking);
                assert_eq!(variant.vec, KernelVariant::best().vec);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_static_defaults() {
        let c = parse(&argv("hetero --query q.fa --db d.fa")).unwrap();
        match c {
            Command::Hetero {
                frac,
                dynamic,
                accel_threads,
                min_chunk,
                opts,
                ..
            } => {
                assert!((frac - 0.55).abs() < 1e-12);
                assert!(!dynamic);
                assert_eq!(accel_threads, opts.threads);
                assert_eq!(min_chunk, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_dynamic_options() {
        let c = parse(&argv(
            "hetero --query q.fa --db d.fa --dynamic --threads 4 --accel-threads 8 \
             --min-chunk 2 --frac 0.3",
        ))
        .unwrap();
        match c {
            Command::Hetero {
                frac,
                dynamic,
                accel_threads,
                min_chunk,
                opts,
                ..
            } => {
                assert!((frac - 0.3).abs() < 1e-12);
                assert!(dynamic);
                assert_eq!(opts.threads, 4);
                assert_eq!(accel_threads, 8);
                assert_eq!(min_chunk, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_rejects_zero_min_chunk() {
        assert!(parse(&argv("hetero --query q --db d --min-chunk 0")).is_err());
    }

    #[test]
    fn hetero_fault_defaults_off() {
        let c = parse(&argv("hetero --query q --db d --dynamic")).unwrap();
        match c {
            Command::Hetero {
                inject_fault,
                accel_timeout_ms,
                failure_budget,
                ..
            } => {
                assert_eq!(inject_fault, None);
                assert_eq!(accel_timeout_ms, None);
                assert_eq!(failure_budget, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_parses_fault_drill_options() {
        let c = parse(&argv(
            "hetero --query q --db d --dynamic --inject-fault kill-pool@2 \
             --accel-timeout-ms 50 --failure-budget 1",
        ))
        .unwrap();
        match c {
            Command::Hetero {
                inject_fault,
                accel_timeout_ms,
                failure_budget,
                ..
            } => {
                assert_eq!(
                    inject_fault,
                    Some(FaultSpec {
                        device: DEVICE_ACCEL,
                        chunk: 2,
                        kind: FaultKind::KillPool,
                    })
                );
                assert_eq!(accel_timeout_ms, Some(50));
                assert_eq!(failure_budget, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_trace_flags() {
        use sw_trace::TraceLevel;
        // No trace flags: tracing stays off.
        match parse(&argv("hetero --query q --db d --dynamic")).unwrap() {
            Command::Hetero {
                trace_out,
                metrics_out,
                trace_level,
                ..
            } => {
                assert_eq!(trace_out, None);
                assert_eq!(metrics_out, None);
                assert_eq!(trace_level, TraceLevel::Off);
            }
            other => panic!("{other:?}"),
        }
        // An output path implies full tracing.
        match parse(&argv(
            "hetero --query q --db d --dynamic --trace-out t.json --metrics-out m.prom",
        ))
        .unwrap()
        {
            Command::Hetero {
                trace_out,
                metrics_out,
                trace_level,
                ..
            } => {
                assert_eq!(trace_out.as_deref(), Some("t.json"));
                assert_eq!(metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(trace_level, TraceLevel::Full);
            }
            other => panic!("{other:?}"),
        }
        // Explicit level wins over the implication.
        match parse(&argv(
            "hetero --query q --db d --dynamic --trace-out t.jsonl --trace-level lite",
        ))
        .unwrap()
        {
            Command::Hetero { trace_level, .. } => assert_eq!(trace_level, TraceLevel::Lite),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("hetero --query q --db d --trace-level verbose")).is_err());
    }

    #[test]
    fn hetero_durability_flags() {
        // Defaults: no checkpointing.
        match parse(&argv("hetero --query q --db d --dynamic")).unwrap() {
            Command::Hetero {
                checkpoint,
                checkpoint_interval,
                resume,
                kill_after_chunks,
                ..
            } => {
                assert_eq!(checkpoint, None);
                assert_eq!(checkpoint_interval, 8);
                assert!(!resume);
                assert_eq!(kill_after_chunks, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint s.ckpt \
             --checkpoint-interval-chunks 3 --resume --kill-after-chunks 5",
        ))
        .unwrap()
        {
            Command::Hetero {
                checkpoint,
                checkpoint_interval,
                resume,
                kill_after_chunks,
                ..
            } => {
                assert_eq!(checkpoint.as_deref(), Some("s.ckpt"));
                assert_eq!(checkpoint_interval, 3);
                assert!(resume);
                assert_eq!(kill_after_chunks, Some(5));
            }
            other => panic!("{other:?}"),
        }
        // --resume without a checkpoint path has nothing to resume from.
        let e = parse(&argv("hetero --query q --db d --dynamic --resume")).unwrap_err();
        assert!(e.0.contains("--checkpoint"), "{e}");
        assert!(parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint c --checkpoint-interval-chunks 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint c --kill-after-chunks 0"
        ))
        .is_err());
    }

    #[test]
    fn hetero_checkpoint_dir_flag() {
        match parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint-dir ckpts --resume",
        ))
        .unwrap()
        {
            Command::Hetero {
                checkpoint,
                checkpoint_dir,
                resume,
                ..
            } => {
                assert_eq!(checkpoint, None);
                assert_eq!(checkpoint_dir.as_deref(), Some("ckpts"));
                assert!(resume);
            }
            other => panic!("{other:?}"),
        }
        // A path and a dir at once is ambiguous.
        let e = parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint c --checkpoint-dir ckpts",
        ))
        .unwrap_err();
        assert!(e.0.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn serve_parses_with_defaults() {
        match parse(&argv("serve --db d.swdb --socket /tmp/sw.sock")).unwrap() {
            Command::Serve {
                db,
                socket,
                max_concurrent,
                tenant_quota,
                batch_window_ms,
                checkpoint_dir,
                trace_dir,
                registry_out,
                log_level,
                log_file,
                slow_query_ms,
                metrics_file,
                metrics_interval_ms,
                ..
            } => {
                assert_eq!(db, "d.swdb");
                assert_eq!(socket, "/tmp/sw.sock");
                assert_eq!(max_concurrent, 2);
                assert_eq!(tenant_quota, 4);
                assert_eq!(batch_window_ms, 3);
                assert_eq!(checkpoint_dir, None);
                assert_eq!(trace_dir, None);
                assert_eq!(registry_out, None);
                assert_eq!(log_level, sw_serve::LogLevel::Info);
                assert_eq!(log_file, None);
                assert_eq!(slow_query_ms, None);
                assert_eq!(metrics_file, None);
                assert_eq!(metrics_interval_ms, 1000);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "serve --db d.swdb --socket s.sock --max-concurrent 3 --tenant-quota 1 \
             --batch-window-ms 50 --checkpoint-dir ck --trace-dir tr --registry-out reg.jsonl \
             --log-level debug --log-file ops.jsonl --slow-query-ms 250 \
             --metrics-file scrape.prom --metrics-interval-ms 200",
        ))
        .unwrap()
        {
            Command::Serve {
                max_concurrent,
                tenant_quota,
                batch_window_ms,
                checkpoint_dir,
                trace_dir,
                registry_out,
                log_level,
                log_file,
                slow_query_ms,
                metrics_file,
                metrics_interval_ms,
                ..
            } => {
                assert_eq!(max_concurrent, 3);
                assert_eq!(tenant_quota, 1);
                assert_eq!(batch_window_ms, 50);
                assert_eq!(checkpoint_dir.as_deref(), Some("ck"));
                assert_eq!(trace_dir.as_deref(), Some("tr"));
                assert_eq!(registry_out.as_deref(), Some("reg.jsonl"));
                assert_eq!(log_level, sw_serve::LogLevel::Debug);
                assert_eq!(log_file.as_deref(), Some("ops.jsonl"));
                assert_eq!(slow_query_ms, Some(250));
                assert_eq!(metrics_file.as_deref(), Some("scrape.prom"));
                assert_eq!(metrics_interval_ms, 200);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --socket s.sock")).is_err(), "needs --db");
        assert!(parse(&argv("serve --db d")).is_err(), "needs --socket");
        assert!(parse(&argv("serve --db d --socket s --max-concurrent 0")).is_err());
        assert!(parse(&argv("serve --db d --socket s --tenant-quota 0")).is_err());
        assert!(parse(&argv("serve --db d --socket s --log-level loud")).is_err());
        assert!(parse(&argv("serve --db d --socket s --slow-query-ms x")).is_err());
    }

    #[test]
    fn serve_parses_shard_worker_and_request_timeout() {
        match parse(&argv(
            "serve --db shard-0.swshard --socket s.sock --shard-worker --request-timeout-ms 500",
        ))
        .unwrap()
        {
            Command::Serve {
                db,
                shard_worker,
                request_timeout_ms,
                ..
            } => {
                assert_eq!(db, "shard-0.swshard");
                assert!(shard_worker);
                assert_eq!(request_timeout_ms, 500);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("serve --db d.swdb --socket s.sock")).unwrap() {
            Command::Serve {
                shard_worker,
                request_timeout_ms,
                ..
            } => {
                assert!(!shard_worker);
                assert_eq!(request_timeout_ms, 10_000);
            }
            other => panic!("{other:?}"),
        }
        // A shard worker gathers with no window: the option is refused by
        // name, in either order, not ignored.
        for line in [
            "serve --db s.swshard --socket s.sock --shard-worker --batch-window-ms 5",
            "serve --batch-window-ms 0 --db s.swshard --shard-worker --socket s.sock",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(
                e.0.contains("--batch-window-ms") && e.0.contains("--shard-worker"),
                "{line}: {}",
                e.0
            );
        }
    }

    #[test]
    fn shard_prepare_and_sharded_search_parse() {
        match parse(&argv("shard-prepare --db d.fasta --out shards/ --shards 4")).unwrap() {
            Command::ShardPrepare {
                db,
                out,
                shards,
                replicas,
                endpoints,
            } => {
                assert_eq!(db, "d.fasta");
                assert_eq!(out, "shards/");
                assert_eq!(shards, 4);
                assert_eq!(replicas, 1);
                assert_eq!(endpoints, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "shard-prepare --db d --out o --shards 2 --replicas 2 \
             --endpoints tcp://a:1,tcp://b:1",
        ))
        .unwrap()
        {
            Command::ShardPrepare {
                replicas,
                endpoints,
                ..
            } => {
                assert_eq!(replicas, 2);
                assert_eq!(endpoints.as_deref(), Some("tcp://a:1,tcp://b:1"));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&argv("shard-prepare --db d --out o")).is_err(),
            "needs --shards"
        );
        assert!(parse(&argv("shard-prepare --db d --out o --shards 0")).is_err());
        assert!(parse(&argv(
            "shard-prepare --db d --out o --shards 2 --replicas 0"
        ))
        .is_err());

        match parse(&argv(
            "search --query q.fa --shards shards/shards.manifest --top 7 --threads 2 --json",
        ))
        .unwrap()
        {
            Command::SearchShards {
                query,
                manifest,
                shard_dir,
                top,
                drill,
                net_fault,
                net_fault_seed,
                placement,
                coord_journal,
                resume_coord,
                metrics_out,
                json,
                opts,
            } => {
                assert_eq!(query, "q.fa");
                assert_eq!(manifest, "shards/shards.manifest");
                assert_eq!(shard_dir, None);
                assert_eq!(top, 7);
                assert_eq!(drill, None);
                assert_eq!(net_fault, None);
                assert_eq!(net_fault_seed, None);
                assert_eq!(placement, None);
                assert_eq!(coord_journal, None);
                assert!(!resume_coord);
                assert_eq!(metrics_out, None);
                assert!(json);
                assert_eq!(opts.threads, 2);
            }
            other => panic!("{other:?}"),
        }
        // Without --shards the search arm still demands --db.
        assert!(parse(&argv("search --query q.fa")).is_err());
    }

    #[test]
    fn sharded_search_fabric_flags_parse() {
        match parse(&argv(
            "search --query q.fa --shards m --net-fault refuse@0,drop@1:2 \
             --placement p.plan --coord-journal j.bin --resume-coord \
             --metrics-out coord.prom",
        ))
        .unwrap()
        {
            Command::SearchShards {
                net_fault,
                placement,
                coord_journal,
                resume_coord,
                metrics_out,
                ..
            } => {
                assert_eq!(net_fault.as_deref(), Some("refuse@0,drop@1:2"));
                assert_eq!(placement.as_deref(), Some("p.plan"));
                assert_eq!(coord_journal.as_deref(), Some("j.bin"));
                assert!(resume_coord);
                assert_eq!(metrics_out.as_deref(), Some("coord.prom"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("search --query q.fa --shards m --net-fault-seed 9")).unwrap() {
            Command::SearchShards { net_fault_seed, .. } => {
                assert_eq!(net_fault_seed, Some(9));
            }
            other => panic!("{other:?}"),
        }
        // A malformed drill dies in the parser, before any worker boots.
        assert!(parse(&argv("search --query q --shards m --net-fault explode@0")).is_err());
        assert!(parse(&argv(
            "search --query q --shards m --net-fault refuse@0 --net-fault-seed 1"
        ))
        .is_err());
    }

    #[test]
    fn serve_listen_and_submit_retries_parse() {
        match parse(&argv("serve --db d.swdb --listen tcp://127.0.0.1:7701")).unwrap() {
            Command::Serve { socket, .. } => assert_eq!(socket, "tcp://127.0.0.1:7701"),
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&argv("serve --db d --socket s.sock --listen tcp://h:1")).is_err(),
            "--socket and --listen are mutually exclusive"
        );
        match parse(&argv(
            "submit --socket tcp://127.0.0.1:7701 --stats --connect-retries 4 \
             --connect-backoff-ms 10",
        ))
        .unwrap()
        {
            Command::Submit {
                socket,
                connect_retries,
                connect_backoff_ms,
                ..
            } => {
                assert_eq!(socket, "tcp://127.0.0.1:7701");
                assert_eq!(connect_retries, 4);
                assert_eq!(connect_backoff_ms, 10);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("submit --socket s.sock --stats")).unwrap() {
            Command::Submit {
                connect_retries,
                connect_backoff_ms,
                ..
            } => {
                assert_eq!(connect_retries, 0, "fail fast by default");
                assert_eq!(connect_backoff_ms, 25);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_needs_exactly_one_operation() {
        match parse(&argv(
            "submit --socket s.sock --query q.fa --tenant acme --drill delay@0:500 --top 5",
        ))
        .unwrap()
        {
            Command::Submit {
                socket,
                query,
                tenant,
                drill,
                top,
                ..
            } => {
                assert_eq!(socket, "s.sock");
                assert_eq!(query.as_deref(), Some("q.fa"));
                assert_eq!(tenant, "acme");
                assert_eq!(drill.as_deref(), Some("delay@0:500"));
                assert_eq!(top, 5);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("submit --socket s.sock --status 7")).unwrap() {
            Command::Submit { status, tenant, .. } => {
                assert_eq!(status, Some(7));
                assert_eq!(tenant, "anon");
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("submit --socket s.sock --cancel 3")).unwrap() {
            Command::Submit { cancel, .. } => assert_eq!(cancel, Some(3)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("submit --socket s.sock --stats")).unwrap(),
            Command::Submit { stats: true, .. }
        ));
        assert!(matches!(
            parse(&argv("submit --socket s.sock --shutdown")).unwrap(),
            Command::Submit { shutdown: true, .. }
        ));
        assert!(matches!(
            parse(&argv("submit --socket s.sock --metrics")).unwrap(),
            Command::Submit { metrics: true, .. }
        ));
        assert!(matches!(
            parse(&argv("submit --socket s.sock --health")).unwrap(),
            Command::Submit { health: true, .. }
        ));
        assert!(matches!(
            parse(&argv("submit --socket s.sock --stats --json")).unwrap(),
            Command::Submit {
                stats: true,
                json: true,
                ..
            }
        ));
        // Zero or two operations are both rejected.
        assert!(parse(&argv("submit --socket s.sock")).is_err());
        assert!(parse(&argv("submit --socket s.sock --query q --stats")).is_err());
        assert!(parse(&argv("submit --socket s.sock --metrics --health")).is_err());
        assert!(parse(&argv("submit --query q")).is_err(), "needs --socket");
    }

    #[test]
    fn quarantine_flag_parses() {
        match parse(&argv("search --query q --db d --quarantine")).unwrap() {
            Command::Search { opts, .. } => assert!(opts.quarantine),
            other => panic!("{other:?}"),
        }
        match parse(&argv("makedb --in a.fa --out b.swdb --quarantine")).unwrap() {
            Command::MakeDb { quarantine, .. } => assert!(quarantine),
            other => panic!("{other:?}"),
        }
        match parse(&argv("makedb --in a.fa --out b.swdb")).unwrap() {
            Command::MakeDb { quarantine, .. } => assert!(!quarantine),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_check_needs_at_least_one_file() {
        assert!(parse(&argv("trace-check")).is_err());
        let c = parse(&argv("trace-check --trace t.jsonl --metrics m.prom")).unwrap();
        assert_eq!(
            c,
            Command::TraceCheck {
                trace: Some("t.jsonl".into()),
                metrics: Some("m.prom".into()),
            }
        );
    }

    #[test]
    fn fault_spec_forms_parse() {
        assert_eq!(parse_fault_spec("kill@0").unwrap().kind, FaultKind::Kill);
        assert_eq!(
            parse_fault_spec("wedge@7").unwrap(),
            FaultSpec {
                device: DEVICE_ACCEL,
                chunk: 7,
                kind: FaultKind::Wedge,
            }
        );
        assert_eq!(
            parse_fault_spec("delay@3:250").unwrap().kind,
            FaultKind::Delay(Duration::from_millis(250))
        );
        assert_eq!(
            parse_fault_spec("KILL-POOL@1").unwrap().kind,
            FaultKind::KillPool
        );
    }

    #[test]
    fn fault_spec_rejects_malformed() {
        for bad in [
            "kill", "kill@", "kill@x", "delay@3", "delay@3:", "pause@1", "@2",
        ] {
            assert!(parse_fault_spec(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn selftest_lanes_validated() {
        assert!(parse(&argv("selftest --lanes 5")).is_err());
        let c = parse(&argv("selftest --lanes 32 --scale 2")).unwrap();
        assert_eq!(
            c,
            Command::SelfTest {
                lanes: 32,
                scale: 2
            }
        );
    }
}
