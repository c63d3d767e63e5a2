//! Hand-rolled argument parsing for `swsearch` (no external CLI crates —
//! the dependency budget is documented in DESIGN.md). Each subcommand
//! parses into one struct holding exactly the options its command reads,
//! so a flag the command would ignore is never read, and [`parse`]
//! refuses every token it did not read.

use std::fmt;
use sw_core::SearchConfig;
use sw_kernels::scalar::SwParams;
use sw_kernels::{KernelIsa, KernelVariant, ProfileMode, Vectorization};
use sw_sched::{FaultSpec, DEVICE_ACCEL};
use sw_seq::{Alphabet, GapPenalty, SubstMatrix};
use sw_serve::client::Request;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
swsearch — Smith-Waterman protein database search (Rucci et al., CLUSTER 2014 reproduction)

USAGE:
  swsearch search   --query <fasta> --db <fasta|swdb> [scoring and search options]
  swsearch search   --query <fasta> --shards <manifest> [--top <k>] [--threads <n>]
                    [--json] [shard options]
  swsearch makedb   --in <fasta> --out <swdb> [--quarantine]
  swsearch shard-prepare --db <fasta|swdb> --out <dir> --shards <n>
                    [--replicas <r>] [--endpoints <ep,ep,...>]
  swsearch gendb    --seqs <n> --out <fasta|swdb> [--seed <u64>] [--mean-len <f>]
                    [--max-len <n>]
  swsearch stats    --db <fasta|swdb>
  swsearch selftest [--lanes <4|8|16|32>] [--scale <n>]
  swsearch simulate --device <xeon|phi|hetero> [--threads <n>] [--query-len <m>]
                    [--frac <0..1>] [--variant <v>] [--no-blocking] [--db-scale <0..1>]
  swsearch align    --query <fasta> --subject <fasta> [scoring options]
  swsearch bench    [--seqs <n>] [--query-len <m>] [--threads <t>] [--lanes <l>]
  swsearch hetero   --query <fasta> --db <fasta|swdb> [--frac <0..1>]
                    [scoring and search options]
                    [--dynamic [hetero options] [durability options]]
  swsearch serve    --db <swdb|fasta> (--socket <path> | --listen <endpoint>)
                    [--accel-threads <n>] [--max-concurrent <n>]
                    [--tenant-quota <n>] [--checkpoint-dir <dir>]
                    [--trace-dir <dir>] [--registry-out <path>]
                    [--log-level <l>] [--log-file <path>]
                    [--slow-query-ms <ms>] [--metrics-file <path>]
                    [--metrics-interval-ms <ms>] [--request-timeout-ms <ms>]
                    [--shard-worker] [scoring and search options]
  swsearch submit   --socket <endpoint> (--query <fasta> [--tenant <name>]
                    [--top <k>] [--drill <spec>] | --status <job> |
                    --cancel <job> | --stats | --metrics | --health |
                    --shutdown) [--json]
                    [--connect-retries <n>] [--connect-backoff-ms <ms>]
  swsearch trace-check [--trace <jsonl>] [--metrics <prom>]

SCORING OPTIONS (search, hetero, serve, align):
  --matrix <name>     BLOSUM45/50/62/80 or PAM250 (default BLOSUM62)
  --open <q>          gap open penalty (default 10)
  --extend <r>        gap extension penalty (default 2)
  --dna               nucleotide mode (ACGTN; default scoring +5/-4, N=-2)
  --match <s>         DNA match score (with --dna; default 5)
  --mismatch <s>      DNA mismatch score (with --dna; default -4)

SEARCH OPTIONS (search, hetero, serve):
  --threads <n>       worker threads (default 1)
  --lanes <n>         vector lanes: 4, 8, 16 or 32 (default 16)
  --variant <v>       no-vec-qp | no-vec-sp | simd-qp | simd-sp |
                      intrinsic-qp | intrinsic-sp  (default intrinsic-sp)
  --no-blocking       disable cache blocking
  --kernel-isa <i>    auto | portable | sse2 | avx2 — instruction set for
                      the intrinsic kernels (default auto: best the host
                      supports; results are identical on every choice)
  --top <k>           hits to print (default 10; also submit --query)
  --quarantine        skip malformed FASTA records instead of aborting;
                      a per-issue summary is printed (also on makedb)
  --align             (search) render the alignment of each reported hit
  --tabular           (search) BLAST outfmt-6 style tabular output (12 columns)
  --both-strands      (search, with --dna) also search the reverse complement

HETERO OPTIONS (with --dynamic):
  --dynamic           dual-pool dynamic scheduler: both device pools pull
                      from one shared queue; --frac only seeds the
                      feedback estimator. Prints per-device metrics.
  --accel-threads <n> accelerator-pool workers, also for serve (default:
                      same as --threads; 0 = CPU-only)
  --inject-fault <s>  fault-injection drill against the accel
                      pool: kill@N | delay@N:MS | wedge@N | kill-pool@N
                      (N = 0-based chunk index). Hits stay exact; the run
                      recovers on the surviving pool.
  --accel-timeout-ms <n>  reclaim a silent accel chunk lease after n ms
                      (default: never; required for wedge recovery)
  --failure-budget <n> failures before a pool is retired (default 3)
  --trace-out <path>  write the run's event timeline: a .jsonl
                      path gets one event per line; any other extension
                      gets Chrome trace-event JSON (open in Perfetto)
  --metrics-out <path> write a Prometheus text snapshot of the
                      run's counters, histograms and GCUPS time series
                      (either output turns full tracing on; without one
                      nothing is traced)

DURABILITY OPTIONS (with --dynamic):
  --checkpoint-dir <dir>
                      persist search progress in this directory, in a
                      file named from the search fingerprint (database
                      digest, query digest, lane packing), so any number
                      of concurrent searches can share it: an append-only
                      log of CRC32-framed commits, one per committed chunk
                      (a crash mid-append loses only that chunk). SIGINT
                      or SIGTERM drains the run gracefully (workers finish
                      their in-flight chunks, a final checkpoint is
                      written) and prints how to resume. Deleted when the
                      search completes.
  --resume            (with a checkpoint) load the checkpoint if it exists
                      and skip its completed batches. The checkpoint is
                      verified against the database content digest, query
                      digest, lane count and batch count first; a mismatch
                      is a hard error. The final hit list is byte-identical
                      to an uninterrupted run.
  --kill-after-chunks <n>
                      (with a checkpoint) crash drill: abort the whole
                      process (as SIGKILL would) after n chunks have been
                      committed — used by the crash-resume test harness

SERVE OPTIONS:
  --socket <path>     Unix socket the daemon listens on (serve) or the
                      endpoint the client connects to (submit; a bare
                      path, unix://<path> or tcp://host:port)
  --listen <endpoint> (serve) listen on an explicit endpoint instead:
                      tcp://host:port binds a TCP listener (multi-node
                      shard workers), unix://<path> or a bare path a
                      Unix socket. Mutually exclusive with --socket
  --max-concurrent <n> queries batched into one shared dual-pool region:
                      an idle daemon runs a submit at once, and the
                      submits that arrive while a region runs share the
                      next one, up to n (default 2)
  --tenant-quota <n>  max queued+running jobs per tenant; a submit over
                      the quota is rejected immediately (default 4)
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
  --drill <spec>      (submit --query) per-job fault drill forwarded to
                      the daemon, e.g. delay@0:1500 (the region's first
                      chunk, on either pool, sleeps 1500 ms) — test
                      hook, hits stay exact
  --tenant <name>     (submit --query) tenant the job is accounted
                      against (default 'anon')
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
  --threads <n>       (search --shards) worker threads of each shard
                      worker it spawns — the one option forwarded; the
                      workers score and search with their defaults
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
  --json              (search --shards) print the merged hits as raw wire
                      JSON lines instead of the report

TRACE-CHECK OPTIONS:
  --trace <path>      validate a JSONL event log: schema header, per-track
                      monotonic timestamps, balanced begin/end spans
  --metrics <path>    validate a Prometheus text snapshot
";

/// A parsed command: each variant carries the options its command reads.
#[derive(Debug)]
pub enum Command {
    /// Database search (Algorithm 1).
    Search(Search),
    /// Sharded search: spawn/reuse one worker daemon per shard, fan the
    /// query out, merge byte-identically to the unsharded run.
    SearchShards(ShardedSearch),
    /// Split a database into digest-identified snapshot shards.
    ShardPrepare(ShardPrepare),
    /// Preprocess a FASTA database into a binary snapshot.
    MakeDb(MakeDb),
    /// Generate a synthetic Swiss-Prot-like database.
    GenDb(GenDb),
    /// Print database statistics.
    Stats {
        /// Database path.
        db: String,
    },
    /// Cross-variant correctness self-test.
    SelfTest(SelfTest),
    /// Simulated performance of the paper's devices.
    Simulate(Simulate),
    /// Pairwise alignment with traceback.
    Align(Align),
    /// Heterogeneous search (Algorithm 2): static split, or the dynamic
    /// dual-pool scheduler with `--dynamic`.
    Hetero(Hetero),
    /// Long-lived search daemon.
    Serve(Serve),
    /// Client for a running `serve` daemon.
    Submit(Submit),
    /// Validate exported trace artifacts (CI gate for `--trace-out` /
    /// `--metrics-out` files).
    TraceCheck(TraceCheck),
    /// Host throughput micro-benchmark.
    Bench(Bench),
    /// Print usage.
    Help,
}

/// The scoring flags: what a search or an alignment finds.
#[derive(Debug, PartialEq)]
pub struct Scoring {
    /// Substitution matrix name (protein mode).
    pub matrix: String,
    /// Gap open penalty.
    pub open: i32,
    /// Gap extension penalty.
    pub extend: i32,
    /// Nucleotide mode: DNA alphabet + match/mismatch scoring.
    pub dna: bool,
    /// DNA match score (nucleotide mode only).
    pub match_score: i32,
    /// DNA mismatch score (nucleotide mode only).
    pub mismatch: i32,
}

impl Scoring {
    fn parse(a: &mut Args<'_>) -> Result<Self, ParseError> {
        Ok(Scoring {
            matrix: a
                .opt_value("--matrix")?
                .unwrap_or_else(|| "BLOSUM62".into()),
            open: a.parse_num("--open", 10)?,
            extend: a.parse_num("--extend", 2)?,
            dna: a.has_flag("--dna"),
            match_score: a.parse_num("--match", 5)?,
            mismatch: a.parse_num("--mismatch", -4)?,
        })
    }

    /// The scoring scheme: `dna_matrix(match, mismatch, -2)` in
    /// nucleotide mode, else the named matrix; affine gaps either way.
    pub fn params(&self) -> Result<SwParams, String> {
        let matrix = if self.dna {
            sw_seq::dna::dna_matrix(self.match_score, self.mismatch, -2)
        } else {
            SubstMatrix::by_name(&self.matrix)
                .ok_or_else(|| format!("unknown matrix '{}'", self.matrix))?
        };
        Ok(SwParams::new(
            matrix,
            GapPenalty::new(self.open, self.extend),
        ))
    }

    /// The residue alphabet sequences are read in and rendered with.
    pub fn alphabet(&self) -> Alphabet {
        if self.dna {
            Alphabet::dna()
        } else {
            Alphabet::protein()
        }
    }
}

/// The engine flags: how a search runs, never what it finds.
#[derive(Debug, PartialEq)]
pub struct Engine {
    /// Worker threads.
    pub threads: usize,
    /// Vector lanes.
    pub lanes: usize,
    /// Kernel variant.
    pub variant: KernelVariant,
    /// Forced kernel ISA (`--kernel-isa`); `None` = the startup
    /// resolution. Availability is checked by [`Engine::isa`].
    pub kernel_isa: Option<KernelIsa>,
}

impl Engine {
    fn parse(a: &mut Args<'_>) -> Result<Self, ParseError> {
        let kernel_isa = match a.opt_value("--kernel-isa")? {
            None => None,
            Some(v) if v.eq_ignore_ascii_case("auto") => None,
            Some(v) => Some(KernelIsa::from_name(&v).ok_or_else(|| {
                err(format!(
                    "--kernel-isa must be auto, portable, sse2 or avx2 (got '{v}')"
                ))
            })?),
        };
        Ok(Engine {
            threads: a.parse_num("--threads", 1)?,
            lanes: Engine::lanes(a, 16)?,
            variant: Engine::variant(a)?,
            kernel_isa,
        })
    }

    /// `--lanes`: one of the widths the kernels are built for.
    fn lanes(a: &mut Args<'_>, default: usize) -> Result<usize, ParseError> {
        let lanes = a.parse_num("--lanes", default)?;
        if !matches!(lanes, 4 | 8 | 16 | 32) {
            return Err(err(format!("--lanes must be 4, 8, 16 or 32 (got {lanes})")));
        }
        Ok(lanes)
    }

    /// `--variant` and `--no-blocking`.
    fn variant(a: &mut Args<'_>) -> Result<KernelVariant, ParseError> {
        let blocking = !a.has_flag("--no-blocking");
        match a.opt_value("--variant")? {
            Some(v) => parse_variant(&v, blocking),
            None => Ok(KernelVariant {
                blocking,
                ..KernelVariant::best()
            }),
        }
    }

    /// Resolve `--kernel-isa` against the host: auto uses
    /// [`startup_kernel_isa`], a forced ISA must actually be supported
    /// here.
    pub fn isa(&self) -> Result<KernelIsa, String> {
        match self.kernel_isa {
            None => Ok(startup_kernel_isa()),
            Some(isa) if isa.is_available() => Ok(isa),
            Some(isa) => Err(format!(
                "--kernel-isa {isa}: this host does not support {isa} \
                 (detected: {})",
                KernelIsa::detect()
            )),
        }
    }

    /// The one shape every CLI search runs under: the library's best-host
    /// defaults (dynamic scheduling) over at least one thread, with this
    /// variant and the resolved `isa`.
    pub fn search_config(&self, isa: KernelIsa) -> SearchConfig {
        SearchConfig::best(self.threads.max(1))
            .with_variant(self.variant)
            .with_isa(isa)
    }
}

/// The kernel ISA the process starts with: `SW_KERNEL_ISA` read exactly
/// once, here, at first use — the library layers never touch the
/// environment, so a daemon's concurrent requests all see one frozen
/// value (plus whatever explicit `--kernel-isa` a request carries). An
/// unknown or unsupported override falls back to hardware detection
/// rather than erroring: the variable is a preference, `--kernel-isa`
/// is the contract.
pub fn startup_kernel_isa() -> KernelIsa {
    static STARTUP_ISA: std::sync::OnceLock<KernelIsa> = std::sync::OnceLock::new();
    *STARTUP_ISA.get_or_init(|| match std::env::var("SW_KERNEL_ISA") {
        Ok(name) => match KernelIsa::from_name(&name) {
            Some(isa) if isa.is_available() => isa,
            _ => {
                eprintln!(
                    "# WARNING: SW_KERNEL_ISA={name} is unknown or unsupported here; \
                     using detected ISA"
                );
                KernelIsa::detect()
            }
        },
        Err(_) => KernelIsa::detect(),
    })
}

/// `search`: one database, every query in the query file.
#[derive(Debug, PartialEq)]
pub struct Search {
    /// Query FASTA path.
    pub query: String,
    /// Database path (FASTA or `.swdb` snapshot).
    pub db: String,
    /// Skip malformed FASTA records (with a printed per-issue summary)
    /// instead of aborting on the first one.
    pub quarantine: bool,
    /// Scoring flags.
    pub scoring: Scoring,
    /// Engine flags.
    pub engine: Engine,
    /// Hits to print per query.
    pub top: usize,
    /// Render alignments of reported hits.
    pub align: bool,
    /// Output format: plain report or BLAST-style 12-column tabular.
    pub tabular: bool,
    /// Also search the reverse-complement strand (nucleotide mode only).
    pub both_strands: bool,
}

/// `search --shards`: the coordinator. Scoring comes from the workers;
/// only their thread count is forwarded.
#[derive(Debug, PartialEq)]
pub struct ShardedSearch {
    /// Query FASTA path.
    pub query: String,
    /// `shards.manifest` written by `shard-prepare`.
    pub manifest: String,
    /// Sockets, worker logs and checkpoints live here (defaults to
    /// the manifest's directory).
    pub shard_dir: Option<String>,
    /// Hits to keep after the merge.
    pub top: usize,
    /// Worker threads of each spawned shard daemon.
    pub threads: usize,
    /// Fault drill forwarded to every shard worker.
    pub drill: Option<String>,
    /// Coordinator-side network fault drill (`refuse@S`, …).
    pub net_fault: Option<String>,
    /// Seeded random network fault plan.
    pub net_fault_seed: Option<u64>,
    /// Placement plan path (shard → replica endpoints).
    pub placement: Option<String>,
    /// Coordinator journal path override.
    pub coord_journal: Option<String>,
    /// Resume from the journal, skipping committed shards.
    pub resume_coord: bool,
    /// Write the coordinator's Prometheus counters here.
    pub metrics_out: Option<String>,
    /// Print raw wire JSON hit lines instead of the report.
    pub json: bool,
}

/// `shard-prepare`.
#[derive(Debug, PartialEq)]
pub struct ShardPrepare {
    /// Input database (FASTA or `.swdb` snapshot).
    pub db: String,
    /// Output directory for shards, sorted parent and manifest.
    pub out: String,
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard; > 1 (or an endpoint pool) also writes a
    /// `placement.plan`.
    pub replicas: usize,
    /// Comma-separated endpoint pool for the placement plan.
    pub endpoints: Option<String>,
}

/// `makedb`.
#[derive(Debug, PartialEq)]
pub struct MakeDb {
    /// Input FASTA.
    pub input: String,
    /// Output snapshot path.
    pub output: String,
    /// Skip malformed records instead of aborting.
    pub quarantine: bool,
}

/// `gendb`.
#[derive(Debug, PartialEq)]
pub struct GenDb {
    /// Sequence count.
    pub seqs: u32,
    /// Output path (`.swdb` → snapshot, else FASTA).
    pub output: String,
    /// RNG seed.
    pub seed: u64,
    /// Mean sequence length.
    pub mean_len: f64,
    /// Length of the longest sequence, which is pinned to it (default:
    /// Swiss-Prot's titin).
    pub max_len: u32,
}

/// `selftest`.
#[derive(Debug, PartialEq)]
pub struct SelfTest {
    /// Lane width.
    pub lanes: usize,
    /// Workload scale factor.
    pub scale: u32,
}

/// `simulate`.
#[derive(Debug, PartialEq)]
pub struct Simulate {
    /// `xeon`, `phi` or `hetero`.
    pub device: String,
    /// Threads (0 = device maximum).
    pub threads: u32,
    /// Query length.
    pub query_len: usize,
    /// Fraction of work offloaded (hetero only).
    pub frac: f64,
    /// Kernel variant.
    pub variant: KernelVariant,
    /// Database scale relative to Swiss-Prot (1.0 = 541 561 seqs).
    pub db_scale: f64,
}

/// `align`: one query against one subject, with traceback.
#[derive(Debug, PartialEq)]
pub struct Align {
    /// Query FASTA path (its first record).
    pub query: String,
    /// Subject FASTA path (its first record).
    pub subject: String,
    /// Scoring flags.
    pub scoring: Scoring,
}

/// `hetero`: the paper's static split, or the dual-pool scheduler.
#[derive(Debug, PartialEq)]
pub struct Hetero {
    /// Query FASTA path (its first record is searched).
    pub query: String,
    /// Database path.
    pub db: String,
    /// Skip malformed FASTA records instead of aborting.
    pub quarantine: bool,
    /// Scoring flags.
    pub scoring: Scoring,
    /// Engine flags (the CPU pool's, and the accelerator pool's but for
    /// its thread count).
    pub engine: Engine,
    /// Hits to print.
    pub top: usize,
    /// Fraction of DP cells sent to the accelerator share (seed of
    /// the feedback estimator under `--dynamic`).
    pub frac: f64,
    /// `--dynamic` and the flags only the dual-pool scheduler reads;
    /// `None` runs the fixed prefix/suffix split.
    pub dynamic: Option<Dynamic>,
}

/// `hetero --dynamic`.
#[derive(Debug, PartialEq)]
pub struct Dynamic {
    /// Accelerator-pool worker threads (0 = CPU-only).
    pub accel_threads: usize,
    /// Fault to inject into the accelerator pool: exercises the
    /// lease/requeue recovery path end to end.
    pub inject_fault: Option<FaultSpec>,
    /// Reclaim a silent accelerator chunk lease after this many
    /// milliseconds (`None` = never).
    pub accel_timeout_ms: Option<u64>,
    /// Failures a pool tolerates before it is retired.
    pub failure_budget: u32,
    /// Write the event timeline here: `.jsonl` → JSONL event log,
    /// anything else → Chrome trace-event JSON.
    pub trace_out: Option<String>,
    /// Write a Prometheus text snapshot of the run's metrics here.
    pub metrics_out: Option<String>,
    /// Checkpointing; `None` runs without.
    pub durable: Option<Durable>,
}

/// `hetero --dynamic` with `--checkpoint-dir`: SIGINT/SIGTERM then drain
/// gracefully instead of killing the run.
#[derive(Debug, PartialEq)]
pub struct Durable {
    /// The directory the checkpoint gets a fingerprint-derived name in.
    pub checkpoint_dir: String,
    /// Load the checkpoint (if present) and skip its batches.
    pub resume: bool,
    /// Crash drill: abort the process after this many committed
    /// chunks (simulates SIGKILL for the crash-resume harness).
    pub kill_after_chunks: Option<u64>,
}

impl Hetero {
    /// The `swsearch hetero` line that resumes this run from its
    /// checkpoint: every option the run was given — so the resumed search
    /// has the same fingerprint and prints the same report — but the
    /// `--inject-fault` and `--kill-after-chunks` drills, then
    /// `--resume`. `None` for a run without a checkpoint directory.
    pub fn resume_line(&self) -> Option<String> {
        let d = self.dynamic.as_ref()?;
        let durable = d.durable.as_ref()?;
        let mut words: Vec<String> = Vec::new();
        let mut opt = |flag: &str, value: Option<String>| {
            words.push(flag.to_string());
            words.extend(value.map(|v| shell_word(&v)));
        };
        opt("--query", Some(self.query.clone()));
        opt("--db", Some(self.db.clone()));
        if self.quarantine {
            opt("--quarantine", None);
        }
        let sc = &self.scoring;
        if sc.dna {
            opt("--dna", None);
            opt("--match", Some(sc.match_score.to_string()));
            opt("--mismatch", Some(sc.mismatch.to_string()));
        } else {
            opt("--matrix", Some(sc.matrix.clone()));
        }
        opt("--open", Some(sc.open.to_string()));
        opt("--extend", Some(sc.extend.to_string()));
        let e = &self.engine;
        opt("--threads", Some(e.threads.to_string()));
        opt("--lanes", Some(e.lanes.to_string()));
        let variant = KernelVariant {
            blocking: true,
            ..e.variant
        };
        opt("--variant", Some(variant.label().to_ascii_lowercase()));
        if !e.variant.blocking {
            opt("--no-blocking", None);
        }
        if let Some(isa) = e.kernel_isa {
            opt("--kernel-isa", Some(isa.to_string()));
        }
        opt("--top", Some(self.top.to_string()));
        opt("--frac", Some(self.frac.to_string()));
        opt("--dynamic", None);
        opt("--accel-threads", Some(d.accel_threads.to_string()));
        if let Some(ms) = d.accel_timeout_ms {
            opt("--accel-timeout-ms", Some(ms.to_string()));
        }
        opt("--failure-budget", Some(d.failure_budget.to_string()));
        for (flag, path) in [
            ("--trace-out", &d.trace_out),
            ("--metrics-out", &d.metrics_out),
        ] {
            if let Some(path) = path {
                opt(flag, Some(path.clone()));
            }
        }
        opt("--checkpoint-dir", Some(durable.checkpoint_dir.clone()));
        opt("--resume", None);
        Some(format!("swsearch hetero {}", words.join(" ")))
    }
}

/// `s` as one POSIX shell word: as it stands when it holds nothing a
/// shell would split or expand, else single-quoted.
fn shell_word(s: &str) -> String {
    let plain = |c: char| c.is_ascii_alphanumeric() || "_./:@%+=,-".contains(c);
    if !s.is_empty() && s.chars().all(plain) {
        s.to_string()
    } else {
        format!("'{}'", s.replace('\'', "'\\''"))
    }
}

impl Dynamic {
    fn parse(a: &mut Args<'_>, threads: usize) -> Result<Self, ParseError> {
        Ok(Dynamic {
            accel_threads: a.parse_num("--accel-threads", threads)?,
            // Drills always target the accelerator pool: the CPU pool is
            // the recovery path.
            inject_fault: a
                .opt_value("--inject-fault")?
                .map(|s| FaultSpec::parse(&s, DEVICE_ACCEL))
                .transpose()
                .map_err(|e| err(format!("bad --inject-fault {e}")))?,
            accel_timeout_ms: a.opt_num("--accel-timeout-ms")?,
            failure_budget: a.parse_num("--failure-budget", 3)?,
            trace_out: a.opt_value("--trace-out")?,
            metrics_out: a.opt_value("--metrics-out")?,
            durable: a.part("--checkpoint-dir", Durable::parse)?,
        })
    }
}

impl Durable {
    /// `None` without a checkpoint location.
    fn parse(a: &mut Args<'_>) -> Result<Option<Self>, ParseError> {
        let checkpoint_dir = a.opt_value("--checkpoint-dir")?;
        let resume = a.has_flag("--resume");
        let kill_after_chunks = a
            .opt_value("--kill-after-chunks")?
            .map(|v| {
                v.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(format!("bad value for --kill-after-chunks: '{v}'")))
            })
            .transpose()?;
        Ok(checkpoint_dir.map(|checkpoint_dir| Durable {
            checkpoint_dir,
            resume,
            kill_after_chunks,
        }))
    }
}

/// `serve`: load and verify the database once, then serve
/// line-delimited JSON requests.
#[derive(Debug)]
pub struct Serve {
    /// Database path (`.swdb` snapshot or FASTA; a `.swshard` with
    /// `shard_worker`).
    pub db: String,
    /// Skip malformed FASTA records instead of aborting.
    pub quarantine: bool,
    /// Scoring flags shared by every job.
    pub scoring: Scoring,
    /// Engine flags shared by every job.
    pub engine: Engine,
    /// Accelerator-pool worker threads per search (0 = CPU-only).
    pub accel_threads: usize,
    /// Treat `db` as a `.swshard` file and serve that shard.
    pub shard_worker: bool,
    /// The endpoint as given (`--socket` or `--listen`).
    pub socket: String,
    /// The daemon's knobs as parsed; the snapshot digest and shard role
    /// are filled in when the database is read.
    pub config: sw_serve::ServeConfig,
}

/// `submit`: one client operation.
#[derive(Debug, PartialEq)]
pub struct Submit {
    /// Endpoint of the daemon.
    pub socket: String,
    /// What to ask the daemon.
    pub op: SubmitOp,
    /// Print raw wire JSON lines instead of human-formatted text.
    pub json: bool,
    /// Extra connect attempts under jittered exponential backoff.
    pub connect_retries: u32,
    /// Base backoff for connect retries in ms.
    pub connect_backoff_ms: u64,
}

/// The one operation a `submit` line names.
#[derive(Debug, PartialEq)]
pub enum SubmitOp {
    /// `--query`: run a search; the FASTA is read when the command runs.
    Query {
        /// Query FASTA path.
        path: String,
        /// Tenant the job is accounted against.
        tenant: String,
        /// Hits to return.
        top: usize,
        /// Fault drill forwarded with the job (e.g. `delay@0:1500`).
        drill: Option<String>,
    },
    /// A control request (`--status`, `--cancel`, `--stats`,
    /// `--metrics`, `--health`, `--shutdown`); never a `Submit`.
    Control(Request),
}

/// `trace-check`.
#[derive(Debug, PartialEq)]
pub struct TraceCheck {
    /// JSONL event log to validate.
    pub trace: Option<String>,
    /// Prometheus text snapshot to validate.
    pub metrics: Option<String>,
}

/// `bench`.
#[derive(Debug, PartialEq)]
pub struct Bench {
    /// Database sequences to generate.
    pub seqs: u32,
    /// Query length.
    pub query_len: u32,
    /// Worker threads.
    pub threads: usize,
    /// Vector lanes.
    pub lanes: usize,
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
    /// The command as refusals name it: the subcommand, or a mode of it.
    name: &'a str,
}

impl<'a> Args<'a> {
    fn new(tokens: &'a [String]) -> Self {
        let mut used = vec![false; tokens.len()];
        used[0] = true;
        Args {
            tokens,
            used,
            name: &tokens[0],
        }
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

    /// An optional part of the line: `parse` reads its flags and returns
    /// `None` when what switches the part on (`gate`) is absent — and
    /// then the first flag it read is refused, since nothing would act
    /// on it.
    fn part<T>(
        &mut self,
        gate: &str,
        parse: impl FnOnce(&mut Self) -> Result<Option<T>, ParseError>,
    ) -> Result<Option<T>, ParseError> {
        let was = self.used.clone();
        let part = parse(self)?;
        match (0..was.len()).find(|&i| self.used[i] && !was[i]) {
            Some(i) if part.is_none() => Err(err(format!("{} requires {gate}", self.tokens[i]))),
            _ => Ok(part),
        }
    }

    /// Refuse the first token no helper read.
    fn finish(&self) -> Result<(), ParseError> {
        let Some(i) = self.used.iter().position(|u| !u) else {
            return Ok(());
        };
        let (tok, sub) = (&self.tokens[i], self.name);
        Err(err(if self.tokens[..i].contains(tok) {
            format!("'{tok}' given more than once for '{sub}'")
        } else if tok.starts_with("--") {
            format!("unknown option '{tok}' for '{sub}'")
        } else {
            format!("unexpected argument '{tok}' for '{sub}'")
        }))
    }
}

/// Parse argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return Ok(Command::Help);
    };
    let mut a = Args::new(argv);
    let cmd = match sub.as_str() {
        "-h" | "--help" | "help" => return Ok(Command::Help),
        "search" if a.has_flag("--shards") => {
            a.name = "search --shards";
            let net_fault = a.opt_value("--net-fault")?;
            if let Some(spec) = &net_fault {
                // Validate up front: a typo must not boot a fleet.
                sw_sched::NetFaultPlan::parse(spec).map_err(err)?;
            }
            let net_fault_seed = a.opt_num::<u64>("--net-fault-seed")?;
            if net_fault.is_some() && net_fault_seed.is_some() {
                return Err(err("pass --net-fault or --net-fault-seed, not both"));
            }
            Command::SearchShards(ShardedSearch {
                query: a.value_of("--query")?,
                manifest: a.value_of("--shards")?,
                shard_dir: a.opt_value("--shard-dir")?,
                top: a.parse_num("--top", 10)?,
                threads: a.parse_num("--threads", 1)?,
                drill: a.opt_value("--drill")?,
                net_fault,
                net_fault_seed,
                placement: a.opt_value("--placement")?,
                coord_journal: a.opt_value("--coord-journal")?,
                resume_coord: a.has_flag("--resume-coord"),
                metrics_out: a.opt_value("--metrics-out")?,
                json: a.has_flag("--json"),
            })
        }
        "search" => {
            let scoring = Scoring::parse(&mut a)?;
            let both_strands = a.has_flag("--both-strands");
            if both_strands && !scoring.dna {
                return Err(err("--both-strands requires --dna"));
            }
            Command::Search(Search {
                query: a.value_of("--query")?,
                db: a.value_of("--db")?,
                quarantine: a.has_flag("--quarantine"),
                scoring,
                engine: Engine::parse(&mut a)?,
                top: a.parse_num("--top", 10)?,
                align: a.has_flag("--align"),
                tabular: a.has_flag("--tabular"),
                both_strands,
            })
        }
        "shard-prepare" => {
            let shards: usize = a.parse_num("--shards", 0)?;
            if shards == 0 {
                return Err(err("--shards is required and must be positive"));
            }
            let replicas: usize = a.parse_num("--replicas", 1)?;
            if replicas == 0 {
                return Err(err("--replicas must be at least 1"));
            }
            Command::ShardPrepare(ShardPrepare {
                db: a.value_of("--db")?,
                out: a.value_of("--out")?,
                shards,
                replicas,
                endpoints: a.opt_value("--endpoints")?,
            })
        }
        "makedb" => Command::MakeDb(MakeDb {
            input: a.value_of("--in")?,
            output: a.value_of("--out")?,
            quarantine: a.has_flag("--quarantine"),
        }),
        "gendb" => {
            let seqs: u32 = a.parse_num("--seqs", 0)?;
            if seqs == 0 {
                return Err(err("--seqs is required and must be positive"));
            }
            let max_len: u32 =
                a.parse_num("--max-len", sw_seq::swissprot::SWISSPROT_2013_11_MAX_LEN)?;
            if max_len < sw_seq::gen::MIN_LEN {
                return Err(err(format!(
                    "--max-len must be at least {}",
                    sw_seq::gen::MIN_LEN
                )));
            }
            Command::GenDb(GenDb {
                seqs,
                output: a.value_of("--out")?,
                seed: a.parse_num("--seed", 42)?,
                mean_len: a.parse_num("--mean-len", 355.4)?,
                max_len,
            })
        }
        "stats" => Command::Stats {
            db: a.value_of("--db")?,
        },
        "selftest" => Command::SelfTest(SelfTest {
            lanes: Engine::lanes(&mut a, 8)?,
            scale: a.parse_num("--scale", 1)?,
        }),
        "simulate" => {
            let device = a.value_of("--device")?;
            if !matches!(device.as_str(), "xeon" | "phi" | "hetero") {
                return Err(err(format!(
                    "--device must be xeon, phi or hetero (got '{device}')"
                )));
            }
            let frac: f64 = a.parse_num("--frac", 0.55)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(err("--frac must be in [0, 1]"));
            }
            let db_scale: f64 = a.parse_num("--db-scale", 1.0)?;
            if !(db_scale > 0.0 && db_scale <= 1.0) {
                return Err(err("--db-scale must be in (0, 1]"));
            }
            Command::Simulate(Simulate {
                device,
                threads: a.parse_num("--threads", 0)?,
                query_len: a.parse_num("--query-len", 2000)?,
                frac,
                variant: Engine::variant(&mut a)?,
                db_scale,
            })
        }
        "hetero" => {
            let frac: f64 = a.parse_num("--frac", 0.55)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(err("--frac must be in [0, 1]"));
            }
            let engine = Engine::parse(&mut a)?;
            let dynamic = a.part("--dynamic", |a| {
                let on = a.has_flag("--dynamic");
                Ok(on.then_some(Dynamic::parse(a, engine.threads)?))
            })?;
            Command::Hetero(Hetero {
                query: a.value_of("--query")?,
                db: a.value_of("--db")?,
                quarantine: a.has_flag("--quarantine"),
                scoring: Scoring::parse(&mut a)?,
                engine,
                top: a.parse_num("--top", 10)?,
                frac,
                dynamic,
            })
        }
        "serve" => {
            let socket = match (a.opt_value("--socket")?, a.opt_value("--listen")?) {
                (Some(_), Some(_)) => return Err(err("pass --socket or --listen, not both")),
                (Some(s), None) | (None, Some(s)) => s,
                (None, None) => {
                    return Err(err("serve needs --socket <path> or --listen <endpoint>"))
                }
            };
            let listen =
                sw_serve::Endpoint::parse(&socket).map_err(|e| err(format!("--listen: {e}")))?;
            let mut config = sw_serve::ServeConfig::at(listen);
            let shard_worker = a.has_flag("--shard-worker");
            config.max_concurrent = a.parse_num("--max-concurrent", config.max_concurrent)?;
            if config.max_concurrent == 0 {
                return Err(err("--max-concurrent must be at least 1"));
            }
            config.tenant_quota = a.parse_num("--tenant-quota", config.tenant_quota)?;
            if config.tenant_quota == 0 {
                return Err(err("--tenant-quota must be at least 1"));
            }
            config.log_level = match a.opt_value("--log-level")? {
                None => sw_serve::LogLevel::Info,
                Some(v) => sw_serve::LogLevel::parse(&v)
                    .ok_or_else(|| err(format!("bad value for --log-level: '{v}'")))?,
            };
            config.default_top = a.parse_num("--top", config.default_top)?;
            config.checkpoint_dir = a.opt_value("--checkpoint-dir")?.map(Into::into);
            config.trace_dir = a.opt_value("--trace-dir")?.map(Into::into);
            config.registry_out = a.opt_value("--registry-out")?.map(Into::into);
            config.log_file = a.opt_value("--log-file")?.map(Into::into);
            config.slow_query_ms = a.opt_num("--slow-query-ms")?;
            config.metrics_file = a.opt_value("--metrics-file")?.map(Into::into);
            config.metrics_interval_ms =
                a.parse_num("--metrics-interval-ms", config.metrics_interval_ms)?;
            config.request_timeout_ms =
                a.parse_num("--request-timeout-ms", config.request_timeout_ms)?;
            let engine = Engine::parse(&mut a)?;
            Command::Serve(Serve {
                db: a.value_of("--db")?,
                quarantine: a.has_flag("--quarantine"),
                scoring: Scoring::parse(&mut a)?,
                accel_threads: a.parse_num("--accel-threads", engine.threads)?,
                engine,
                shard_worker,
                socket,
                config,
            })
        }
        "submit" => {
            let socket = a.value_of("--socket")?;
            let query = a.part("--query", |a| {
                let path = a.opt_value("--query")?;
                let tenant = a.opt_value("--tenant")?;
                let top = a.parse_num("--top", 10)?;
                let drill = a.opt_value("--drill")?;
                Ok(path.map(|path| SubmitOp::Query {
                    path,
                    tenant: tenant.unwrap_or_else(|| "anon".into()),
                    top,
                    drill,
                }))
            })?;
            let controls = [
                a.opt_num("--status")?.map(Request::Status),
                a.opt_num("--cancel")?.map(Request::Cancel),
                a.has_flag("--stats").then_some(Request::Stats),
                a.has_flag("--shutdown").then_some(Request::Shutdown),
                a.has_flag("--metrics").then_some(Request::Metrics),
                a.has_flag("--health").then_some(Request::Health),
            ];
            let mut ops = query
                .into_iter()
                .chain(controls.into_iter().flatten().map(SubmitOp::Control));
            let (Some(op), None) = (ops.next(), ops.next()) else {
                return Err(err(
                    "submit needs exactly one of --query, --status, --cancel, --stats, \
                     --shutdown, --metrics, --health",
                ));
            };
            Command::Submit(Submit {
                socket,
                op,
                json: a.has_flag("--json"),
                connect_retries: a.parse_num("--connect-retries", 0)?,
                connect_backoff_ms: a.parse_num("--connect-backoff-ms", 25)?,
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
            Command::TraceCheck(TraceCheck { trace, metrics })
        }
        "bench" => Command::Bench(Bench {
            seqs: a.parse_num("--seqs", 2000)?,
            query_len: a.parse_num("--query-len", 400)?,
            threads: a.parse_num("--threads", 1)?,
            lanes: Engine::lanes(&mut a, 16)?,
        }),
        "align" => Command::Align(Align {
            query: a.value_of("--query")?,
            subject: a.value_of("--subject")?,
            scoring: Scoring::parse(&mut a)?,
        }),
        other => return Err(err(format!("unknown command '{other}'"))),
    };
    a.finish()?;
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_sched::FaultKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse_search(s: &str) -> Search {
        match parse(&argv(s)).unwrap() {
            Command::Search(s) => s,
            other => panic!("{other:?}"),
        }
    }

    fn parse_hetero(s: &str) -> Hetero {
        match parse(&argv(s)).unwrap() {
            Command::Hetero(h) => h,
            other => panic!("{other:?}"),
        }
    }

    fn parse_dynamic(s: &str) -> Dynamic {
        parse_hetero(s).dynamic.expect("--dynamic given")
    }

    fn parse_serve(s: &str) -> Serve {
        match parse(&argv(s)).unwrap() {
            Command::Serve(s) => s,
            other => panic!("{other:?}"),
        }
    }

    fn parse_submit(s: &str) -> Submit {
        match parse(&argv(s)).unwrap() {
            Command::Submit(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn search_defaults() {
        assert_eq!(
            parse_search("search --query q.fa --db d.fa"),
            Search {
                query: "q.fa".into(),
                db: "d.fa".into(),
                quarantine: false,
                scoring: Scoring {
                    matrix: "BLOSUM62".into(),
                    open: 10,
                    extend: 2,
                    dna: false,
                    match_score: 5,
                    mismatch: -4,
                },
                engine: Engine {
                    threads: 1,
                    lanes: 16,
                    variant: KernelVariant::best(),
                    kernel_isa: None,
                },
                top: 10,
                align: false,
                tabular: false,
                both_strands: false,
            }
        );
    }

    #[test]
    fn search_full_options() {
        let s = parse_search(
            "search --query q.fa --db d.fa --matrix BLOSUM50 --open 12 --extend 1 \
             --threads 4 --lanes 32 --variant simd-qp --no-blocking --top 5 --align",
        );
        assert_eq!(s.scoring.matrix, "BLOSUM50");
        assert_eq!(s.scoring.open, 12);
        assert_eq!(s.scoring.extend, 1);
        assert_eq!(s.engine.threads, 4);
        assert_eq!(s.engine.lanes, 32);
        assert_eq!(s.engine.variant.vec, Vectorization::Guided);
        assert_eq!(s.engine.variant.profile, ProfileMode::Query);
        assert!(!s.engine.variant.blocking);
        assert_eq!(s.top, 5);
        assert!(s.align);
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
        match parse(&argv("simulate --device phi")).unwrap() {
            Command::Simulate(s) => {
                assert_eq!(s.device, "phi");
                assert_eq!(s.threads, 0);
                assert_eq!(s.query_len, 2000);
                assert!((s.frac - 0.55).abs() < 1e-12);
                assert!((s.db_scale - 1.0).abs() < 1e-12);
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
        match parse(&argv("gendb --seqs 100 --out x.fa --seed 7")).unwrap() {
            Command::GenDb(g) => assert_eq!(
                g,
                GenDb {
                    seqs: 100,
                    output: "x.fa".into(),
                    seed: 7,
                    mean_len: 355.4,
                    max_len: 35_213,
                }
            ),
            other => panic!("{other:?}"),
        }
        match parse(&argv("gendb --seqs 9 --out x.fa --max-len 2000")).unwrap() {
            Command::GenDb(g) => assert_eq!(g.max_len, 2000),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("gendb --seqs 9 --out x.fa --max-len 7")).is_err());
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
            assert_eq!(parse_search(cmdline).engine.kernel_isa, None, "{cmdline}");
        }
        for (name, isa) in [
            ("portable", KernelIsa::Portable),
            ("sse2", KernelIsa::Sse2),
            ("AVX2", KernelIsa::Avx2),
        ] {
            let s = parse_search(&format!("search --query q --db d --kernel-isa {name}"));
            assert_eq!(s.engine.kernel_isa, Some(isa), "{name}");
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
            ("search --shards", "search --shards m --query q.fa"),
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
        // Options that exist, but that this subcommand (or this mode of
        // it) would not act on.
        for (line, token) in [
            (
                "search --query q --db d --resume --checkpoint-dir x",
                "--resume",
            ),
            ("search --query q --db d --json", "--json"),
            ("hetero --query q --db d --socket s.sock", "--socket"),
            ("hetero --query q --db d --tabular", "--tabular"),
            ("serve --db d --socket s --query q.fa", "--query"),
            ("serve --db d --socket s --align", "--align"),
            ("submit --socket s --health --db d.fa", "--db"),
            ("stats --db d.fa --threads 2", "--threads"),
            ("align --query q --subject s --threads 2", "--threads"),
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.0.contains(&format!("option '{token}'")), "{line}: {e}");
        }
        // The coordinator scores nothing itself: the workers' scoring and
        // engine flags are not its to take.
        for extra in [
            "--matrix BLOSUM45",
            "--open 5",
            "--lanes 8",
            "--kernel-isa portable",
            "--tabular",
        ] {
            let line = format!("search --shards m --query q {extra}");
            let e = parse(&argv(&line)).unwrap_err();
            let token = extra.split(' ').next().unwrap();
            assert!(
                e.0.contains(&format!("unknown option '{token}' for 'search --shards'")),
                "{line}: {e}"
            );
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
        let s = parse_search("search --query q --db d --dna --mismatch -4");
        assert_eq!(s.scoring.mismatch, -4);
        match parse(&argv("simulate --device phi --no-blocking")).unwrap() {
            Command::Simulate(s) => {
                assert!(!s.variant.blocking);
                assert_eq!(s.variant.vec, KernelVariant::best().vec);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hetero_static_defaults() {
        let h = parse_hetero("hetero --query q.fa --db d.fa");
        assert!((h.frac - 0.55).abs() < 1e-12);
        assert_eq!(h.dynamic, None);
        assert_eq!(h.top, 10);
    }

    #[test]
    fn hetero_dynamic_options() {
        let h = parse_hetero(
            "hetero --query q.fa --db d.fa --dynamic --threads 4 --accel-threads 8 --frac 0.3",
        );
        assert!((h.frac - 0.3).abs() < 1e-12);
        assert_eq!(h.engine.threads, 4);
        let d = h.dynamic.expect("--dynamic");
        assert_eq!(d.accel_threads, 8);
        // The accelerator pool defaults to the CPU pool's thread count.
        let d = parse_dynamic("hetero --query q --db d --dynamic --threads 3");
        assert_eq!(d.accel_threads, 3);
        // A pool's smallest chunk is one task: there is no knob for it.
        let e = parse(&argv("hetero --query q --db d --dynamic --min-chunk 2")).unwrap_err();
        assert!(e.0.contains("unknown option '--min-chunk'"), "{e}");
    }

    #[test]
    fn the_resume_line_repeats_the_run_but_its_drills() {
        let h = parse_hetero(
            "hetero --query q.fa --db d.fa --quarantine --matrix BLOSUM50 --open 11 --extend 1 \
             --threads 2 --lanes 8 --variant simd-qp --no-blocking --kernel-isa sse2 --top 50 \
             --frac 0.3 --dynamic --accel-threads 1 --inject-fault delay@0:500 \
             --accel-timeout-ms 40 --failure-budget 2 --metrics-out m.prom \
             --checkpoint-dir ck --kill-after-chunks 3",
        );
        let line = h.resume_line().expect("a durable run");
        assert!(line.ends_with("--checkpoint-dir ck --resume"), "{line}");
        // Parsed back, the line is the run itself, resumed and undrilled.
        let mut want = h;
        let d = want.dynamic.as_mut().unwrap();
        d.inject_fault = None;
        let durable = d.durable.as_mut().unwrap();
        (durable.resume, durable.kill_after_chunks) = (true, None);
        match parse(&argv(line.strip_prefix("swsearch ").unwrap())).unwrap() {
            Command::Hetero(back) => assert_eq!(back, want, "{line}"),
            other => panic!("{other:?}"),
        }
        let h = parse_hetero("hetero --query q --db d --dna --match 2 --mismatch -3 --dynamic");
        assert_eq!(h.resume_line(), None, "no checkpoint, nothing to resume");
    }

    #[test]
    fn shell_words_are_quoted_only_when_a_shell_would_split_them() {
        assert_eq!(shell_word("/tmp/run-1/db.fasta"), "/tmp/run-1/db.fasta");
        assert_eq!(shell_word("-4"), "-4");
        assert_eq!(shell_word("my db.fasta"), "'my db.fasta'");
        assert_eq!(shell_word("it's"), r"'it'\''s'");
        assert_eq!(shell_word(""), "''");
    }

    #[test]
    fn hetero_fault_defaults_off() {
        let d = parse_dynamic("hetero --query q --db d --dynamic");
        assert_eq!(d.inject_fault, None);
        assert_eq!(d.accel_timeout_ms, None);
        assert_eq!(d.failure_budget, 3);
    }

    #[test]
    fn hetero_parses_fault_drill_options() {
        let d = parse_dynamic(
            "hetero --query q --db d --dynamic --inject-fault kill-pool@2 \
             --accel-timeout-ms 50 --failure-budget 1",
        );
        assert_eq!(
            d.inject_fault,
            Some(FaultSpec {
                device: DEVICE_ACCEL,
                chunk: 2,
                kind: FaultKind::KillPool,
            })
        );
        assert_eq!(d.accel_timeout_ms, Some(50));
        assert_eq!(d.failure_budget, 1);
        // A malformed drill is refused naming its flag.
        let e = parse(&argv(
            "hetero --query q --db d --dynamic --inject-fault delay@3",
        ))
        .unwrap_err();
        assert!(
            e.0.starts_with("bad --inject-fault 'delay@3': expected"),
            "{e}"
        );
    }

    #[test]
    fn hetero_trace_flags() {
        // No trace flags: tracing stays off.
        let d = parse_dynamic("hetero --query q --db d --dynamic");
        assert_eq!(d.trace_out, None);
        assert_eq!(d.metrics_out, None);
        // An output path is what turns full tracing on.
        let d = parse_dynamic(
            "hetero --query q --db d --dynamic --trace-out t.json --metrics-out m.prom",
        );
        assert_eq!(d.trace_out.as_deref(), Some("t.json"));
        assert_eq!(d.metrics_out.as_deref(), Some("m.prom"));
        // There is no level to pick.
        let e = parse(&argv(
            "hetero --query q --db d --dynamic --trace-out t.jsonl --trace-level full",
        ))
        .unwrap_err();
        assert!(e.0.contains("unknown option '--trace-level'"), "{e}");
    }

    #[test]
    fn hetero_durability_flags() {
        // Defaults: no checkpointing.
        let d = parse_dynamic("hetero --query q --db d --dynamic");
        assert_eq!(d.durable, None);
        let d = parse_dynamic(
            "hetero --query q --db d --dynamic --checkpoint-dir ckpts \
             --resume --kill-after-chunks 5",
        );
        assert_eq!(
            d.durable,
            Some(Durable {
                checkpoint_dir: "ckpts".into(),
                resume: true,
                kill_after_chunks: Some(5),
            })
        );
        // The flags that act on a checkpoint need one.
        for flag in ["--resume", "--kill-after-chunks 2"] {
            let e = parse(&argv(&format!("hetero --query q --db d --dynamic {flag}"))).unwrap_err();
            assert!(e.0.contains("requires --checkpoint-dir"), "{flag}: {e}");
        }
        // Every clean chunk is appended: there is no interval to set.
        let e = parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint-dir c --checkpoint-interval-chunks 1",
        ))
        .unwrap_err();
        assert!(e.0.contains("--checkpoint-interval-chunks"), "{e}");
        assert!(parse(&argv(
            "hetero --query q --db d --dynamic --checkpoint-dir c --kill-after-chunks 0"
        ))
        .is_err());
        // A checkpoint lives in a directory only: a file is no option.
        let e = parse(&argv("hetero --query q --db d --dynamic --checkpoint x")).unwrap_err();
        assert!(e.0.contains("unknown option '--checkpoint'"), "{e}");
    }

    #[test]
    fn serve_parses_with_defaults() {
        let s = parse_serve("serve --db d.swdb --socket /tmp/sw.sock");
        assert_eq!(s.db, "d.swdb");
        assert_eq!(s.socket, "/tmp/sw.sock");
        let c = &s.config;
        assert_eq!(c.unix_socket(), Some(std::path::Path::new("/tmp/sw.sock")));
        assert_eq!(c.max_concurrent, 2);
        assert_eq!(c.tenant_quota, 4);
        assert_eq!(c.default_top, 10);
        assert_eq!(c.checkpoint_dir, None);
        assert_eq!(c.trace_dir, None);
        assert_eq!(c.registry_out, None);
        assert_eq!(c.log_level, sw_serve::LogLevel::Info);
        assert_eq!(c.log_file, None);
        assert_eq!(c.slow_query_ms, None);
        assert_eq!(c.metrics_file, None);
        assert_eq!(c.metrics_interval_ms, 1000);
        assert_eq!(s.accel_threads, s.engine.threads);

        let s = parse_serve(
            "serve --db d.swdb --socket s.sock --max-concurrent 3 --tenant-quota 1 \
             --checkpoint-dir ck --trace-dir tr --registry-out reg.jsonl \
             --log-level debug --log-file ops.jsonl --slow-query-ms 250 \
             --metrics-file scrape.prom --metrics-interval-ms 200 --top 7",
        );
        let c = &s.config;
        assert_eq!(c.max_concurrent, 3);
        assert_eq!(c.tenant_quota, 1);
        assert_eq!(c.checkpoint_dir, Some("ck".into()));
        assert_eq!(c.trace_dir, Some("tr".into()));
        assert_eq!(c.registry_out, Some("reg.jsonl".into()));
        assert_eq!(c.log_level, sw_serve::LogLevel::Debug);
        assert_eq!(c.log_file, Some("ops.jsonl".into()));
        assert_eq!(c.slow_query_ms, Some(250));
        assert_eq!(c.metrics_file, Some("scrape.prom".into()));
        assert_eq!(c.metrics_interval_ms, 200);
        assert_eq!(c.default_top, 7);
        assert!(parse(&argv("serve --socket s.sock")).is_err(), "needs --db");
        assert!(parse(&argv("serve --db d")).is_err(), "needs --socket");
        assert!(parse(&argv("serve --db d --socket s --max-concurrent 0")).is_err());
        assert!(parse(&argv("serve --db d --socket s --tenant-quota 0")).is_err());
        assert!(parse(&argv("serve --db d --socket s --log-level loud")).is_err());
        assert!(parse(&argv("serve --db d --socket s --slow-query-ms x")).is_err());
    }

    #[test]
    fn serve_parses_shard_worker_and_request_timeout() {
        let s = parse_serve(
            "serve --db shard-0.swshard --socket s.sock --shard-worker --request-timeout-ms 500",
        );
        assert_eq!(s.db, "shard-0.swshard");
        assert!(s.shard_worker);
        assert_eq!(s.config.request_timeout_ms, 500);
        let s = parse_serve("serve --db d.swdb --socket s.sock");
        assert!(!s.shard_worker);
        assert_eq!(s.config.request_timeout_ms, 10_000);
        // No daemon holds a gather window: the option is gone, with or
        // without --shard-worker.
        for line in [
            "serve --db d.swdb --socket s.sock --batch-window-ms 3",
            "serve --db s.swshard --socket s.sock --shard-worker --batch-window-ms 5",
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(
                e.0.contains("unknown option '--batch-window-ms'"),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn shard_prepare_and_sharded_search_parse() {
        match parse(&argv("shard-prepare --db d.fasta --out shards/ --shards 4")).unwrap() {
            Command::ShardPrepare(p) => assert_eq!(
                p,
                ShardPrepare {
                    db: "d.fasta".into(),
                    out: "shards/".into(),
                    shards: 4,
                    replicas: 1,
                    endpoints: None,
                }
            ),
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "shard-prepare --db d --out o --shards 2 --replicas 2 \
             --endpoints tcp://a:1,tcp://b:1",
        ))
        .unwrap()
        {
            Command::ShardPrepare(p) => {
                assert_eq!(p.replicas, 2);
                assert_eq!(p.endpoints.as_deref(), Some("tcp://a:1,tcp://b:1"));
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
            Command::SearchShards(s) => assert_eq!(
                s,
                ShardedSearch {
                    query: "q.fa".into(),
                    manifest: "shards/shards.manifest".into(),
                    shard_dir: None,
                    top: 7,
                    threads: 2,
                    drill: None,
                    net_fault: None,
                    net_fault_seed: None,
                    placement: None,
                    coord_journal: None,
                    resume_coord: false,
                    metrics_out: None,
                    json: true,
                }
            ),
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
            Command::SearchShards(s) => {
                assert_eq!(s.net_fault.as_deref(), Some("refuse@0,drop@1:2"));
                assert_eq!(s.placement.as_deref(), Some("p.plan"));
                assert_eq!(s.coord_journal.as_deref(), Some("j.bin"));
                assert!(s.resume_coord);
                assert_eq!(s.metrics_out.as_deref(), Some("coord.prom"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("search --query q.fa --shards m --net-fault-seed 9")).unwrap() {
            Command::SearchShards(s) => assert_eq!(s.net_fault_seed, Some(9)),
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
        let s = parse_serve("serve --db d.swdb --listen tcp://127.0.0.1:7701");
        assert_eq!(s.socket, "tcp://127.0.0.1:7701");
        assert_eq!(s.config.unix_socket(), None);
        assert!(
            parse(&argv("serve --db d --socket s.sock --listen tcp://h:1")).is_err(),
            "--socket and --listen are mutually exclusive"
        );
        assert!(parse(&argv("serve --db d --listen tcp://nohost")).is_err());
        let s = parse_submit(
            "submit --socket tcp://127.0.0.1:7701 --stats --connect-retries 4 \
             --connect-backoff-ms 10",
        );
        assert_eq!(s.socket, "tcp://127.0.0.1:7701");
        assert_eq!(s.connect_retries, 4);
        assert_eq!(s.connect_backoff_ms, 10);
        let s = parse_submit("submit --socket s.sock --stats");
        assert_eq!(s.connect_retries, 0, "fail fast by default");
        assert_eq!(s.connect_backoff_ms, 25);
    }

    #[test]
    fn submit_needs_exactly_one_operation() {
        let s = parse_submit(
            "submit --socket s.sock --query q.fa --tenant acme --drill delay@0:500 --top 5",
        );
        assert_eq!(s.socket, "s.sock");
        assert_eq!(
            s.op,
            SubmitOp::Query {
                path: "q.fa".into(),
                tenant: "acme".into(),
                top: 5,
                drill: Some("delay@0:500".into()),
            }
        );
        assert_eq!(
            parse_submit("submit --socket s.sock --query q.fa").op,
            SubmitOp::Query {
                path: "q.fa".into(),
                tenant: "anon".into(),
                top: 10,
                drill: None,
            }
        );
        for (flag, req) in [
            ("--status 7", Request::Status(7)),
            ("--cancel 3", Request::Cancel(3)),
            ("--stats", Request::Stats),
            ("--shutdown", Request::Shutdown),
            ("--metrics", Request::Metrics),
            ("--health", Request::Health),
        ] {
            let s = parse_submit(&format!("submit --socket s.sock {flag}"));
            assert_eq!(s.op, SubmitOp::Control(req), "{flag}");
        }
        let s = parse_submit("submit --socket s.sock --stats --json");
        assert!(s.op == SubmitOp::Control(Request::Stats) && s.json);
        // Zero or two operations are both rejected.
        assert!(parse(&argv("submit --socket s.sock")).is_err());
        assert!(parse(&argv("submit --socket s.sock --query q --stats")).is_err());
        assert!(parse(&argv("submit --socket s.sock --metrics --health")).is_err());
        assert!(parse(&argv("submit --query q")).is_err(), "needs --socket");
    }

    /// `--tenant`, `--top` and `--drill` shape a query: beside a control
    /// operation nothing would send them, so the line is refused by name.
    #[test]
    fn query_only_flags_are_refused_on_a_control_op() {
        for flag in ["--tenant x", "--top 3", "--drill delay@0:5"] {
            for op in [
                "--status 3",
                "--cancel 3",
                "--stats",
                "--metrics",
                "--health",
                "--shutdown",
            ] {
                let line = format!("submit --socket s.sock {op} {flag}");
                let e = parse(&argv(&line)).unwrap_err();
                let name = flag.split(' ').next().unwrap();
                assert_eq!(e.0, format!("{name} requires --query"), "{line}");
            }
        }
    }

    #[test]
    fn quarantine_flag_parses() {
        assert!(parse_search("search --query q --db d --quarantine").quarantine);
        for (line, want) in [
            ("makedb --in a.fa --out b.swdb --quarantine", true),
            ("makedb --in a.fa --out b.swdb", false),
        ] {
            match parse(&argv(line)).unwrap() {
                Command::MakeDb(m) => assert_eq!(m.quarantine, want, "{line}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn trace_check_needs_at_least_one_file() {
        assert!(parse(&argv("trace-check")).is_err());
        match parse(&argv("trace-check --trace t.jsonl --metrics m.prom")).unwrap() {
            Command::TraceCheck(t) => assert_eq!(
                t,
                TraceCheck {
                    trace: Some("t.jsonl".into()),
                    metrics: Some("m.prom".into()),
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn selftest_lanes_validated() {
        assert!(parse(&argv("selftest --lanes 5")).is_err());
        assert!(parse(&argv("bench --lanes 12")).is_err());
        match parse(&argv("selftest --lanes 32 --scale 2")).unwrap() {
            Command::SelfTest(s) => assert_eq!(
                s,
                SelfTest {
                    lanes: 32,
                    scale: 2
                }
            ),
            other => panic!("{other:?}"),
        }
    }
}
