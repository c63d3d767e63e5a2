//! Command execution for `swsearch`.

use crate::args::{self, Command, Engine, Scoring, USAGE};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use sw_core::{
    simulate_hetero, simulate_search, PreparedDb, SearchConfig, SearchEngine, SimConfig,
};
use sw_device::CostModel;
use sw_kernels::scalar::SwParams;
use sw_kernels::traceback::sw_align;
use sw_kernels::KernelIsa;
use sw_seq::gen::{generate_database, generate_lengths, DbSpec};
use sw_seq::{Alphabet, EncodedSeq, FastaWriter};

/// Boxed error for command execution.
pub type CmdError = Box<dyn std::error::Error>;

/// Write a CLI artifact through `replace_file`: it appears at `path`
/// whole or not at all, so a killed command never leaves a truncated
/// snapshot, shard or manifest behind under its final name.
fn write_artifact(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    sw_swdb::integrity::replace_file(path.as_ref(), bytes.as_ref(), false)
}

/// Read a FASTA file or a `.swdb` snapshot. With `quarantine`, malformed
/// FASTA records are skipped (with a printed per-issue summary) instead
/// of aborting the command; snapshots have no quarantine — their
/// integrity is checked structurally on read.
fn load_sequences<W: Write>(
    path: &str,
    alphabet: &Alphabet,
    quarantine: bool,
    out: &mut W,
) -> Result<Vec<EncodedSeq>, CmdError> {
    if path.ends_with(".swdb") {
        return Ok(sw_swdb::snapshot::read(&std::fs::read(path)?)?.to_sequences());
    }
    let fasta = BufReader::new(File::open(path)?);
    if !quarantine {
        return Ok(sw_seq::fasta::read_encoded(fasta, alphabet)?);
    }
    let (seqs, report) = sw_seq::read_encoded_quarantined(fasta, alphabet)?;
    if !report.is_clean() {
        writeln!(out, "# quarantine {path}: {report}")?;
    }
    Ok(seqs)
}

/// What `search`, `hetero` and `serve` run against: the database
/// prepared under the command line's scoring and engine parts.
struct Target {
    params: SwParams,
    prepared: PreparedDb,
    isa: KernelIsa,
    config: SearchConfig,
}

impl Target {
    fn load<W: Write>(
        path: &str,
        quarantine: bool,
        scoring: &Scoring,
        engine: &Engine,
        out: &mut W,
    ) -> Result<Self, CmdError> {
        let seqs = load_sequences(path, &scoring.alphabet(), quarantine, out)?;
        Target::prepare(seqs, scoring, engine)
    }

    fn prepare(
        seqs: Vec<EncodedSeq>,
        scoring: &Scoring,
        engine: &Engine,
    ) -> Result<Self, CmdError> {
        if seqs.is_empty() {
            return Err("database holds no sequences".into());
        }
        let params = scoring.params()?;
        let prepared = PreparedDb::try_prepare(seqs, engine.lanes, &scoring.alphabet())?;
        let isa = engine.isa()?;
        Ok(Target {
            params,
            prepared,
            isa,
            config: engine.search_config(isa),
        })
    }
}

/// Execute one parsed command, writing output to `out`.
pub fn execute<W: Write>(cmd: Command, out: &mut W) -> Result<(), CmdError> {
    match cmd {
        Command::Help => Ok(writeln!(out, "{USAGE}")?),
        Command::Search(s) => cmd_search(&s, out),
        Command::SearchShards(s) => cmd_search_shards(&s, out),
        Command::ShardPrepare(p) => cmd_shard_prepare(&p, out),
        Command::MakeDb(m) => cmd_makedb(&m, out),
        Command::GenDb(g) => cmd_gendb(&g, out),
        Command::Stats { db } => cmd_stats(&db, out),
        Command::SelfTest(t) => cmd_selftest(&t, out),
        Command::Simulate(s) => cmd_simulate(&s, out),
        Command::Align(a) => cmd_align(&a, out),
        Command::TraceCheck(t) => cmd_trace_check(&t, out),
        Command::Bench(b) => cmd_bench(&b, out),
        Command::Hetero(h) => cmd_hetero(&h, out),
        Command::Serve(s) => cmd_serve(s, out),
        Command::Submit(s) => cmd_submit(&s, out),
    }
}

fn cmd_search<W: Write>(search: &args::Search, out: &mut W) -> Result<(), CmdError> {
    let alphabet = search.scoring.alphabet();
    let mut queries = load_sequences(&search.query, &alphabet, search.quarantine, out)?;
    if search.both_strands {
        let minus: Vec<EncodedSeq> = queries
            .iter()
            .map(|q| EncodedSeq {
                header: format!("{} (minus strand)", q.header).into(),
                residues: sw_seq::dna::reverse_complement(&q.residues),
            })
            .collect();
        queries.extend(minus);
    }
    let Target {
        params,
        prepared,
        isa,
        config,
    } = Target::load(
        &search.db,
        search.quarantine,
        &search.scoring,
        &search.engine,
        out,
    )?;
    let engine = SearchEngine::new(params.clone());
    writeln!(
        out,
        "# swsearch: {} quer{} vs {} sequences ({} residues), {} [{}] isa {}",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        prepared.stats.n_seqs,
        prepared.stats.total_residues,
        params.matrix.name,
        search.engine.variant,
        isa,
    )?;
    let karlin = if search.scoring.dna {
        // Uniform base composition for nucleotide statistics.
        let lambda =
            sw_core::stats::ungapped_lambda(&params.matrix, &[0.25, 0.25, 0.25, 0.25, 0.0])
                .ok_or("DNA scoring has no valid Karlin lambda")?;
        sw_core::stats::KarlinParams {
            lambda: lambda * 0.85,
            k: 0.041,
        }
    } else {
        sw_core::stats::KarlinParams::gapped_approx(&params.matrix)
    };
    for q in &queries {
        let res = engine.search(&q.residues, &prepared, &config);
        writeln!(
            out,
            "\nquery {} (len {}): {} in {:.3}s",
            q.header,
            q.len(),
            res.gcups(),
            res.elapsed.as_secs_f64()
        )?;
        let reports = sw_core::report::report_top_hits(
            &q.residues,
            &prepared,
            &res,
            &params,
            &karlin,
            search.top,
        );
        if search.tabular {
            for r in &reports {
                writeln!(out, "{}", r.tabular(&q.header))?;
            }
        } else {
            writeln!(
                out,
                "{:>6}  {:>8}  {:>7}  {:>9}  {:>6}  subject",
                "rank", "score", "bits", "E-value", "ident%"
            )?;
            for (rank, r) in reports.iter().enumerate() {
                writeln!(
                    out,
                    "{:>6}  {:>8}  {:>7.1}  {:>9.2e}  {:>6}  {}",
                    rank + 1,
                    r.score,
                    r.bits,
                    r.evalue,
                    r.stats
                        .as_ref()
                        .map(|s| format!("{:.1}", s.pct_identity()))
                        .unwrap_or_else(|| "-".into()),
                    r.header
                )?;
                if search.align {
                    if let Some(alignment) = &r.alignment {
                        let subject = prepared.sorted.db().seq(r.id);
                        for line in alignment
                            .render(&q.residues, subject.residues, &alphabet)
                            .lines()
                        {
                            writeln!(out, "          {line}")?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn cmd_makedb<W: Write>(m: &args::MakeDb, out: &mut W) -> Result<(), CmdError> {
    let seqs = load_sequences(&m.input, &Alphabet::protein(), m.quarantine, out)?;
    let db = sw_swdb::SequenceDatabase::from_sequences(seqs);
    let bytes = sw_swdb::snapshot::write(&db);
    write_artifact(&m.output, &bytes)?;
    writeln!(
        out,
        "wrote {} sequences ({} residues) to {} ({} bytes)",
        db.len(),
        db.total_residues(),
        m.output,
        bytes.len()
    )?;
    Ok(())
}

fn cmd_shard_prepare<W: Write>(p: &args::ShardPrepare, out: &mut W) -> Result<(), CmdError> {
    use sw_swdb::shard;
    let seqs = load_sequences(&p.db, &Alphabet::protein(), false, out)?;
    if seqs.is_empty() {
        return Err("database holds no sequences".into());
    }
    let db = sw_swdb::SequenceDatabase::from_sequences(seqs);
    // Shards are cut from the length-sorted order — the order the
    // search engine actually walks — so `shard base + in-shard id` is
    // a stable global index, and the sorted parent snapshot written
    // alongside is the byte-identical reference for an unsharded run.
    let sorted = shard::length_sorted(&db);
    let parent_digest = sw_swdb::snapshot::content_digest(&sorted);
    let dir = std::path::Path::new(&p.out);
    std::fs::create_dir_all(dir)?;
    write_artifact(dir.join("parent.swdb"), sw_swdb::snapshot::write(&sorted))?;
    let ranges = shard::plan_shards(&sorted, p.shards);
    let count = ranges.len() as u64;
    let mut entries = Vec::new();
    for (i, range) in ranges.iter().enumerate() {
        let piece = shard::slice(&sorted, *range);
        let meta = sw_swdb::ShardMeta {
            index: i as u64,
            count,
            base: range.0 as u64,
            parent_digest,
        };
        let file = shard::shard_file_name(i as u64);
        write_artifact(dir.join(&file), shard::write_shard(&meta, &piece))?;
        let digest = sw_swdb::snapshot::content_digest(&piece);
        writeln!(
            out,
            "# shard {i}: {} seqs, base {}, digest {digest:016x} -> {file}",
            piece.len(),
            range.0
        )?;
        entries.push(shard::ShardEntry {
            index: i as u64,
            file,
            base: range.0 as u64,
            n_seqs: piece.len() as u64,
            digest,
        });
    }
    let manifest = sw_swdb::ShardManifest {
        parent_digest,
        shards: entries,
    };
    write_artifact(dir.join("shards.manifest"), manifest.render())?;
    // Replication asked for (or an explicit endpoint pool): emit the
    // placement plan the coordinator walks on failover. Endpoints may
    // mix tcp:// and unix socket names; they are validated here so a
    // typo dies at prepare time, not mid-search.
    if p.replicas > 1 || p.endpoints.is_some() {
        let pool: Vec<String> = p
            .endpoints
            .as_deref()
            .map(|pool| pool.split(',').map(str::to_string).collect())
            .unwrap_or_default();
        for ep in &pool {
            sw_serve::Endpoint::parse(ep).map_err(|e| format!("--endpoints: {e}"))?;
        }
        let plan = sw_swdb::PlacementPlan::assign(parent_digest, count, p.replicas as u64, &pool);
        write_artifact(dir.join("placement.plan"), plan.render())?;
        writeln!(
            out,
            "# wrote placement.plan: {} replica(s) per shard over {}",
            p.replicas,
            if pool.is_empty() {
                "per-replica sockets".to_string()
            } else {
                format!("{} pooled endpoint(s)", pool.len())
            }
        )?;
    }
    writeln!(
        out,
        "# wrote {count} shards + sorted parent ({} seqs, digest {parent_digest:016x}) \
         + shards.manifest to {}",
        sorted.len(),
        p.out
    )?;
    Ok(())
}

fn cmd_search_shards<W: Write>(s: &args::ShardedSearch, out: &mut W) -> Result<(), CmdError> {
    use std::process::{Command as Proc, Stdio};
    use std::time::Duration;
    use sw_sched::{NetFaultInjector, NetFaultPlan};
    use sw_serve::{coord, CoordConfig, CoordDrill, Endpoint, NetTransport, ShardSpec};
    let manifest_text = std::fs::read_to_string(&s.manifest)?;
    let manifest = sw_swdb::ShardManifest::parse(&manifest_text)
        .map_err(|e| format!("{}: {e}", s.manifest))?;
    let manifest_dir = std::path::Path::new(&s.manifest)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let run_dir = s
        .shard_dir
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| manifest_dir.clone());
    std::fs::create_dir_all(&run_dir)?;
    let ckpt_dir = run_dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir)?;
    let query_fasta = std::fs::read_to_string(&s.query)?;

    // Placement: an explicit --placement file, or placement.plan next
    // to the manifest when shard-prepare wrote one. Relative unix
    // socket names resolve against the run dir (where this
    // coordinator's sockets live); tcp:// endpoints pass through.
    let placement_path = s
        .placement
        .as_ref()
        .map(std::path::PathBuf::from)
        .or_else(|| {
            let p = manifest_dir.join("placement.plan");
            p.exists().then_some(p)
        });
    let plan = placement_path
        .map(|p| -> Result<sw_swdb::PlacementPlan, CmdError> {
            let plan = sw_swdb::PlacementPlan::parse(&std::fs::read_to_string(&p)?)
                .map_err(|e| format!("{}: {e}", p.display()))?;
            if plan.parent_digest != manifest.parent_digest {
                return Err(format!(
                    "{}: placement parent digest {:016x} does not match manifest {:016x}",
                    p.display(),
                    plan.parent_digest,
                    manifest.parent_digest
                )
                .into());
            }
            if plan.entries.len() != manifest.shards.len() {
                return Err(format!(
                    "{}: placement covers {} shards, manifest has {}",
                    p.display(),
                    plan.entries.len(),
                    manifest.shards.len()
                )
                .into());
            }
            Ok(plan)
        })
        .transpose()?;
    let resolve = |ep: &str| -> Result<Endpoint, CmdError> {
        match Endpoint::parse(ep).map_err(|e| format!("placement endpoint: {e}"))? {
            Endpoint::Unix(p) if p.is_relative() => Ok(Endpoint::Unix(run_dir.join(p))),
            other => Ok(other),
        }
    };
    let specs: Vec<ShardSpec> = manifest
        .shards
        .iter()
        .map(|e| -> Result<ShardSpec, CmdError> {
            let endpoints = match &plan {
                Some(plan) => plan.entries[e.index as usize]
                    .endpoints
                    .iter()
                    .map(|ep| resolve(ep))
                    .collect::<Result<Vec<_>, _>>()?,
                None => vec![Endpoint::Unix(
                    run_dir.join(format!("shard-{}.sock", e.index)),
                )],
            };
            Ok(ShardSpec {
                index: e.index,
                endpoints,
                expect_digest: Some(e.digest),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Worker daemons are this same binary re-invoked as
    // `serve --shard-worker`; stdout/stderr land in the run dir so a
    // wedged or killed worker leaves a trail. The fleet guard owns
    // every process spawned here — its Drop tears them down on every
    // exit path, including typed-fatal coordinator errors that used to
    // leak the whole fleet.
    let exe = std::env::current_exe()?;
    let threads = s.threads.max(1);
    let fleet = crate::fleet::WorkerFleet::new();
    let spawn_at = |spec: &ShardSpec, endpoint: &Endpoint| -> Result<(), String> {
        let entry = manifest
            .shards
            .iter()
            .find(|e| e.index == spec.index)
            .ok_or("shard missing from manifest")?;
        let replica = spec
            .endpoints
            .iter()
            .position(|e| e == endpoint)
            .unwrap_or(0);
        let log = File::create(run_dir.join(format!("worker-{}-r{replica}.log", spec.index)))
            .map_err(|e| e.to_string())?;
        let mut proc = Proc::new(&exe);
        proc.arg("serve")
            .arg("--shard-worker")
            .arg("--db")
            .arg(manifest_dir.join(&entry.file));
        match endpoint {
            Endpoint::Unix(path) => {
                // A crashed worker leaves its socket file behind; the
                // new one must be able to bind.
                let _ = std::fs::remove_file(path);
                proc.arg("--socket").arg(path);
            }
            tcp => {
                proc.arg("--listen").arg(tcp.to_string());
            }
        }
        let child = proc
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("--threads")
            .arg(threads.to_string())
            .stdout(Stdio::from(log.try_clone().map_err(|e| e.to_string())?))
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn worker {} at {endpoint}: {e}", spec.index))?;
        fleet.adopt(spec.index, endpoint, child);
        Ok(())
    };
    let listening = |ep: &Endpoint| ep.connect(Duration::from_millis(250)).is_ok();
    let respawn = |spec: &ShardSpec, attempt: u32| -> Result<(), String> {
        let endpoint = spec.endpoint_for(attempt);
        if listening(endpoint) {
            return Ok(());
        }
        spawn_at(spec, endpoint)
    };
    // Boot every replica whose endpoint is not already serving; daemons
    // a previous coordinator (or an operator) left running are reused
    // and NOT shut down afterwards.
    let mut booted = 0u64;
    for spec in &specs {
        for endpoint in &spec.endpoints {
            if !listening(endpoint) {
                spawn_at(spec, endpoint)?;
                booted += 1;
            }
        }
    }
    if !s.json {
        writeln!(
            out,
            "# sharded search: {} shards ({booted} booted), parent digest {:016x}",
            specs.len(),
            manifest.parent_digest
        )?;
    }

    let faults = match (&s.net_fault, s.net_fault_seed) {
        (Some(spec), _) => Some(NetFaultInjector::new(NetFaultPlan::parse(spec)?)),
        (None, Some(seed)) => Some(NetFaultInjector::new(NetFaultPlan::seeded(
            seed,
            specs.len(),
            specs.len() as u64,
        ))),
        (None, None) => None,
    };
    let journal_path = s
        .coord_journal
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| run_dir.join("coord.journal"));
    let coord_drill = CoordDrill {
        faults: faults.as_ref(),
        journal: Some(journal_path),
        resume: s.resume_coord,
    };
    let mut cfg = CoordConfig::new(s.top);
    cfg.drill = s.drill.clone();
    cfg.parent_digest = manifest.parent_digest;
    let result = coord::search_sharded_durable(
        &specs,
        &query_fasta,
        &cfg,
        &respawn,
        &NetTransport,
        &coord_drill,
    );
    let outcome = result.map_err(|e| format!("sharded search: {e}"))?;
    if let Some(path) = &s.metrics_out {
        write_artifact(
            path,
            sw_serve::coord_prometheus(
                specs.len() as u64,
                outcome.requeues,
                outcome.failovers,
                outcome.net_retries,
                outcome.journal_skipped,
            ),
        )?;
    }
    if s.json {
        // Re-rendered wire hit lines, byte-identical to what an
        // unsharded `submit --json` run over the sorted parent prints
        // for the same query — the CI merge check diffs exactly this.
        for h in &outcome.hits {
            writeln!(out, "{}", h.to_json())?;
        }
        return Ok(());
    }
    for (i, r) in outcome.reports.iter().enumerate() {
        writeln!(
            out,
            "# shard {i}: {} attempt{}, {} resume{}, {} hits",
            r.attempts,
            if r.attempts == 1 { "" } else { "s" },
            r.resumes,
            if r.resumes == 1 { "" } else { "s" },
            r.hits
        )?;
    }
    if outcome.requeues > 0 {
        writeln!(
            out,
            "# {} shard execution(s) requeued ({} replica failover(s))",
            outcome.requeues, outcome.failovers
        )?;
    }
    if outcome.net_retries > 0 {
        writeln!(
            out,
            "# {} connect retr(y/ies) absorbed",
            outcome.net_retries
        )?;
    }
    if outcome.journal_skipped > 0 {
        writeln!(
            out,
            "# {} shard(s) resumed from the coordinator journal",
            outcome.journal_skipped
        )?;
    }
    writeln!(out, "merged top {}: {} hits", s.top, outcome.hits.len())?;
    for h in &outcome.hits {
        writeln!(out, "{:>6}  {:>8}  {}", h.rank, h.score, h.header)?;
    }
    Ok(())
}

fn cmd_gendb<W: Write>(g: &args::GenDb, out: &mut W) -> Result<(), CmdError> {
    let spec = DbSpec {
        n_seqs: g.seqs,
        mean_len: g.mean_len,
        max_len: g.max_len,
        seed: g.seed,
    };
    let generated = generate_database(&spec);
    if g.output.ends_with(".swdb") {
        let db = sw_swdb::SequenceDatabase::from_sequences(generated);
        write_artifact(&g.output, sw_swdb::snapshot::write(&db))?;
    } else {
        let alphabet = Alphabet::protein();
        let mut w = FastaWriter::new(BufWriter::new(File::create(&g.output)?));
        for s in &generated {
            w.write(s, &alphabet)?;
        }
        w.into_inner()?.flush()?;
    }
    writeln!(
        out,
        "generated {} synthetic sequences (seed {}) into {}",
        g.seqs, g.seed, g.output
    )?;
    Ok(())
}

fn cmd_stats<W: Write>(db_path: &str, out: &mut W) -> Result<(), CmdError> {
    let seqs = load_sequences(db_path, &Alphabet::protein(), false, out)?;
    let db = sw_swdb::SequenceDatabase::from_sequences(seqs);
    let stats = sw_swdb::DbStats::compute(&db);
    writeln!(out, "{stats}")?;
    Ok(())
}

fn cmd_selftest<W: Write>(t: &args::SelfTest, out: &mut W) -> Result<(), CmdError> {
    writeln!(
        out,
        "running cross-variant self-test at {} lanes (scale {})...",
        t.lanes, t.scale
    )?;
    let report = sw_core::verify::self_test(t.lanes, t.scale);
    writeln!(
        out,
        "{} variants, {} score comparisons",
        report.variants_checked, report.comparisons
    )?;
    match report.first_mismatch {
        None => {
            writeln!(out, "PASS: all variants agree with the scalar reference")?;
            Ok(())
        }
        Some(m) => Err(format!("FAIL: {m}").into()),
    }
}

fn cmd_simulate<W: Write>(s: &args::Simulate, out: &mut W) -> Result<(), CmdError> {
    let (variant, query_len, frac) = (s.variant, s.query_len, s.frac);
    let spec = if (s.db_scale - 1.0).abs() < 1e-12 {
        DbSpec::swissprot_full(1)
    } else {
        DbSpec::swissprot_scaled(s.db_scale, 1)
    };
    let lens = generate_lengths(&spec);
    writeln!(
        out,
        "# simulated Swiss-Prot-like workload: {} sequences, query length {query_len}",
        lens.len()
    )?;
    let report_one = |model: &CostModel, t: u32, out: &mut W| -> Result<(), CmdError> {
        let t = if t == 0 {
            model.device.max_threads()
        } else {
            t
        };
        let shapes =
            sw_core::prepare::shapes_from_lengths(&lens, model.device.lanes_i16(), query_len);
        let cfg = SimConfig {
            variant,
            threads: t,
            replicas: 8,
            ..SimConfig::best(t)
        };
        let r = simulate_search(model, &shapes, &cfg);
        writeln!(
            out,
            "{:<18} {:>4} threads  {variant:<14} {:>7.1} GCUPS  (efficiency {:.2})",
            model.device.name.as_ref(),
            t,
            r.gcups,
            r.efficiency
        )?;
        Ok(())
    };
    match s.device.as_str() {
        "xeon" => report_one(
            &CostModel::xeon(),
            if s.threads == 0 { 32 } else { s.threads },
            out,
        ),
        "phi" => report_one(
            &CostModel::phi(),
            if s.threads == 0 { 240 } else { s.threads },
            out,
        ),
        "hetero" => {
            let xeon = CostModel::xeon();
            let phi = CostModel::phi();
            let cpu_cfg = SimConfig {
                variant,
                replicas: 8,
                ..SimConfig::best(32)
            };
            let phi_cfg = SimConfig {
                variant,
                replicas: 8,
                ..SimConfig::best(240)
            };
            let r = simulate_hetero((&xeon, &cpu_cfg), (&phi, &phi_cfg), &lens, query_len, frac);
            writeln!(
                out,
                "hetero (Phi share {:.0}%): {:.1} GCUPS  (CPU {:.1} + Phi {:.1}; {:.3} GCUPS/W)",
                100.0 * frac,
                r.gcups,
                r.cpu_gcups,
                r.accel_gcups,
                r.gcups_per_watt()
            )?;
            Ok(())
        }
        other => Err(format!("unknown device '{other}'").into()),
    }
}

/// Print the realised schedule, per-device metrics and recovery lines of
/// a completed dynamic run, then export its trace artifacts if asked.
fn report_dynamic_outcome<W: Write>(
    outcome: &sw_core::DynamicSearchOutcome,
    n_batches: usize,
    plan_accel_fraction: f64,
    d: &args::Dynamic,
    isa: KernelIsa,
    out: &mut W,
) -> Result<(), CmdError> {
    writeln!(
        out,
        "# dynamic dual-pool: pools met at batch {} of {}; accel took {:.1}% of cells \
         (plan seeded {:.1}%)",
        outcome.boundary,
        n_batches,
        outcome.accel_cell_fraction * 100.0,
        plan_accel_fraction * 100.0
    )?;
    for (label, m) in [("cpu  ", &outcome.cpu), ("accel", &outcome.accel)] {
        writeln!(
            out,
            "#   {label}: {} workers, {} tasks in {} chunks, busy {:.3}s \
             (queue wait {:.3}s), {} cells, {:.2} GCUPS",
            m.workers,
            m.tasks,
            m.chunks,
            m.busy.as_secs_f64(),
            m.queue_wait.as_secs_f64(),
            m.cells,
            m.gcups()
        )?;
        if m.retries + m.requeues + m.lost_leases + m.failures > 0 || m.degraded {
            writeln!(
                out,
                "#   {label}: recovery: {} retries, {} requeues, {} lost leases, \
                 {} failures{}",
                m.retries,
                m.requeues,
                m.lost_leases,
                m.failures,
                if m.degraded { " [pool retired]" } else { "" }
            )?;
        }
    }
    if outcome.results.degraded {
        writeln!(
            out,
            "# DEGRADED: a device pool was retired mid-run; the surviving pool \
             completed the queue (results are exact)"
        )?;
    }
    if let Some(tl) = &outcome.timeline {
        if let Some(path) = &d.trace_out {
            // Extension picks the format: `.jsonl` is the line-oriented
            // event log, anything else is Chrome trace JSON (Perfetto).
            let rendered = if path.ends_with(".jsonl") {
                sw_trace::export::jsonl(tl)
            } else {
                sw_trace::export::chrome_trace(tl)
            };
            write_artifact(path, rendered)?;
            writeln!(
                out,
                "# trace: {} events ({} dropped) written to {path}",
                tl.total_events(),
                tl.total_dropped()
            )?;
        }
        if let Some(path) = &d.metrics_out {
            let prom = sw_trace::export::prometheus(
                tl,
                &[outcome.cpu, outcome.accel],
                sw_trace::export::DEFAULT_GCUPS_WINDOW_US,
                isa.name(),
            );
            write_artifact(path, prom)?;
            writeln!(out, "# metrics: prometheus snapshot written to {path}")?;
        }
    }
    Ok(())
}

fn cmd_hetero<W: Write>(h: &args::Hetero, out: &mut W) -> Result<(), CmdError> {
    use sw_core::{DurableOptions, HeteroEngine, HeteroSearchConfig, RecoveryConfig, TraceConfig};
    use sw_sched::{FaultInjector, FaultPlan};
    let queries = load_sequences(&h.query, &h.scoring.alphabet(), h.quarantine, out)?;
    let q = queries.first().ok_or("query file holds no sequences")?;
    let Target {
        params,
        prepared,
        isa,
        config: cfg,
    } = Target::load(&h.db, h.quarantine, &h.scoring, &h.engine, out)?;
    let hetero = HeteroEngine::new(SearchEngine::new(params));
    let plan = hetero.plan_split(&prepared, q.len(), h.frac);
    writeln!(
        out,
        "# Algorithm 2: {} batches to host, {} to accelerator ({:.1}% of cells), isa {isa}",
        plan.cpu.len(),
        plan.accel.len(),
        plan.accel_cell_fraction * 100.0
    )?;
    let res = if let Some(d) = &h.dynamic {
        let dyn_cfg = HeteroSearchConfig {
            cpu: cfg,
            accel: SearchConfig {
                threads: d.accel_threads,
                ..cfg
            },
            recovery: RecoveryConfig {
                accel_timeout_ms: d.accel_timeout_ms,
                failure_budget: d.failure_budget,
            },
            trace: if d.trace_out.is_some() || d.metrics_out.is_some() {
                TraceConfig::full()
            } else {
                TraceConfig::default()
            },
        };
        let mut injector = match &d.inject_fault {
            Some(spec) => {
                writeln!(
                    out,
                    "# fault drill: injecting {:?} at accel chunk {} (hits stay exact)",
                    spec.kind, spec.chunk
                )?;
                FaultInjector::new(FaultPlan::single(*spec))
            }
            None => FaultInjector::none(),
        };
        let outcome = if let Some(durable) = &d.durable {
            if let Some(n) = durable.kill_after_chunks {
                writeln!(
                    out,
                    "# crash drill: the process will abort after {n} committed chunk(s)"
                )?;
                injector = injector.with_kill_after_chunks(n);
            }
            // Durable run: graceful drain on SIGINT/SIGTERM, every clean
            // chunk appended to the checkpoint log, optional resume.
            let ckpt_where = &durable.checkpoint_dir;
            crate::signals::install_drain_handlers();
            let dopts = DurableOptions {
                checkpoint_dir: Some(Path::new(ckpt_where)),
                drain: Some(&crate::signals::DRAIN),
                resume: durable.resume,
                ..DurableOptions::default()
            };
            let run = hetero
                .search_dynamic_resumable(
                    &q.residues,
                    &prepared,
                    &plan,
                    &dyn_cfg,
                    &injector,
                    &dopts,
                )
                .map_err(|e| format!("durable dynamic search failed: {e}"))?;
            if run.resumes > 0 {
                writeln!(
                    out,
                    "# resume: loaded {} of {} batches from {ckpt_where} (resume #{})",
                    run.resumed_tasks, run.n_batches, run.resumes
                )?;
            }
            if run.checkpoint_write_failures > 0 {
                writeln!(
                    out,
                    "# WARNING: {} checkpoint append(s) failed; the search continued \
                     without appending, so a crash would lose what committed since",
                    run.checkpoint_write_failures
                )?;
            }
            match run.outcome {
                Some(outcome) => outcome,
                None => {
                    // Drained on a signal: the final checkpoint has every
                    // committed chunk. Tell the user how to pick it up.
                    writeln!(
                        out,
                        "# drained: {} of {} batches committed ({} checkpoint write(s) \
                         this segment); state saved to {ckpt_where}",
                        run.tasks_done, run.n_batches, run.checkpoints_written
                    )?;
                    let line = h.resume_line().expect("a durable run has a resume line");
                    writeln!(out, "# resume with: {line}")?;
                    return Ok(());
                }
            }
        } else {
            let none = DurableOptions::default();
            hetero
                .search_dynamic_resumable(&q.residues, &prepared, &plan, &dyn_cfg, &injector, &none)
                .map_err(|e| format!("dynamic search failed beyond recovery: {e}"))?
                .outcome
                .expect("no drain signal: the search runs to completion")
        };
        report_dynamic_outcome(
            &outcome,
            prepared.batches.len(),
            plan.accel_cell_fraction,
            d,
            isa,
            out,
        )?;
        outcome.results
    } else {
        hetero.search(&q.residues, &prepared, &plan, &cfg, &cfg)
    };
    writeln!(
        out,
        "merged {} hits; top {}:",
        res.hits.len(),
        h.top.min(res.hits.len())
    )?;
    for (rank, hit) in res.top(h.top).iter().enumerate() {
        writeln!(
            out,
            "{:>6}  {:>8}  {}",
            rank + 1,
            hit.score,
            prepared.sorted.db().header(hit.id)
        )?;
    }
    // Simulated wall-clock of the same split on the paper's testbed.
    let lens: Vec<u32> = (0..prepared.n_seqs())
        .map(|r| prepared.sorted.len_at(r) as u32)
        .collect();
    let xeon = sw_core::SimConfig::streamed(32, 8);
    let phi = sw_core::SimConfig::streamed(240, 8);
    let sim = sw_core::simulate_hetero(
        (&CostModel::xeon(), &xeon),
        (&CostModel::phi(), &phi),
        &lens,
        q.len(),
        h.frac,
    );
    writeln!(
        out,
        "simulated on the paper's testbed: {:.1} GCUPS at this split",
        sim.gcups
    )?;
    Ok(())
}

fn cmd_trace_check<W: Write>(t: &args::TraceCheck, out: &mut W) -> Result<(), CmdError> {
    if let Some(path) = &t.trace {
        let text = std::fs::read_to_string(path)?;
        let report =
            sw_trace::validate::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "{path}: OK ({} events, {} tracks, {} balanced spans)",
            report.events, report.tracks, report.spans
        )?;
    }
    if let Some(path) = &t.metrics {
        let text = std::fs::read_to_string(path)?;
        let report = sw_trace::validate::validate_prometheus_strict(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "{path}: OK ({} families, {} samples)",
            report.families, report.samples
        )?;
    }
    Ok(())
}

fn cmd_bench<W: Write>(b: &args::Bench, out: &mut W) -> Result<(), CmdError> {
    use sw_kernels::{KernelVariant, ProfileMode, Vectorization};
    let alphabet = Alphabet::protein();
    let spec = DbSpec {
        n_seqs: b.seqs,
        mean_len: 355.4,
        max_len: 5_000,
        seed: 42,
    };
    let prepared = PreparedDb::prepare(generate_database(&spec), b.lanes, &alphabet);
    let query = sw_seq::gen::generate_query(b.query_len, 7);
    let engine = SearchEngine::paper_default();
    writeln!(
        out,
        "# host benchmark: {} seqs ({} residues), query {}, {} threads, {} lanes",
        prepared.stats.n_seqs, prepared.stats.total_residues, b.query_len, b.threads, b.lanes
    )?;
    for (label, vec, profile) in [
        ("no-vec-SP", Vectorization::NoVec, ProfileMode::Sequence),
        ("simd-SP", Vectorization::Guided, ProfileMode::Sequence),
        ("intrinsic-QP", Vectorization::Intrinsic, ProfileMode::Query),
        (
            "intrinsic-SP",
            Vectorization::Intrinsic,
            ProfileMode::Sequence,
        ),
    ] {
        let cfg = Engine {
            threads: b.threads,
            lanes: b.lanes,
            variant: KernelVariant {
                vec,
                profile,
                blocking: true,
            },
            kernel_isa: None,
        }
        .search_config(args::startup_kernel_isa());
        let res = engine.search(&query.residues, &prepared, &cfg);
        writeln!(out, "{label:<14} {}", res.gcups())?;
    }
    Ok(())
}

fn cmd_serve<W: Write>(s: args::Serve, out: &mut W) -> Result<(), CmdError> {
    use sw_core::{HeteroEngine, HeteroSearchConfig, RecoveryConfig, TraceConfig};
    let mut config = s.config;
    // Load once, stay resident. Snapshots get an explicit content
    // digest in the banner — the integrity anchor every job's
    // checkpoint fingerprint chains back to.
    let target = if s.shard_worker {
        // Shard worker: the db is one SWSHRD1 shard. The digest is the
        // shard's own snapshot digest (checkpoint fingerprints stay
        // per-shard), the role carries the global offset so every hit
        // id the daemon reports is already global.
        let (meta, db) = sw_swdb::shard::read_shard(&std::fs::read(&s.db)?)?;
        config.snapshot_digest = Some(sw_swdb::snapshot::content_digest(&db));
        config.shard = Some(sw_serve::ShardRole {
            index: meta.index,
            count: meta.count,
            base: meta.base,
        });
        Target::prepare(db.to_sequences(), &s.scoring, &s.engine)?
    } else if s.db.ends_with(".swdb") {
        let db = sw_swdb::snapshot::read(&std::fs::read(&s.db)?)?;
        config.snapshot_digest = Some(sw_swdb::snapshot::content_digest(&db));
        Target::prepare(db.to_sequences(), &s.scoring, &s.engine)?
    } else {
        Target::load(&s.db, s.quarantine, &s.scoring, &s.engine, out)?
    };
    let Target {
        params,
        prepared,
        isa,
        config: cfg,
    } = target;
    let base = HeteroSearchConfig {
        cpu: cfg,
        accel: SearchConfig {
            threads: s.accel_threads,
            ..cfg
        },
        recovery: RecoveryConfig::default(),
        trace: TraceConfig::default(),
    };
    let engine = HeteroEngine::new(SearchEngine::new(params));
    crate::signals::install_drain_handlers();
    writeln!(
        out,
        "# sw-serve: {} sequences ({} residues) resident{}{}, isa {isa}",
        prepared.stats.n_seqs,
        prepared.stats.total_residues,
        match config.snapshot_digest {
            Some(d) => format!(", snapshot digest {d:016x}"),
            None => String::new(),
        },
        match &config.shard {
            Some(r) => format!(", shard {}/{} (base {})", r.index, r.count, r.base),
            None => String::new(),
        }
    )?;
    writeln!(
        out,
        "# listening on {} (batches of {}, tenant quota {})",
        s.socket, config.max_concurrent, config.tenant_quota
    )?;
    let stats = sw_serve::serve(
        &engine,
        &prepared,
        &s.scoring.alphabet(),
        &base,
        &config,
        &crate::signals::SERVE_DRAIN,
    )
    .map_err(|e| format!("serve: {e}"))?;
    writeln!(
        out,
        "# serve: drained; {} jobs ({} done, {} failed, {} cancelled, {} rejected)",
        stats.total, stats.done, stats.failed, stats.cancelled, stats.rejected
    )?;
    Ok(())
}

fn cmd_submit<W: Write>(s: &args::Submit, out: &mut W) -> Result<(), CmdError> {
    use sw_serve::client::{self, Request};
    use sw_serve::{json, Endpoint, RetryPolicy};
    let endpoint = Endpoint::parse(&s.socket).map_err(|e| format!("--socket: {e}"))?;
    let policy = RetryPolicy {
        retries: s.connect_retries,
        backoff_ms: s.connect_backoff_ms.max(1),
        seed: std::process::id() as u64,
    };
    let request = |r: &Request| -> Result<Vec<String>, CmdError> {
        let (lines, _) = client::request_endpoint_retry(&endpoint, &r.render(), &policy)?;
        Ok(lines)
    };
    match &s.op {
        args::SubmitOp::Query {
            path,
            tenant,
            top,
            drill,
        } => {
            let lines = request(&Request::Submit {
                tenant: tenant.clone(),
                query: std::fs::read_to_string(path)?,
                top: Some(*top),
                drill: drill.clone(),
            })?;
            let outcome =
                client::parse_submit_response(&lines).map_err(|e| format!("submit: {e}"))?;
            if s.json {
                // Raw wire lines, one JSON object per line; the outcome
                // is still parsed above so rejects and failures keep
                // their non-zero exit status.
                for line in &lines {
                    writeln!(out, "{line}")?;
                }
            } else if outcome.state == "done" {
                writeln!(
                    out,
                    "job {} done: {} hits{}{}",
                    outcome.job,
                    outcome.hits.len(),
                    if outcome.resumes > 0 {
                        format!(
                            " (resumed from checkpoint, segment #{})",
                            outcome.resumes + 1
                        )
                    } else {
                        String::new()
                    },
                    if outcome.batch > 1 {
                        format!(" (region shared by {} queries)", outcome.batch)
                    } else {
                        String::new()
                    }
                )?;
                for h in &outcome.hits {
                    writeln!(out, "{:>6}  {:>8}  {}", h.rank, h.score, h.header)?;
                }
            } else if outcome.state == "cancelled" {
                writeln!(
                    out,
                    "job {} cancelled; progress is checkpointed — resubmit the same \
                     query to resume",
                    outcome.job
                )?;
            }
            match outcome.state.as_str() {
                "done" | "cancelled" => Ok(()),
                other => Err(format!(
                    "job {} {other}: {}",
                    outcome.job,
                    outcome.error.as_deref().unwrap_or("no detail")
                )
                .into()),
            }
        }
        args::SubmitOp::Control(req) => {
            let lines = request(req)?;
            let first = lines.first().ok_or("empty response")?;
            if json::field_bool(first, "ok") == Some(false) {
                return Err(json::field_str(first, "error")
                    .unwrap_or_else(|| "request failed".to_string())
                    .into());
            }
            // One JSON line, except a metrics reply: raw Prometheus text,
            // passed through untouched. --json changes neither.
            for line in &lines {
                writeln!(out, "{line}")?;
            }
            // A health probe's exit status is the readiness verdict.
            if *req == Request::Health && json::field_bool(first, "ready") != Some(true) {
                return Err("daemon not ready".into());
            }
            Ok(())
        }
    }
}

fn cmd_align<W: Write>(align: &args::Align, out: &mut W) -> Result<(), CmdError> {
    let alphabet = align.scoring.alphabet();
    let params = align.scoring.params()?;
    let queries = load_sequences(&align.query, &alphabet, false, out)?;
    let subjects = load_sequences(&align.subject, &alphabet, false, out)?;
    let q = queries.first().ok_or("query file holds no sequences")?;
    let s = subjects.first().ok_or("subject file holds no sequences")?;
    match sw_align(&q.residues, &s.residues, &params) {
        Some(a) => {
            writeln!(
                out,
                "score {}  query {}..{}  subject {}..{}",
                a.score, a.query_range.0, a.query_range.1, a.subject_range.0, a.subject_range.1
            )?;
            writeln!(out, "{}", a.render(&q.residues, &s.residues, &alphabet))?;
        }
        None => writeln!(out, "no local alignment (score 0)")?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_str(cmdline: &str) -> (i32, String) {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = crate::run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("swsearch-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The protein records of a FASTA file or snapshot.
    fn read_db(path: &str) -> Vec<EncodedSeq> {
        load_sequences(path, &Alphabet::protein(), false, &mut std::io::sink()).unwrap()
    }

    /// Write record `i` of `db` as a one-record query file at `path`.
    fn write_query(db: &[EncodedSeq], i: usize, path: &str) {
        let mut w = FastaWriter::new(std::fs::File::create(path).unwrap());
        w.write(&db[i], &Alphabet::protein()).unwrap();
        w.into_inner().unwrap();
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_str("help");
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn unknown_command_exits_2() {
        let (code, text) = run_str("bogus");
        assert_eq!(code, 2);
        assert!(text.contains("unknown command"));
    }

    #[test]
    fn gendb_stats_roundtrip_fasta() {
        let path = tmp("gen1.fasta");
        let (code, _) = run_str(&format!(
            "gendb --seqs 50 --out {path} --seed 3 --mean-len 80"
        ));
        assert_eq!(code, 0);
        let (code, text) = run_str(&format!("stats --db {path}"));
        assert_eq!(code, 0);
        assert!(text.contains("sequences:      50"), "{text}");
    }

    #[test]
    fn makedb_snapshot_roundtrip() {
        let fasta = tmp("gen2.fasta");
        let snap = tmp("gen2.swdb");
        run_str(&format!(
            "gendb --seqs 30 --out {fasta} --seed 5 --mean-len 60"
        ));
        let (code, text) = run_str(&format!("makedb --in {fasta} --out {snap}"));
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_str(&format!("stats --db {snap}"));
        assert_eq!(code, 0);
        assert!(text.contains("sequences:      30"), "{text}");

        // Every artifact goes through `replace_file`: after shard-prepare
        // the directory holds exactly the finished files, no `*.tmp`.
        let dir = tmp("gen2-shards");
        let _ = std::fs::remove_dir_all(&dir);
        let (code, text) = run_str(&format!(
            "shard-prepare --db {snap} --out {dir} --shards 2 --replicas 2"
        ));
        assert_eq!(code, 0, "{text}");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "parent.swdb",
                "placement.plan",
                "shard-0.swshard",
                "shard-1.swshard",
                "shards.manifest"
            ]
        );
        assert!(!Path::new(&format!("{snap}.tmp")).exists());
        let manifest = std::fs::read_to_string(Path::new(&dir).join("shards.manifest")).unwrap();
        assert_eq!(
            sw_swdb::ShardManifest::parse(&manifest)
                .unwrap()
                .shards
                .len(),
            2
        );
    }

    #[test]
    fn end_to_end_search_finds_planted_hit() {
        // Build a small db and use one of its own sequences as the query:
        // the top hit must be that sequence with its self-score.
        let db_path = tmp("gen3.fasta");
        run_str(&format!(
            "gendb --seqs 40 --out {db_path} --seed 9 --mean-len 100"
        ));
        let seqs = read_db(&db_path);
        let q_path = tmp("query3.fasta");
        write_query(&seqs, 7, &q_path);

        let (code, text) = run_str(&format!(
            "search --query {q_path} --db {db_path} --lanes 8 --top 3"
        ));
        assert_eq!(code, 0, "{text}");
        let first_hit_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap_or_else(|| panic!("no hit line in output:\n{text}"));
        assert!(
            first_hit_line.contains(seqs[7].header.as_ref()),
            "top hit must be the query itself:\n{text}"
        );
    }

    #[test]
    fn search_variants_give_same_top_hit() {
        let db_path = tmp("gen4.fasta");
        run_str(&format!(
            "gendb --seqs 25 --out {db_path} --seed 11 --mean-len 90"
        ));
        let seqs = read_db(&db_path);
        let q_path = tmp("query4.fasta");
        write_query(&seqs, 3, &q_path);
        let mut first: Option<String> = None;
        for v in ["no-vec-qp", "simd-sp", "intrinsic-qp", "intrinsic-sp"] {
            let (code, text) = run_str(&format!(
                "search --query {q_path} --db {db_path} --lanes 4 --variant {v} --top 1"
            ));
            assert_eq!(code, 0, "{v}: {text}");
            let hit = text
                .lines()
                .find(|l| l.trim_start().starts_with("1 "))
                .unwrap()
                .to_string();
            match &first {
                None => first = Some(hit),
                Some(f) => assert_eq!(&hit, f, "variant {v} disagrees"),
            }
        }
    }

    #[test]
    fn align_command_renders() {
        let qp = tmp("q5.fasta");
        let sp = tmp("s5.fasta");
        std::fs::write(&qp, ">q\nMKVLITRAW\n").unwrap();
        std::fs::write(&sp, ">s\nPPPMKVLITRAWPPP\n").unwrap();
        let (code, text) = run_str(&format!("align --query {qp} --subject {sp}"));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("MKVLITRAW"));
        assert!(text.contains("|||||||||"));
    }

    /// `align --dna` reads and renders in the nucleotide alphabet and
    /// scores with the DNA matrix (it used to read protein codes and
    /// index the 5-letter DNA matrix out of bounds).
    #[test]
    fn align_dna_scores_with_the_nucleotide_matrix() {
        let qp = tmp("q5dna.fasta");
        let sp = tmp("s5dna.fasta");
        std::fs::write(&qp, ">q\nACGTACGTTGCA\n").unwrap();
        std::fs::write(&sp, ">s\nGGGACGTACTTTGCAGGG\n").unwrap();
        let (code, text) = run_str(&format!("align --query {qp} --subject {sp} --dna"));
        assert_eq!(code, 0, "{text}");
        let dna = Alphabet::dna();
        let read = |p: &str| load_sequences(p, &dna, false, &mut std::io::sink()).unwrap();
        let params = SwParams::new(
            sw_seq::dna::dna_matrix(5, -4, -2),
            sw_seq::GapPenalty::new(10, 2),
        );
        let want = sw_align(&read(&qp)[0].residues, &read(&sp)[0].residues, &params)
            .expect("the sequences share ACGTAC");
        assert!(
            text.starts_with(&format!("score {}  ", want.score)),
            "{text}"
        );
        assert!(text.contains("ACGTAC"), "rendered in nucleotides: {text}");
    }

    #[test]
    fn tabular_output_format() {
        let db_path = tmp("gen6.fasta");
        run_str(&format!(
            "gendb --seqs 20 --out {db_path} --seed 2 --mean-len 80"
        ));
        let q_path = tmp("query6.fasta");
        write_query(&read_db(&db_path), 0, &q_path);
        let (code, text) = run_str(&format!(
            "search --query {q_path} --db {db_path} --lanes 4 --top 3 --tabular"
        ));
        assert_eq!(code, 0, "{text}");
        let tab_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.matches('\t').count() == 11)
            .collect();
        assert_eq!(tab_lines.len(), 3, "three 12-column rows:\n{text}");
        assert!(tab_lines[0].contains("100.0"), "self hit is 100% identical");
    }

    #[test]
    fn dna_search_both_strands() {
        let db_path = tmp("dna1.fasta");
        std::fs::write(
            &db_path,
            ">plus exact plus-strand target\nTTTTACGTACGTACCGGTTTTT\n>minus reverse-complement target\nTTTTACCGGTACGTACGTTTTT\n>junk\nGGGGGGGGCCCCCCCC\n",
        )
        .unwrap();
        let q_path = tmp("dnaq1.fasta");
        std::fs::write(&q_path, ">q\nACGTACGTACCGGT\n").unwrap();
        let (code, text) = run_str(&format!(
            "search --query {q_path} --db {db_path} --dna --both-strands --lanes 4 --top 2"
        ));
        assert_eq!(code, 0, "{text}");
        // Plus-strand block finds 'plus'; minus-strand block finds 'minus'.
        assert!(text.contains("plus exact"), "{text}");
        assert!(text.contains("(minus strand)"), "{text}");
        assert!(text.contains("minus reverse-complement"), "{text}");
    }

    /// A refusal the parse makes is an exit-2 usage error: no file named
    /// on the line is opened (none of these exists).
    fn assert_refused_before_open(line: &str, why: &str) {
        let (code, text) = run_str(&format!(
            "{line} --query /nonexistent/q.fa --db /nonexistent/d.fa"
        ));
        assert_eq!(code, 2, "{line}: {text}");
        assert!(text.contains(why), "{line}: {text}");
        assert!(text.contains("USAGE"), "{line}: {text}");
    }

    #[test]
    fn both_strands_requires_dna() {
        assert_refused_before_open("search --both-strands", "--both-strands requires --dna");
    }

    #[test]
    fn selftest_command_passes() {
        let (code, text) = run_str("selftest --lanes 4");
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn hetero_command_matches_search() {
        let db_path = tmp("het1.fasta");
        run_str(&format!(
            "gendb --seqs 30 --out {db_path} --seed 4 --mean-len 90"
        ));
        let seqs = read_db(&db_path);
        let q_path = tmp("hetq1.fasta");
        write_query(&seqs, 5, &q_path);
        let (code, text) = run_str(&format!(
            "hetero --query {q_path} --db {db_path} --frac 0.5 --lanes 4 --top 1"
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("Algorithm 2"), "{text}");
        assert!(text.contains("GCUPS at this split"), "{text}");
        // Top hit is the planted query itself.
        let hit_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(hit_line.contains(seqs[5].header.as_ref()), "{text}");
    }

    /// The `merged …` block's first `n` hit lines.
    fn merged_hits(text: &str, n: usize) -> Vec<String> {
        text.lines()
            .skip_while(|l| !l.starts_with("merged"))
            .skip(1)
            .take(n)
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn hetero_dynamic_reports_metrics_and_same_hits() {
        let db_path = tmp("het2.fasta");
        run_str(&format!(
            "gendb --seqs 30 --out {db_path} --seed 4 --mean-len 90"
        ));
        let q_path = tmp("hetq2.fasta");
        write_query(&read_db(&db_path), 5, &q_path);
        let common = format!("--query {q_path} --db {db_path} --frac 0.5 --lanes 4 --top 3");
        let (code, stat) = run_str(&format!("hetero {common}"));
        assert_eq!(code, 0, "{stat}");
        // `--accel-threads 0` is a CPU-only region, not one accelerator
        // worker.
        for (accel, pools) in [(2, "accel: 2 workers"), (0, "accel: 0 workers, 0 tasks")] {
            let (code, dynamic) = run_str(&format!(
                "hetero {common} --dynamic --threads 2 --accel-threads {accel}"
            ));
            assert_eq!(code, 0, "{dynamic}");
            // Per-device metrics lines reach the user.
            assert!(dynamic.contains("dynamic dual-pool"), "{dynamic}");
            assert!(
                dynamic.contains("cpu  : 2 workers") && dynamic.contains(pools),
                "{dynamic}"
            );
            assert!(dynamic.contains("GCUPS"), "{dynamic}");
            // The hit list is identical to the static split's.
            assert_eq!(
                merged_hits(&stat, 3),
                merged_hits(&dynamic, 3),
                "\nstatic:\n{stat}\ndynamic:\n{dynamic}"
            );
        }
    }

    #[test]
    fn hetero_fault_drill_recovers_with_identical_hits() {
        // Enough real work per batch (~50 batches at lanes 4) that the
        // accel pool always reaches its first chunk before the CPU pool
        // drains the queue — the kill-pool fault then reliably fires. The
        // longest sequence is capped below the default titin, whose batch
        // lane refill would fill with the whole database.
        let db_path = tmp("het3.fasta");
        run_str(&format!(
            "gendb --seqs 200 --out {db_path} --seed 4 --mean-len 300 --max-len 2000"
        ));
        let q_path = tmp("hetq3.fasta");
        write_query(&read_db(&db_path), 5, &q_path);
        let common = format!(
            "--query {q_path} --db {db_path} --frac 0.5 --lanes 4 --top 3 \
             --dynamic --threads 2 --accel-threads 1"
        );
        let (code, clean) = run_str(&format!("hetero {common}"));
        assert_eq!(code, 0, "{clean}");
        let (code, drilled) = run_str(&format!("hetero {common} --inject-fault kill-pool@0"));
        assert_eq!(code, 0, "{drilled}");
        assert!(drilled.contains("fault drill"), "{drilled}");
        assert!(drilled.contains("DEGRADED"), "{drilled}");
        assert!(drilled.contains("[pool retired]"), "{drilled}");
        // Recovery costs time, never correctness: same hit list either way.
        assert_eq!(
            merged_hits(&clean, 3),
            merged_hits(&drilled, 3),
            "\nclean:\n{clean}\ndrilled:\n{drilled}"
        );
    }

    #[test]
    fn hetero_trace_outputs_validate_and_match_printed_counters() {
        // One fault-injected dynamic run exporting both artifacts: the
        // JSONL log must validate and show the recovery sequence in
        // order, and the Prometheus counters must equal the numbers the
        // CLI itself printed (both read `outcome.cpu` and `outcome.accel`).
        let db_path = tmp("het5.fasta");
        run_str(&format!(
            "gendb --seqs 200 --out {db_path} --seed 4 --mean-len 300 --max-len 2000"
        ));
        let q_path = tmp("hetq5.fasta");
        write_query(&read_db(&db_path), 5, &q_path);
        let trace_jsonl = tmp("het5.trace.jsonl");
        let prom_path = tmp("het5.metrics.prom");
        let common = format!(
            "--query {q_path} --db {db_path} --frac 0.5 --lanes 4 --top 1 \
             --dynamic --threads 2 --accel-threads 1"
        );
        let (code, text) = run_str(&format!(
            "hetero {common} --inject-fault kill@0 \
             --trace-out {trace_jsonl} --metrics-out {prom_path}"
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("# trace:"), "{text}");
        assert!(text.contains("# metrics:"), "{text}");
        assert!(
            text.contains("recovery:"),
            "kill@0 must cost a retry: {text}"
        );

        let jtext = std::fs::read_to_string(&trace_jsonl).unwrap();
        let report = sw_trace::validate::validate_jsonl(&jtext).unwrap();
        assert!(report.events > 0 && report.spans > 0, "{report:?}");
        let lines: Vec<&str> = jtext.lines().collect();
        let lost = lines
            .iter()
            .position(|l| l.contains("\"lease_lost\""))
            .unwrap_or_else(|| panic!("no lease_lost event:\n{jtext}"));
        let requeued = lines
            .iter()
            .position(|l| l.contains("\"lease_requeued\""))
            .unwrap_or_else(|| panic!("no lease_requeued event:\n{jtext}"));
        let reexec = lines
            .iter()
            .position(|l| l.contains("\"chunk_claim\"") && l.contains("\"attempts\":1"))
            .unwrap_or_else(|| panic!("no re-execution claim:\n{jtext}"));
        assert!(
            lost <= requeued && requeued < reexec,
            "recovery events out of order: lost@{lost} requeued@{requeued} reexec@{reexec}"
        );

        let ptext = std::fs::read_to_string(&prom_path).unwrap();
        sw_trace::validate::validate_prometheus_strict(&ptext).unwrap();
        // Sum a counter over both device labels.
        let prom_total = |name: &str| -> u64 {
            let prefix = format!("{name}{{");
            ptext
                .lines()
                .filter(|l| l.starts_with(&prefix))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        // Totals from the printed "#   <pool>: recovery: ..." lines.
        let mut printed = [0u64; 4]; // retries, requeues, lost leases, failures
        for l in text.lines().filter(|l| l.contains("recovery:")) {
            let nums: Vec<u64> = l
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            assert_eq!(nums.len(), 4, "unexpected recovery line: {l}");
            for (slot, n) in printed.iter_mut().zip(nums) {
                *slot += n;
            }
        }
        assert_eq!(prom_total("sw_retries_total"), printed[0], "{ptext}");
        assert_eq!(prom_total("sw_requeues_total"), printed[1], "{ptext}");
        assert_eq!(prom_total("sw_lost_leases_total"), printed[2], "{ptext}");
        assert_eq!(prom_total("sw_failures_total"), printed[3], "{ptext}");

        // trace-check accepts both artifacts.
        let (code, checked) = run_str(&format!(
            "trace-check --trace {trace_jsonl} --metrics {prom_path}"
        ));
        assert_eq!(code, 0, "{checked}");
        assert_eq!(checked.matches(": OK (").count(), 2, "{checked}");

        // A non-.jsonl path gets Chrome trace JSON with per-worker tracks.
        let trace_json = tmp("het5.trace.json");
        let (code, text) = run_str(&format!("hetero {common} --trace-out {trace_json}"));
        assert_eq!(code, 0, "{text}");
        let ctext = std::fs::read_to_string(&trace_json).unwrap();
        assert!(ctext.starts_with('{'), "{ctext}");
        assert!(ctext.contains("\"traceEvents\""), "{ctext}");
    }

    #[test]
    fn hetero_trace_requires_dynamic() {
        assert_refused_before_open(
            "hetero --trace-out t.json",
            "--trace-out requires --dynamic",
        );
        assert_refused_before_open(
            "hetero --metrics-out m.prom",
            "--metrics-out requires --dynamic",
        );
    }

    #[test]
    fn trace_check_rejects_garbage() {
        let bad = tmp("garbage.jsonl");
        std::fs::write(&bad, "this is not a trace\n").unwrap();
        let (code, text) = run_str(&format!("trace-check --trace {bad}"));
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("error"), "{text}");
    }

    #[test]
    fn hetero_fault_drill_requires_dynamic() {
        assert_refused_before_open(
            "hetero --inject-fault kill@0",
            "--inject-fault requires --dynamic",
        );
    }

    #[test]
    fn quarantine_skips_bad_records_and_reports() {
        let db_path = tmp("quar1.fasta");
        // Record 2 has an illegal residue, record 3 is empty; 1 and 4 are
        // clean. Default mode aborts; --quarantine keeps the clean ones.
        std::fs::write(
            &db_path,
            ">ok1\nMKVLITRAW\n>bad residue\nMKV1LIT\n>empty\n>ok2\nWARTILVKM\n",
        )
        .unwrap();
        let q_path = tmp("quarq1.fasta");
        std::fs::write(&q_path, ">q\nMKVLITRAW\n").unwrap();

        let (code, text) = run_str(&format!("search --query {q_path} --db {db_path}"));
        assert_eq!(code, 1, "default mode must abort: {text}");
        let (code, text) = run_str(&format!(
            "search --query {q_path} --db {db_path} --quarantine --lanes 4 --top 2"
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("# quarantine"), "{text}");
        assert!(text.contains("2 records kept"), "{text}");
        assert!(text.contains("ok1"), "clean records still searched: {text}");

        // makedb honors the same flag.
        let snap = tmp("quar1.swdb");
        let (code, text) = run_str(&format!("makedb --in {db_path} --out {snap}"));
        assert_eq!(code, 1, "{text}");
        let (code, text) = run_str(&format!("makedb --in {db_path} --out {snap} --quarantine"));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("wrote 2 sequences"), "{text}");
    }

    #[test]
    fn hetero_checkpoint_requires_dynamic() {
        assert_refused_before_open(
            "hetero --checkpoint-dir ckpts",
            "--checkpoint-dir requires --dynamic",
        );
        assert_refused_before_open(
            "hetero --dynamic --kill-after-chunks 2",
            "--kill-after-chunks requires --checkpoint-dir",
        );
    }

    #[test]
    fn hetero_durable_clean_run_completes_and_cleans_up() {
        let db_path = tmp("dur1.fasta");
        run_str(&format!(
            "gendb --seqs 30 --out {db_path} --seed 4 --mean-len 90"
        ));
        let q_path = tmp("durq1.fasta");
        write_query(&read_db(&db_path), 5, &q_path);
        let ckpt = tmp("dur1-ckpts");
        let common = format!("--query {q_path} --db {db_path} --frac 0.5 --lanes 4 --top 3");
        let (code, plain) = run_str(&format!(
            "hetero {common} --dynamic --threads 2 --accel-threads 2"
        ));
        assert_eq!(code, 0, "{plain}");
        let (code, durable) = run_str(&format!(
            "hetero {common} --dynamic --threads 2 --accel-threads 2 \
             --checkpoint-dir {ckpt}"
        ));
        assert_eq!(code, 0, "{durable}");
        assert_eq!(
            std::fs::read_dir(&ckpt).expect("checkpoint dir").count(),
            0,
            "completed run deletes its checkpoint"
        );
        // Same hit list with and without checkpointing.
        assert_eq!(
            merged_hits(&plain, 3),
            merged_hits(&durable, 3),
            "\nplain:\n{plain}\ndurable:\n{durable}"
        );
    }

    #[test]
    fn bench_command_runs() {
        let (code, text) = run_str("bench --seqs 100 --query-len 80 --lanes 8");
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("intrinsic-SP"), "{text}");
        assert!(text.contains("GCUPS"), "{text}");
    }

    #[test]
    fn simulate_xeon_reports_paper_rate() {
        let (code, text) = run_str("simulate --device xeon --db-scale 0.05 --query-len 2000");
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("GCUPS"), "{text}");
    }

    #[test]
    fn missing_file_is_clean_error() {
        let (code, text) = run_str("stats --db /nonexistent/x.fasta");
        assert_eq!(code, 1);
        assert!(text.contains("error"));
    }

    #[test]
    fn submit_json_mode_streams_wire_lines() {
        // An in-process daemon exercises the client-side --json /
        // --metrics / --health paths end to end: raw line-delimited
        // JSON on submit and stats, a validator-clean scrape, and the
        // health probe's exit status.
        let fasta = tmp("servejson.fasta");
        let snap = tmp("servejson.swdb");
        run_str(&format!(
            "gendb --seqs 30 --out {fasta} --seed 21 --mean-len 80"
        ));
        let (code, text) = run_str(&format!("makedb --in {fasta} --out {snap}"));
        assert_eq!(code, 0, "{text}");
        let q_path = tmp("servejson-q.fasta");
        write_query(&read_db(&fasta), 2, &q_path);

        let socket = tmp("servejson.sock");
        let _ = std::fs::remove_file(&socket);
        let serve_line = format!("serve --db {snap} --socket {socket} --log-level off");
        let daemon = std::thread::spawn(move || run_str(&serve_line));
        let mut ready = false;
        for _ in 0..400 {
            if run_str(&format!("submit --socket {socket} --health")).0 == 0 {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(ready, "daemon never became ready");

        // --json on the submit path: every output line is one JSON
        // object, ack first, end marker last.
        let (code, text) = run_str(&format!(
            "submit --socket {socket} --query {q_path} --tenant acme --json"
        ));
        assert_eq!(code, 0, "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "ack + state + end at minimum:\n{text}");
        for l in &lines {
            assert!(
                l.starts_with('{') && l.ends_with('}'),
                "not a JSON line: {l}"
            );
        }
        assert_eq!(sw_serve::json::field_bool(lines[0], "ok"), Some(true));
        assert_eq!(
            sw_serve::json::field_str(lines[1], "state").as_deref(),
            Some("done")
        );
        assert_eq!(
            sw_serve::json::field_bool(lines.last().unwrap(), "end"),
            Some(true)
        );

        // --json on stats: one JSON line carrying cumulative counters.
        let (code, text) = run_str(&format!("submit --socket {socket} --stats --json"));
        assert_eq!(code, 0, "{text}");
        let line = text.lines().next().unwrap();
        assert_eq!(
            sw_serve::json::field_u64(line, "done_total"),
            Some(1),
            "{line}"
        );

        // --metrics passes the Prometheus scrape through verbatim.
        let (code, text) = run_str(&format!("submit --socket {socket} --metrics"));
        assert_eq!(code, 0);
        sw_trace::validate::validate_prometheus_strict(&text).unwrap();

        let (code, _) = run_str(&format!("submit --socket {socket} --shutdown"));
        assert_eq!(code, 0);
        let (code, text) = daemon.join().unwrap();
        assert_eq!(code, 0, "{text}");
    }

    #[test]
    fn parse_then_execute_consistency() {
        // `parse` output feeds `execute` directly; spot-check the koppeling.
        let argv: Vec<String> = "gendb --seqs 10 --out /tmp/swsearch-tests/k.fasta"
            .split_whitespace()
            .map(String::from)
            .collect();
        let cmd = parse(&argv).unwrap();
        let mut out = Vec::new();
        execute(cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("generated 10"));
    }
}
