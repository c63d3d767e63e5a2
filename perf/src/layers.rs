//! The traced pass: every layer timed from outside, through its public
//! functions, on the workload's own database and queries. Each probe
//! below gets a slice of `--seconds`; the probe on the workload's own
//! path (engine, daemon or coordinator) gets the largest. All probes
//! run in every traced run, so every per-layer metric is a real
//! measurement on every workload — which of them explains a workload's
//! end-to-end number is the README's interaction table, not a branch
//! here.

use crate::daemon::{scrape_mean, scrape_value, Daemon};
use crate::inputs::{self, WireHit, LANES, TOP};
use crate::loops::{self, for_seconds, CoordSeen, Run};
use crate::setup::{Parts, State};
use crate::spans::{Recorder, SpanId};
use crate::stats::{self, median, paired_ratio, Kind, Metric};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sw_core::{
    BatchQuery, BatchResult, Checkpoint, DurableOptions, HeteroEngine, HeteroSearchConfig, Hit,
    PreparedDb, RecoveryTotals, SearchConfig, SearchEngine, SearchFingerprint, SearchResults,
    TraceConfig,
};
use sw_kernels::arch::{sw_isa_adaptive_sp, sw_isa_qp, sw_isa_sp};
use sw_kernels::overflow::rescue_overflows;
use sw_kernels::{CellCount, KernelIsa, SwParams};
use sw_sched::{run_dual_pool, DualPoolConfig, FaultInjector, MetricsSink};
use sw_serve::client::{self, HitLine};
use sw_serve::{coord, ServeConfig};
use sw_swdb::{QueryProfile, SequenceProfile, SequenceProfileI8};

/// Which probe is the workload's own path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Own {
    Engine,
    Serve,
    Coord,
}

impl Own {
    /// What the path needs up for its end-to-end pass.
    pub fn parts(self) -> Parts {
        match self {
            Own::Engine => Parts::ENGINE,
            Own::Serve => Parts::SERVE,
            Own::Coord => Parts::FABRIC,
        }
    }
}

/// Share of `--seconds` the own-path probe gets; the six others split
/// the rest evenly.
const OWN_SHARE: f64 = 0.46;
const OTHER_SHARE: f64 = (1.0 - OWN_SHARE) / 6.0;

/// Accumulates metrics and pass/fail counts over the probes.
pub struct Sweep<'a> {
    pub state: &'a State,
    /// The whole database, prepared (engine, region and daemon view).
    pub db: &'a Arc<PreparedDb>,
    pub expected: &'a [Vec<WireHit>],
    /// The length-sorted parent and its expected hits (coordinator view).
    pub parent: &'a PreparedDb,
    pub parent_expected: &'a [Vec<WireHit>],
    pub rec: &'a Recorder,
    pub tmp: &'a Path,
    pub seconds: f64,
    pub own: Own,
    pub metrics: Vec<Metric>,
    /// Attempted / failed over every probe's verified operations.
    pub tally: Run,
}

impl Sweep<'_> {
    fn slice(&self, probe: Own) -> f64 {
        self.seconds
            * if probe == self.own {
                OWN_SHARE
            } else {
                OTHER_SHARE
            }
    }

    fn push(&mut self, name: &str, unit: &str, value: f64, n: usize) {
        self.metrics.push(Metric::new(name, unit, value, n));
    }

    /// Count one verified in-process answer over the whole database.
    /// (The tally only counts; its walls are never read.)
    fn check(&mut self, what: &str, k: usize, db: &PreparedDb, res: &SearchResults) {
        let expected = self.expected;
        let got = inputs::wire_of_hits(res.top(TOP), db, 0);
        let got = if got == expected[k] {
            Ok(got)
        } else {
            Err(format!("{what}: hits differ from SearchEngine::search"))
        };
        self.tally.record(k, 0.0, got, &expected[k]);
    }

    /// Run every probe; returns the span-overhead of the own path.
    pub fn run(&mut self) -> Result<(), String> {
        self.setup_layers();
        let engine_overhead = self.engine();
        self.kernel_variants();
        let region_q0_s = self.region()?;
        self.checkpoint()?;
        self.trace();
        let serve_overhead = self.serve(region_q0_s)?;
        let coord_overhead = self.coord()?;
        let (overhead, n) = match self.own {
            Own::Engine => engine_overhead,
            Own::Serve => serve_overhead,
            Own::Coord => coord_overhead,
        };
        self.push("bench.span_overhead_frac", "ratio", overhead, n);
        self.push("bench.spans", "count", self.rec.len() as f64, 1);
        Ok(())
    }

    /// Set-up steps, from the spans `setup::build` recorded.
    fn setup_layers(&mut self) {
        let totals = self.rec.totals();
        for (span, name) in [
            ("seq.gen", "seq.gen_s"),
            ("swdb.prepare", "swdb.prepare_s"),
            ("swdb.snapshot_roundtrip", "swdb.snapshot_roundtrip_s"),
            ("swdb.shard_cut", "swdb.shard_cut_s"),
            ("serve.start", "serve.start_s"),
        ] {
            let (n, total, _) = totals.get(span).copied().unwrap_or_default();
            self.push(name, "s", total, n);
        }
    }

    /// `SearchEngine::search` re-implemented from the public functions
    /// it is made of, one span per call, interleaved with the real
    /// thing: yields every engine / kernel / profile number, checks the
    /// re-implementation returns identical hits, and reconciles the
    /// layers against the untraced wall.
    fn engine(&mut self) -> (f64, usize) {
        let db = Arc::clone(self.db);
        let state = self.state;
        let nq = state.queries.len();
        let engine = SearchEngine::paper_default();
        let config = SearchConfig::best(1);
        let mut plain = Run::new(state);
        let mut traced = Run::new(state);
        let mut rescued_lanes = 0u64;
        let cycles = {
            let mut n = 0;
            for_seconds(self.slice(Own::Engine), |cycle| {
                n += 1;
                for (k, q) in state.queries.iter().enumerate() {
                    let sample = cycle * nq as u32 + k as u32;
                    // Alternate which side goes first so neither always
                    // runs on the warmer cache.
                    for traced_turn in [cycle % 2 == 0, cycle % 2 != 0] {
                        let t0 = Instant::now();
                        let res = if traced_turn {
                            layered_search(self.rec, sample, &q.residues, &db, &config)
                        } else {
                            engine.search(&q.residues, &db, &config)
                        };
                        let wall = t0.elapsed().as_secs_f64();
                        let run = if traced_turn { &mut traced } else { &mut plain };
                        let got = inputs::wire_of_hits(res.top(TOP), &db, 0);
                        run.record(k, wall, Ok(got), &self.expected[k]);
                        if traced_turn {
                            rescued_lanes += res.lanes_rescued;
                        }
                    }
                }
            });
            n
        };

        // Per query length, the median self time of each layer; a
        // layer's reported value is the sum over lengths — seconds per
        // cycle of the workload's queries.
        let roots = self.rec.per_root("core.engine.search");
        let layer = |name: &str| -> f64 {
            (0..nq)
                .map(|k| {
                    let v: Vec<f64> = roots
                        .iter()
                        .filter(|(sample, _)| *sample as usize % nq == k)
                        .map(|(_, by_name)| by_name.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&v)
                })
                .sum()
        };
        let qp = layer("swdb.qp_build");
        let sp = layer("swdb.sp_build");
        let kernel = layer("kernels.sp_i16");
        let rescue = layer("kernels.rescue");
        let sort = layer("core.engine.sort");
        let other = layer("core.engine.search");
        let (traced_s, plain_s) = (fold_p50(&traced.kinds), fold_p50(&plain.kinds));
        let cells: u64 = traced.kinds.iter().map(|k| k.cells).sum();
        let (real, padded) = db.batches.iter().fold((0u64, 0u64), |(r, p), b| {
            (r + b.real_cells(1), p + b.padded_cells(1))
        });

        self.push("swdb.qp_build_s", "s", qp, cycles);
        self.push("swdb.sp_build_s", "s", sp, cycles);
        self.push("swdb.sp_build_share", "ratio", sp / traced_s, cycles);
        self.push(
            "swdb.pad_efficiency",
            "ratio",
            real as f64 / padded as f64,
            db.batches.len(),
        );
        self.push("kernels.sp_i16_s", "s", kernel, cycles);
        self.push(
            "kernels.sp_i16_gcups",
            "GCUPS",
            cells as f64 / kernel / 1e9,
            cycles,
        );
        self.push("kernels.rescue_s", "s", rescue, cycles);
        self.push(
            "kernels.rescued_lanes",
            "count",
            rescued_lanes as f64 / cycles as f64,
            cycles,
        );
        self.push("kernels.share", "ratio", kernel / traced_s, cycles);
        self.push(
            "engine.search_ms_p50",
            "ms",
            stats::p50_ms_fold(&traced.kinds),
            cycles,
        );
        self.push("engine.sort_s", "s", sort, cycles);
        self.push("engine.other_s", "s", other, cycles);
        self.push(
            "engine.reconcile_err",
            "ratio",
            stats::reconcile_err(&[qp, sp, kernel, rescue, sort, other], plain_s),
            cycles,
        );
        let overhead = paired_overhead(&traced.kinds, &plain.kinds);
        self.tally.absorb(plain);
        self.tally.absorb(traced);
        (overhead, cycles)
    }

    /// The non-default kernel variants over every batch, first query:
    /// they move nothing end to end until a default changes — they are
    /// here so that change can be argued from numbers.
    fn kernel_variants(&mut self) {
        let db = Arc::clone(self.db);
        let query = &self.state.queries[0].residues;
        let params = SwParams::paper_default();
        let isa = KernelIsa::detect();
        let block = Some(SearchConfig::best(1).effective_block_rows(LANES));
        let cells = query.len() as u64 * db.stats.total_residues;
        let qp = QueryProfile::build(query, &params.matrix, &db.alphabet);
        let (mut qp_s, mut adaptive_s) = (Vec::new(), Vec::new());
        let (mut widened, mut lanes) = (0u64, 0u64);
        let mut mismatches = 0u64;
        for_seconds(self.seconds * OTHER_SHARE, |sweep| {
            let (mut t_qp, mut t_ad) = (0.0, 0.0);
            for batch in &db.batches {
                let sp = SequenceProfile::build(batch, &params.matrix, &db.alphabet);
                let reference = sw_isa_sp::<LANES>(isa, query, &sp, batch, &params.gap, block);
                let t0 = Instant::now();
                let out = self.rec.span("kernels.qp_i16", SpanId::NONE, sweep, || {
                    sw_isa_qp::<LANES>(isa, &qp, batch, &params.gap, block)
                });
                t_qp += t0.elapsed().as_secs_f64();
                mismatches += u64::from(out != reference);
                let t0 = Instant::now();
                let (out, cascade) =
                    self.rec
                        .span("kernels.sp_adaptive", SpanId::NONE, sweep, || {
                            // The engine's adaptive path narrows the profile per
                            // batch, so that cost belongs to the variant.
                            let sp8 = SequenceProfileI8::from_wide(&sp);
                            sw_isa_adaptive_sp::<LANES>(isa, query, &sp, &sp8, batch, &params.gap)
                        });
                t_ad += t0.elapsed().as_secs_f64();
                mismatches += u64::from(out != reference);
                widened += cascade.widened_i16;
                lanes += cascade.widened_i16 + cascade.settled_i8;
            }
            qp_s.push(t_qp);
            adaptive_s.push(t_ad);
        });
        if mismatches > 0 {
            self.tally.fail(format!(
                "{mismatches} QP/adaptive kernel outputs differ from SP i16"
            ));
        }
        let n = qp_s.len();
        self.push(
            "kernels.qp_i16_gcups",
            "GCUPS",
            cells as f64 / median(&qp_s) / 1e9,
            n,
        );
        self.push(
            "kernels.sp_adaptive_gcups",
            "GCUPS",
            cells as f64 / median(&adaptive_s) / 1e9,
            n,
        );
        self.push(
            "kernels.widened_frac",
            "ratio",
            widened as f64 / lanes as f64,
            n,
        );
    }

    /// The dual-pool region against the flat engine, the batched region
    /// against serial regions, and the bare scheduler. Returns the
    /// region's median wall on the first query (the daemon floor's base).
    fn region(&mut self) -> Result<f64, String> {
        let db = Arc::clone(self.db);
        let queries = &self.state.queries;
        let (q0, k1) = (&queries[0].residues, 1 % queries.len());
        let q1 = &queries[k1].residues;
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let config = HeteroSearchConfig::best(1, 1);
        let plan = hetero.plan_split(&db, q0.len().max(q1.len()), 0.55);
        let flat = SearchConfig::best(2);
        let batch = [(1, q0), (2, q1)].map(|(id, residues)| BatchQuery {
            residues,
            id,
            cancel: None,
            tracer: None,
        });
        let (mut region, mut flat_s, mut batch2, mut serial) = (vec![], vec![], vec![], vec![]);
        let mut err = None;
        for_seconds(self.seconds * OTHER_SHARE, |cycle| {
            let t0 = Instant::now();
            let out = self
                .rec
                .span("core.hetero.search_dynamic", SpanId::NONE, cycle, || {
                    hetero.search_dynamic(q0, &db, &plan, &config)
                });
            region.push(t0.elapsed().as_secs_f64());
            self.check("search_dynamic", 0, &db, &out.results);

            let t0 = Instant::now();
            let res = hetero.engine.search(q0, &db, &flat);
            flat_s.push(t0.elapsed().as_secs_f64());
            self.check("search threads=2", 0, &db, &res);

            let t0 = Instant::now();
            let many = self
                .rec
                .span("core.hetero.search_many", SpanId::NONE, cycle, || {
                    hetero.search_many_resumable(
                        &batch,
                        &db,
                        &plan,
                        &config,
                        &FaultInjector::none(),
                        &DurableOptions::default(),
                    )
                });
            batch2.push(t0.elapsed().as_secs_f64());
            match many {
                Ok(out) => {
                    for (k, q) in [0, k1].into_iter().zip(&out.queries) {
                        match &q.results {
                            Some(res) => self.check("search_many_resumable", k, &db, res),
                            None => self
                                .tally
                                .fail("search_many_resumable dropped a query".into()),
                        }
                    }
                }
                Err(e) => err = Some(format!("search_many_resumable: {e}")),
            }

            let t0 = Instant::now();
            hetero.search_dynamic(q0, &db, &plan, &config);
            hetero.search_dynamic(q1, &db, &plan, &config);
            serial.push(t0.elapsed().as_secs_f64());
        });
        if let Some(e) = err {
            return Err(e);
        }
        let n = region.len();
        self.push("region.search_ms_p50", "ms", median(&region) * 1e3, n);
        self.push(
            "region.over_flat",
            "ratio",
            paired_ratio(&region, &flat_s),
            n,
        );
        self.push(
            "region.batch2_over_serial",
            "ratio",
            paired_ratio(&batch2, &serial),
            n,
        );

        let sink = MetricsSink::new();
        let bare: Vec<f64> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                run_dual_pool(
                    db.batches.len(),
                    DualPoolConfig::new(1, 1),
                    |_| 1,
                    |_, _| (),
                    &sink,
                );
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.push("sched.bare_pool_us", "us", median(&bare) * 1e6, bare.len());
        Ok(median(&region))
    }

    /// What durability costs: one atomic checkpoint write, and a durable
    /// region with a checkpoint directory against one without.
    fn checkpoint(&mut self) -> Result<(), String> {
        let db = Arc::clone(self.db);
        let q0 = &self.state.queries[0].residues;
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let config = HeteroSearchConfig::best(1, 1);
        let plan = hetero.plan_split(&db, q0.len(), 0.55);

        // A full checkpoint of this search: every batch committed.
        let res = hetero.engine.search(q0, &db, &SearchConfig::best(1));
        let mut score = vec![0i64; db.n_seqs()];
        for h in &res.hits {
            score[h.id.0 as usize] = h.score;
        }
        let full = Checkpoint {
            fingerprint: SearchFingerprint::compute(&db, q0),
            seq: 1,
            resumes: 0,
            accel_share: 0.55,
            recovery: [RecoveryTotals::default(); 2],
            done: db
                .batches
                .iter()
                .enumerate()
                .map(|(i, b)| BatchResult {
                    batch: i,
                    device: 0,
                    hits: b
                        .ids()
                        .iter()
                        .map(|&id| Hit {
                            id,
                            score: score[id.0 as usize],
                        })
                        .collect(),
                    cells: CellCount {
                        real: b.real_cells(q0.len()),
                        padded: b.padded_cells(q0.len()),
                    },
                    rescued: 0,
                })
                .collect(),
        };
        let path = self.tmp.join("probe.ckpt");
        let mut bytes = 0;
        let mut writes = Vec::new();
        for i in 0..20 {
            let t0 = Instant::now();
            bytes = self
                .rec
                .span("core.checkpoint.write_atomic", SpanId::NONE, i, || {
                    full.write_atomic(&path)
                })
                .map_err(|e| format!("checkpoint write: {e}"))?;
            writes.push(t0.elapsed().as_secs_f64());
        }
        self.push(
            "checkpoint.write_ms",
            "ms",
            median(&writes) * 1e3,
            writes.len(),
        );
        self.push("checkpoint.bytes", "bytes", bytes as f64, 1);

        let dir = self.tmp.join("probe-ckpt");
        let durable = DurableOptions {
            checkpoint_dir: Some(&dir),
            // The interval the daemon (and so every shard worker) runs at.
            interval_chunks: ServeConfig::new("unused").interval_chunks,
            resume: true,
            ..DurableOptions::default()
        };
        let (mut with, mut without) = (Vec::new(), Vec::new());
        let mut err = None;
        for_seconds(self.seconds * OTHER_SHARE, |cycle| {
            for (opts, walls) in [
                (&durable, &mut with),
                (&DurableOptions::default(), &mut without),
            ] {
                let t0 = Instant::now();
                let out = self
                    .rec
                    .span("core.hetero.search_durable", SpanId::NONE, cycle, || {
                        hetero.search_dynamic_resumable(
                            q0,
                            &db,
                            &plan,
                            &config,
                            &FaultInjector::none(),
                            opts,
                        )
                    });
                walls.push(t0.elapsed().as_secs_f64());
                match out.map(|o| o.outcome) {
                    Ok(Some(o)) => self.check("search_dynamic_resumable", 0, &db, &o.results),
                    Ok(None) => err = Some("durable search drained unasked".to_string()),
                    Err(e) => err = Some(format!("durable search: {e}")),
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        self.push(
            "checkpoint.overhead_frac",
            "ratio",
            paired_ratio(&with, &without) - 1.0,
            with.len(),
        );
        Ok(())
    }

    /// The scheduler's own event journal, full detail against off.
    fn trace(&mut self) {
        let db = Arc::clone(self.db);
        let q0 = &self.state.queries[0].residues;
        let hetero = HeteroEngine::new(SearchEngine::paper_default());
        let off = HeteroSearchConfig::best(1, 1);
        let full = off.with_trace(TraceConfig::full());
        let plan = hetero.plan_split(&db, q0.len(), 0.55);
        let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
        for_seconds(self.seconds * OTHER_SHARE, |cycle| {
            let order = if cycle % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            for on in order {
                let t0 = Instant::now();
                let out = hetero.search_dynamic(q0, &db, &plan, if on { &full } else { &off });
                let wall = t0.elapsed().as_secs_f64();
                (if on { &mut on_s } else { &mut off_s }).push(wall);
                self.check("search_dynamic traced", 0, &db, &out.results);
            }
        });
        self.push(
            "trace.full_overhead_frac",
            "ratio",
            paired_ratio(&on_s, &off_s) - 1.0,
            on_s.len(),
        );
    }

    /// The daemon from outside: health, the client-side phases of a
    /// submit under two closed-loop clients, the daemon's own phase
    /// histograms, and the same loop at a zero gather window.
    fn serve(&mut self, region_q0_s: f64) -> Result<(f64, usize), String> {
        let state = self.state;
        let endpoint = &state
            .daemon
            .as_ref()
            .expect("traced pass starts a daemon")
            .endpoint;
        let slice = self.slice(Own::Serve);

        let health: Vec<f64> = (0..25)
            .map(|i| {
                let t0 = Instant::now();
                let reply = self.rec.span("serve.health", SpanId::NONE, i, || {
                    client::request_endpoint(endpoint, &client::health_request())
                });
                if !matches!(&reply, Ok(l) if !l.is_empty()) {
                    self.tally.fail(format!("health probe failed: {reply:?}"));
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.push(
            "serve.health_ms_p50",
            "ms",
            median(&health) * 1e3,
            health.len(),
        );

        // Traced and untraced in alternating one-second turns, so a host
        // dip lands on both sides.
        let off = Recorder::off("untraced");
        let mut traced = Run::new(state);
        let mut plain = Run::new(state);
        let mut seen = loops::ServeSeen::default();
        for_seconds(slice * 0.7, |_| {
            let first = traced.attempted as u32;
            let (run, s) =
                loops::closed_loop(endpoint, state, self.expected, self.rec, first, 2, 1.0);
            traced.absorb(run);
            seen.times.extend(s.times);
            seen.batches.extend(s.batches);
            let (run, _) = loops::closed_loop(endpoint, state, self.expected, &off, 0, 2, 1.0);
            plain.absorb(run);
        });
        let scrape = client::request_endpoint(endpoint, &client::metrics_request())
            .map_err(|e| format!("metrics scrape: {e}"))?;

        let window0 = {
            let mut config = ServeConfig::new(self.tmp.join("window0.sock"));
            config.batch_window_ms = 0;
            let daemon = Daemon::start(Arc::clone(self.db), config)?;
            let (run, _) = loops::closed_loop(
                &daemon.endpoint,
                state,
                self.expected,
                &off,
                0,
                2,
                slice * 0.3,
            );
            daemon.stop()?;
            run
        };

        let n = seen.times.len();
        if n == 0 {
            return Err(format!("no daemon request succeeded: {:?}", traced.errors));
        }
        let col = |f: fn(&crate::daemon::RequestTimes) -> f64| -> Vec<f64> {
            seen.times.iter().map(f).collect()
        };
        let q0_request = median(&traced.kinds[0].walls);
        self.push(
            "serve.request_ms_p50",
            "ms",
            stats::p50_ms_fold(&traced.kinds),
            n,
        );
        self.push("serve.ack_ms_p50", "ms", median(&col(|t| t.ack)) * 1e3, n);
        self.push(
            "serve.first_hit_ms_p50",
            "ms",
            median(&col(|t| t.first_hit)) * 1e3,
            n,
        );
        self.push(
            "serve.stream_ms_p50",
            "ms",
            median(&col(|t| t.eof - t.first_hit)) * 1e3,
            n,
        );
        self.push(
            "serve.floor_over_inproc",
            "ratio",
            q0_request / region_q0_s,
            traced.kinds[0].walls.len(),
        );
        self.push("serve.batch_mean", "count", stats::mean(&seen.batches), n);
        self.push(
            "serve.window0_request_ms_p50",
            "ms",
            stats::p50_ms_fold(&window0.kinds),
            stats::n_samples(&window0.kinds),
        );
        for (family, name) in [
            ("sw_serve_admit_us", "serve.admit_ms_mean"),
            ("sw_serve_gather_us", "serve.gather_ms_mean"),
            ("sw_serve_run_us", "serve.run_ms_mean"),
        ] {
            let us = scrape_mean(&scrape, family)
                .ok_or_else(|| format!("scrape has no {family} observations"))?;
            self.push(name, "ms", us / 1e3, n);
        }
        let rejected = scrape_value(&scrape, "sw_serve_rejected_total").unwrap_or(0.0);
        self.push("serve.rejected", "count", rejected, 1);
        if rejected > 0.0 {
            self.tally
                .fail(format!("daemon refused {rejected} submit(s)"));
        }

        let overhead = (fold_p50(&traced.kinds) - fold_p50(&plain.kinds)) / fold_p50(&plain.kinds);
        self.tally.absorb(traced);
        self.tally.absorb(plain);
        self.tally.absorb(window0);
        Ok((overhead, n))
    }

    /// The shard fabric from outside: the coordinator against a flat
    /// two-thread search of the same database, one worker alone, the
    /// probe every attempt opens with, and the merge alone.
    fn coord(&mut self) -> Result<(f64, usize), String> {
        let state = self.state;
        let fabric = state.fabric.as_ref().expect("traced pass starts a fabric");
        let parent = self.parent;
        let slice = self.slice(Own::Coord);

        // Traced coordinator, untraced coordinator and the flat
        // two-thread search take turns, one cycle each.
        let off = Recorder::off("untraced");
        let engine = SearchEngine::paper_default();
        let two_threads = SearchConfig::best(2);
        let mut traced = Run::new(state);
        let mut plain = Run::new(state);
        let mut flat = Run::new(state);
        let mut seen = CoordSeen::default();
        for_seconds(slice, |cycle| {
            let expected = self.parent_expected;
            // Alternate which side goes first, as in `engine`.
            for traced_turn in [cycle % 2 == 0, cycle % 2 != 0] {
                let (rec, run) = if traced_turn {
                    (self.rec, &mut traced)
                } else {
                    (&off, &mut plain)
                };
                loops::sharded_cycle(fabric, state, expected, rec, cycle, run, &mut seen);
            }
            for (k, q) in state.queries.iter().enumerate() {
                let t0 = Instant::now();
                let res = engine.search(&q.residues, parent, &two_threads);
                let wall = t0.elapsed().as_secs_f64();
                let got = inputs::wire_of_hits(res.top(TOP), parent, 0);
                flat.record(k, wall, Ok(got), &expected[k]);
            }
        });

        // One worker alone, and the health probe each shard attempt
        // starts with, both through the public client.
        let submit = client::submit_request("probe", &state.fastas[0], TOP, None);
        let mut per_shard: Vec<Vec<HitLine>> = Vec::new();
        let mut worker_s = Vec::new();
        for (i, spec) in fabric.specs.iter().enumerate() {
            // Shard 0 is timed five times, the others once for the merge.
            for rep in 0..if i == 0 { 5 } else { 1 } {
                let t0 = Instant::now();
                let lines = self
                    .rec
                    .span("serve.coord.worker_submit", SpanId::NONE, rep, || {
                        client::request_endpoint(&spec.endpoints[0], &submit)
                    })
                    .map_err(|e| format!("direct submit to shard {i}: {e}"))?;
                if i == 0 {
                    worker_s.push(t0.elapsed().as_secs_f64());
                }
                if rep == 0 {
                    per_shard.push(client::parse_submit_response(&lines)?.hits);
                }
            }
        }
        let probes: Vec<f64> = (0..15)
            .map(|i| {
                let t0 = Instant::now();
                let _ = self.rec.span("serve.coord.probe", SpanId::NONE, i, || {
                    client::request_endpoint(
                        &fabric.specs[0].endpoints[0],
                        &client::health_request(),
                    )
                });
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let mut merges = Vec::new();
        let mut merged = Vec::new();
        for _ in 0..100 {
            let input = per_shard.clone();
            let t0 = Instant::now();
            merged = coord::merge_hits(input, TOP);
            merges.push(t0.elapsed().as_secs_f64());
        }
        let merged = inputs::wire_of_lines(&merged);
        self.tally.record(0, 0.0, merged, &self.parent_expected[0]);

        let n = stats::n_samples(&traced.kinds);
        if n == 0 {
            return Err(format!("no sharded search succeeded: {:?}", traced.errors));
        }
        self.push(
            "coord.search_ms_p50",
            "ms",
            stats::p50_ms_fold(&traced.kinds),
            n,
        );
        self.push(
            "coord.over_flat",
            "ratio",
            paired_overhead(&traced.kinds, &flat.kinds) + 1.0,
            n,
        );
        self.push(
            "coord.worker_run_ms_p50",
            "ms",
            median(&worker_s) * 1e3,
            worker_s.len(),
        );
        self.push(
            "coord.probe_ms_p50",
            "ms",
            median(&probes) * 1e3,
            probes.len(),
        );
        self.push("coord.merge_us", "us", median(&merges) * 1e6, merges.len());
        self.push("coord.requeues", "count", seen.requeues as f64, n);
        self.push("coord.net_retries", "count", seen.net_retries as f64, n);

        let overhead = paired_overhead(&traced.kinds, &plain.kinds);
        self.tally.absorb(traced);
        self.tally.absorb(plain);
        self.tally.absorb(flat);
        Ok((overhead, n))
    }
}

/// `a ÷ b − 1` over every interleaved pair of samples of the same query
/// length (sample `i` of `a` ran next to sample `i` of `b`).
fn paired_overhead(a: &[Kind], b: &[Kind]) -> f64 {
    let (a, b): (Vec<f64>, Vec<f64>) = a
        .iter()
        .zip(b)
        .flat_map(|(a, b)| a.walls.iter().copied().zip(b.walls.iter().copied()))
        .unzip();
    paired_ratio(&a, &b) - 1.0
}

/// Σ over query lengths of the per-length median wall, seconds.
fn fold_p50(kinds: &[Kind]) -> f64 {
    kinds.iter().map(|k| median(&k.walls)).sum()
}

/// `SearchEngine::search` (intrinsic SP, blocked, one thread) rebuilt
/// from the public functions it calls, each inside a span: query
/// profile, then per lane batch sequence profile → i16 kernel → exact
/// rescue of saturated lanes, then the top-K sort.
fn layered_search(
    rec: &Recorder,
    sample: u32,
    query: &[u8],
    db: &PreparedDb,
    config: &SearchConfig,
) -> SearchResults {
    let params = SwParams::paper_default();
    let root = rec.begin("core.engine.search", SpanId::NONE, sample);
    // The engine builds the query profile whatever the variant.
    let _qp = rec.span("swdb.qp_build", root, sample, || {
        QueryProfile::build(query, &params.matrix, &db.alphabet)
    });
    let block = Some(config.effective_block_rows(db.lanes));
    let start = Instant::now();
    let mut hits = Vec::with_capacity(db.n_seqs());
    let mut cells = CellCount::default();
    let mut rescued = 0;
    for batch in &db.batches {
        let sp = rec.span("swdb.sp_build", root, sample, || {
            SequenceProfile::build(batch, &params.matrix, &db.alphabet)
        });
        let mut out = rec.span("kernels.sp_i16", root, sample, || {
            sw_isa_sp::<LANES>(config.isa, query, &sp, batch, &params.gap, block)
        });
        if out.any_overflow() {
            rescued += rec.span("kernels.rescue", root, sample, || {
                let lane_seqs: Vec<&[u8]> = batch
                    .ids()
                    .iter()
                    .map(|&id| db.sorted.db().seq(id).residues)
                    .collect();
                rescue_overflows(&mut out, query, batch, &lane_seqs, &params).lanes_rescued
            });
        }
        hits.extend(
            batch
                .ids()
                .iter()
                .zip(&out.scores)
                .map(|(&id, &score)| Hit { id, score }),
        );
        cells.add(CellCount {
            real: batch.real_cells(query.len()),
            padded: batch.padded_cells(query.len()),
        });
    }
    let res = rec.span("core.engine.sort", root, sample, || {
        SearchResults::new(hits, start.elapsed(), cells, rescued)
    });
    rec.end(root);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_search_returns_the_engines_hits_and_partitions_its_wall() {
        let alphabet = sw_seq::Alphabet::protein();
        let db = PreparedDb::prepare(inputs::database(&inputs::sp100(5, true)), LANES, &alphabet);
        let query = &inputs::queries(&inputs::SHORT_LENS, 5, true)[2].residues;
        let config = SearchConfig::best(1);
        let rec = Recorder::on("test");
        let layered = layered_search(&rec, 0, query, &db, &config);
        let real = SearchEngine::paper_default().search(query, &db, &config);
        assert_eq!(layered.hits, real.hits);
        assert_eq!(layered.cells, real.cells);
        assert_eq!(layered.lanes_rescued, real.lanes_rescued);

        let roots = rec.per_root("core.engine.search");
        assert_eq!(roots.len(), 1);
        let by_name = &roots[0].1;
        let wall = rec.totals()["core.engine.search"].1;
        assert!(
            (by_name.values().sum::<f64>() - wall).abs() < 1e-9,
            "self times partition the root"
        );
        assert!(by_name.contains_key("kernels.sp_i16") && by_name.contains_key("swdb.sp_build"));
        // And with the recorder off nothing is recorded.
        let off = Recorder::off("test");
        assert_eq!(layered_search(&off, 0, query, &db, &config).hits, real.hits);
        assert_eq!(off.len(), 0);
    }
}
