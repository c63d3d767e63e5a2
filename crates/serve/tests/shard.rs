//! Sharded-search acceptance: the coordinator's merged top-K must be
//! byte-identical to the unsharded engine's, at 1, 2 and 4 shards, with
//! equal-score ties deliberately straddling every shard boundary — and
//! a dead shard worker must be requeued, respawned and resumed from its
//! SWCKPT2 checkpoint without perturbing a single output byte.
//!
//! Workers here are in-process `serve` daemons (one scoped thread per
//! shard, each with its own leaked `'static` drain signal minted by a
//! [`Signals`] guard that stops them all if the test body unwinds);
//! `sw-cli`'s `shard_session` test runs the same drill against real
//! processes with a real SIGKILL.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sw_core::{HeteroEngine, HeteroSearchConfig, PreparedDb, SearchConfig, SearchEngine};
use sw_sched::{DrainSignal, NetFaultInjector, NetFaultPlan};
use sw_seq::gen::generate_query;
use sw_seq::{Alphabet, EncodedSeq};
use sw_serve::{
    client, coord, json, CommittedShard, CoordConfig, CoordDrill, CoordJournal, Endpoint,
    NetTransport, ServeConfig, ShardRole, ShardSpec, ShardTransport, Stream,
};
use sw_swdb::integrity::{fnv1a64, read_log, FRAME_HEAD};

const LANES: usize = 4;
const TOP: usize = 12;

/// Each in-process daemon needs its own `'static` signal (a
/// `DrainSignal` never resets), and respawns need fresh ones at
/// runtime — so they are minted, not declared. Every test body owns one
/// `Signals` inside its thread scope: dropping it requests every signal
/// it minted, so a failed assertion unwinds into stopped workers and a
/// failed test, not into the scope's join of daemons nobody told to
/// stop.
#[derive(Default)]
struct Signals(Mutex<Vec<&'static DrainSignal>>);

impl Signals {
    fn mint(&self) -> &'static DrainSignal {
        let signal: &'static DrainSignal = Box::leak(Box::new(DrainSignal::new()));
        self.0.lock().unwrap().push(signal);
        signal
    }
}

impl Drop for Signals {
    fn drop(&mut self) {
        for signal in self.0.get_mut().unwrap_or_else(|e| e.into_inner()).iter() {
            signal.request();
        }
    }
}

/// The production transport with every established connection counted:
/// each one is a connection some worker had to accept.
#[derive(Default)]
struct CountingTransport(AtomicUsize);

impl ShardTransport for CountingTransport {
    fn connect(&self, endpoint: &Endpoint, timeout: Duration) -> std::io::Result<Stream> {
        let stream = NetTransport.connect(endpoint, timeout)?;
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(stream)
    }
}

/// 24 equal-length sequences with 8 byte-identical duplicates parked at
/// positions 10..18: every boundary a 2- or 4-way split of 24 draws
/// (12; 6, 12, 18) lands inside or adjacent to the duplicate run, so
/// the merged top-K only matches the unsharded run if the coordinator
/// applies the exact (score desc, global id asc) tie-break across
/// shards. Equal lengths make the length-sort the identity permutation:
/// global id == input position, on workers and reference alike.
fn tie_heavy_db() -> Vec<EncodedSeq> {
    let mut seqs: Vec<EncodedSeq> = (0..24)
        .map(|i| {
            let mut s = generate_query(60, 1000 + i as u64);
            s.header = format!("seq-{i:02}").into();
            s
        })
        .collect();
    let dup = generate_query(60, 777).residues;
    for (i, s) in seqs.iter_mut().enumerate().take(18).skip(10) {
        s.residues = dup.clone();
        s.header = format!("dup-{i:02}").into();
    }
    seqs
}

fn fasta_of(seq: &EncodedSeq, a: &Alphabet) -> String {
    format!(
        ">{}\n{}\n",
        seq.header,
        String::from_utf8(a.decode(&seq.residues)).expect("ascii residues")
    )
}

/// Contiguous shard ranges, residue-balanced enough for a test: same
/// plan the real `shard-prepare` computes, via the library.
fn ranges(seqs: &[EncodedSeq], n: usize) -> Vec<(usize, usize)> {
    let db = sw_swdb::SequenceDatabase::from_sequences(seqs.to_vec());
    sw_swdb::shard::plan_shards(&db, n)
}

fn shard_digest(seqs: &[EncodedSeq]) -> u64 {
    sw_swdb::snapshot::content_digest(&sw_swdb::SequenceDatabase::from_sequences(seqs.to_vec()))
}

/// The exact wire rendering both the daemon and the coordinator's
/// `--json` mode emit ([`client::HitLine::to_json`]) — the unit of
/// byte-identity in this file.
fn wire_hits(hits: &[client::HitLine]) -> Vec<String> {
    hits.iter().map(client::HitLine::to_json).collect()
}

/// Unsharded reference: one engine, whole database, `SearchResults`
/// tie-break. What every sharded configuration must reproduce.
fn reference_hits(seqs: &[EncodedSeq], query: &EncodedSeq, a: &Alphabet) -> Vec<String> {
    let prepared = PreparedDb::prepare(seqs.to_vec(), LANES, a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let plan = engine.plan_split(&prepared, query.residues.len(), 0.55);
    let res = engine.search(
        &query.residues,
        &prepared,
        &plan,
        &SearchConfig::best(1),
        &SearchConfig::best(1),
    );
    let hits: Vec<client::HitLine> = res
        .top(TOP)
        .iter()
        .zip(1..)
        .map(|(h, rank)| client::HitLine {
            rank,
            score: h.score,
            id: h.id.0 as u64,
            header: prepared.sorted.db().header(h.id).to_string(),
        })
        .collect();
    wire_hits(&hits)
}

fn wait_for_socket(socket: &Path) {
    let t0 = Instant::now();
    while UnixStream::connect(socket).is_err() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never bound {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One shard worker's resident state, owned outside the thread scope so
/// respawn closures can re-serve the same shard.
struct WorkerSeed {
    prepared: PreparedDb,
    config: ServeConfig,
}

fn worker_seed(
    seqs: &[EncodedSeq],
    range: (usize, usize),
    index: u64,
    count: u64,
    a: &Alphabet,
    socket: PathBuf,
    ckpt: &Path,
) -> WorkerSeed {
    let shard_seqs = seqs[range.0..range.1].to_vec();
    let mut config = ServeConfig::new(socket);
    config.checkpoint_dir = Some(ckpt.to_path_buf());
    config.snapshot_digest = Some(shard_digest(&shard_seqs));
    config.shard = Some(ShardRole {
        index,
        count,
        base: range.0 as u64,
    });
    WorkerSeed {
        prepared: PreparedDb::prepare(shard_seqs, LANES, a),
        config,
    }
}

fn serve_seed(
    seed: &WorkerSeed,
    engine: &HeteroEngine,
    a: &Alphabet,
    base: &HeteroSearchConfig,
    signal: &'static DrainSignal,
) {
    // A respawn reuses the socket path of the corpse it replaces.
    if let Some(path) = seed.config.unix_socket() {
        let _ = std::fs::remove_file(path);
    }
    sw_serve::serve(engine, &seed.prepared, a, base, &seed.config, signal).expect("worker serve");
}

/// The worker's unix socket path (every in-process worker here is one).
fn seed_socket(seed: &WorkerSeed) -> PathBuf {
    seed.config
        .unix_socket()
        .expect("unix worker")
        .to_path_buf()
}

/// A one-endpoint spec for shard `index` served by `seed`, checked
/// against the seed's snapshot digest.
fn unix_spec(index: u64, seed: &WorkerSeed) -> ShardSpec {
    ShardSpec {
        index,
        endpoints: vec![Endpoint::Unix(seed_socket(seed))],
        expect_digest: seed.config.snapshot_digest,
    }
}

/// Nothing holds a lone request back: each sharded search has to come
/// back well inside one second.
#[test]
fn sharded_merge_is_byte_identical_at_1_2_4_shards() {
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(90, 4242);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    assert!(
        expect.len() >= 8,
        "reference must be deep enough to cross boundaries: {expect:?}"
    );
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-matrix-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    for n in [1usize, 2, 4] {
        let plan = ranges(&seqs, n);
        assert_eq!(plan.len(), n);
        let seeds: Vec<WorkerSeed> = plan
            .iter()
            .enumerate()
            .map(|(i, r)| {
                worker_seed(
                    &seqs,
                    *r,
                    i as u64,
                    n as u64,
                    &a,
                    tmp.join(format!("n{n}-shard-{i}.sock")),
                    &tmp.join("ckpt"),
                )
            })
            .collect();
        let specs: Vec<ShardSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| unix_spec(i as u64, s))
            .collect();
        let outcome = std::thread::scope(|s| {
            let signals = Signals::default();
            for seed in &seeds {
                let (engine, a, base) = (&engine, &a, &base);
                let sig = signals.mint();
                s.spawn(move || serve_seed(seed, engine, a, base, sig));
            }
            for seed in &seeds {
                wait_for_socket(&seed_socket(seed));
            }
            let mut cfg = CoordConfig::new(TOP);
            // No side-channel heartbeat dials: every connection counted
            // below belongs to the exchange itself.
            cfg.heartbeat_ms = 0;
            let no_respawn = |spec: &ShardSpec, _attempt: u32| -> Result<(), String> {
                Err(format!("unexpected respawn of shard {}", spec.index))
            };
            let transport = CountingTransport::default();
            let t0 = Instant::now();
            let outcome = coord::search_sharded_durable(
                &specs,
                &fasta,
                &cfg,
                &no_respawn,
                &transport,
                &CoordDrill::default(),
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
            let took = t0.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "n={n}: a lone sharded search was held back: {took:?}"
            );
            assert_eq!(
                transport.0.load(Ordering::SeqCst),
                2 * n,
                "n={n}: one identity probe + one submit per shard, no readiness dial"
            );
            for spec in &specs {
                coord::shutdown_worker(spec.endpoint_for(0)).expect("shutdown");
            }
            outcome
        });
        assert_eq!(
            wire_hits(&outcome.hits),
            expect,
            "n={n}: merged top-K must be byte-identical to the unsharded run"
        );
        assert_eq!(outcome.requeues, 0, "n={n}: healthy workers never requeue");
        assert_eq!(outcome.failovers, 0, "n={n}: no replica failovers");
        assert_eq!(outcome.journal_skipped, 0, "n={n}: no journal, no skips");
        assert!(
            outcome.reports.iter().map(|r| r.hits).sum::<usize>() >= expect.len(),
            "n={n}: shards must contribute at least the merged depth"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn dead_worker_is_requeued_respawned_and_resumes_from_checkpoint() {
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(300, 9999);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-drill-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    let plan = ranges(&seqs, 2);
    let seeds: Vec<WorkerSeed> = plan
        .iter()
        .enumerate()
        .map(|(i, r)| {
            worker_seed(
                &seqs,
                *r,
                i as u64,
                2,
                &a,
                tmp.join(format!("shard-{i}.sock")),
                &tmp.join("ckpt"),
            )
        })
        .collect();
    let specs: Vec<ShardSpec> = seeds
        .iter()
        .enumerate()
        .map(|(i, s)| unix_spec(i as u64, s))
        .collect();
    let sockets: Vec<PathBuf> = seeds.iter().map(seed_socket).collect();

    let outcome = std::thread::scope(|s| {
        let signals = Signals::default();
        // Phase A: worker 0 lives briefly — long enough to accept the
        // query, get cancelled mid-delay-drill, and checkpoint — then
        // shuts down. This is the in-process stand-in for "SIGKILLed
        // after its last appended commit": a dead socket with a valid
        // SWCKPT2 file behind it.
        {
            let (engine, a, base) = (&engine, &a, &base);
            let seed0 = &seeds[0];
            let sig = signals.mint();
            let t = s.spawn(move || serve_seed(seed0, engine, a, base, sig));
            wait_for_socket(&sockets[0]);
            let mut conn = UnixStream::connect(&sockets[0]).unwrap();
            let req = client::submit_request("coord", &fasta, TOP, Some("delay@0:400"));
            conn.write_all(req.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut r = BufReader::new(conn);
            let mut ack = String::new();
            r.read_line(&mut ack).unwrap();
            let job = json::field_u64(&ack, "job").expect("ack");
            // Cancel once it holds a run slot, so the checkpoint is of
            // a genuinely in-flight search.
            let t0 = Instant::now();
            loop {
                let st =
                    client::request(&sockets[0], &client::Request::Status(job).render()).unwrap();
                if json::field_str(&st[0], "state").as_deref() == Some("running") {
                    break;
                }
                assert!(t0.elapsed() < Duration::from_secs(10), "job never ran");
                std::thread::sleep(Duration::from_millis(5));
            }
            client::request(&sockets[0], &client::Request::Cancel(job).render()).unwrap();
            for _ in r.lines() {} // drain the cancelled reply
            coord::shutdown_worker(specs[0].endpoint_for(0)).unwrap();
            t.join().unwrap();
            let ckpts = std::fs::read_dir(tmp.join("ckpt")).unwrap().count();
            assert_eq!(ckpts, 1, "dead worker must leave its checkpoint behind");
        }

        // Phase B: worker 1 is healthy; worker 0's socket is a corpse.
        // The coordinator's first attempt on shard 0 must fail to
        // connect, requeue the shard, respawn it, and the respawned
        // worker must resume from phase A's checkpoint.
        {
            let (engine, a, base) = (&engine, &a, &base);
            let sig1 = signals.mint();
            let seed1 = &seeds[1];
            s.spawn(move || serve_seed(seed1, engine, a, base, sig1));
            wait_for_socket(&sockets[1]);
        }
        let mut cfg = CoordConfig::new(TOP);
        cfg.connect_wait_ms = 300; // fail fast on the corpse
        let respawn = |spec: &ShardSpec, _attempt: u32| -> Result<(), String> {
            assert_eq!(spec.index, 0, "only the dead shard may respawn");
            let (engine, a, base) = (&engine, &a, &base);
            let seed0 = &seeds[0];
            let sig = signals.mint();
            s.spawn(move || serve_seed(seed0, engine, a, base, sig));
            Ok(())
        };
        let outcome = coord::search_sharded(&specs, &fasta, &cfg, &respawn).expect("recovered");
        for spec in &specs {
            coord::shutdown_worker(spec.endpoint_for(0)).expect("shutdown");
        }
        outcome
    });

    assert!(
        outcome.requeues >= 1,
        "dead shard must requeue: {outcome:?}"
    );
    assert!(
        outcome.reports[0].attempts >= 2,
        "shard 0 needs a second attempt: {:?}",
        outcome.reports
    );
    assert!(
        outcome.reports[0].resumes >= 1,
        "respawned shard 0 must resume from the checkpoint, not restart: {:?}",
        outcome.reports
    );
    assert_eq!(outcome.reports[1].attempts, 1, "shard 1 was healthy");
    assert_eq!(
        wire_hits(&outcome.hits),
        expect,
        "post-recovery merge must still be byte-identical to the unsharded run"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn wrong_digest_is_fatal_and_never_respawns() {
    // Shard 0's worker is alive and answers its identity probe, but
    // with a snapshot digest the coordinator was not told to expect:
    // a wiring error, reported at once, never retried.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let fasta = fasta_of(&generate_query(90, 2323), &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-identity-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    let seed0 = worker_seed(
        &seqs,
        (0, seqs.len()),
        0,
        1,
        &a,
        tmp.join("shard-0.sock"),
        &tmp.join("ckpt"),
    );
    let want = seed0.config.snapshot_digest.expect("digest") ^ 1;
    let specs = vec![ShardSpec {
        index: 0,
        endpoints: vec![Endpoint::Unix(seed_socket(&seed0))],
        expect_digest: Some(want),
    }];

    let (err, respawns) = std::thread::scope(|s| {
        let signals = Signals::default();
        let (engine, a, base, seed) = (&engine, &a, &base, &seed0);
        let sig = signals.mint();
        s.spawn(move || serve_seed(seed, engine, a, base, sig));
        wait_for_socket(&seed_socket(&seed0));
        let respawns = AtomicUsize::new(0);
        let respawn = |_: &ShardSpec, _: u32| -> Result<(), String> {
            respawns.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        let err = coord::search_sharded(&specs, &fasta, &CoordConfig::new(TOP), &respawn)
            .expect_err("a worker with the wrong digest must not be searched");
        coord::shutdown_worker(specs[0].endpoint_for(0)).expect("shutdown");
        (err, respawns.into_inner())
    });

    assert!(
        matches!(err, coord::CoordError::WrongShard { index: 0, .. }),
        "{err}"
    );
    assert_eq!(respawns, 0, "an identity error is never retried");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn a_fatal_shard_ends_the_search_without_waiting_for_the_others() {
    // Shard 0's worker answers its identity probe with a digest the
    // coordinator was not told to expect (fatal) while shard 1's worker
    // sits in a 3 s injected delay: the search reports `WrongShard` as
    // soon as shard 1's exchange next times out, not after shard 1 ends.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let fasta = fasta_of(&generate_query(90, 2323), &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    // No CPU worker: the calling thread is the one accelerator worker,
    // so `delay@0` fires on every region's first chunk.
    let base = HeteroSearchConfig::best(0, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-abandon-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();
    let seeds: Vec<WorkerSeed> = ranges(&seqs, 2)
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let socket = tmp.join(format!("shard-{i}.sock"));
            worker_seed(&seqs, *r, i as u64, 2, &a, socket, &tmp.join("ckpt"))
        })
        .collect();
    let mut specs: Vec<ShardSpec> = (seeds.iter().enumerate())
        .map(|(i, s)| unix_spec(i as u64, s))
        .collect();
    specs[0].expect_digest = specs[0].expect_digest.map(|d| d ^ 1);

    let (err, took) = std::thread::scope(|s| {
        let signals = Signals::default();
        for seed in &seeds {
            let (engine, a, base) = (&engine, &a, &base);
            let sig = signals.mint();
            s.spawn(move || serve_seed(seed, engine, a, base, sig));
        }
        for seed in &seeds {
            wait_for_socket(&seed_socket(seed));
        }
        let mut cfg = CoordConfig::new(TOP);
        cfg.drill = Some("delay@0:3000".into());
        let no_respawn = |spec: &ShardSpec, _: u32| -> Result<(), String> {
            Err(format!("unexpected respawn of shard {}", spec.index))
        };
        let t0 = Instant::now();
        let err = coord::search_sharded(&specs, &fasta, &cfg, &no_respawn)
            .expect_err("a worker with the wrong digest fails the search");
        let took = t0.elapsed();
        for spec in &specs {
            coord::shutdown_worker(spec.endpoint_for(0)).expect("shutdown");
        }
        (err, took)
    });

    assert!(
        matches!(err, coord::CoordError::WrongShard { index: 0, .. }),
        "{err}"
    );
    assert!(
        took < Duration::from_secs(1),
        "the coordinator waited out shard 1's delay: {took:?}"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn replica_failover_preserves_merged_bytes() {
    // Shard 0's primary endpoint is a corpse that never comes back; its
    // replica (same SWSHRD1 shard, different socket) is alive. The
    // first attempt fails to connect, the requeue walks the endpoint
    // ring onto the replica, and the merge must not move a byte.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(90, 1717);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-replica-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    let plan = ranges(&seqs, 2);
    let replica0 = worker_seed(
        &seqs,
        plan[0],
        0,
        2,
        &a,
        tmp.join("shard-0-r1.sock"),
        &tmp.join("ckpt"),
    );
    let worker1 = worker_seed(
        &seqs,
        plan[1],
        1,
        2,
        &a,
        tmp.join("shard-1-r0.sock"),
        &tmp.join("ckpt"),
    );
    let specs = vec![
        ShardSpec {
            index: 0,
            endpoints: vec![
                Endpoint::Unix(tmp.join("shard-0-r0.sock")), // never bound
                Endpoint::Unix(seed_socket(&replica0)),
            ],
            expect_digest: replica0.config.snapshot_digest,
        },
        unix_spec(1, &worker1),
    ];

    let outcome = std::thread::scope(|s| {
        let signals = Signals::default();
        for seed in [&replica0, &worker1] {
            let (engine, a, base) = (&engine, &a, &base);
            let sig = signals.mint();
            s.spawn(move || serve_seed(seed, engine, a, base, sig));
            wait_for_socket(&seed_socket(seed));
        }
        let mut cfg = CoordConfig::new(TOP);
        cfg.connect_wait_ms = 200; // fail fast on the dead primary
                                   // Failover needs no launcher: the replica is already up.
        let respawn = |spec: &ShardSpec, attempt: u32| -> Result<(), String> {
            assert_eq!((spec.index, attempt), (0, 1), "only shard 0 fails over");
            Ok(())
        };
        let outcome = coord::search_sharded(&specs, &fasta, &cfg, &respawn).expect("failover");
        for seed in [&replica0, &worker1] {
            coord::shutdown_worker(&Endpoint::Unix(seed_socket(seed))).expect("shutdown");
        }
        outcome
    });

    assert!(outcome.failovers >= 1, "replica failover: {outcome:?}");
    assert_eq!(outcome.reports[0].attempts, 2, "{:?}", outcome.reports);
    assert_eq!(outcome.reports[1].attempts, 1, "{:?}", outcome.reports);
    assert_eq!(
        wire_hits(&outcome.hits),
        expect,
        "replica failover must not change merged bytes"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn resumed_coordinator_skips_committed_shards_and_merges_identically() {
    // A coordinator "crashes" after committing shard 0 to its SWCRDJ2
    // journal. The restarted coordinator must not touch shard 0's
    // (now dead) worker at all: it replays the committed hits from the
    // journal, runs only shard 1, and merges to the same bytes.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(90, 3131);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-journal-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    let plan = ranges(&seqs, 2);
    let seeds: Vec<WorkerSeed> = plan
        .iter()
        .enumerate()
        .map(|(i, r)| {
            worker_seed(
                &seqs,
                *r,
                i as u64,
                2,
                &a,
                tmp.join(format!("shard-{i}.sock")),
                &tmp.join("ckpt"),
            )
        })
        .collect();

    // Phase A: run shard 0's worker alone, submit directly, and record
    // its hits the way the pre-crash coordinator would have.
    let shard0_hits = std::thread::scope(|s| {
        let signals = Signals::default();
        let (engine_r, a_r, base_r) = (&engine, &a, &base);
        let seed0 = &seeds[0];
        let sig = signals.mint();
        s.spawn(move || serve_seed(seed0, engine_r, a_r, base_r, sig));
        let socket = seed_socket(&seeds[0]);
        wait_for_socket(&socket);
        let lines = client::request(&socket, &client::submit_request("coord", &fasta, TOP, None))
            .expect("submit");
        let outcome = client::parse_submit_response(&lines).expect("parse");
        coord::shutdown_worker(&Endpoint::Unix(socket)).expect("shutdown");
        outcome.hits
    });
    assert!(!shard0_hits.is_empty(), "shard 0 contributes hits");

    // The journal a SIGKILLed coordinator would have left behind.
    let journal_path = tmp.join("coord.journal");
    let mut journal = CoordJournal::new(fnv1a64(fasta.as_bytes()), 0, TOP as u64, 2);
    journal.shards[0].attempts = 1;
    journal.shards[0].committed = Some(CommittedShard {
        resumes: 0,
        hits: shard0_hits,
    });
    std::fs::write(&journal_path, journal.encode()).expect("journal write");

    // Phase B: only shard 1's worker exists. Shard 0's socket is a
    // corpse — any attempt to contact it would fail the search.
    let outcome = std::thread::scope(|s| {
        let signals = Signals::default();
        let (engine_r, a_r, base_r) = (&engine, &a, &base);
        let seed1 = &seeds[1];
        let sig = signals.mint();
        s.spawn(move || serve_seed(seed1, engine_r, a_r, base_r, sig));
        wait_for_socket(&seed_socket(&seeds[1]));
        let specs: Vec<ShardSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, sd)| unix_spec(i as u64, sd))
            .collect();
        let mut cfg = CoordConfig::new(TOP);
        cfg.connect_wait_ms = 200;
        let drill = CoordDrill {
            faults: None,
            journal: Some(journal_path.clone()),
            resume: true,
        };
        let no_respawn = |spec: &ShardSpec, _attempt: u32| -> Result<(), String> {
            Err(format!("unexpected respawn of shard {}", spec.index))
        };
        let outcome =
            coord::search_sharded_durable(&specs, &fasta, &cfg, &no_respawn, &NetTransport, &drill)
                .expect("resumed search");
        coord::shutdown_worker(specs[1].endpoint_for(0)).expect("shutdown");
        outcome
    });

    assert_eq!(outcome.journal_skipped, 1, "{outcome:?}");
    assert_eq!(
        outcome.reports[0].attempts, 1,
        "shard 0's report comes from the journal: {:?}",
        outcome.reports
    );
    assert_eq!(
        wire_hits(&outcome.hits),
        expect,
        "resume-coord merge must be byte-identical to an uninterrupted run"
    );
    assert!(
        !journal_path.exists(),
        "journal is removed after a clean finish"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn every_crash_point_of_a_coordinator_journal_resumes_to_the_same_bytes() {
    // The crash-point sweep of the coordinator journal: a two-shard log
    // holding shard 0's commit and one retry of shard 1, cut at every
    // frame boundary ±1 and at a stride — every state a crash mid-append
    // can leave. Each resumed coordinator merges to the uninterrupted
    // run's bytes, skipping shard 0 exactly when its commit is whole and
    // carrying shard 1's retry exactly when that record is whole.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(90, 4141);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();
    let seeds: Vec<WorkerSeed> = (ranges(&seqs, 2).iter().enumerate())
        .map(|(i, r)| {
            let socket = tmp.join(format!("shard-{i}.sock"));
            worker_seed(&seqs, *r, i as u64, 2, &a, socket, &tmp.join("ckpt"))
        })
        .collect();
    let specs: Vec<ShardSpec> = (seeds.iter().enumerate())
        .map(|(i, sd)| unix_spec(i as u64, sd))
        .collect();
    let journal_path = tmp.join("coord.journal");

    std::thread::scope(|s| {
        let signals = Signals::default();
        let (engine_r, a_r, base_r) = (&engine, &a, &base);
        for seed in &seeds {
            let sig = signals.mint();
            s.spawn(move || serve_seed(seed, engine_r, a_r, base_r, sig));
            wait_for_socket(&seed_socket(seed));
        }
        let socket0 = seed_socket(&seeds[0]);
        let lines = client::request(
            &socket0,
            &client::submit_request("coord", &fasta, TOP, None),
        )
        .expect("submit");
        let shard0_hits = client::parse_submit_response(&lines).expect("parse").hits;

        let mut journal = CoordJournal::new(fnv1a64(fasta.as_bytes()), 0, TOP as u64, 2);
        journal.shards[0].attempts = 1;
        journal.shards[0].committed = Some(CommittedShard {
            resumes: 0,
            hits: shard0_hits,
        });
        journal.shards[1].attempts = 1;
        let log = journal.encode();
        // Frame ends: the magic, the header, shard 0's commit, shard 1's
        // retry.
        let (frames, _) = read_log(sw_serve::journal::JOURNAL_MAGIC, &log).expect("log");
        let mut ends = vec![8];
        for f in &frames {
            ends.push(ends.last().unwrap() + FRAME_HEAD + f.len());
        }
        assert_eq!(*ends.last().unwrap(), log.len());
        let mut cuts: Vec<usize> = (ends.iter())
            .flat_map(|&e| [e.saturating_sub(1), e, e + 1])
            .chain((0..log.len()).step_by(23))
            .filter(|&k| k <= log.len())
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut cfg = CoordConfig::new(TOP);
        cfg.connect_wait_ms = 200;
        let drill = CoordDrill {
            faults: None,
            journal: Some(journal_path.clone()),
            resume: true,
        };
        // Both workers stay up: a retry's "respawn" has nothing to do
        // but is counted per shard.
        let respawns = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let respawn = |spec: &ShardSpec, _attempt: u32| -> Result<(), String> {
            respawns[spec.index as usize].fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        for &k in &cuts {
            std::fs::write(&journal_path, &log[..k]).expect("prefix");
            let outcome = coord::search_sharded_durable(
                &specs,
                &fasta,
                &cfg,
                &respawn,
                &NetTransport,
                &drill,
            )
            .unwrap_or_else(|e| panic!("cut {k}: {e}"));
            let calls = respawns.each_ref().map(|r| r.swap(0, Ordering::SeqCst));
            assert_eq!(wire_hits(&outcome.hits), expect, "cut {k}");
            let committed = k >= ends[2];
            assert_eq!(outcome.journal_skipped, u64::from(committed), "cut {k}");
            let retried = u32::from(k >= ends[3]);
            assert_eq!(outcome.reports[1].attempts, 1 + retried, "cut {k}");
            assert_eq!(calls, [0, retried as usize], "cut {k}: respawns");
            assert!(!journal_path.exists(), "cut {k}: a clean finish removes it");
        }
        for spec in &specs {
            coord::shutdown_worker(spec.endpoint_for(0)).expect("shutdown");
        }
    });
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn seeded_net_faults_with_replicas_never_change_merged_bytes() {
    // Property-style drill: for several seeds, a seeded network fault
    // plan (refuse / mid-stream drop / black-hole / slow-drip) hits the
    // first attempts of a 2-shard search where every shard has a live
    // replica. Whatever fires, failover + retry must converge on the
    // byte-identical merged top-K.
    let a = Alphabet::protein();
    let seqs = tie_heavy_db();
    let query = generate_query(90, 5151);
    let fasta = fasta_of(&query, &a);
    let expect = reference_hits(&seqs, &query, &a);
    let engine = HeteroEngine::new(SearchEngine::paper_default());
    let base = HeteroSearchConfig::best(1, 1);
    let tmp = std::env::temp_dir().join(format!("sw-shard-netfault-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::create_dir_all(tmp.join("ckpt")).unwrap();

    let plan = ranges(&seqs, 2);
    // Two live workers per shard: primary r0 and replica r1.
    let seeds: Vec<WorkerSeed> = (0..2u64)
        .flat_map(|shard| (0..2u64).map(move |r| (shard, r)).collect::<Vec<_>>())
        .map(|(shard, r)| {
            worker_seed(
                &seqs,
                plan[shard as usize],
                shard,
                2,
                &a,
                tmp.join(format!("shard-{shard}-r{r}.sock")),
                &tmp.join("ckpt"),
            )
        })
        .collect();
    let specs: Vec<ShardSpec> = (0..2usize)
        .map(|shard| ShardSpec {
            index: shard as u64,
            endpoints: vec![
                Endpoint::Unix(seed_socket(&seeds[shard * 2])),
                Endpoint::Unix(seed_socket(&seeds[shard * 2 + 1])),
            ],
            expect_digest: seeds[shard * 2].config.snapshot_digest,
        })
        .collect();

    // Collect inside the scope, assert outside: every seed's outcome
    // is reported, and the workers get their polite shutdown first.
    let runs = std::thread::scope(|s| {
        let signals = Signals::default();
        for seed in &seeds {
            let (engine, a, base) = (&engine, &a, &base);
            let sig = signals.mint();
            s.spawn(move || serve_seed(seed, engine, a, base, sig));
            wait_for_socket(&seed_socket(seed));
        }
        let mut runs = Vec::new();
        for seed in 1..=4u64 {
            let injector = NetFaultInjector::new(NetFaultPlan::seeded(seed, 2, 2));
            let mut cfg = CoordConfig::new(TOP);
            cfg.connect_wait_ms = 300;
            cfg.heartbeat_ms = 40; // fast black-hole detection
            cfg.max_attempts = 4;
            cfg.failure_budget = 8;
            cfg.seed = seed;
            let drill = CoordDrill {
                faults: Some(&injector),
                journal: None,
                resume: false,
            };
            // Workers never actually die here (faults are injected on
            // the coordinator's wire), so failover needs no launcher.
            let respawn = |_: &ShardSpec, _: u32| -> Result<(), String> { Ok(()) };
            let outcome = coord::search_sharded_durable(
                &specs,
                &fasta,
                &cfg,
                &respawn,
                &NetTransport,
                &drill,
            );
            runs.push((seed, outcome, injector.fired_specs()));
        }
        for seed in &seeds {
            coord::shutdown_worker(&Endpoint::Unix(seed_socket(seed))).expect("shutdown");
        }
        runs
    });
    for (seed, outcome, fired) in runs {
        let outcome = outcome.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            wire_hits(&outcome.hits),
            expect,
            "seed {seed}: injected net faults must never change merged bytes"
        );
        assert!(
            !fired.is_empty(),
            "seed {seed}: the plan must actually fire"
        );
        let lethal = fired.iter().filter(|f| f.kind.forces_retry()).count();
        assert_eq!(
            outcome.requeues as usize, lethal,
            "seed {seed}: every retry-forcing fault costs exactly one \
             requeue (fired: {fired:?})"
        );
    }
    std::fs::remove_dir_all(&tmp).ok();
}
