//! Everything between process start and the first measurable operation:
//! generate the database, prepare it, take it through the on-disk
//! formats the CLI takes it through, and bring daemons up. Each step is
//! one call to a layer's public function inside one span, so the same
//! code yields `setup_s` (untraced, whole) and the `seq.*` / `swdb.*`
//! set-up layer numbers (traced, per step).

use crate::daemon::Daemon;
use crate::host;
use crate::inputs::{self, Plan, WireHit, LANES, TOP};
use crate::spans::{Recorder, SpanId};
use std::path::Path;
use std::sync::Arc;
use sw_core::{PreparedDb, SearchConfig, SearchEngine};
use sw_seq::{Alphabet, EncodedSeq};
use sw_serve::{Endpoint, ServeConfig, ShardRole, ShardSpec};
use sw_swdb::{shard, snapshot, SequenceDatabase};

/// Which parts of the stack a run needs up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parts {
    /// The whole database prepared in-process.
    pub engine: bool,
    /// A unix-socket daemon over the whole database (implies `engine`).
    pub serve: bool,
    /// Two TCP shard workers over the length-sorted halves.
    pub fabric: bool,
}

impl Parts {
    pub const ENGINE: Parts = Parts {
        engine: true,
        serve: false,
        fabric: false,
    };
    pub const SERVE: Parts = Parts {
        engine: true,
        serve: true,
        fabric: false,
    };
    pub const FABRIC: Parts = Parts {
        engine: false,
        serve: false,
        fabric: true,
    };
    /// The traced pass times every layer, so it needs all of them.
    pub const ALL: Parts = Parts {
        engine: true,
        serve: true,
        fabric: true,
    };
}

/// A two-worker shard fabric on TCP localhost.
pub struct Fabric {
    /// Coordinator-side view of the workers.
    pub specs: Vec<ShardSpec>,
    /// The length-sorted parent the shards were cut from (global id =
    /// position in it).
    sorted: SequenceDatabase,
    // Held for their Drop: shut down and joined with the fabric.
    _workers: Vec<Daemon>,
}

impl Fabric {
    /// The parent prepared whole: the unsharded run the merged bytes
    /// must reproduce. The checker's, not the fabric's — callers build
    /// it outside the timed set-up.
    pub fn prepare_parent(&self) -> PreparedDb {
        PreparedDb::prepare(sequences_of(&self.sorted), LANES, &Alphabet::protein())
    }
}

/// What set-up hands to the measured loops.
pub struct State {
    /// Residues in the database (whole, sorted or sharded: the same).
    pub residues: u64,
    pub queries: Vec<EncodedSeq>,
    /// FASTA text per query — the submit payload.
    pub fastas: Vec<String>,
    pub prepared: Option<Arc<PreparedDb>>,
    pub daemon: Option<Daemon>,
    pub fabric: Option<Fabric>,
}

fn sequences_of(db: &SequenceDatabase) -> Vec<EncodedSeq> {
    db.iter()
        .map(|(id, v)| EncodedSeq {
            header: db.header(id).into(),
            residues: v.residues.to_vec(),
        })
        .collect()
}

/// SWDBSNP2 write → file → load → digest, as `makedb` + `serve` do.
fn snapshot_roundtrip(seqs: Vec<EncodedSeq>, dir: &Path) -> Result<(Vec<EncodedSeq>, u64), String> {
    let path = dir.join("db.swdb");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::write(
        &path,
        snapshot::write(&SequenceDatabase::from_sequences(seqs)),
    )
    .map_err(io)?;
    let bytes = std::fs::read(&path).map_err(io)?;
    let db = snapshot::read(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((sequences_of(&db), snapshot::content_digest(&db)))
}

/// One shard as `shard-prepare` cuts it and `serve --shard-worker`
/// loads it.
struct Piece {
    role: ShardRole,
    seqs: Vec<EncodedSeq>,
    digest: u64,
}

/// Length-sort, plan two residue-balanced cuts, and take each piece
/// through the SWSHRD1 container.
fn shard_cut(seqs: Vec<EncodedSeq>) -> Result<(SequenceDatabase, Vec<Piece>), String> {
    let sorted = shard::length_sorted(&SequenceDatabase::from_sequences(seqs));
    let parent_digest = snapshot::content_digest(&sorted);
    let ranges = shard::plan_shards(&sorted, 2);
    let count = ranges.len() as u64;
    let mut pieces = Vec::new();
    for (i, range) in ranges.iter().enumerate() {
        let meta = sw_swdb::ShardMeta {
            index: i as u64,
            count,
            base: range.0 as u64,
            parent_digest,
        };
        let bytes = shard::write_shard(&meta, &shard::slice(&sorted, *range));
        let (meta, db) = shard::read_shard(&bytes).map_err(|e| format!("shard {i}: {e}"))?;
        pieces.push(Piece {
            role: ShardRole {
                index: meta.index,
                count: meta.count,
                base: meta.base,
            },
            digest: snapshot::content_digest(&db),
            seqs: sequences_of(&db),
        });
    }
    Ok((sorted, pieces))
}

/// Bring up `parts` over the inputs `plan` describes. Every layer call
/// sits in a span under `parent`; with `rec` off this is the plain
/// set-up whose wall is `setup_s`.
pub fn build(
    parts: Parts,
    plan: &Plan,
    tmp: &Path,
    rec: &Recorder,
    parent: SpanId,
) -> Result<State, String> {
    let alphabet = Alphabet::protein();
    let (mut seqs, queries) = rec.span("seq.gen", parent, 0, || {
        (
            inputs::database(&plan.spec),
            inputs::queries(plan.lens, plan.seed, plan.quick),
        )
    });
    let residues = seqs.iter().map(|s| s.len() as u64).sum();
    let fastas = queries
        .iter()
        .map(|q| inputs::fasta_of(q, &alphabet))
        .collect();
    let prepare = |seqs: Vec<EncodedSeq>| {
        Arc::new(rec.span("swdb.prepare", parent, 0, || {
            PreparedDb::prepare(seqs, LANES, &alphabet)
        }))
    };

    let fabric = if parts.fabric {
        let input = if parts.engine {
            seqs.clone()
        } else {
            std::mem::take(&mut seqs)
        };
        let (sorted, pieces) = rec.span("swdb.shard_cut", parent, 0, || shard_cut(input))?;
        let ckpt = tmp.join("ckpt");
        std::fs::create_dir_all(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
        let mut workers = Vec::new();
        let mut specs = Vec::new();
        for piece in pieces {
            let port = host::free_port().map_err(|e| format!("no free TCP port: {e}"))?;
            let endpoint = Endpoint::parse(&format!("tcp://127.0.0.1:{port}"))?;
            // Exactly what the CLI fleet passes a spawned worker: the
            // shard role, its digest, a shared checkpoint directory.
            let mut config = ServeConfig::at(endpoint.clone());
            config.checkpoint_dir = Some(ckpt.clone());
            config.snapshot_digest = Some(piece.digest);
            config.shard = Some(piece.role);
            specs.push(ShardSpec {
                index: piece.role.index,
                endpoints: vec![endpoint],
                expect_digest: Some(piece.digest),
            });
            let prepared = prepare(piece.seqs);
            workers.push(rec.span("serve.start", parent, 0, || Daemon::start(prepared, config))?);
        }
        Some(Fabric {
            specs,
            sorted,
            _workers: workers,
        })
    } else {
        None
    };

    let mut prepared = None;
    let mut daemon = None;
    if parts.serve {
        let (seqs, digest) = rec.span("swdb.snapshot_roundtrip", parent, 0, || {
            snapshot_roundtrip(seqs, tmp)
        })?;
        let db = prepare(seqs);
        let mut config = ServeConfig::new(tmp.join("serve.sock"));
        config.snapshot_digest = Some(digest);
        daemon = Some(rec.span("serve.start", parent, 0, || {
            Daemon::start(Arc::clone(&db), config)
        })?);
        prepared = Some(db);
    } else if parts.engine {
        prepared = Some(prepare(seqs));
    }

    Ok(State {
        residues,
        queries,
        fastas,
        prepared,
        daemon,
        fabric,
    })
}

/// The in-process answer every measured path is compared to: the
/// engine's own top-K over `db`, in wire form. The caller checks it
/// against the scalar oracle before trusting it.
pub fn reference_hits(db: &PreparedDb, queries: &[EncodedSeq]) -> Vec<Vec<WireHit>> {
    let engine = SearchEngine::paper_default();
    queries
        .iter()
        .map(|q| {
            let res = engine.search(&q.residues, db, &SearchConfig::best(1));
            inputs::wire_of_hits(res.top(TOP), db, 0)
        })
        .collect()
}
