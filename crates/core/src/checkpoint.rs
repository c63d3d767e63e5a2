//! Crash-safe search checkpoints — the durable half of a resumable
//! heterogeneous search.
//!
//! A long database search on a flaky node can die hours in: the process
//! is OOM-killed, the job scheduler preempts it, the machine loses
//! power. Lease-based recovery (sw-sched) survives *worker* deaths, but
//! not the death of the whole process. This module persists the search's
//! progress so a fresh process can pick up where the dead one stopped:
//!
//! * which lane batches are done, with their hits and cell counts —
//!   batch results are pure functions of the batch's sequence ids, so
//!   replaying only the missing batches yields a byte-identical final hit
//!   list. A record is only trusted for the batch whose ids it carries
//!   ([`Checkpoint::verify_layout`]): a database batched another way has
//!   the same fingerprint;
//! * the split estimator's learned accelerator share, so the resumed run
//!   starts from the observed device balance instead of the static seed;
//! * cumulative recovery totals, so retries/requeues/lost-lease counters
//!   stay monotone across process restarts;
//! * a [`SearchFingerprint`] binding the checkpoint to one exact
//!   (database, query, lane count) triple — resuming against the wrong
//!   database is rejected, not silently merged.
//!
//! # File format (`SWCKPT2`): an append-only commit log
//!
//! ```text
//! magic   [u8; 8]  b"SWCKPT2\0"
//! frames  …        sw_swdb::integrity log frames (len, CRC32s, payload)
//!   header frame, first:
//!     db_digest     u64   sw_swdb::snapshot::content_digest of the sorted db
//!     query_digest  u64   FNV-1a 64 of the encoded query residues
//!     lanes         u64
//!     n_batches     u64
//!     resumes       u64   completed resume count of the writing segment
//!   commit frame, one per clean chunk (or one holding every record):
//!     seq           u64   commit sequence number (monotone per search)
//!     accel_share   u64   f64 bits of the estimator's accelerator share
//!     recovery      2 × (retries, requeues, lost_leases, failures) u64
//!     n_records     u32
//!     batch record  × n_records:
//!       batch    u64      batch index
//!       device   u8       pool that computed it (0 cpu / 1 accel)
//!       real     u64      real DP cells
//!       padded   u64      padded DP cells
//!       rescued  u64      saturated lanes recomputed exactly
//!       n_hits   u32
//!       hit      × n_hits: id u32, score i64
//! ```
//!
//! The region appends one commit frame per clean chunk to each member it
//! touched, so a query's checkpoint bytes are linear in its batches. A
//! drained, cancelled or resumed member and [`Checkpoint::write_atomic`]
//! write the same frames compacted (the header and one commit frame)
//! through `replace_file`. [`Checkpoint::decode`] folds the frames: the
//! records of every frame, the share, totals and sequence number of the
//! last. No fsync: the threat model is *process* death. A torn last frame
//! is dropped; anything else wrong — the whole-file `SWCKPT1` of earlier
//! builds included — is a typed [`CheckpointError::Corrupt`] naming the
//! file, never a silent rerun from scratch (DESIGN §5f).

use crate::results::Hit;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use sw_kernels::CellCount;
use sw_sched::DeviceMetrics;
use sw_seq::SeqId;
use sw_swdb::integrity::{
    put_frame, put_i64, put_u32, put_u64, read_log, replace_file, ByteReader, Fnv64, FormatError,
};
use sw_swdb::LaneBatch;

/// File magic of the commit log, version 2 (version 1 was a whole-file
/// image rewritten on every save).
const MAGIC: &[u8; 8] = b"SWCKPT2\0";

/// Why a checkpoint could not be loaded or used.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file is not a well-formed checkpoint log (another magic, a bad
    /// frame with bytes after it, a field out of range).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The checkpoint is well-formed but belongs to a different search
    /// (database, query, lane count or batch layout changed since it was
    /// written).
    Mismatch {
        /// The fingerprint field that disagreed, or `"batch layout"`.
        field: &'static str,
        /// For `"batch layout"`: the batch whose record carries other
        /// sequence ids than the batch itself.
        batch: Option<usize>,
        /// The value of the present search (for `"batch layout"`, an
        /// FNV-1a digest of the batch's ids).
        expected: u64,
        /// The value stored in the checkpoint (the digest of the record's
        /// ids).
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint: {detail}")
            }
            CheckpointError::Mismatch {
                field,
                batch,
                expected,
                found,
            } => {
                write!(
                    f,
                    "checkpoint does not belong to this search: {field} mismatch"
                )?;
                if let Some(b) = batch {
                    write!(f, " at batch {b}")?;
                }
                write!(
                    f,
                    " (search has {expected:#018x}, checkpoint has {found:#018x})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<FormatError> for CheckpointError {
    fn from(e: FormatError) -> Self {
        CheckpointError::Corrupt {
            detail: e.to_string(),
        }
    }
}

/// Identity of one search: a checkpoint is only valid against the exact
/// database content, query, and lane layout it was written for. Batch
/// indices are meaningless across any of these changing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchFingerprint {
    /// Content digest of the *sorted* database (load-path independent —
    /// a database loaded from FASTA and the same database loaded from a
    /// snapshot fingerprint identically).
    pub db_digest: u64,
    /// FNV-1a 64 of the encoded query residues.
    pub query_digest: u64,
    /// Lane count the batches were packed for.
    pub lanes: u64,
    /// Number of lane batches (the executor's task count).
    pub n_batches: u64,
}

impl SearchFingerprint {
    /// Fingerprint a prepared database + encoded query. The database
    /// half is [`PreparedDb::content_digest`](crate::prepare::PreparedDb::content_digest),
    /// walked once per prepared database, not once per search.
    pub fn compute(db: &crate::prepare::PreparedDb, query: &[u8]) -> Self {
        SearchFingerprint {
            db_digest: db.content_digest(),
            query_digest: Fnv64::new().update(query).finish(),
            lanes: db.lanes as u64,
            n_batches: db.batches.len() as u64,
        }
    }

    /// Canonical checkpoint file name for this search, unique per
    /// (database, query, lane packing): two searches can share one
    /// checkpoint *directory* without their logs clobbering each other,
    /// and a resume finds its own file by recomputing the fingerprint.
    pub fn file_name(&self) -> String {
        format!(
            "swckpt-{:016x}-{:016x}-{}x{}.ckpt",
            self.db_digest, self.query_digest, self.lanes, self.n_batches
        )
    }
}

/// Cumulative recovery counters of one device pool, carried across
/// process restarts so the totals a resumed run reports are monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Chunks re-executed from the requeue list.
    pub retries: u64,
    /// Chunks released un-executed for others to re-run.
    pub requeues: u64,
    /// Leases reclaimed by timeout.
    pub lost_leases: u64,
    /// Failures charged against the pool's budget.
    pub failures: u64,
}

impl RecoveryTotals {
    /// These totals plus the counters one run segment accumulated.
    #[must_use]
    pub fn plus(&self, m: &DeviceMetrics) -> RecoveryTotals {
        RecoveryTotals {
            retries: self.retries + m.retries,
            requeues: self.requeues + m.requeues,
            lost_leases: self.lost_leases + m.lost_leases,
            failures: self.failures + m.failures,
        }
    }

    /// Fold another checkpoint's totals into these (a region that resumes
    /// several queries starts from the sum of their baselines).
    pub(crate) fn add(&mut self, other: &RecoveryTotals) {
        self.retries += other.retries;
        self.requeues += other.requeues;
        self.lost_leases += other.lost_leases;
        self.failures += other.failures;
    }
}

/// One completed lane batch: everything the search needs to *not*
/// recompute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Batch index (task index of the dual-pool executor).
    pub batch: usize,
    /// Device pool that computed it.
    pub device: usize,
    /// The batch's hits.
    pub hits: Vec<Hit>,
    /// Cell accounting of the batch.
    pub cells: CellCount,
    /// Saturated lanes recomputed exactly.
    pub rescued: u64,
}

/// A persisted search state: fingerprint + progress + carried counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which search this belongs to.
    pub fingerprint: SearchFingerprint,
    /// Sequence number of its last commit, monotone within the search.
    pub seq: u64,
    /// How many times the search had been resumed when this was written.
    pub resumes: u64,
    /// The split estimator's accelerator share at its last commit.
    pub accel_share: f64,
    /// Cumulative recovery totals per device (`[cpu, accel]`), including
    /// all prior run segments.
    pub recovery: [RecoveryTotals; 2],
    /// Completed batches.
    pub done: Vec<BatchResult>,
}

/// Start `fingerprint`'s log in `out`: the magic and the header frame.
pub(crate) fn put_header(out: &mut Vec<u8>, fingerprint: &SearchFingerprint, resumes: u64) {
    out.extend_from_slice(MAGIC);
    let fp = fingerprint;
    let words = [
        fp.db_digest,
        fp.query_digest,
        fp.lanes,
        fp.n_batches,
        resumes,
    ];
    put_frame(out, |p| words.iter().for_each(|&v| put_u64(p, v)));
}

/// Append one commit frame: commit `seq`, the share and cumulative
/// totals at that commit, and `records`.
pub(crate) fn put_commit<'b>(
    out: &mut Vec<u8>,
    seq: u64,
    accel_share: f64,
    recovery: &[RecoveryTotals; 2],
    records: impl ExactSizeIterator<Item = &'b BatchResult>,
) {
    put_frame(out, |p| {
        put_u64(p, seq);
        put_u64(p, accel_share.to_bits());
        for r in recovery {
            for v in [r.retries, r.requeues, r.lost_leases, r.failures] {
                put_u64(p, v);
            }
        }
        put_u32(p, records.len() as u32);
        for b in records {
            put_u64(p, b.batch as u64);
            p.push(b.device as u8);
            put_u64(p, b.cells.real);
            put_u64(p, b.cells.padded);
            put_u64(p, b.rescued);
            put_u32(p, b.hits.len() as u32);
            for h in &b.hits {
                put_u32(p, h.id.0);
                put_i64(p, h.score);
            }
        }
    });
}

impl Checkpoint {
    /// The compacted log image: the header frame and one commit frame
    /// holding every record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, &self.fingerprint, self.resumes);
        let (share, recovery) = (self.accel_share, &self.recovery);
        put_commit(&mut out, self.seq, share, recovery, self.done.iter());
        out
    }

    /// Fold a log image back into a checkpoint: `None` when it holds no
    /// commit yet (a crash before its first whole commit frame). A torn
    /// last frame is dropped; anything else wrong is
    /// [`CheckpointError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Option<Checkpoint>, CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt { detail };
        let (frames, _) = read_log(MAGIC, bytes)?;
        let Some((header, commits)) = frames.split_first().filter(|(_, c)| !c.is_empty()) else {
            return Ok(None);
        };
        let mut r = ByteReader::new(header);
        let fingerprint = SearchFingerprint {
            db_digest: r.u64("db digest")?,
            query_digest: r.u64("query digest")?,
            lanes: r.u64("lane count")?,
            n_batches: r.u64("batch count")?,
        };
        let resumes = r.u64("resume count")?;
        r.finish()?;
        let n_batches = fingerprint.n_batches;
        let mut ckpt = Checkpoint {
            fingerprint,
            seq: 0,
            resumes,
            accel_share: 0.0,
            recovery: Default::default(),
            done: Vec::new(),
        };
        for frame in commits {
            let mut r = ByteReader::new(frame);
            ckpt.seq = r.u64("sequence number")?;
            let accel_share = f64::from_bits(r.u64("accel share")?);
            if !(accel_share.is_finite() && (0.0..=1.0).contains(&accel_share)) {
                return Err(corrupt(format!("accel share {accel_share} outside [0, 1]")));
            }
            ckpt.accel_share = accel_share;
            for rec in &mut ckpt.recovery {
                rec.retries = r.u64("recovery retries")?;
                rec.requeues = r.u64("recovery requeues")?;
                rec.lost_leases = r.u64("recovery lost leases")?;
                rec.failures = r.u64("recovery failures")?;
            }
            for _ in 0..r.u32("record count")? {
                let batch = r.u64("batch index")?;
                if batch >= n_batches {
                    return Err(corrupt(format!(
                        "batch index {batch} out of range (search has {n_batches} batches)"
                    )));
                }
                let device = r.u8("device")?;
                if device > 1 {
                    return Err(corrupt(format!(
                        "device {device} is neither cpu (0) nor accel (1)"
                    )));
                }
                let real = r.u64("real cells")?;
                let padded = r.u64("padded cells")?;
                let rescued = r.u64("rescued lanes")?;
                let n_hits = r.u32("hit count")?;
                let mut hits = Vec::with_capacity((n_hits as usize).min(r.rest().len() / 12));
                for _ in 0..n_hits {
                    let id = r.u32("hit id")?;
                    let score = r.i64("hit score")?;
                    hits.push(Hit {
                        id: SeqId(id),
                        score,
                    });
                }
                ckpt.done.push(BatchResult {
                    batch: batch as usize,
                    device: device as usize,
                    hits,
                    cells: CellCount { real, padded },
                    rescued,
                });
            }
            r.finish()?;
        }
        let mut batches: Vec<usize> = ckpt.done.iter().map(|b| b.batch).collect();
        batches.sort_unstable();
        if let Some(w) = batches.windows(2).find(|w| w[0] == w[1]) {
            return Err(corrupt(format!("batch {} recorded twice", w[0])));
        }
        Ok(Some(ckpt))
    }

    /// Reject a checkpoint that does not belong to the search identified
    /// by `fp`.
    pub fn verify(&self, fp: &SearchFingerprint) -> Result<(), CheckpointError> {
        let pairs = [
            ("database digest", fp.db_digest, self.fingerprint.db_digest),
            (
                "query digest",
                fp.query_digest,
                self.fingerprint.query_digest,
            ),
            ("lane count", fp.lanes, self.fingerprint.lanes),
            ("batch count", fp.n_batches, self.fingerprint.n_batches),
        ];
        for (field, expected, found) in pairs {
            if expected != found {
                return Err(CheckpointError::Mismatch {
                    field,
                    batch: None,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Reject a checkpoint whose records were cut by another batching of
    /// the same database: each record's hit ids must be exactly the ids of
    /// the batch it names, in lane order, and its cells that batch's cells
    /// for a query of `query_len` residues. The fingerprint cannot catch
    /// this — another layout of the same sequences can have the same batch
    /// count — and resuming such records would repeat some sequences in the
    /// hit list and drop others, or misreport the cells searched.
    pub fn verify_layout(
        &self,
        batches: &[LaneBatch],
        query_len: usize,
    ) -> Result<(), CheckpointError> {
        let digest = |ids: &[SeqId]| {
            ids.iter()
                .fold(Fnv64::new(), |d, id| d.update_u64(id.0 as u64))
                .finish()
        };
        for record in &self.done {
            let batch = batches.get(record.batch);
            let want = batch.map_or(&[][..], LaneBatch::ids);
            let found: Vec<SeqId> = record.hits.iter().map(|h| h.id).collect();
            let cells = batch.map_or((0, 0), |b| {
                (b.real_cells(query_len), b.padded_cells(query_len))
            });
            for (field, expected, found) in [
                ("batch layout", digest(want), digest(&found)),
                ("real cells", cells.0, record.cells.real),
                ("padded cells", cells.1, record.cells.padded),
            ] {
                if expected != found {
                    return Err(CheckpointError::Mismatch {
                        field,
                        batch: Some(record.batch),
                        expected,
                        found,
                    });
                }
            }
        }
        Ok(())
    }

    /// Write the compacted log atomically (tmp + rename, no fsync — see
    /// the module doc): a crash mid-write leaves the previous file
    /// intact. Returns the number of bytes written.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, CheckpointError> {
        let bytes = self.encode();
        replace_file(path, &bytes, false)?;
        Ok(bytes.len() as u64)
    }

    /// Load and fold a checkpoint log if it holds a commit: `Ok(None)`
    /// when the file is missing or holds none — the resume path's "fresh
    /// start or continue?" probe. `Io` and `Corrupt` errors name `path`:
    /// in a shared checkpoint directory that is how the operator learns
    /// which file to inspect or delete.
    pub fn load_if_exists(path: &Path) -> Result<Option<Checkpoint>, CheckpointError> {
        let named = |detail: String| format!("{}: {detail}", path.display());
        match fs::read(path) {
            Ok(bytes) => Checkpoint::decode(&bytes).map_err(|e| match e {
                CheckpointError::Corrupt { detail } => CheckpointError::Corrupt {
                    detail: named(detail),
                },
                other => other,
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CheckpointError::Io(io::Error::new(
                e.kind(),
                named(e.to_string()),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: SearchFingerprint {
                db_digest: 0x1122_3344_5566_7788,
                query_digest: 0x99aa_bbcc_ddee_ff00,
                lanes: 8,
                n_batches: 40,
            },
            seq: 3,
            resumes: 1,
            accel_share: 0.375,
            recovery: [
                RecoveryTotals {
                    retries: 1,
                    requeues: 2,
                    lost_leases: 0,
                    failures: 2,
                },
                RecoveryTotals {
                    retries: 4,
                    requeues: 5,
                    lost_leases: 1,
                    failures: 6,
                },
            ],
            done: vec![
                BatchResult {
                    batch: 0,
                    device: 0,
                    hits: vec![
                        Hit {
                            id: SeqId(7),
                            score: 55,
                        },
                        Hit {
                            id: SeqId(2),
                            score: -3,
                        },
                    ],
                    cells: CellCount {
                        real: 1000,
                        padded: 1200,
                    },
                    rescued: 1,
                },
                BatchResult {
                    batch: 39,
                    device: 1,
                    hits: Vec::new(),
                    cells: CellCount {
                        real: 10,
                        padded: 16,
                    },
                    rescued: 0,
                },
            ],
        }
    }

    /// `sample()` as the whole-file `SWCKPT1` encoder of earlier builds
    /// wrote it: a file of that format is refused, never folded.
    const SWCKPT1_IMAGE: &[u8] =
        b"SWCKPT1\0\xed\xa6\xa1!\x88wfUD3\"\x11\0\xff\xee\xdd\xcc\xbb\xaa\x99\x08\0\0\0\0\0\0\0(\0\
        \0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\xd8?\x01\0\0\0\0\0\0\0\x02\
        \0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0\x01\
        \0\0\0\0\0\0\0\x06\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\xe8\x03\0\0\0\0\0\0\
        \xb0\x04\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\0\0\x07\0\0\x007\0\0\0\0\0\0\0\x02\0\0\0\xfd\
        \xff\xff\xff\xff\xff\xff\xff'\0\0\0\0\0\0\0\x01\x0a\0\0\0\0\0\0\0\x10\0\0\0\0\0\0\0\0\0\
        \0\0\0\0\0\0\0\0\0\0";

    /// `sample().encode()`: the compacted `SWCKPT2` log.
    const GOLDEN: &[u8] =
        b"SWCKPT2\0(\0\0\0\xcdX\xc2DYrGp\x88wfUD3\"\x11\0\xff\xee\xdd\xcc\xbb\xaa\x99\x08\0\0\0\
        \0\0\0\0(\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\xb6\0\0\0Z\xce]\x19\x1c2\x1b\xde\x03\0\0\0\0\
        \0\0\0\0\0\0\0\0\0\xd8?\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x02\0\0\0\
        \0\0\0\0\x04\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x06\0\0\0\0\0\0\0\x02\0\
        \0\0\0\0\0\0\0\0\0\0\0\xe8\x03\0\0\0\0\0\0\xb0\x04\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\
        \0\0\x07\0\0\x007\0\0\0\0\0\0\0\x02\0\0\0\xfd\xff\xff\xff\xff\xff\xff\xff\'\0\0\0\0\0\
        \0\0\x01\n\0\0\0\0\0\0\0\x10\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0";

    #[test]
    fn golden_bytes_decode_and_reencode() {
        assert_eq!(Checkpoint::decode(GOLDEN).expect("decode"), Some(sample()));
        assert_eq!(sample().encode(), GOLDEN);
    }

    #[test]
    fn the_whole_file_format_of_earlier_builds_is_refused() {
        let err = Checkpoint::decode(SWCKPT1_IMAGE).expect_err("folded");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("not a SWCKPT2 file"), "{err}");
    }

    /// A log image of `sample()`'s header and `commits` as raw payloads.
    fn log_of(commits: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, &sample().fingerprint, 1);
        for c in commits {
            put_frame(&mut out, |p| p.extend_from_slice(c));
        }
        out
    }

    /// The payload of `sample()`'s compacted commit frame.
    fn commit_payload(c: &Checkpoint) -> Vec<u8> {
        let image = c.encode();
        read_log(MAGIC, &image).expect("log").0[1].to_vec()
    }

    #[test]
    fn absurd_counts_are_truncation_errors_not_allocations() {
        // CRC-valid frames whose stored counts promise far more records
        // than the payload holds: the decoder must refuse them without
        // reserving memory for the promise.
        let mut c = sample();
        c.done.clear();
        let mut payload = commit_payload(&c);
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Checkpoint::decode(&log_of(&[&payload])).expect_err("accepted");
        assert!(err.to_string().contains("truncated"), "{err}");
        // One record whose hit count is u32::MAX.
        payload[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0; 33]); // batch 0, cpu, three cell words
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Checkpoint::decode(&log_of(&[&payload])).expect_err("accepted");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn frames_fold_into_one_checkpoint() {
        // The region's log: one commit frame per chunk. Records accumulate;
        // the sequence number, share and totals are the last frame's.
        let c = sample();
        let mut first = c.clone();
        first.done.truncate(1);
        (first.seq, first.accel_share) = (1, 0.5);
        first.recovery = Default::default();
        let mut last = c.clone();
        last.done.remove(0);
        let image = log_of(&[&commit_payload(&first), &commit_payload(&last)]);
        assert_eq!(Checkpoint::decode(&image).unwrap(), Some(c.clone()));
        // The same record in two frames is refused.
        let twice = log_of(&[&commit_payload(&c), &commit_payload(&last)]);
        let err = Checkpoint::decode(&twice).expect_err("accepted");
        assert!(err.to_string().contains("batch 39 recorded twice"), "{err}");
        // A log with a header and no commit holds nothing yet.
        assert_eq!(Checkpoint::decode(&log_of(&[])).unwrap(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample();
        let bytes = c.encode();
        let back = Checkpoint::decode(&bytes).expect("round trip");
        assert_eq!(back, Some(c));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let c = Checkpoint {
            done: Vec::new(),
            ..sample()
        };
        assert_eq!(
            Checkpoint::decode(&c.encode()).expect("round trip"),
            Some(c)
        );
    }

    #[test]
    fn no_single_bit_flip_yields_a_checkpoint() {
        // A flip in the magic or the header frame is an error; one in the
        // last (commit) frame's length is an error, and one in its CRC or
        // payload makes it a torn tail, leaving no commit. None of them
        // decodes to a checkpoint.
        let bytes = sample().encode();
        let mut copy = bytes.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert!(
                    !matches!(Checkpoint::decode(&copy), Ok(Some(_))),
                    "flip at byte {i} bit {bit} accepted"
                );
                copy[i] ^= 1 << bit;
            }
        }
        assert_eq!(copy, bytes);
    }

    #[test]
    fn every_truncation_holds_no_commit() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(Checkpoint::decode(&bytes[..len]), Ok(None)),
                "truncation to {len} bytes"
            );
        }
    }

    #[test]
    fn a_torn_tail_is_dropped_and_trailing_fields_are_named() {
        let c = sample();
        let mut bytes = c.encode();
        bytes.extend_from_slice(&[7, 0, 0]); // half a frame head
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), Some(c.clone()));
        // Bytes past a frame's last field, under a valid CRC.
        let mut payload = commit_payload(&c);
        payload.push(0xAB);
        let err = Checkpoint::decode(&log_of(&[&payload])).expect_err("trailing byte accepted");
        assert!(
            err.to_string().contains("trailing"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn out_of_range_batch_index_or_device_rejected() {
        let mut c = sample();
        c.done[1].batch = 40; // == n_batches
        let err = Checkpoint::decode(&c.encode()).expect_err("oob accepted");
        assert!(err.to_string().contains("out of range"), "{err}");
        let mut c = sample();
        c.done[1].device = 2;
        let err = Checkpoint::decode(&c.encode()).expect_err("device 2 accepted");
        assert!(err.to_string().contains("device 2"), "{err}");
    }

    #[test]
    fn fingerprint_mismatches_are_typed_and_named() {
        let c = sample();
        let mut fp = c.fingerprint;
        c.verify(&fp).expect("identical fingerprint verifies");
        fp.db_digest ^= 1;
        let err = c.verify(&fp).expect_err("db digest mismatch");
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                field: "database digest",
                ..
            }
        ));
        let mut fp2 = c.fingerprint;
        fp2.lanes = 16;
        let err2 = c.verify(&fp2).expect_err("lane mismatch");
        assert!(err2.to_string().contains("lane count"), "{err2}");
    }

    #[test]
    fn records_are_verified_against_their_batch() {
        let residues = [0u8; 3];
        let batch = |ids: &[u32]| {
            let seqs: Vec<(SeqId, &[u8])> =
                ids.iter().map(|&i| (SeqId(i), &residues[..])).collect();
            LaneBatch::pack(4, &seqs, 24)
        };
        let mut c = sample();
        c.done.truncate(1); // batch 0: hits on ids 7, 2
        let batches = [batch(&[7, 2]), batch(&[5])];
        let (b, m) = (&batches[0], 10);
        c.done[0].cells = CellCount {
            real: b.real_cells(m),
            padded: b.padded_cells(m),
        };
        c.verify_layout(&batches, m)
            .expect("the record carries its batch's ids and cells");
        let err = c.verify_layout(&batches, m + 1).expect_err("other cells");
        assert!(
            err.to_string().contains("real cells mismatch at batch 0"),
            "{err}"
        );
        for batches in [vec![batch(&[2, 7])], vec![batch(&[7, 2, 5])], Vec::new()] {
            let err = c
                .verify_layout(&batches, m)
                .expect_err("other ids accepted");
            assert!(matches!(
                err,
                CheckpointError::Mismatch {
                    field: "batch layout",
                    batch: Some(0),
                    ..
                }
            ));
            assert!(
                err.to_string().contains("batch layout mismatch at batch 0"),
                "{err}"
            );
        }
    }

    #[test]
    fn write_atomic_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("swckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("search.ckpt");
        let c = sample();
        let bytes = c.write_atomic(&path).expect("write");
        assert_eq!(bytes, c.encode().len() as u64);
        assert!(
            !dir.join("search.ckpt.tmp").exists(),
            "tmp file renamed away"
        );
        assert_eq!(Checkpoint::load_if_exists(&path).expect("load"), Some(c));
        // A corrupt file names the path; a missing one is no checkpoint.
        fs::write(&path, b"SWCKPT1\0garbage").unwrap();
        let err = Checkpoint::load_if_exists(&path).unwrap_err();
        assert!(err.to_string().contains(dir.to_str().unwrap()), "{err}");
        assert_eq!(
            Checkpoint::load_if_exists(&dir.join("absent")).unwrap(),
            None
        );
        fs::remove_file(&path).expect("remove");
        assert_eq!(Checkpoint::load_if_exists(&path).expect("probe"), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_totals_accumulate_monotonically() {
        let base = RecoveryTotals {
            retries: 5,
            requeues: 3,
            lost_leases: 1,
            failures: 4,
        };
        let seg = DeviceMetrics {
            retries: 2,
            requeues: 1,
            lost_leases: 0,
            failures: 1,
            ..DeviceMetrics::default()
        };
        let sum = base.plus(&seg);
        assert_eq!(sum.retries, 7);
        assert_eq!(sum.requeues, 4);
        assert_eq!(sum.lost_leases, 1);
        assert_eq!(sum.failures, 5);
        assert!(sum.retries >= base.retries && sum.failures >= base.failures);
    }
}
