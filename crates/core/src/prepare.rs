//! Database preparation — pipeline step (2) packaged for the engines.

use std::fmt;
use std::sync::OnceLock;
use sw_device::TaskShape;
use sw_seq::{Alphabet, EncodedSeq};
use sw_swdb::{DbStats, LaneBatch, LaneBatcher, SequenceDatabase, SortedDb};

/// A database ready for searching: sorted, batched, with statistics.
#[derive(Debug, Clone)]
pub struct PreparedDb {
    /// The alphabet sequences are encoded under.
    pub alphabet: Alphabet,
    /// Length-sorted database (owns the flat store).
    pub sorted: SortedDb,
    /// Lane batches in sorted order.
    pub batches: Vec<LaneBatch>,
    /// Lane count the batches were packed for.
    pub lanes: usize,
    /// Database statistics (the §V-B table).
    pub stats: DbStats,
    /// [`Self::content_digest`], computed on first use.
    digest: OnceLock<u64>,
}

/// A database sequence holds a residue code the alphabet does not define
/// — a snapshot or shard written under another alphabet, or a corrupted
/// one its format carries no checksum for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidueOutOfRange {
    /// Index of the sequence in the input order.
    pub seq: usize,
    /// Its header.
    pub header: String,
    /// Offset of the residue within the sequence.
    pub offset: usize,
    /// The offending code.
    pub code: u8,
    /// Number of codes the alphabet defines.
    pub alphabet_len: usize,
}

impl fmt::Display for ResidueOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "database sequence {} ('{}') holds residue code {} at offset {}, \
             outside the {}-code alphabet",
            self.seq, self.header, self.code, self.offset, self.alphabet_len
        )
    }
}

impl std::error::Error for ResidueOutOfRange {}

impl PreparedDb {
    /// Prepare owned sequences for `lanes`-wide kernels.
    ///
    /// # Panics
    /// Panics with the [`ResidueOutOfRange`] message when a sequence holds
    /// a code outside `alphabet`; front-ends that load databases from
    /// files call [`Self::try_prepare`] instead.
    pub fn prepare(seqs: Vec<EncodedSeq>, lanes: usize, alphabet: &Alphabet) -> Self {
        Self::try_prepare(seqs, lanes, alphabet).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::prepare`] with the residue-range check as an error. This
    /// is the one place every database passes through (FASTA, both
    /// snapshot versions, shard containers), and the alphabet is known
    /// here: past it every kernel may treat a batch residue as an index
    /// into a `|Σ| + 1`-code table.
    pub fn try_prepare(
        seqs: Vec<EncodedSeq>,
        lanes: usize,
        alphabet: &Alphabet,
    ) -> Result<Self, ResidueOutOfRange> {
        let n = alphabet.len();
        for (seq, s) in seqs.iter().enumerate() {
            // The max-reduction vectorises (6× an early-exit search on a
            // clean database); the offset is only looked up on failure.
            if s.residues.iter().fold(0u8, |m, &r| m.max(r)) as usize >= n {
                let offset = s.residues.iter().position(|&r| r as usize >= n);
                let offset = offset.expect("the maximum is one of the residues");
                return Err(ResidueOutOfRange {
                    seq,
                    header: s.header.to_string(),
                    offset,
                    code: s.residues[offset],
                    alphabet_len: n,
                });
            }
        }
        let db = SequenceDatabase::from_sequences(seqs);
        let stats = DbStats::compute(&db);
        let sorted = SortedDb::new(db);
        let batches = LaneBatcher::new(lanes, alphabet).batch(&sorted);
        Ok(PreparedDb {
            alphabet: alphabet.clone(),
            sorted,
            batches,
            lanes,
            stats,
            digest: OnceLock::new(),
        })
    }

    /// Content digest of the sorted database
    /// ([`sw_swdb::snapshot::content_digest`]): a byte-serial hash over
    /// every resident residue, offset and header, so it is computed once
    /// and kept — every checkpointing region fingerprints its queries
    /// against it. Sound because a `PreparedDb` is only built by
    /// [`Self::try_prepare`] and nothing mutates `sorted` afterwards.
    pub fn content_digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| sw_swdb::snapshot::content_digest(self.sorted.db()))
    }

    /// Number of database sequences.
    pub fn n_seqs(&self) -> usize {
        self.sorted.len()
    }

    /// Total real DP cells for a query of `query_len`.
    pub fn total_cells(&self, query_len: usize) -> u64 {
        query_len as u64 * self.stats.total_residues
    }
}

/// Build task shapes directly from sequence *lengths* — full-scale
/// simulation without materialising residues. Lengths are sorted
/// ascending and chunked `lanes` at a time from the short end, so the one
/// partial group is the *last* (longest) one: the paper model's grouping,
/// which the figures, the tables and `simulate_hetero_dynamic`'s pairing of
/// accelerator groups with CPU batches are built on. The engine's
/// [`sw_swdb::LaneBatcher`] packs differently — from the long end, a lane
/// taking the next sequence where its last one ends — and its padded cells
/// are never more than these.
pub fn shapes_from_lengths(lens: &[u32], lanes: usize, query_len: usize) -> Vec<TaskShape> {
    assert!(lanes >= 1, "need at least one lane");
    let mut sorted: Vec<u32> = lens.to_vec();
    sorted.sort_unstable();
    sorted
        .chunks(lanes)
        .map(|group| {
            let padded = *group.last().expect("chunks are non-empty") as usize;
            TaskShape {
                query_len,
                padded_len: padded,
                lanes,
                real_cells: query_len as u64 * group.iter().map(|&l| l as u64).sum::<u64>(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::gen::{generate_database, DbSpec};

    impl PreparedDb {
        /// Per-batch task shapes for a query of `query_len` — the simulator's
        /// input.
        fn task_shapes(&self, query_len: usize) -> Vec<TaskShape> {
            self.batches
                .iter()
                .map(|b| TaskShape {
                    query_len,
                    padded_len: b.padded_len(),
                    lanes: b.lanes(),
                    real_cells: b.real_cells(query_len),
                })
                .collect()
        }
    }

    fn tiny_db() -> Vec<EncodedSeq> {
        generate_database(&DbSpec::tiny(3))
    }

    #[test]
    fn content_digest_is_the_snapshot_digest_computed_once() {
        let a = Alphabet::protein();
        let p = PreparedDb::prepare(generate_database(&DbSpec::tiny(3)), 8, &a);
        assert!(p.digest.get().is_none(), "nothing is hashed until asked");
        let want = sw_swdb::snapshot::content_digest(p.sorted.db());
        assert_eq!(p.content_digest(), want);
        assert_eq!(p.digest.get(), Some(&want));
        assert_eq!(p.clone().content_digest(), want);
    }

    #[test]
    fn prepare_batches_cover_all_sequences() {
        let a = Alphabet::protein();
        let seqs = tiny_db();
        let n = seqs.len();
        let db = PreparedDb::prepare(seqs, 8, &a);
        assert_eq!(db.n_seqs(), n);
        let total_seqs: usize = db.batches.iter().map(|b| b.n_seqs()).sum();
        assert_eq!(total_seqs, n);
        assert!(db.batches.len() <= n.div_ceil(8));
    }

    #[test]
    fn out_of_range_residue_in_a_v1_snapshot_is_refused_at_prepare() {
        // SWDBSNP1 carries no CRC, so a residue byte the alphabet does not
        // define reads back structurally sound. It must stop here — a
        // materialised profile would index out of its matrix row, a
        // shuffle would score it as some other residue.
        let a = Alphabet::protein();
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"SWDBSNP1");
        v1.extend_from_slice(&2u64.to_le_bytes()); // n_seqs
        v1.extend_from_slice(&5u64.to_le_bytes()); // n_res
        for off in [0u64, 3, 5] {
            v1.extend_from_slice(&off.to_le_bytes());
        }
        v1.extend_from_slice(&[0, 1, 2, 3, 200]); // seq 1 = [3, 200]
        for h in ["first", "second"] {
            v1.extend_from_slice(&(h.len() as u32).to_le_bytes());
            v1.extend_from_slice(h.as_bytes());
        }
        let db = sw_swdb::snapshot::read(&v1).expect("structurally valid v1");
        let seqs = db.to_sequences();
        let err = PreparedDb::try_prepare(seqs.clone(), 8, &a).unwrap_err();
        assert_eq!(
            err,
            ResidueOutOfRange {
                seq: 1,
                header: "second".into(),
                offset: 1,
                code: 200,
                alphabet_len: 24,
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("sequence 1") && msg.contains("offset 1"),
            "{msg}"
        );
        // The pad code itself (24) is not a residue either.
        let mut pad = seqs.clone();
        pad[1].residues[1] = 24;
        assert!(PreparedDb::try_prepare(pad, 8, &a).is_err());
        // The infallible constructor refuses with the same message.
        let panic = std::panic::catch_unwind(|| PreparedDb::prepare(seqs, 8, &a)).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&msg));
    }

    #[test]
    fn task_shapes_conserve_cells() {
        let a = Alphabet::protein();
        let db = PreparedDb::prepare(tiny_db(), 8, &a);
        let shapes = db.task_shapes(100);
        let total: u64 = shapes.iter().map(|s| s.real_cells).sum();
        assert_eq!(total, db.total_cells(100));
    }

    #[test]
    fn prepared_batches_never_pad_more_than_the_model() {
        // The model keeps the paper's one-sequence-per-lane grouping from
        // the short end; the engine refills lanes and never pads more, in
        // no more batches.
        let a = Alphabet::protein();
        let seqs = tiny_db();
        let lens: Vec<u32> = seqs.iter().map(|s| s.len() as u32).collect();
        for lanes in [4usize, 8, 16, 32] {
            for n in [lens.len() / lanes * lanes, lens.len()] {
                let db = PreparedDb::prepare(seqs[..n].to_vec(), lanes, &a);
                let model = shapes_from_lengths(&lens[..n], lanes, 77);
                let engine = db.task_shapes(77);
                let padded = |s: &[TaskShape]| s.iter().map(TaskShape::padded_cells).sum::<u64>();
                let real = |s: &[TaskShape]| s.iter().map(|s| s.real_cells).sum::<u64>();
                assert_eq!(real(&model), real(&engine), "lanes {lanes}, n {n}");
                assert!(padded(&model) >= padded(&engine), "lanes {lanes}, n {n}");
                assert!(model.len() >= engine.len(), "lanes {lanes}, n {n}");
            }
        }
    }

    #[test]
    fn shapes_at_full_swissprot_scale() {
        // The cheap path handles the real 541 561-sequence scale instantly.
        let spec = DbSpec::swissprot_full(1);
        let lens = sw_seq::gen::generate_lengths(&spec);
        let shapes = shapes_from_lengths(&lens, 32, 1000);
        assert_eq!(shapes.len(), 541_561_usize.div_ceil(32));
        let cells: u64 = shapes.iter().map(|s| s.real_cells).sum();
        let residues: u64 = lens.iter().map(|&l| l as u64).sum();
        assert_eq!(cells, 1000 * residues);
        // Padding waste stays small thanks to length sorting.
        let padded: u64 = shapes.iter().map(|s| s.padded_cells()).sum();
        let waste = padded as f64 / cells as f64;
        assert!(waste < 1.05, "waste {waste}");
    }
}
