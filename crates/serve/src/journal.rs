//! SWCRDJ2 — the coordinator's crash-survivable attempt journal, an
//! append-only log of `sw_swdb::integrity` frames, fsync'd per record.
//!
//! Each attempt bump and each accepted shard top-K is one record. After a
//! coordinator SIGKILL, `--resume-coord` folds the log into a
//! [`CoordJournal`], validates it against the query, the parent snapshot
//! and K, skips committed shards and reruns the rest from their attempt
//! counts; the merge is a pure function of the per-shard lists, so the
//! bytes equal an uninterrupted run's. A torn last record is dropped and
//! cut off before the next append; a log without a whole header holds
//! nothing, and the search starts afresh.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8  b"SWCRDJ2\0"
//! frames   …  sw_swdb::integrity log frames (len, CRC32s, payload)
//!   header frame, first:
//!     query_digest   u64   FNV-1a of the query FASTA bytes
//!     parent_digest  u64   parent snapshot digest (0 = unknown)
//!     top            u64   merge K
//!     n_shards       u64
//!   record frame, one per attempt bump or commit:
//!     tag          u8    0 attempt | 1 commit
//!     index        u64   shard index
//!     attempts     u32   attempts consumed so far
//!     (commit only)
//!     resumes      u64
//!     hits_digest  u64   FNV-1a over the serialized hit list
//!     n_hits       u64
//!     per hit: score i64, id u64, header_len u64, header bytes
//! ```
//!
//! [`CoordJournal::encode`] writes the same frames compacted: the header
//! and one record per touched shard.

use std::fs;
use std::path::Path;

use crate::client::HitLine;
use sw_swdb::integrity::{put_frame, put_i64, put_u32, put_u64, read_log, ByteReader, Fnv64};

/// Magic prefix of a coordinator journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SWCRDJ2\0";

/// Digest of a committed per-shard hit list (FNV-1a 64, order-sensitive
/// over rank, score, id and header of every hit).
pub fn hits_digest(hits: &[HitLine]) -> u64 {
    let mut d = Fnv64::new();
    for h in hits {
        d = d
            .update_u64(h.rank)
            .update_u64(h.score as u64)
            .update_u64(h.id)
            .update_u64(h.header.len() as u64)
            .update(h.header.as_bytes());
    }
    d.finish()
}

/// A committed shard result held by the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedShard {
    /// Checkpoint resumes the winning attempt stitched together.
    pub resumes: u64,
    /// The shard's accepted top-K (global ids, worker rank order).
    pub hits: Vec<HitLine>,
}

/// Per-shard journal slot: attempt count plus the committed result once
/// the shard has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlot {
    /// Shard index (equals position, kept explicit for validation).
    pub index: u64,
    /// Attempts consumed so far (committed or not).
    pub attempts: u32,
    /// The accepted result, once the shard completed.
    pub committed: Option<CommittedShard>,
}

/// The coordinator journal: identity of the search plus one slot per
/// shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordJournal {
    /// FNV-1a of the query FASTA bytes — a resumed run must be the same
    /// search.
    pub query_digest: u64,
    /// Parent snapshot digest (0 when the caller has none).
    pub parent_digest: u64,
    /// Merge K.
    pub top: u64,
    /// One slot per shard, in shard order.
    pub shards: Vec<ShardSlot>,
}

impl CoordJournal {
    /// A fresh journal with `n_shards` empty slots.
    pub fn new(query_digest: u64, parent_digest: u64, top: u64, n_shards: u64) -> Self {
        CoordJournal {
            query_digest,
            parent_digest,
            top,
            shards: (0..n_shards)
                .map(|index| ShardSlot {
                    index,
                    attempts: 0,
                    committed: None,
                })
                .collect(),
        }
    }

    /// Start the log in `out`: the magic and the header frame.
    pub(crate) fn put_header(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(JOURNAL_MAGIC);
        put_frame(out, |p| {
            for v in [self.query_digest, self.parent_digest, self.top] {
                put_u64(p, v);
            }
            put_u64(p, self.shards.len() as u64);
        });
    }

    /// Append shard `slot`'s present state as one record frame: a commit
    /// once it has one, else its attempt count.
    pub(crate) fn put_slot(&self, out: &mut Vec<u8>, slot: usize) {
        let slot = &self.shards[slot];
        put_frame(out, |p| {
            p.push(u8::from(slot.committed.is_some()));
            put_u64(p, slot.index);
            put_u32(p, slot.attempts);
            if let Some(c) = &slot.committed {
                put_u64(p, c.resumes);
                put_u64(p, hits_digest(&c.hits));
                put_u64(p, c.hits.len() as u64);
                for h in &c.hits {
                    put_i64(p, h.score);
                    put_u64(p, h.id);
                    put_u64(p, h.header.len() as u64);
                    p.extend_from_slice(h.header.as_bytes());
                }
            }
        });
    }

    /// The compacted log image: the header and one record per shard with
    /// an attempt or a commit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_header(&mut out);
        for (i, slot) in self.shards.iter().enumerate() {
            if slot.attempts > 0 || slot.committed.is_some() {
                self.put_slot(&mut out, i);
            }
        }
        out
    }

    /// Fold a log image back into a journal, with the byte length of its
    /// whole frames (where the next append goes): `None` when not even
    /// the header is whole.
    pub fn decode(bytes: &[u8]) -> Result<Option<(Self, u64)>, String> {
        Self::fold(bytes).map_err(|e| format!("coord journal: {e}"))
    }

    fn fold(bytes: &[u8]) -> Result<Option<(Self, u64)>, String> {
        let (frames, whole) = read_log(JOURNAL_MAGIC, bytes)?;
        let Some((header, records)) = frames.split_first() else {
            return Ok(None);
        };
        let mut r = ByteReader::new(header);
        let query_digest = r.u64("query digest")?;
        let parent_digest = r.u64("parent digest")?;
        let top = r.u64("top-K")?;
        let n_shards = r.u64("shard count")?;
        r.finish()?;
        // A fold allocates a slot per shard before reading any record.
        if n_shards > 1 << 16 {
            return Err(format!("implausible shard count {n_shards}"));
        }
        let mut j = CoordJournal::new(query_digest, parent_digest, top, n_shards);
        for record in records {
            let mut r = ByteReader::new(record);
            let tag = r.u8("record tag")?;
            let index = r.u64("shard index")?;
            let slot = (j.shards.get_mut(index as usize))
                .ok_or_else(|| format!("shard {index} out of range ({n_shards} shards)"))?;
            if slot.committed.is_some() {
                return Err(format!("shard {index} recorded after its commit"));
            }
            slot.attempts = r.u32("attempt count")?;
            slot.committed = match tag {
                0 => None,
                1 => {
                    let resumes = r.u64("resume count")?;
                    let digest = r.u64("hits digest")?;
                    let n_hits = r.u64("hit count")?;
                    // Capacity from what the record can hold (a hit is at
                    // least 24 bytes), never from the stored count alone.
                    let cap = (n_hits as usize).min(r.rest().len() / 24);
                    let mut hits = Vec::with_capacity(cap);
                    for rank in 0..n_hits {
                        let score = r.i64("hit score")?;
                        let id = r.u64("hit id")?;
                        let len = r.u64("header length")?;
                        let len = usize::try_from(len).unwrap_or(usize::MAX);
                        let header = std::str::from_utf8(r.bytes(len, "header")?)
                            .map_err(|_| "non-utf8 header".to_string())?;
                        hits.push(HitLine {
                            rank: rank + 1,
                            score,
                            id,
                            header: header.to_string(),
                        });
                    }
                    if hits_digest(&hits) != digest {
                        return Err(format!("shard {index} hit digest mismatch"));
                    }
                    Some(CommittedShard { resumes, hits })
                }
                b => return Err(format!("bad record tag {b}")),
            };
            r.finish()?;
        }
        Ok(Some((j, whole)))
    }

    /// Load and fold a journal file: `None` when it holds no whole header
    /// yet, else the journal and the length its next append starts at.
    pub fn load(path: &Path) -> Result<Option<(Self, u64)>, String> {
        let bytes = fs::read(path).map_err(|e| format!("coord journal {}: {e}", path.display()))?;
        CoordJournal::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Validate that a loaded journal belongs to *this* search: same
    /// query, same parent snapshot (when both sides know it), same K,
    /// same shard count.
    pub fn validate(
        &self,
        query_digest: u64,
        parent_digest: u64,
        top: u64,
        n_shards: u64,
    ) -> Result<(), String> {
        if self.query_digest != query_digest {
            return Err("coord journal: query changed since the journal was written".into());
        }
        if self.parent_digest != 0 && parent_digest != 0 && self.parent_digest != parent_digest {
            return Err("coord journal: parent snapshot digest mismatch".into());
        }
        if self.top != top {
            return Err(format!(
                "coord journal: top-K changed ({} vs {top})",
                self.top
            ));
        }
        if self.shards.len() as u64 != n_shards {
            return Err(format!(
                "coord journal: shard count changed ({} vs {n_shards})",
                self.shards.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_swdb::integrity::{fnv1a64, FRAME_HEAD};

    fn sample() -> CoordJournal {
        let mut j = CoordJournal::new(fnv1a64(b">q\nACDE\n"), 0xfeed, 5, 3);
        j.shards[1].attempts = 2;
        j.shards[1].committed = Some(CommittedShard {
            resumes: 1,
            hits: vec![
                HitLine {
                    rank: 1,
                    score: 42,
                    id: 7,
                    header: "seq7 tie".into(),
                },
                HitLine {
                    rank: 2,
                    score: 40,
                    id: 3,
                    header: "seq3".into(),
                },
            ],
        });
        j.shards[2].attempts = 1;
        j
    }

    /// `sample()` as the whole-file `SWCRDJ1` encoder of earlier builds
    /// wrote it: a file of that format is refused, never folded.
    const SWCRDJ1_IMAGE: &[u8] =
        b"SWCRDJ1\0\xaa\x03\xbe\x8d\xa5\x14c%\xfa\x84\xbf\xc6\xed\xfe\0\0\0\0\0\0\x05\0\0\0\0\0\0\
        \0\x03\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\0\0\x01\x01\0\0\0\
        \0\0\0\0\xfe\xccna\xa4\xdd\xf4\x07\x02\0\0\0\0\0\0\0*\0\0\0\0\0\0\0\x07\0\0\0\0\0\0\0\
        \x08\0\0\0\0\0\0\0seq7 tie(\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0seq3\x02\0\
        \0\0\0\0\0\0\x01\0\0\0\0";

    /// `sample().encode()`: the compacted `SWCRDJ2` log.
    const GOLDEN: &[u8] =
        b"SWCRDJ2\0 \0\0\0\"pv\x81\xb2\x9f\xa4\x94\xa5\x14c%\xfa\x84\xbf\xc6\xed\xfe\0\0\0\0\0\0\
        \x05\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\x00a\0\0\0zO\xde\xa2-\xf0F\xb3\x01\x01\0\0\0\0\0\0\
        \0\x02\0\0\0\x01\0\0\0\0\0\0\0\xfe\xccna\xa4\xdd\xf4\x07\x02\0\0\0\0\0\0\0*\0\0\0\0\0\
        \0\0\x07\0\0\0\0\0\0\0\x08\0\0\0\0\0\0\0seq7 tie(\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x04\
        \0\0\0\0\0\0\0seq3\r\0\0\0\xc1\x07.\xd3x\xbf\xf3[\0\x02\0\0\0\0\0\0\0\x01\0\0\0";

    /// The image's journal, which must fold with every frame whole.
    fn fold(bytes: &[u8]) -> Result<Option<CoordJournal>, String> {
        let whole = CoordJournal::decode(bytes)?;
        if let Some((_, w)) = &whole {
            assert!(*w <= bytes.len() as u64);
        }
        Ok(whole.map(|(j, _)| j))
    }

    #[test]
    fn golden_bytes_decode_and_reencode() {
        assert_eq!(fold(GOLDEN).expect("decode"), Some(sample()));
        assert_eq!(sample().encode(), GOLDEN);
    }

    #[test]
    fn the_whole_file_format_of_earlier_builds_is_refused() {
        let err = fold(SWCRDJ1_IMAGE).expect_err("folded");
        assert!(err.contains("not a SWCRDJ2 file"), "{err}");
    }

    #[test]
    fn records_fold_in_order_and_every_prefix_is_a_journal() {
        // The coordinator's log: a retry of shard 1, shard 2's attempt,
        // then shard 1's commit — the compacted image folds the same.
        let j = sample();
        let mut log = Vec::new();
        j.put_header(&mut log);
        let mut retry = j.clone();
        retry.shards[1].attempts = 1;
        retry.shards[1].committed = None;
        let mut ends = vec![log.len()];
        for (journal, slot) in [(&retry, 1), (&j, 2), (&j, 1)] {
            journal.put_slot(&mut log, slot);
            ends.push(log.len());
        }
        assert_eq!(fold(&log).unwrap(), Some(j.clone()));
        // Every prefix folds to the records of its whole frames.
        for k in 0..=log.len() {
            let got = fold(&log[..k]).unwrap_or_else(|e| panic!("prefix {k}: {e}"));
            let whole = ends.iter().filter(|&&e| e <= k).count();
            match got {
                None => assert_eq!(whole, 0, "prefix {k}"),
                Some(g) => {
                    let attempts: Vec<u32> = g.shards.iter().map(|s| s.attempts).collect();
                    let want = [[0, 0, 0], [0, 1, 0], [0, 1, 1], [0, 2, 1]][whole - 1];
                    assert_eq!(attempts, want, "prefix {k}");
                    assert_eq!(g.shards[1].committed.is_some(), whole == 4, "prefix {k}");
                }
            }
        }
        // A record after its shard's commit is refused.
        j.put_slot(&mut log, 1);
        let err = fold(&log).unwrap_err();
        assert!(err.contains("shard 1 recorded after its commit"), "{err}");
    }

    #[test]
    fn no_single_bit_flip_yields_another_journal() {
        let good = sample().encode();
        let mut copy = good.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                // A flip in the last frame's CRC or payload is a torn tail:
                // the journal without that record, never a changed one.
                if let Ok(Some(j)) = fold(&copy) {
                    assert!(j.shards[2].attempts == 0, "flip at byte {i} bit {bit}");
                    assert_eq!(j.shards[..2], sample().shards[..2]);
                }
                copy[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn crc_valid_hostile_records_are_errors_not_panics() {
        // Past the CRC the decoder still trusts nothing: a header length
        // or hit count that promises more than the record holds is a
        // truncation error, and an index past the shard count is named.
        let j = sample();
        let record = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut one = Vec::new();
            j.put_slot(&mut one, 1);
            let mut p = one[12..].to_vec();
            edit(&mut p);
            let mut log = Vec::new();
            j.put_header(&mut log);
            put_frame(&mut log, |out| out.extend_from_slice(&p));
            fold(&log)
        };
        // tag, index, attempts, then resumes/digest/n_hits, score + id.
        let at = 1 + 8 + 4 + 24 + 16;
        for hostile in [u64::MAX, u64::MAX - 7, 1 << 40] {
            let err = record(&|p| p[at..at + 8].copy_from_slice(&hostile.to_le_bytes()));
            assert!(err.unwrap_err().contains("truncated"));
        }
        let err = record(&|p| p[at - 24..at - 16].copy_from_slice(&(1u64 << 40).to_le_bytes()));
        assert!(err.unwrap_err().contains("truncated"));
        let err = record(&|p| p[1..9].copy_from_slice(&3u64.to_le_bytes())).unwrap_err();
        assert!(err.contains("shard 3 out of range"), "{err}");
        let err = record(&|p| p[0] = 2).unwrap_err();
        assert!(err.contains("bad record tag 2"), "{err}");
        let err = record(&|p| p.push(0)).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    /// Shard 0's retry, shard 1's commit and shard 2's attempt, as record
    /// payloads.
    fn records() -> Vec<Vec<u8>> {
        let j = sample();
        let mut retry = j.clone();
        retry.shards[0].attempts = 1;
        let records = [(&retry, 0), (&j, 1), (&j, 2)].map(|(journal, slot)| {
            let mut one = Vec::new();
            journal.put_slot(&mut one, slot);
            one[FRAME_HEAD..].to_vec()
        });
        records.into()
    }

    /// `records` sealed under `sample()`'s header.
    fn seal(records: &[Vec<u8>]) -> Vec<u8> {
        let mut log = Vec::new();
        sample().put_header(&mut log);
        for r in records {
            put_frame(&mut log, |p| p.extend_from_slice(r));
        }
        log
    }

    #[test]
    fn coordinator_field_mutations_are_refused() {
        // Structure-aware: one field of one record rewritten — its shard
        // index past the shard count, its commit tag, or a commit's hit
        // digest — and its frame re-sealed. Every case is refused; none
        // panics.
        let records = records();
        let mut want = sample();
        want.shards[0].attempts = 1;
        assert_eq!(fold(&seal(&records)).unwrap(), Some(want));
        let mut cases = 0;
        let mut refused = |f: usize, edit: &dyn Fn(&mut Vec<u8>), why: &str| {
            let mut r = records.clone();
            edit(&mut r[f]);
            let err = fold(&seal(&r)).expect_err("a mutated record was folded");
            assert!(err.contains(why), "record {f}: {err}");
            cases += 1;
        };
        for (f, record) in records.iter().enumerate() {
            for index in [3u64, 4, 1 << 20, u64::MAX] {
                let at_index = |p: &mut Vec<u8>| p[1..9].copy_from_slice(&index.to_le_bytes());
                refused(f, &at_index, "out of range");
            }
            for tag in (0..=255u8).filter(|&t| t != record[0]) {
                let why = match (record[0], tag) {
                    (1, 0) => "trailing",
                    (0, 1) => "truncated",
                    _ => "bad record tag",
                };
                refused(f, &|p| p[0] = tag, why);
            }
            if record[0] == 1 {
                // The digest follows tag, index, attempts and resumes.
                for bit in 0..64 {
                    refused(f, &|p| p[21 + bit / 8] ^= 1 << (bit % 8), "digest mismatch");
                }
            }
        }
        assert_eq!(cases, 3 * (4 + 255) + 64);
    }

    #[test]
    fn coordinator_log_recovery_rule() {
        // A flip in a record with bytes after it is an error naming the
        // record's offset; a short tail is dropped with every committed
        // hit unchanged.
        let records = records();
        let log = seal(&records);
        let second = seal(&records[..1]).len();
        let mut flipped = log.clone();
        flipped[second + FRAME_HEAD + 2] ^= 0x04;
        let err = fold(&flipped).expect_err("a mid-file flip was folded");
        assert!(err.contains(&format!("at byte {second}")), "{err}");
        let whole = fold(&log).unwrap();
        let mut frame = Vec::new();
        put_frame(&mut frame, |p| p.extend_from_slice(&records[1]));
        for cut in 1..frame.len() {
            let torn = [&log[..], &frame[..cut]].concat();
            assert_eq!(fold(&torn).unwrap(), whole, "cut {cut}");
        }
    }

    #[test]
    fn journal_save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("swcrdj-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coord.journal");
        let j = sample();
        fs::write(&path, j.encode()).expect("write");
        let (back, whole) = CoordJournal::load(&path).expect("load").expect("header");
        assert_eq!(back, j);
        assert_eq!(whole, j.encode().len() as u64);
        fs::write(&path, b"").unwrap();
        assert_eq!(CoordJournal::load(&path).expect("empty"), None);
        let err = CoordJournal::load(&dir.join("absent")).unwrap_err();
        assert!(err.contains("absent"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_validation_pins_search_identity() {
        let j = sample();
        let q = j.query_digest;
        assert!(j.validate(q, 0xfeed, 5, 3).is_ok());
        assert!(j.validate(q, 0, 5, 3).is_ok(), "unknown parent is allowed");
        assert!(j.validate(q ^ 1, 0xfeed, 5, 3).is_err());
        assert!(j.validate(q, 0xdead, 5, 3).is_err());
        assert!(j.validate(q, 0xfeed, 6, 3).is_err());
        assert!(j.validate(q, 0xfeed, 5, 4).is_err());
    }
}
