//! SWCRDJ1 — the coordinator's crash-survivable attempt journal.
//!
//! A sharded search coordinates N worker leases; if the coordinator
//! itself is SIGKILLed mid-search, every completed shard's work would be
//! lost and a rerun would start from zero. The journal fixes that: after
//! each shard's top-K is accepted, the coordinator rewrites a small
//! CRC-guarded binary file (the framed container and tmp + rename write
//! of `sw_swdb::integrity`, fsync'd — DESIGN "Formats and their one
//! home") recording per-shard attempt counts and the committed hit lists
//! plus their digests. A restart with
//! `--resume-coord` loads the journal, validates it against the query,
//! the parent snapshot and K, seeds the scheduler with the surviving
//! attempt counts, skips committed shards entirely, and — because the
//! merge is a pure function of the per-shard lists — produces merged
//! bytes identical to an uninterrupted run.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8  b"SWCRDJ1\0"
//! crc      4  CRC32 of everything after this field
//! payload:
//!   query_digest   u64   FNV-1a of the query FASTA bytes
//!   parent_digest  u64   parent snapshot digest (0 = unknown)
//!   top            u64   merge K
//!   n_shards       u64
//!   per shard:
//!     index        u64
//!     attempts     u32
//!     committed    u8    0 | 1
//!     (committed only)
//!     resumes      u64
//!     hits_digest  u64   FNV-1a over the serialized hit list
//!     n_hits       u64
//!     per hit: score i64, id u64, header_len u64, header bytes
//! ```

use std::fs;
use std::io;
use std::path::Path;

use crate::client::HitLine;
use sw_swdb::integrity::{
    frame, put_i64, put_u32, put_u64, replace_file, unframe, ByteReader, Fnv64,
};

/// Magic prefix of a coordinator journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SWCRDJ1\0";

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

    /// Serialize to the SWCRDJ1 byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.query_digest);
        put_u64(&mut p, self.parent_digest);
        put_u64(&mut p, self.top);
        put_u64(&mut p, self.shards.len() as u64);
        for slot in &self.shards {
            put_u64(&mut p, slot.index);
            put_u32(&mut p, slot.attempts);
            match &slot.committed {
                None => p.push(0),
                Some(c) => {
                    p.push(1);
                    put_u64(&mut p, c.resumes);
                    put_u64(&mut p, hits_digest(&c.hits));
                    put_u64(&mut p, c.hits.len() as u64);
                    for h in &c.hits {
                        put_i64(&mut p, h.score);
                        put_u64(&mut p, h.id);
                        put_u64(&mut p, h.header.len() as u64);
                        p.extend_from_slice(h.header.as_bytes());
                    }
                }
            }
        }
        frame(JOURNAL_MAGIC, &p)
    }

    /// Decode and CRC-check an SWCRDJ1 byte image.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        Self::decode_framed(bytes).map_err(|e| format!("coord journal: {e}"))
    }

    fn decode_framed(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(unframe(JOURNAL_MAGIC, bytes)?);
        let query_digest = r.u64("query digest")?;
        let parent_digest = r.u64("parent digest")?;
        let top = r.u64("top-K")?;
        let n_shards = r.u64("shard count")?;
        if n_shards > 1 << 20 {
            return Err("implausible shard count".into());
        }
        // Capacities come from what the payload can hold (a slot is at
        // least 13 bytes, a hit 24), never from a stored count alone.
        let mut shards = Vec::with_capacity((n_shards as usize).min(r.rest().len() / 13));
        for want in 0..n_shards {
            let index = r.u64("shard index")?;
            if index != want {
                return Err(format!(
                    "shard slot out of order (want {want}, got {index})"
                ));
            }
            let attempts = r.u32("attempt count")?;
            let committed = match r.u8("committed flag")? {
                0 => None,
                1 => {
                    let resumes = r.u64("resume count")?;
                    let digest = r.u64("hits digest")?;
                    let n_hits = r.u64("hit count")?;
                    if n_hits > 1 << 24 {
                        return Err("implausible hit count".into());
                    }
                    let mut hits = Vec::with_capacity((n_hits as usize).min(r.rest().len() / 24));
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
                b => return Err(format!("bad committed flag {b}")),
            };
            shards.push(ShardSlot {
                index,
                attempts,
                committed,
            });
        }
        r.finish()?;
        Ok(CoordJournal {
            query_digest,
            parent_digest,
            top,
            shards,
        })
    }

    /// Atomically persist the journal (tmp + fsync + rename), so a crash
    /// mid-write — the machine's, not only the process's — leaves either
    /// the old image or the new one, never a torn file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        replace_file(path, &self.encode(), true)
    }

    /// Load and decode a journal file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let bytes = fs::read(path).map_err(|e| format!("coord journal {}: {e}", path.display()))?;
        CoordJournal::decode(&bytes).map_err(|e| format!("coord journal {}: {e}", path.display()))
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
    use sw_swdb::integrity::{fnv1a64, tmp_path};

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

    /// `sample().encode()` as the parent commit's encoder (private
    /// `Cursor`, own `fnv1a`, hand framing) emitted it.
    const GOLDEN: &[u8] =
        b"SWCRDJ1\0\xaa\x03\xbe\x8d\xa5\x14c%\xfa\x84\xbf\xc6\xed\xfe\0\0\0\0\0\0\x05\0\0\0\0\0\0\
        \0\x03\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\0\0\x01\x01\0\0\0\
        \0\0\0\0\xfe\xccna\xa4\xdd\xf4\x07\x02\0\0\0\0\0\0\0*\0\0\0\0\0\0\0\x07\0\0\0\0\0\0\0\
        \x08\0\0\0\0\0\0\0seq7 tie(\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0seq3\x02\0\
        \0\0\0\0\0\0\x01\0\0\0\0";

    #[test]
    fn golden_bytes_decode_and_reencode() {
        assert_eq!(CoordJournal::decode(GOLDEN).expect("decode"), sample());
        assert_eq!(sample().encode(), GOLDEN);
    }

    #[test]
    fn every_bit_flip_and_every_truncation_is_an_error() {
        let good = sample().encode();
        let mut copy = good.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert!(
                    CoordJournal::decode(&copy).is_err(),
                    "flip at byte {i} bit {bit} accepted"
                );
                copy[i] ^= 1 << bit;
            }
        }
        for cut in 0..good.len() {
            assert!(
                CoordJournal::decode(&good[..cut]).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn crc_valid_hostile_payloads_are_errors_not_panics() {
        // Past the CRC the decoder still trusts nothing: a header length
        // or hit count that promises more than the payload holds is a
        // truncation error (the parent's `at + n` overflowed here).
        let good = sample().encode();
        let payload = &good[12..];
        // The first hit's header-length word: 32 bytes of preamble, slot 0
        // (13), slot 1's index/attempts/flag (13), resumes/digest/n_hits
        // (24), score + id (16).
        let at = 32 + 13 + 13 + 24 + 16;
        assert_eq!(payload[at..at + 8], 8u64.to_le_bytes(), "\"seq7 tie\"");
        for hostile in [u64::MAX, u64::MAX - 7, 1 << 40] {
            let mut p = payload.to_vec();
            p[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let err = CoordJournal::decode(&frame(JOURNAL_MAGIC, &p)).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
        }
        let mut p = payload.to_vec();
        p[at - 24..at - 16].copy_from_slice(&(1u64 << 24).to_le_bytes()); // n_hits
        let err = CoordJournal::decode(&frame(JOURNAL_MAGIC, &p)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let mut trailing = payload.to_vec();
        trailing.push(0);
        let err = CoordJournal::decode(&frame(JOURNAL_MAGIC, &trailing)).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn journal_roundtrips_byte_exact() {
        let j = sample();
        let bytes = j.encode();
        let back = CoordJournal::decode(&bytes).expect("decode");
        assert_eq!(back, j);
        assert_eq!(back.encode(), bytes, "re-encode is byte-stable");
    }

    #[test]
    fn journal_rejects_corruption() {
        let j = sample();
        let good = j.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(CoordJournal::decode(&bad_magic)
            .unwrap_err()
            .contains("magic"));

        // Flip one payload byte: CRC must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(CoordJournal::decode(&flipped).unwrap_err().contains("CRC"));

        // Truncation is caught before any field parse goes wild.
        assert!(CoordJournal::decode(&good[..good.len() - 3]).is_err());
        assert!(CoordJournal::decode(&good[..6]).is_err());
    }

    #[test]
    fn journal_save_load_is_atomic_shaped() {
        let dir = std::env::temp_dir().join(format!("swcrdj-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coord.journal");
        let j = sample();
        j.save(&path).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp file must be renamed away");
        let back = CoordJournal::load(&path).expect("load");
        assert_eq!(back, j);
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
