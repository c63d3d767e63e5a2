//! Database sharding for multi-process search — the scale-out format.
//!
//! A shard file (`SWSHRD1`, extension `.swshard`) wraps one complete
//! [`snapshot`] (SWDBSNP2) in a small header that
//! records *where in the parent database* the shard's sequences live:
//! the shard index, the shard count, the global base offset, and the
//! content digest of the length-sorted parent. Sequence `i` of shard
//! `s` is sequence `base(s) + i` of the parent — so hit ids reported by
//! a shard worker become global by adding the base, and a coordinator
//! can merge per-shard top-K streams with exactly the unsharded
//! tie-break (score descending, then global id ascending).
//!
//! Sharding is only meaningful over a *canonical* parent order:
//! `shard-prepare` first length-sorts the parent (stably, ascending —
//! the same order [`SortedDb`] produces), then slices N contiguous
//! ranges balanced by residue count. Each shard is therefore already
//! sorted, so a worker's own `SortedDb` pass is the identity
//! permutation and in-shard positions equal parent positions minus the
//! base. The byte-identical reference for a sharded run is the
//! unsharded run over the emitted sorted parent snapshot.

use crate::db::SequenceDatabase;
use crate::integrity::{check_crc, crc32, put_u32, put_u64, ByteReader};
use crate::preprocess::SortedDb;
use crate::snapshot;
use std::sync::Arc;
use sw_seq::SeqError;

/// Shard container magic / version tag.
pub const SHARD_MAGIC: &[u8; 8] = b"SWSHRD1\0";

/// Canonical file name of shard `index` inside a shard directory.
pub fn shard_file_name(index: u64) -> String {
    format!("shard-{index}.swshard")
}

/// Placement of one shard within its length-sorted parent database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Which shard this is, `0..count`.
    pub index: u64,
    /// Total shards the parent was split into.
    pub count: u64,
    /// Parent position of this shard's first sequence: in-shard id `i`
    /// is global id `base + i`.
    pub base: u64,
    /// [`snapshot::content_digest`] of the full length-sorted parent —
    /// shards from different parents (or different splits of the same
    /// FASTA) cannot be mixed silently.
    pub parent_digest: u64,
}

/// Serialize a shard: SWSHRD1 header (+CRC) followed by a complete,
/// self-validating SWDBSNP2 snapshot of the shard's sequences.
pub fn write_shard(meta: &ShardMeta, db: &SequenceDatabase) -> Vec<u8> {
    let mut out = SHARD_MAGIC.to_vec();
    for word in [meta.index, meta.count, meta.base, meta.parent_digest] {
        put_u64(&mut out, word);
    }
    let header_crc = crc32(&out);
    put_u32(&mut out, header_crc);
    out.extend_from_slice(&snapshot::write(db));
    out
}

/// Parse a shard file: magic, header CRC, meta sanity, then the wrapped
/// snapshot's own integrity checks.
pub fn read_shard(buf: &[u8]) -> Result<(ShardMeta, SequenceDatabase), SeqError> {
    let mut r = ByteReader::new(buf);
    r.magic(&[SHARD_MAGIC])?;
    let meta = ShardMeta {
        index: r.u64("shard index")?,
        count: r.u64("shard count")?,
        base: r.u64("shard base")?,
        parent_digest: r.u64("shard parent digest")?,
    };
    // The CRC covers magic + the four words; nothing in `meta` is
    // trusted before it checks out.
    check_crc("shard header", r.u32("shard header CRC32")?, &buf[..40])?;
    if meta.count == 0 || meta.index >= meta.count {
        return Err(SeqError::Corrupt {
            section: "shard".into(),
            detail: format!(
                "implausible shard placement: index {} of {}",
                meta.index, meta.count
            ),
        });
    }
    let db = snapshot::read(r.rest())?;
    Ok((meta, db))
}

/// Rebuild `db` in canonical shard order: stable ascending length sort,
/// the exact permutation [`SortedDb`] computes — so a worker sorting a
/// shard sliced from this order gets the identity permutation back.
pub fn length_sorted(db: &SequenceDatabase) -> SequenceDatabase {
    let sorted = SortedDb::new(db.clone());
    let order: Vec<usize> = sorted.order().iter().map(|id| id.0 as usize).collect();
    reorder(sorted.db(), &order)
}

fn reorder(db: &SequenceDatabase, order: &[usize]) -> SequenceDatabase {
    let offsets_in = db.raw_offsets();
    let mut residues = Vec::with_capacity(db.raw_residues().len());
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut headers: Vec<Arc<str>> = Vec::with_capacity(order.len());
    offsets.push(0u64);
    for &i in order {
        let (s, e) = (offsets_in[i] as usize, offsets_in[i + 1] as usize);
        residues.extend_from_slice(&db.raw_residues()[s..e]);
        offsets.push(residues.len() as u64);
        headers.push(db.raw_headers()[i].clone());
    }
    SequenceDatabase::from_raw_parts(residues, offsets, headers)
}

/// Split a (length-sorted) parent into `n` contiguous ranges balanced
/// by residue count — the quantity search cost actually tracks. Every
/// range is non-empty; `n` is clamped to the sequence count.
///
/// # Panics
/// Panics when the database is empty.
pub fn plan_shards(db: &SequenceDatabase, n: usize) -> Vec<(usize, usize)> {
    assert!(!db.is_empty(), "cannot shard an empty database");
    let n = n.clamp(1, db.len());
    let total = db.total_residues() as f64;
    let offsets = db.raw_offsets();
    let mut ranges = Vec::with_capacity(n);
    let mut start = 0usize;
    for s in 0..n {
        let target = total * (s as f64 + 1.0) / n as f64;
        let mut end = start + 1; // never leave a shard empty
        while end < db.len() && (offsets[end] as f64) < target {
            end += 1;
        }
        // Leave at least one sequence for each remaining shard.
        let max_end = db.len() - (n - 1 - s);
        let end = if s == n - 1 {
            db.len()
        } else {
            end.min(max_end)
        };
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Extract the contiguous slice `range` of `db` as its own database.
pub fn slice(db: &SequenceDatabase, range: (usize, usize)) -> SequenceDatabase {
    let order: Vec<usize> = (range.0..range.1).collect();
    reorder(db, &order)
}

/// One shard's line in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard index, `0..shards.len()`.
    pub index: u64,
    /// File name relative to the manifest's directory.
    pub file: String,
    /// Global base offset (parent position of the first sequence).
    pub base: u64,
    /// Sequences in this shard.
    pub n_seqs: u64,
    /// [`snapshot::content_digest`] of the shard's own sequences — the
    /// digest a worker's health probe reports, so a coordinator can
    /// verify it is talking to the right shard before submitting.
    pub digest: u64,
}

/// The `shards.manifest` a `shard-prepare` run writes next to its shard
/// files: enough for a coordinator to boot workers and verify identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Digest of the length-sorted parent all shards were cut from.
    pub parent_digest: u64,
    /// Per-shard placement, in index order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Render the text form.
    pub fn render(&self) -> String {
        let mut out = String::from("# swshard manifest\nversion 1\n");
        out.push_str(&format!("parent_digest {:016x}\n", self.parent_digest));
        out.push_str(&format!("shards {}\n", self.shards.len()));
        for s in &self.shards {
            out.push_str(&format!(
                "shard {} {} {} {} {:016x}\n",
                s.index, s.file, s.base, s.n_seqs, s.digest
            ));
        }
        out
    }

    /// Parse the text form, validating index order and completeness.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (parent_digest, shards) = parse_text(
            text,
            "manifest",
            |key, fields| match key {
                "shard" => {
                    if fields.len() != 5 {
                        return Err("shard line needs: index file base n_seqs digest".into());
                    }
                    let num = |i: usize, what: &str| {
                        fields[i]
                            .parse::<u64>()
                            .map_err(|_| format!("unparseable {what}"))
                    };
                    Ok(Some(ShardEntry {
                        index: num(0, "index")?,
                        file: fields[1].to_string(),
                        base: num(2, "base")?,
                        n_seqs: num(3, "n_seqs")?,
                        digest: u64::from_str_radix(fields[4], 16)
                            .map_err(|_| "unparseable digest")?,
                    }))
                }
                other => Err(format!("unknown key {other:?}")),
            },
            |s| s.index,
        )?;
        Ok(ShardManifest {
            parent_digest,
            shards,
        })
    }
}

/// Read one of the `key field…` text files a shard directory holds.
/// Blank lines and `#` comments are skipped; `version 1`, a hex
/// `parent_digest` and `shards N` are read here and every other line is
/// handed to `entry` — which returns the entry it describes, or `None`
/// for a header key of its own — with errors prefixed `<what> line N:`.
/// Then the checks both formats share: both header keys present, as
/// many entries as declared, at least one, and entry `i` naming shard
/// `i` (`shard_of`).
fn parse_text<T>(
    text: &str,
    what: &str,
    mut entry: impl FnMut(&str, &[&str]) -> Result<Option<T>, String>,
    shard_of: impl Fn(&T) -> u64,
) -> Result<(u64, Vec<T>), String> {
    let (mut parent_digest, mut declared) = (None, None);
    let mut entries = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let mut tokens = line.split_whitespace();
        let Some(key) = tokens.next().filter(|k| !k.starts_with('#')) else {
            continue;
        };
        let fields: Vec<&str> = tokens.collect();
        let bad = |e: &str| format!("{what} line {}: {e}", ln + 1);
        match key {
            "version" if fields == ["1"] => {}
            "version" => return Err(bad(&format!("unsupported version {fields:?}"))),
            "parent_digest" => {
                let d = fields.first().and_then(|f| u64::from_str_radix(f, 16).ok());
                parent_digest = Some(d.ok_or_else(|| bad("unparseable parent_digest"))?);
            }
            "shards" => {
                let n = fields.first().and_then(|f| f.parse::<usize>().ok());
                declared = Some(n.ok_or_else(|| bad("unparseable shard count"))?);
            }
            _ => entries.extend(entry(key, &fields).map_err(|e| bad(&e))?),
        }
    }
    let parent_digest = parent_digest.ok_or_else(|| format!("{what} missing parent_digest"))?;
    let declared = declared.ok_or_else(|| format!("{what} missing shard count"))?;
    if entries.len() != declared {
        return Err(format!(
            "{what} declares {declared} shards but lists {}",
            entries.len()
        ));
    }
    if entries.is_empty() {
        return Err(format!("{what} lists no shards"));
    }
    for (i, e) in entries.iter().enumerate() {
        if shard_of(e) != i as u64 {
            return Err(format!(
                "{what} lines out of order: position {i} has shard {}",
                shard_of(e)
            ));
        }
    }
    Ok((parent_digest, entries))
}

/// One placement line: the endpoints (primary first, then replicas)
/// that may serve a shard. Endpoint strings are opaque here — the serve
/// layer parses them as `tcp://host:port`, `unix://path` or bare unix
/// socket paths (relative paths resolve against the plan's directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementEntry {
    /// Shard index.
    pub shard: u64,
    /// Candidate endpoints, primary first. Length == replication factor.
    pub endpoints: Vec<String>,
}

/// A replication placement plan: for each SWSHRD1 shard, the R
/// endpoints a coordinator may run it on. Written by
/// `shard-prepare --replicas R` next to `shards.manifest`, read by
/// `search --shards --placement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Digest of the parent snapshot the shards were cut from.
    pub parent_digest: u64,
    /// Replication factor (endpoints per shard).
    pub replicas: u64,
    /// One entry per shard, in shard order.
    pub entries: Vec<PlacementEntry>,
}

impl PlacementPlan {
    /// Build a plan assigning each shard `replicas` endpoints from a
    /// pool. Slots are strided (`shard * replicas + r`), so a pool with
    /// at least `n_shards * replicas` endpoints yields a conflict-free
    /// plan — no endpoint serves two shards, which matters because a
    /// shard worker holds exactly one shard and answers `WrongShard`
    /// for any other. Smaller pools wrap and share endpoints; replicas
    /// of one shard still land on different slots whenever the pool has
    /// at least two. With an empty pool, defaults to per-replica unix
    /// socket names (`shard-<i>-r<j>.sock`) so a localhost drill needs
    /// no manifest of hosts.
    pub fn assign(parent_digest: u64, n_shards: u64, replicas: u64, pool: &[String]) -> Self {
        let replicas = replicas.max(1);
        let entries = (0..n_shards)
            .map(|shard| {
                let endpoints = (0..replicas)
                    .map(|r| {
                        if pool.is_empty() {
                            format!("shard-{shard}-r{r}.sock")
                        } else {
                            let slot = shard * replicas + r;
                            pool[(slot % pool.len() as u64) as usize].clone()
                        }
                    })
                    .collect();
                PlacementEntry { shard, endpoints }
            })
            .collect();
        PlacementPlan {
            parent_digest,
            replicas,
            entries,
        }
    }

    /// Render the text form.
    pub fn render(&self) -> String {
        let mut out = String::from("# swshard placement\nversion 1\n");
        out.push_str(&format!("parent_digest {:016x}\n", self.parent_digest));
        out.push_str(&format!("replicas {}\n", self.replicas));
        out.push_str(&format!("shards {}\n", self.entries.len()));
        for e in &self.entries {
            out.push_str(&format!("place {} {}\n", e.shard, e.endpoints.join(" ")));
        }
        out
    }

    /// Parse the text form, validating order, completeness and that
    /// every shard carries exactly `replicas` endpoints.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut replicas = None;
        let (parent_digest, entries) = parse_text(
            text,
            "placement",
            |key, fields| match key {
                "replicas" => {
                    let r = fields.first().and_then(|f| f.parse::<u64>().ok());
                    replicas = Some(r.filter(|&r| r >= 1).ok_or("unparseable replicas")?);
                    Ok(None)
                }
                "place" => {
                    if fields.len() < 2 {
                        return Err("place line needs: shard endpoint...".into());
                    }
                    Ok(Some(PlacementEntry {
                        shard: fields[0].parse().map_err(|_| "unparseable shard index")?,
                        endpoints: fields[1..].iter().map(|s| s.to_string()).collect(),
                    }))
                }
                other => Err(format!("unknown key {other:?}")),
            },
            |e| e.shard,
        )?;
        let replicas = replicas.ok_or("placement missing replicas")?;
        for e in &entries {
            if e.endpoints.len() as u64 != replicas {
                return Err(format!(
                    "shard {} lists {} endpoints, want {replicas}",
                    e.shard,
                    e.endpoints.len()
                ));
            }
        }
        Ok(PlacementPlan {
            parent_digest,
            replicas,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::gen::{generate_database, DbSpec};
    use sw_seq::SeqId;

    fn demo_db(n: u32, seed: u64) -> SequenceDatabase {
        let spec = DbSpec {
            n_seqs: n,
            mean_len: 80.0,
            max_len: 300,
            seed,
        };
        SequenceDatabase::from_sequences(generate_database(&spec))
    }

    fn sample() -> (ShardMeta, SequenceDatabase) {
        let a = sw_seq::Alphabet::protein();
        let meta = ShardMeta {
            index: 1,
            count: 3,
            base: 7,
            parent_digest: 0x0123_4567_89ab_cdef,
        };
        let db = SequenceDatabase::from_sequences(vec![
            sw_seq::EncodedSeq::from_text("syn|S0000001|SYNTH", b"WW", &a).unwrap(),
            sw_seq::EncodedSeq::from_text("sp|P02232|HBM", b"MKVLITRA", &a).unwrap(),
        ]);
        (meta, db)
    }

    /// `write_shard` of `sample()` as the parent commit's encoder (hand
    /// `to_le_bytes` framing) emitted it.
    const GOLDEN: &[u8] =
        b"SWSHRD1\0\x01\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x07\0\0\0\0\0\0\0\xef\xcd\xab\x89gE#\x01[Y\
        \x07!SWDBSNP2\x02\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0\xd1\x947\xe74\xfeH\xfb\x8b\xf3\xa1\xb5\
        \x08 2r\xb6\xdb.)\0\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0\x11\x11\x0c\x0b\
        \x13\x0a\x09\x10\x01\0\x12\0\0\0syn|S0000001|SYNTH\x0d\0\0\0sp|P02232|HBM";

    #[test]
    fn golden_bytes_decode_and_reencode() {
        let (meta, db) = sample();
        assert_eq!(read_shard(GOLDEN).unwrap(), (meta, db.clone()));
        assert_eq!(write_shard(&meta, &db), GOLDEN);
    }

    #[test]
    fn every_bit_flip_and_every_truncation_is_an_error() {
        // The index/count/base words are covered by nothing but the
        // header CRC, so a flip there must fail *there* — not slip
        // through to a plausible-looking placement.
        let (meta, db) = sample();
        let good = write_shard(&meta, &db);
        let mut copy = good.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                let err = read_shard(&copy).expect_err("flip accepted");
                if (8..32).contains(&i) {
                    assert!(
                        matches!(&err, SeqError::Corrupt { section, .. } if section == "shard header"),
                        "flip at byte {i} bit {bit}: {err}"
                    );
                }
                copy[i] ^= 1 << bit;
            }
        }
        for cut in 0..good.len() {
            assert!(read_shard(&good[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut trailing = good;
        trailing.push(0);
        let err = read_shard(&trailing).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn shard_roundtrip_preserves_meta_and_sequences() {
        let parent = length_sorted(&demo_db(20, 7));
        let parent_digest = snapshot::content_digest(&parent);
        let ranges = plan_shards(&parent, 3);
        for (i, &range) in ranges.iter().enumerate() {
            let part = slice(&parent, range);
            let meta = ShardMeta {
                index: i as u64,
                count: 3,
                base: range.0 as u64,
                parent_digest,
            };
            let bytes = write_shard(&meta, &part);
            let (back, db) = read_shard(&bytes).expect("roundtrip");
            assert_eq!(back, meta);
            assert_eq!(db, part);
            // Global identity: shard sequence i is parent sequence base+i.
            for j in 0..db.len() {
                let global = SeqId((range.0 + j) as u32);
                assert_eq!(db.header(SeqId(j as u32)), parent.header(global));
                assert_eq!(
                    db.seq(SeqId(j as u32)).residues,
                    parent.seq(global).residues
                );
            }
        }
    }

    #[test]
    fn shards_are_already_length_sorted() {
        // The property the worker relies on: a shard cut from the sorted
        // parent re-sorts as the identity, so in-shard ids ARE parent
        // positions minus the base.
        let parent = length_sorted(&demo_db(24, 11));
        for &range in &plan_shards(&parent, 4) {
            let part = slice(&parent, range);
            let sorted = SortedDb::new(part.clone());
            for rank in 0..part.len() {
                assert_eq!(sorted.id_at(rank).0 as usize, rank);
            }
        }
    }

    #[test]
    fn plan_covers_everything_balanced() {
        let parent = length_sorted(&demo_db(33, 3));
        for n in [1, 2, 4, 7] {
            let ranges = plan_shards(&parent, n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, parent.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            for &(s, e) in &ranges {
                assert!(s < e, "non-empty");
            }
        }
        // More shards than sequences clamps instead of emitting empties.
        let tiny = length_sorted(&demo_db(16, 9));
        let n = tiny.len();
        assert_eq!(plan_shards(&tiny, n + 5).len(), n);
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let parent = length_sorted(&demo_db(8, 2));
        let meta = ShardMeta {
            index: 0,
            count: 1,
            base: 0,
            parent_digest: snapshot::content_digest(&parent),
        };
        let good = write_shard(&meta, &parent);
        assert!(read_shard(&good).is_ok());
        let mut bad = good.clone();
        bad[9] ^= 0x40; // flip a bit inside the index field
        assert!(read_shard(&bad).is_err(), "header CRC must catch the flip");
        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert!(read_shard(&wrong_magic).is_err());
        assert!(read_shard(&good[..20]).is_err(), "truncated");
        let mut bad_payload = good;
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 1;
        assert!(
            read_shard(&bad_payload).is_err(),
            "wrapped snapshot CRCs must still run"
        );
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let m = ShardManifest {
            parent_digest: 0xdead_beef_0123_4567,
            shards: vec![
                ShardEntry {
                    index: 0,
                    file: "shard-0.swshard".into(),
                    base: 0,
                    n_seqs: 10,
                    digest: 1,
                },
                ShardEntry {
                    index: 1,
                    file: "shard-1.swshard".into(),
                    base: 10,
                    n_seqs: 6,
                    digest: 2,
                },
            ],
        };
        let text = m.render();
        assert_eq!(ShardManifest::parse(&text).expect("roundtrip"), m);
        assert!(ShardManifest::parse("version 1\n").is_err());
        assert!(
            ShardManifest::parse(&text.replace("shards 2", "shards 3")).is_err(),
            "count mismatch"
        );
        assert!(
            ShardManifest::parse(&text.replace("shard 1 ", "shard 9 ")).is_err(),
            "index order"
        );
        // A line-level error names the format and the 1-based line.
        let e = ShardManifest::parse(&text.replace("shard 1 ", "shard x ")).unwrap_err();
        assert_eq!(e, "manifest line 6: unparseable index");
    }

    #[test]
    fn placement_roundtrip_and_validation() {
        let plan = PlacementPlan::assign(0xabc, 3, 2, &[]);
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(
            plan.entries[1].endpoints,
            vec!["shard-1-r0.sock", "shard-1-r1.sock"],
            "default pool is per-replica unix sockets"
        );
        let text = plan.render();
        assert_eq!(PlacementPlan::parse(&text).expect("roundtrip"), plan);

        assert!(PlacementPlan::parse("version 1\n").is_err());
        assert!(
            PlacementPlan::parse(&text.replace("shards 3", "shards 4")).is_err(),
            "count mismatch"
        );
        assert!(
            PlacementPlan::parse(&text.replace("place 1 ", "place 7 ")).is_err(),
            "order"
        );
        assert!(
            PlacementPlan::parse(&text.replace("replicas 2", "replicas 3")).is_err(),
            "entries must match the replication factor"
        );
        let e = PlacementPlan::parse(&text.replace("replicas 2", "replicas 0")).unwrap_err();
        assert_eq!(e, "placement line 4: unparseable replicas");
    }

    #[test]
    fn placement_pool_stride_spreads_replicas() {
        let pool: Vec<String> = ["tcp://a:1", "tcp://b:1", "tcp://c:1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let plan = PlacementPlan::assign(1, 3, 2, &pool);
        for e in &plan.entries {
            assert_ne!(
                e.endpoints[0], e.endpoints[1],
                "replicas of one shard land on different pool slots"
            );
        }
        // Strided assignment: shard i starts at slot i * replicas.
        assert_eq!(plan.entries[0].endpoints, ["tcp://a:1", "tcp://b:1"]);
        assert_eq!(plan.entries[1].endpoints, ["tcp://c:1", "tcp://a:1"]);
        assert_eq!(plan.entries[2].endpoints, ["tcp://b:1", "tcp://c:1"]);
    }

    /// A pool exactly covering `n_shards * replicas` must be
    /// conflict-free: single-shard workers answer WrongShard for any
    /// other shard, so sharing an endpoint across shards breaks
    /// failover.
    #[test]
    fn placement_full_pool_is_conflict_free() {
        let pool: Vec<String> = (0..6).map(|i| format!("tcp://h:{i}")).collect();
        let plan = PlacementPlan::assign(1, 3, 2, &pool);
        let mut seen = std::collections::BTreeSet::new();
        for e in &plan.entries {
            for ep in &e.endpoints {
                assert!(seen.insert(ep.clone()), "endpoint {ep} serves two shards");
            }
        }
    }
}
