//! Compact binary snapshot of a [`SequenceDatabase`].
//!
//! Production search tools preprocess the database once (`makedb`) and
//! reload the flat form at query time; this module is that format. The
//! layout is deliberately simple and versioned; version 2 adds a content
//! digest (so a resumed search can prove its checkpoint belongs to this
//! database) and per-section CRC32s (so a corrupted snapshot is rejected
//! with the failing section named instead of silently mis-scoring):
//!
//! ```text
//! magic        [u8; 8]  = b"SWDBSNP2"
//! n_seqs       u64 LE
//! n_res        u64 LE
//! digest       u64 LE   FNV-1a 64 of the logical content (see content_digest)
//! crc_offsets  u32 LE   CRC32 of the offsets section bytes
//! crc_residues u32 LE   CRC32 of the residues section bytes
//! crc_headers  u32 LE   CRC32 of the headers section bytes
//! offsets      [u64 LE; n_seqs + 1]
//! residues     [u8; n_res]
//! headers      n_seqs × (u32 LE length + UTF-8 bytes)
//! ```
//!
//! Version-1 snapshots (`SWDBSNP1`: same section layout, no digest/CRC
//! block) are still read for compatibility; [`write()`] always emits v2.

use crate::db::SequenceDatabase;
use crate::integrity::{check_crc, crc32, le_u64s, put_u32, put_u64, ByteReader, Fnv64};
use std::sync::Arc;
use sw_seq::SeqError;

/// Current snapshot magic / version tag.
pub const MAGIC: &[u8; 8] = b"SWDBSNP2";
/// Version-1 magic, still accepted by [`read`].
pub const MAGIC_V1: &[u8; 8] = b"SWDBSNP1";

/// FNV-1a 64 digest of a database's *logical* content — independent of
/// how the database was loaded (FASTA, v1 snapshot, v2 snapshot), so a
/// checkpoint taken against a FASTA load verifies against the snapshot
/// of the same sequences. Every section is length-prefixed so shifted
/// boundaries cannot collide.
pub fn content_digest(db: &SequenceDatabase) -> u64 {
    let mut d = Fnv64::new().update_u64(db.raw_headers().len() as u64);
    for &o in db.raw_offsets() {
        d = d.update_u64(o);
    }
    d = d
        .update_u64(db.raw_residues().len() as u64)
        .update(db.raw_residues());
    for h in db.raw_headers() {
        d = d.update_u64(h.len() as u64).update(h.as_bytes());
    }
    d.finish()
}

/// Serialize `db` into a fresh byte buffer (always the current version).
pub fn write(db: &SequenceDatabase) -> Vec<u8> {
    let offsets = db.raw_offsets();
    let residues = db.raw_residues();
    let headers = db.raw_headers();

    let mut offsets_sec = Vec::with_capacity(offsets.len() * 8);
    for &o in offsets {
        put_u64(&mut offsets_sec, o);
    }
    let header_bytes: usize = headers.iter().map(|h| 4 + h.len()).sum();
    let mut headers_sec = Vec::with_capacity(header_bytes);
    for h in headers {
        put_u32(&mut headers_sec, h.len() as u32);
        headers_sec.extend_from_slice(h.as_bytes());
    }

    let mut out =
        Vec::with_capacity(8 + 24 + 12 + offsets_sec.len() + residues.len() + headers_sec.len());
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, headers.len() as u64);
    put_u64(&mut out, residues.len() as u64);
    put_u64(&mut out, content_digest(db));
    put_u32(&mut out, crc32(&offsets_sec));
    put_u32(&mut out, crc32(residues));
    put_u32(&mut out, crc32(&headers_sec));
    out.extend_from_slice(&offsets_sec);
    out.extend_from_slice(residues);
    out.extend_from_slice(&headers_sec);
    out
}

/// Digest and section checksums read from a v2 snapshot preamble.
struct Integrity {
    digest: u64,
    crc_offsets: u32,
    crc_residues: u32,
    crc_headers: u32,
}

/// Deserialize a snapshot produced by [`write()`] (v2) or by an older v1
/// writer. Truncation, inconsistent offsets and CRC mismatches all yield
/// descriptive errors, never panics.
pub fn read(buf: &[u8]) -> Result<SequenceDatabase, SeqError> {
    let mut r = ByteReader::new(buf);
    let v2 = r.magic(&[MAGIC, MAGIC_V1])? == 0;
    let n_seqs = r.u64("snapshot sequence count")? as usize;
    let n_res = r.u64("snapshot residue count")? as usize;
    let integrity = if v2 {
        Some(Integrity {
            digest: r.u64("snapshot content digest")?,
            crc_offsets: r.u32("snapshot offsets CRC32")?,
            crc_residues: r.u32("snapshot residues CRC32")?,
            crc_headers: r.u32("snapshot headers CRC32")?,
        })
    } else {
        None
    };

    // A corrupted count can be astronomically large; checked arithmetic
    // turns it into a clean error instead of an overflow (caught by the
    // corruption fuzz test).
    let offsets_bytes = n_seqs
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| SeqError::Io("snapshot sequence count is implausibly large".into()))?;
    // Offsets and residues are checked and copied a section at a time —
    // the bulk of a snapshot never goes through per-field reads.
    let offsets_sec = r.bytes(offsets_bytes, "snapshot offsets section")?;
    if let Some(i) = &integrity {
        check_crc("snapshot offsets section", i.crc_offsets, offsets_sec)?;
    }
    let offsets = le_u64s(offsets_sec);
    let residues_sec = r.bytes(n_res, "snapshot residues section")?;
    if let Some(i) = &integrity {
        check_crc("snapshot residues section", i.crc_residues, residues_sec)?;
    }
    let residues = residues_sec.to_vec();

    let headers_sec = r.rest();
    let mut headers: Vec<Arc<str>> = Vec::with_capacity(n_seqs);
    for i in 0..n_seqs {
        let len = r.u32("snapshot header length")? as usize;
        let s = std::str::from_utf8(r.bytes(len, "snapshot header bytes")?)
            .map_err(|_| SeqError::Io(format!("header {i} is not valid UTF-8")))?;
        headers.push(s.into());
    }
    r.finish()?;
    if let Some(i) = &integrity {
        check_crc("snapshot headers section", i.crc_headers, headers_sec)?;
    }
    // from_raw_parts validates offset consistency; convert its panics into
    // a proper error by pre-checking here.
    if offsets.first() != Some(&0)
        || offsets.last().map(|&o| o as usize) != Some(residues.len())
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(SeqError::Io(
            "snapshot offsets table is inconsistent".into(),
        ));
    }
    let db = SequenceDatabase::from_raw_parts(residues, offsets, headers);
    if let Some(i) = &integrity {
        let got = content_digest(&db);
        if got != i.digest {
            return Err(SeqError::Corrupt {
                section: "snapshot content".into(),
                detail: format!(
                    "digest mismatch (stored {:#018x}, computed {got:#018x})",
                    i.digest
                ),
            });
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_seq::{Alphabet, EncodedSeq};

    fn sample() -> SequenceDatabase {
        let a = Alphabet::protein();
        SequenceDatabase::from_sequences(vec![
            EncodedSeq::from_text("sp|P02232|HBM", b"MKVLITRA", &a).unwrap(),
            EncodedSeq::from_text("syn|S0000001|SYNTH", b"WW", &a).unwrap(),
        ])
    }

    /// A v1 snapshot of `db`, byte-for-byte what the old writer emitted.
    fn write_v1(db: &SequenceDatabase) -> Vec<u8> {
        let mut out = MAGIC_V1.to_vec();
        put_u64(&mut out, db.raw_headers().len() as u64);
        put_u64(&mut out, db.raw_residues().len() as u64);
        for &o in db.raw_offsets() {
            put_u64(&mut out, o);
        }
        out.extend_from_slice(db.raw_residues());
        for h in db.raw_headers() {
            put_u32(&mut out, h.len() as u32);
            out.extend_from_slice(h.as_bytes());
        }
        out
    }

    /// `write(&sample())` as the parent commit's encoder (private
    /// `Buf`/`BufMut` traits) emitted it.
    const GOLDEN: &[u8] =
        b"SWDBSNP2\x02\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0\xab\xf7&a\x13i\xe3M\xa7I\x12An\xdd\x9d\xebT\
        (M\x1f\0\0\0\0\0\0\0\0\x08\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0\x0c\x0b\x13\x0a\x09\x10\x01\0\
        \x11\x11\x0d\0\0\0sp|P02232|HBM\x12\0\0\0syn|S0000001|SYNTH";

    #[test]
    fn golden_bytes_decode_and_reencode() {
        assert_eq!(read(GOLDEN).unwrap(), sample());
        assert_eq!(write(&sample()), GOLDEN);
    }

    #[test]
    fn roundtrip() {
        let db = sample();
        let bytes = write(&db);
        assert_eq!(&bytes[..8], MAGIC);
        let back = read(&bytes).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn roundtrip_empty() {
        let db = SequenceDatabase::from_sequences(vec![]);
        let back = read(&write(&db)).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn v1_snapshots_still_load() {
        let db = sample();
        let back = read(&write_v1(&db)).unwrap();
        assert_eq!(back, db);
        let empty = SequenceDatabase::from_sequences(vec![]);
        assert_eq!(read(&write_v1(&empty)).unwrap(), empty);
    }

    #[test]
    fn content_digest_is_load_path_independent() {
        let db = sample();
        let via_v1 = read(&write_v1(&db)).unwrap();
        let via_v2 = read(&write(&db)).unwrap();
        assert_eq!(content_digest(&via_v1), content_digest(&db));
        assert_eq!(content_digest(&via_v2), content_digest(&db));
        // And it actually discriminates content.
        let other = SequenceDatabase::from_sequences(vec![EncodedSeq::from_text(
            "sp|P02232|HBM",
            b"MKVLITRW",
            &Alphabet::protein(),
        )
        .unwrap()]);
        assert_ne!(content_digest(&other), content_digest(&db));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write(&sample());
        bytes[0] = b'X';
        let err = read(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for bytes in [write(&sample()), write_v1(&sample())] {
            // Every strict prefix must fail cleanly, never panic.
            for cut in 0..bytes.len() {
                assert!(
                    read(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes should fail"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_detected() {
        // The v2 integrity block turns "any corruption" from best-effort
        // structural checks into a guarantee: every single-bit flip in
        // the payload must be rejected (magic flips are caught as bad
        // magic; length/CRC-field flips as CRC or truncation errors).
        let bytes = write(&sample());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[i] ^= 1u8 << bit;
                assert!(read(&c).is_err(), "flip at byte {i} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn corrupt_sections_named() {
        let db = sample();
        let bytes = write(&db);
        let preamble = 8 + 16 + 8 + 12; // magic + counts + digest + CRCs
        let offsets_len = db.raw_offsets().len() * 8;

        // Flip a residue byte: residues CRC must name the section.
        let mut c = bytes.clone();
        c[preamble + offsets_len] ^= 0x01;
        let err = read(&c).unwrap_err();
        assert!(
            matches!(&err, SeqError::Corrupt { section, .. } if section.contains("residues")),
            "{err}"
        );
        assert!(err.to_string().contains("CRC32"), "{err}");

        // Flip a header byte (ASCII-safe): headers CRC must name the section.
        let mut c = bytes.clone();
        let last = c.len() - 1;
        c[last] ^= 0x01;
        let err = read(&c).unwrap_err();
        assert!(
            matches!(&err, SeqError::Corrupt { section, .. } if section.contains("headers")),
            "{err}"
        );

        // Flip an offsets byte: offsets CRC must name the section.
        let mut c = bytes.clone();
        c[preamble + 1] ^= 0x01;
        let err = read(&c).unwrap_err();
        assert!(
            matches!(&err, SeqError::Corrupt { section, .. } if section.contains("offsets")),
            "{err}"
        );

        // Flip the stored digest itself: sections check out, identity doesn't.
        let mut c = bytes;
        c[8 + 16] ^= 0x01;
        let err = read(&c).unwrap_err();
        assert!(
            matches!(&err, SeqError::Corrupt { section, .. } if section.contains("content")),
            "{err}"
        );
    }

    #[test]
    fn absurd_sequence_count_rejected_cleanly() {
        // Regression (found by the corruption fuzzer): a corrupted u64
        // sequence count must produce an error, not an integer overflow in
        // the offsets-size computation.
        let mut bytes = write(&sample());
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read(&bytes).unwrap_err();
        assert!(err.to_string().contains("implausibly large"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        for mut bytes in [write(&sample()), write_v1(&sample())] {
            bytes.push(0);
            assert!(read(&bytes).unwrap_err().to_string().contains("trailing"));
        }
    }

    #[test]
    fn corrupt_offsets_rejected() {
        // v1 has no CRCs: a corrupted offsets table must still fail the
        // structural consistency check, as before.
        let db = sample();
        let mut bytes = write_v1(&db);
        let pos = 8 + 16;
        bytes[pos..pos + 8].copy_from_slice(&999u64.to_le_bytes());
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn non_utf8_header_rejected() {
        // v1 path: no CRC to catch it first, so the UTF-8 check must.
        let db = sample();
        let mut bytes = write_v1(&db);
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn snapshot_of_synthetic_db() {
        let seqs = sw_seq::gen::generate_database(&sw_seq::gen::DbSpec::tiny(4));
        let db = SequenceDatabase::from_sequences(seqs);
        let back = read(&write(&db)).unwrap();
        assert_eq!(back, db);
    }
}
