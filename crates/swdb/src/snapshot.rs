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
use crate::integrity::{crc32, Fnv64};
use std::sync::Arc;
use sw_seq::SeqError;

/// Little-endian append helpers (the `bytes::BufMut` subset this format
/// needs, hand-rolled to keep the dependency budget at zero).
trait BufMut {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian consume helpers over an advancing byte slice (the
/// `bytes::Buf` subset the reader needs). Callers check `remaining()`
/// before every get, so the internal panics are unreachable.
trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

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
        offsets_sec.put_u64_le(o);
    }
    let header_bytes: usize = headers.iter().map(|h| 4 + h.len()).sum();
    let mut headers_sec = Vec::with_capacity(header_bytes);
    for h in headers {
        headers_sec.put_u32_le(h.len() as u32);
        headers_sec.put_slice(h.as_bytes());
    }

    let mut out =
        Vec::with_capacity(8 + 24 + 12 + offsets_sec.len() + residues.len() + headers_sec.len());
    out.put_slice(MAGIC);
    out.put_u64_le(headers.len() as u64);
    out.put_u64_le(residues.len() as u64);
    out.put_u64_le(content_digest(db));
    out.put_u32_le(crc32(&offsets_sec));
    out.put_u32_le(crc32(residues));
    out.put_u32_le(crc32(&headers_sec));
    out.put_slice(&offsets_sec);
    out.put_slice(residues);
    out.put_slice(&headers_sec);
    out
}

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), SeqError> {
    if buf.remaining() < n {
        return Err(SeqError::Io(format!(
            "snapshot truncated while reading {what}"
        )));
    }
    Ok(())
}

fn corrupt(section: &str, detail: String) -> SeqError {
    SeqError::Corrupt {
        section: section.to_string(),
        detail,
    }
}

/// Digest and section checksums read from a v2 snapshot preamble.
struct Integrity {
    digest: u64,
    crc_offsets: u32,
    crc_residues: u32,
    crc_headers: u32,
}

fn check_crc(section: &str, expect: u32, bytes: &[u8]) -> Result<(), SeqError> {
    let got = crc32(bytes);
    if got != expect {
        return Err(corrupt(
            &format!("snapshot {section} section"),
            format!("CRC32 mismatch (stored {expect:#010x}, computed {got:#010x})"),
        ));
    }
    Ok(())
}

/// Deserialize a snapshot produced by [`write()`] (v2) or by an older v1
/// writer. Truncation, inconsistent offsets and CRC mismatches all yield
/// descriptive errors, never panics.
pub fn read(mut buf: &[u8]) -> Result<SequenceDatabase, SeqError> {
    need(buf, 8, "magic")?;
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    let v2 = match &magic {
        m if m == MAGIC => true,
        m if m == MAGIC_V1 => false,
        _ => {
            return Err(SeqError::Io(
                "bad snapshot magic (not a SWDB snapshot?)".into(),
            ))
        }
    };
    need(buf, 16, "counts")?;
    let n_seqs = buf.get_u64_le() as usize;
    let n_res = buf.get_u64_le() as usize;
    let integrity = if v2 {
        need(buf, 8 + 12, "integrity block")?;
        Some(Integrity {
            digest: buf.get_u64_le(),
            crc_offsets: buf.get_u32_le(),
            crc_residues: buf.get_u32_le(),
            crc_headers: buf.get_u32_le(),
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
    need(buf, offsets_bytes, "offsets")?;
    if let Some(i) = &integrity {
        check_crc("offsets", i.crc_offsets, &buf[..offsets_bytes])?;
    }
    let mut offsets = Vec::with_capacity(n_seqs + 1);
    for _ in 0..=n_seqs {
        offsets.push(buf.get_u64_le());
    }
    need(buf, n_res, "residues")?;
    if let Some(i) = &integrity {
        check_crc("residues", i.crc_residues, &buf[..n_res])?;
    }
    let mut residues = vec![0u8; n_res];
    buf.copy_to_slice(&mut residues);

    let headers_sec = buf;
    let mut headers: Vec<Arc<str>> = Vec::with_capacity(n_seqs);
    for i in 0..n_seqs {
        need(buf, 4, "header length")?;
        let len = buf.get_u32_le() as usize;
        need(buf, len, "header bytes")?;
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        let s = String::from_utf8(raw)
            .map_err(|_| SeqError::Io(format!("header {i} is not valid UTF-8")))?;
        headers.push(s.into());
    }
    if buf.remaining() != 0 {
        return Err(SeqError::Io(format!(
            "{} trailing bytes after snapshot",
            buf.remaining()
        )));
    }
    if let Some(i) = &integrity {
        check_crc("headers", i.crc_headers, headers_sec)?;
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
            return Err(corrupt(
                "snapshot content",
                format!(
                    "digest mismatch (stored {:#018x}, computed {got:#018x})",
                    i.digest
                ),
            ));
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
        let mut out = Vec::new();
        out.put_slice(MAGIC_V1);
        out.put_u64_le(db.raw_headers().len() as u64);
        out.put_u64_le(db.raw_residues().len() as u64);
        for &o in db.raw_offsets() {
            out.put_u64_le(o);
        }
        out.put_slice(db.raw_residues());
        for h in db.raw_headers() {
            out.put_u32_le(h.len() as u32);
            out.put_slice(h.as_bytes());
        }
        out
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
