//! The one home of the workspace's byte-format primitives, shared by the
//! four on-disk containers (SWDBSNP2 snapshots, SWSHRD1 shards, SWCKPT2
//! checkpoint logs, SWCRDJ2 coordinator journals):
//!
//! * CRC32 (IEEE 802.3, the zlib/PNG polynomial) for corruption
//!   detection and FNV-1a 64 for cheap content identity digests;
//! * the little-endian field codec — [`put_u32`]/[`put_u64`]/[`put_i64`]
//!   to write, the bounds-checked [`ByteReader`] to read;
//! * the append-only log of the checkpoint and the journal: `magic`, then
//!   frames from [`put_frame`], appended through [`open_log`] and read by
//!   [`read_log`], which holds the one recovery rule; [`check_crc`] is the
//!   comparison every stored checksum goes through;
//! * [`replace_file`], the tmp + rename write of every whole file (and of
//!   a log's compacted image).
//!
//! All hand-rolled on purpose — the workspace builds offline with a
//! zero-dependency budget, and the checkpoint/resume contract only needs
//! error *detection*, not cryptographic strength: a file that does not
//! check out is refused with a typed error, so an adversarial collision
//! buys nothing.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// CRC32 lookup table for the reflected IEEE polynomial `0xEDB88320`,
/// built at compile time so the first checksum pays no init cost.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE: all-ones preload, final complement) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 digest. Used for *identity* (does this checkpoint
/// belong to this database / query?), not integrity — CRC32 covers that.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Fresh state at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Fold `bytes` into the digest.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a little-endian u64 in (length-prefixing sections with their
    /// size keeps `["ab","c"]` and `["a","bc"]` distinct).
    #[must_use]
    pub fn update_u64(self, v: u64) -> Self {
        self.update(&v.to_le_bytes())
    }

    /// Final digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv64::new().update(bytes).finish()
}

/// Why a byte image could not be decoded: which field, section or
/// container, and what was wrong with it. The text carries the words
/// operators and CI grep for (`magic`, `CRC32`, `truncated`, `trailing`);
/// each format converts this into its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// The field, section or container that failed to decode.
    pub what: &'static str,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.what, self.detail)
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for String {
    /// Lets `?` carry a [`FormatError`] out of the decoders whose error
    /// type is a message (the coordinator journal's).
    fn from(e: FormatError) -> String {
        e.to_string()
    }
}

impl From<FormatError> for sw_seq::SeqError {
    fn from(e: FormatError) -> Self {
        sw_seq::SeqError::Corrupt {
            section: e.what.to_string(),
            detail: e.detail,
        }
    }
}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian (two's complement).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Decode a whole section of little-endian `u64` words — the bulk form
/// of [`ByteReader::u64`] for sections whose length was already checked
/// (a trailing partial word is ignored).
pub fn le_u64s(section: &[u8]) -> Vec<u64> {
    section
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
        .collect()
}

/// Bounds-checked little-endian reader over a byte image. Every read
/// names the field it is after, so a truncated image is refused with
/// that name instead of a panic; [`ByteReader::finish`] refuses trailing
/// bytes.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read `buf` from its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// The unread remainder, without consuming it.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Consume the next `n` bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FormatError> {
        if self.buf.len() < n {
            let detail = format!("truncated: needed {n} byte(s), {} left", self.buf.len());
            return Err(FormatError { what, detail });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Consume an 8-byte magic: the index of the one of `accepted` it
    /// equals, or a bad-magic error naming the first.
    pub fn magic(&mut self, accepted: &[&'static [u8; 8]]) -> Result<usize, FormatError> {
        let found = self.bytes(8, "magic")?;
        accepted.iter().position(|m| found == *m).ok_or_else(|| {
            let want = String::from_utf8_lossy(&accepted[0][..]);
            FormatError {
                what: "magic",
                detail: format!("not a {} file", want.trim_end_matches('\0')),
            }
        })
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], FormatError> {
        Ok(self.bytes(N, what)?.try_into().expect("N bytes"))
    }

    /// Consume one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, FormatError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, FormatError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, FormatError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, FormatError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// Done reading: any byte still unread is an error.
    pub fn finish(self) -> Result<(), FormatError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(FormatError {
                what: "image",
                detail: format!("{n} trailing byte(s) after the last field"),
            }),
        }
    }
}

/// Compare a stored CRC32 against the bytes it covers (`what` names
/// them: `"payload"`, `"snapshot residues section"`).
pub fn check_crc(what: &'static str, stored: u32, bytes: &[u8]) -> Result<(), FormatError> {
    let computed = crc32(bytes);
    if stored != computed {
        let detail = format!("CRC32 mismatch (stored {stored:#010x}, computed {computed:#010x})");
        return Err(FormatError { what, detail });
    }
    Ok(())
}

/// Bytes of a log frame's head: `len u32 ‖ crc32(len) u32 ‖
/// crc32(payload) u32`. The length has its own CRC, so a flipped length
/// is caught before it is trusted to find the next frame.
pub const FRAME_HEAD: usize = 12;

/// Append one log frame to `out`: `write` puts the payload, then the head
/// before it is filled in.
pub fn put_frame(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let head = out.len();
    out.extend_from_slice(&[0; FRAME_HEAD]);
    write(out);
    let len = ((out.len() - head - FRAME_HEAD) as u32).to_le_bytes();
    let crc = crc32(&out[head + FRAME_HEAD..]);
    out[head..head + 4].copy_from_slice(&len);
    out[head + 4..head + 8].copy_from_slice(&crc32(&len).to_le_bytes());
    out[head + 8..head + FRAME_HEAD].copy_from_slice(&crc.to_le_bytes());
}

/// Read a log image — `magic`, then frames — into the payloads of its
/// whole frames and the length they end at. The one recovery rule: a
/// magic or frame head cut short, a frame whose declared end lies past
/// EOF, or one failing its payload CRC whose end *is* EOF is a torn tail
/// (what a crash mid-append leaves) and is dropped; any other bad frame
/// is an error naming its byte offset.
pub fn read_log<'a>(
    magic: &'static [u8; 8],
    image: &'a [u8],
) -> Result<(Vec<&'a [u8]>, u64), FormatError> {
    if image.len() < magic.len() && magic.starts_with(image) {
        return Ok((Vec::new(), 0));
    }
    ByteReader::new(image).magic(&[magic])?;
    let (mut frames, mut at) = (Vec::new(), magic.len());
    while let Some(head) = image.get(at..at + FRAME_HEAD) {
        let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
        let corrupt = |e: FormatError| FormatError {
            what: "log frame",
            detail: format!("at byte {at}: {e}"),
        };
        check_crc("frame length", word(4), &head[..4]).map_err(corrupt)?;
        let end = at + FRAME_HEAD + word(0) as usize;
        let Some(payload) = image.get(at + FRAME_HEAD..end) else {
            break;
        };
        match check_crc("frame payload", word(8), payload) {
            Err(_) if end == image.len() => break,
            checked => checked.map_err(corrupt)?,
        }
        frames.push(payload);
        at = end;
    }
    Ok((frames, at as u64))
}

/// Open `path` for appending, creating it if missing — the one place a
/// file is opened in append mode (the daemon's ops log opens here too) —
/// and cut it to its first `keep` bytes if given: 0 starts a commit log
/// afresh, a resumed one keeps its whole frames ([`read_log`]) and loses
/// its torn tail. Append each commit as one `write_all` of whole frames
/// (a fresh log's magic first), so a crash leaves whole frames and at
/// most one torn one at the end.
pub fn open_log(path: &Path, keep: Option<u64>) -> io::Result<fs::File> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if let Some(keep) = keep {
        file.set_len(keep)?;
    }
    Ok(file)
}

/// Where [`replace_file`] stages the bytes for `path`: `<path>.tmp`,
/// beside the target so the rename never crosses a filesystem.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Write `bytes` to `path` so that a reader (or a crash) sees either the
/// previous file or the complete new one, never a torn one: stage in
/// [`tmp_path`], optionally `sync_all`, rename over the target (atomic on
/// POSIX filesystems). `fsync = false` survives *process* death — the OS
/// flushes the page cache; `fsync = true` also survives the machine
/// going down, at the price of a disk flush per call.
pub fn replace_file(path: &Path, bytes: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = tmp_path(path);
    let staged = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync {
            f.sync_all()?;
        }
        drop(f);
        fs::rename(&tmp, path)
    })();
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    staged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Published IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"SWDBSNP2 section payload";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn reader_names_the_truncated_field_and_rejects_trailing_bytes() {
        let mut image = vec![7u8];
        put_u32(&mut image, 0xdead_beef);
        put_u64(&mut image, u64::MAX - 1);
        put_i64(&mut image, -3);
        let mut r = ByteReader::new(&image);
        assert_eq!(r.u8("tag").unwrap(), 7);
        assert_eq!(r.u32("word").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("wide").unwrap(), u64::MAX - 1);
        assert_eq!(r.clone().i64("score").unwrap(), -3);
        assert_eq!(le_u64s(r.rest()), [(-3i64) as u64]);
        let err = r.bytes(9, "tail").unwrap_err();
        assert_eq!(err.what, "tail");
        assert!(err.detail.contains("needed 9 byte(s), 8 left"), "{err}");
        let err = r.clone().finish().unwrap_err().to_string();
        assert!(err.contains("8 trailing byte(s)"), "{err}");
        r.bytes(8, "tail").unwrap();
        let err = r.u8("one more").unwrap_err().to_string();
        assert!(
            err.contains("truncated") && err.contains("one more"),
            "{err}"
        );
        r.finish().unwrap();
    }

    const MAGIC: &[u8; 8] = b"SWTEST1\0";

    /// A three-frame log image and the end offset of each frame.
    fn sample_log() -> (Vec<u8>, Vec<usize>) {
        let mut image = MAGIC.to_vec();
        let mut ends = Vec::new();
        for payload in [&b"header"[..], b"", b"third frame"] {
            put_frame(&mut image, |p| p.extend_from_slice(payload));
            ends.push(image.len());
        }
        (image, ends)
    }

    #[test]
    fn log_frames_roundtrip_with_their_head() {
        let (image, ends) = sample_log();
        assert_eq!(image[8..12], 6u32.to_le_bytes());
        assert_eq!(image[12..16], crc32(&6u32.to_le_bytes()).to_le_bytes());
        assert_eq!(image[16..20], crc32(b"header").to_le_bytes());
        let (frames, whole) = read_log(MAGIC, &image).unwrap();
        assert_eq!(frames, [&b"header"[..], b"", b"third frame"]);
        assert_eq!(whole, *ends.last().unwrap() as u64);
        let err = read_log(b"SWOTHER\0", &image).unwrap_err().to_string();
        assert!(err.contains("magic") && err.contains("SWOTHER"), "{err}");
    }

    #[test]
    fn every_prefix_is_its_whole_frames() {
        // What a crash mid-append leaves: the torn tail is dropped, never
        // an error, and `whole` is the last frame boundary inside it.
        let (image, ends) = sample_log();
        for k in 0..=image.len() {
            let (frames, whole) =
                read_log(MAGIC, &image[..k]).unwrap_or_else(|e| panic!("{k}: {e}"));
            let n = ends.iter().filter(|&&e| e <= k).count();
            assert_eq!(frames.len(), n, "prefix {k}");
            let want = if k < 8 {
                0
            } else {
                ends[..n].last().map_or(8, |&e| e)
            };
            assert_eq!(whole, want as u64, "prefix {k}");
        }
    }

    #[test]
    fn a_bad_frame_with_bytes_after_it_is_an_error_naming_its_offset() {
        let (image, ends) = sample_log();
        let last = ends[1]; // the third frame starts here
        let mut copy = image.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                let read = read_log(MAGIC, &copy);
                if i >= last + 8 {
                    // The last frame's payload CRC or payload: a torn
                    // tail, dropped.
                    let (frames, whole) =
                        read.unwrap_or_else(|e| panic!("byte {i} bit {bit}: {e}"));
                    assert_eq!(frames.len(), 2, "byte {i} bit {bit}");
                    assert_eq!(whole, last as u64);
                } else {
                    let err = read.expect_err("flip accepted").to_string();
                    let frame = [8, ends[0], ends[1]].into_iter().rfind(|&s| s <= i);
                    if let Some(at) = frame.filter(|_| i >= 8) {
                        assert!(err.contains(&format!("at byte {at}")), "{i}: {err}");
                    }
                }
                copy[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn a_log_starts_afresh_appends_and_cuts_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("sw-append-log-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.log");
        fs::write(&path, b"stale bytes of an older run").unwrap();
        let frame = |payload: &[u8]| {
            let mut out = Vec::new();
            put_frame(&mut out, |p| p.extend_from_slice(payload));
            out
        };
        for _ in 0..2 {
            let mut log = open_log(&path, Some(0)).unwrap();
            log.write_all(&[&MAGIC[..], &frame(b"head")].concat())
                .unwrap();
            log.write_all(&frame(b"one")).unwrap();
            drop(log);
            // A crash mid-append: half a frame at the end.
            let two = frame(b"two");
            open_log(&path, None).unwrap().write_all(&two[..7]).unwrap();
            let image = fs::read(&path).unwrap();
            let (frames, whole) = read_log(MAGIC, &image).unwrap();
            assert_eq!(frames, [&b"head"[..], b"one"]);
            open_log(&path, Some(whole))
                .unwrap()
                .write_all(&two)
                .unwrap();
            let image = fs::read(&path).unwrap();
            let (frames, whole) = read_log(MAGIC, &image).unwrap();
            assert_eq!(frames, [&b"head"[..], b"one", b"two"]);
            assert_eq!(whole, image.len() as u64);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_file_swaps_whole_files_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("sw-replace-file-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.v1.bin");
        assert_eq!(tmp_path(&path), dir.join("artifact.v1.bin.tmp"));
        for (bytes, fsync) in [(&b"first"[..], false), (&b"second, longer"[..], true)] {
            replace_file(&path, bytes, fsync).unwrap();
            assert_eq!(fs::read(&path).unwrap(), bytes);
            assert!(!tmp_path(&path).exists(), "tmp renamed away");
        }
        // A failed write leaves the previous file and no tmp behind.
        let missing = dir.join("no-such-dir").join("x");
        assert!(replace_file(&missing, b"x", false).is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_streaming_and_length_prefix() {
        assert_eq!(
            Fnv64::new().update(b"ab").update(b"c").finish(),
            fnv1a64(b"abc")
        );
        // Length prefixes keep differently-split section lists distinct.
        let a = Fnv64::new()
            .update_u64(2)
            .update(b"ab")
            .update_u64(1)
            .update(b"c");
        let b = Fnv64::new()
            .update_u64(1)
            .update(b"a")
            .update_u64(2)
            .update(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
