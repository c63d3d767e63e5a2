//! Failure-injection / never-panic properties of every parser and
//! deserializer: arbitrary bytes must produce `Ok` or `Err`, never a
//! panic, and accepted inputs must round-trip. Driven by seeded
//! pseudo-random case loops (the offline dependency budget excludes
//! proptest); every case is replayable from the seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swhetero::prelude::*;
use swhetero::seq::fasta::{read_encoded, FastaReader};
use swhetero::seq::matrices::parser::parse_ncbi;
use swhetero::seq::SeqError;
use swhetero::swdb::snapshot;
use swhetero::swdb::SequenceDatabase;

fn bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len.max(1));
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn text_from(rng: &mut SmallRng, charset: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..max_len.max(1));
    (0..len)
        .map(|_| charset[rng.gen_range(0..charset.len())] as char)
        .collect()
}

/// Printable ASCII plus newline/carriage return — a denser source of
/// almost-valid parser input than raw bytes.
fn ascii_text(rng: &mut SmallRng, max_len: usize) -> String {
    let charset: Vec<u8> = (b' '..=b'~').chain([b'\n', b'\r']).collect();
    text_from(rng, &charset, max_len)
}

/// The FASTA reader never panics on arbitrary bytes.
#[test]
fn fasta_reader_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0xFA57);
    for _ in 0..64 {
        let data = bytes(&mut rng, 2000);
        let _ = FastaReader::new(&data[..]).collect::<Result<Vec<_>, _>>();
        let _ = read_encoded(&data[..], &Alphabet::protein());
    }
}

/// The FASTA reader never panics on arbitrary ASCII text either.
#[test]
fn fasta_reader_never_panics_on_text() {
    let mut rng = SmallRng::seed_from_u64(0xFA58);
    for _ in 0..64 {
        let data = ascii_text(&mut rng, 800);
        let _ = read_encoded(data.as_bytes(), &Alphabet::protein());
    }
}

/// Well-formed FASTA round-trips through write → read exactly.
#[test]
fn fasta_roundtrip() {
    let a = Alphabet::protein();
    let header_charset = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_ ";
    let mut rng = SmallRng::seed_from_u64(0xF07A);
    for case in 0..64 {
        let n = rng.gen_range(1usize..10);
        let originals: Vec<EncodedSeq> = (0..n)
            .map(|_| {
                // Headers must be non-empty after trimming for exact
                // round-trip, so anchor them with a letter.
                let mut header = String::from("h");
                header.push_str(&text_from(&mut rng, header_charset, 19));
                let len = rng.gen_range(1usize..200);
                let residues = (0..len).map(|_| rng.gen_range(0u8..20)).collect();
                EncodedSeq {
                    header: header.trim().to_string().into(),
                    residues,
                }
            })
            .collect();
        let width = rng.gen_range(1usize..100);
        let mut w = swhetero::seq::FastaWriter::new(Vec::new()).with_width(width);
        for s in &originals {
            w.write(s, &a).unwrap();
        }
        let bytes = w.into_inner().unwrap();
        let back = read_encoded(&bytes[..], &a).unwrap();
        assert_eq!(back, originals, "case {case} width {width}");
    }
}

/// The snapshot reader never panics on arbitrary bytes.
#[test]
fn snapshot_reader_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x54A9);
    for _ in 0..64 {
        let data = bytes(&mut rng, 4000);
        let _ = snapshot::read(&data);
    }
}

/// Snapshots round-trip for arbitrary databases, and every corruption
/// of a single byte either still parses or fails cleanly.
#[test]
fn snapshot_roundtrip_and_corruption() {
    let mut rng = SmallRng::seed_from_u64(0x54AA);
    for case in 0..64 {
        let n = rng.gen_range(0usize..8);
        let seqs: Vec<EncodedSeq> = (0..n)
            .map(|_| {
                let header = text_from(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 10);
                let header = if header.is_empty() {
                    "x".to_string()
                } else {
                    header
                };
                let len = rng.gen_range(1usize..50);
                let residues = (0..len).map(|_| rng.gen_range(0u8..24)).collect();
                EncodedSeq {
                    header: header.into(),
                    residues,
                }
            })
            .collect();
        let db = SequenceDatabase::from_sequences(seqs);
        let bytes = snapshot::write(&db);
        assert_eq!(snapshot::read(&bytes).unwrap(), db, "case {case}");
        if !bytes.is_empty() {
            let mut corrupt = bytes.clone();
            let ix = rng.gen_range(0..corrupt.len());
            corrupt[ix] = rng.gen::<u8>();
            let _ = snapshot::read(&corrupt); // must not panic
        }
    }
}

/// The NCBI matrix parser never panics on arbitrary text.
#[test]
fn matrix_parser_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x9CB1);
    let charset: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
    for _ in 0..64 {
        let text = text_from(&mut rng, &charset, 1500);
        let _ = parse_ncbi("fuzz", &text, &Alphabet::protein());
        let _ = parse_ncbi("fuzz", &text, &Alphabet::dna());
    }
}

/// Lenient encoding accepts any alphabetic text; strict rejects
/// exactly the non-canonical letters.
#[test]
fn encoding_agreement() {
    let a = Alphabet::protein();
    let letters = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    let mut rng = SmallRng::seed_from_u64(0xE9C0);
    for case in 0..64 {
        let len = rng.gen_range(1usize..200);
        let text: String = (0..len)
            .map(|_| letters[rng.gen_range(0..letters.len())] as char)
            .collect();
        let lenient = a.encode_lenient(text.as_bytes()).unwrap();
        assert_eq!(lenient.len(), text.len(), "case {case}");
        match a.encode_strict(text.as_bytes()) {
            Ok(strict) => assert_eq!(strict, lenient, "case {case}"),
            Err(e) => {
                // The reported byte really is outside the canonical set.
                if let SeqError::InvalidResidue { byte, .. } = e {
                    assert!(a.encode_byte(byte).is_none(), "case {case}");
                } else {
                    panic!("case {case}: unexpected error kind: {e}");
                }
            }
        }
    }
}

/// Hand-picked hostile FASTA inputs fail with line-accurate errors.
#[test]
fn fasta_error_line_numbers() {
    let cases: [(&[u8], usize); 3] = [
        (b"garbage\n>ok\nMKV\n", 1),
        (b">a\nMKV\n\nstillsequence\n>b\nWW\n", 0), // continuation, fine
        (b">empty\n>next\nMKV\n", 2),
    ];
    let (data, line) = cases[0];
    match read_encoded(data, &Alphabet::protein()) {
        Err(SeqError::Fasta { line: l, .. }) => assert_eq!(l, line),
        other => panic!("expected FASTA error, got {other:?}"),
    }
    // Case 1 parses fine: bare text after a record continues the sequence.
    assert!(read_encoded(cases[1].0, &Alphabet::protein()).is_ok());
    let (data, line) = cases[2];
    match read_encoded(data, &Alphabet::protein()) {
        Err(SeqError::Fasta { line: l, .. }) => assert_eq!(l, line),
        other => panic!("expected FASTA error, got {other:?}"),
    }
}

/// `SWCKPT2` magic: the fuzz below re-seals mutated frames under it.
const SWCKPT2: &[u8; 8] = b"SWCKPT2\0";

/// A value of `width` bytes other than `old`: near `near`, small, at the
/// top of the range, or anything.
fn other(rng: &mut SmallRng, old: u64, near: u64, width: usize) -> u64 {
    loop {
        let v = match rng.gen_range(0..4) {
            0 => near.wrapping_add(rng.gen_range(0..3u64)).wrapping_sub(1),
            1 => rng.gen_range(0..2 * near.max(1)),
            2 => u64::MAX - rng.gen_range(0..2u64),
            _ => rng.gen(),
        } & (u64::MAX >> (64 - 8 * width));
        if v != old {
            return v;
        }
    }
}

/// A checkpoint of a real search of 40 sequences at 4 lanes, every other
/// batch done as a search on both pools would record them, and the
/// database it belongs to.
fn sample_checkpoint(lanes: usize) -> (swhetero::core::Checkpoint, PreparedDb, Vec<u8>, DbSpec) {
    use swhetero::core::{BatchResult, Checkpoint, Hit, SearchFingerprint};
    use swhetero::kernels::CellCount;
    let spec = DbSpec {
        n_seqs: 40,
        ..DbSpec::tiny(5)
    };
    let db = PreparedDb::prepare(generate_database(&spec), lanes, &Alphabet::protein());
    let q = generate_query(60, 3).residues;
    let m = q.len();
    let done: Vec<BatchResult> = (db.batches.iter().enumerate().step_by(2))
        .map(|(i, b)| BatchResult {
            batch: i,
            device: i / 2 % 2,
            hits: (b.ids().iter())
                .map(|&id| Hit {
                    id,
                    score: 20 + i64::from(id.0 % 7),
                })
                .collect(),
            cells: CellCount {
                real: b.real_cells(m),
                padded: b.padded_cells(m),
            },
            rescued: (i % 3) as u64,
        })
        .collect();
    let ckpt = Checkpoint {
        fingerprint: SearchFingerprint::compute(&db, &q),
        seq: 3,
        resumes: 1,
        accel_share: 0.4,
        recovery: Default::default(),
        done,
    };
    (ckpt, db, q, spec)
}

/// The log the region appends for `ckpt`: its header frame, then one
/// commit frame per chunk of two records (payloads, unsealed).
fn commit_frames(ckpt: &swhetero::core::Checkpoint) -> (Vec<u8>, Vec<Vec<u8>>) {
    use swhetero::core::Checkpoint;
    use swhetero::swdb::integrity::read_log;
    let payloads = |c: &Checkpoint| {
        let image = c.encode();
        let (frames, _) = read_log(SWCKPT2, &image).expect("log");
        frames.iter().map(|f| f.to_vec()).collect::<Vec<_>>()
    };
    let header = payloads(ckpt).swap_remove(0);
    let n = ckpt.done.len().div_ceil(2);
    let commits = (ckpt.done.chunks(2).enumerate())
        .map(|(i, part)| {
            let chunk = Checkpoint {
                seq: ckpt.seq + 1 + i as u64 - n as u64,
                done: part.to_vec(),
                ..ckpt.clone()
            };
            payloads(&chunk).swap_remove(1)
        })
        .collect();
    (header, commits)
}

/// Seal a header and commit payloads into a log image.
fn seal(header: &[u8], commits: &[Vec<u8>]) -> Vec<u8> {
    use swhetero::swdb::integrity::put_frame;
    let mut out = SWCKPT2.to_vec();
    for payload in std::iter::once(header).chain(commits.iter().map(Vec::as_slice)) {
        put_frame(&mut out, |p| p.extend_from_slice(payload));
    }
    out
}

/// Structure-aware fuzzing of the checkpoint log's commit frames: a log
/// of a real search, as the region appends it, has one field at a time
/// rewritten — the batch count, a record's batch index, device, cell
/// counts or hit count, a frame's accelerator share — and that frame's
/// CRC re-sealed, or is verified against another lane layout. Every case
/// must be refused: `decode` fails with a typed error, or `verify` /
/// `verify_layout` reject it. None may panic.
#[test]
fn checkpoint_field_mutations_are_refused() {
    use swhetero::core::{Checkpoint, CheckpointError, SearchFingerprint};
    use swhetero::swdb::LaneBatch;

    let (ckpt, db, q, spec) = sample_checkpoint(4);
    let m = q.len();
    let fp = ckpt.fingerprint;
    let accept = |bytes: &[u8], fp: &SearchFingerprint, batches: &[LaneBatch]| {
        let c = Checkpoint::decode(bytes)?.expect("whole frames hold a commit");
        c.verify(fp)?;
        c.verify_layout(batches, m)?;
        Ok::<_, CheckpointError>(c)
    };
    let (header, commits) = commit_frames(&ckpt);
    assert!(commits.len() >= 3, "{} frames", commits.len());
    assert_eq!(
        accept(&seal(&header, &commits), &fp, &db.batches).expect("pristine"),
        ckpt
    );

    // Field offsets (see the format table in `sw_core::checkpoint`): the
    // batch count at 24 of the header; in a commit frame the share at 8
    // and records from 84, each `batch u64, device u8, real u64, padded
    // u64, rescued u64, n_hits u32` and 12 bytes per hit.
    let mut records = Vec::new();
    for (f, part) in commits.iter().zip(ckpt.done.chunks(2)) {
        let mut at = 84;
        let mut starts = Vec::new();
        for b in part {
            starts.push(at);
            at += 37 + 12 * b.hits.len();
        }
        assert_eq!(at, f.len(), "offsets match the encoder");
        records.push(starts);
    }
    // Other lane layouts of the same sequences: two neighbouring batches
    // swapped (same fingerprint), and an 8-lane packing (its own).
    let mut layouts: Vec<(SearchFingerprint, Vec<LaneBatch>)> = (0..db.batches.len() - 1)
        .map(|i| {
            let mut batches = db.batches.clone();
            batches.swap(i, i + 1);
            (fp, batches)
        })
        .collect();
    let db8 = PreparedDb::prepare(generate_database(&spec), 8, &Alphabet::protein());
    layouts.push((SearchFingerprint::compute(&db8, &q), db8.batches));

    let mut rng = SmallRng::seed_from_u64(0xC4EC);
    let mut ran = [0usize; 7];
    for case in 0..3000 {
        let (mut h, mut c) = (header.clone(), commits.clone());
        let f = rng.gen_range(0..c.len());
        let rec = records[f][rng.gen_range(0..records[f].len())];
        let get = |p: &[u8], at: usize, n: usize| {
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(&p[at..at + n]);
            u64::from_le_bytes(b)
        };
        let kind = rng.gen_range(0..7);
        let (at, width, value) = match kind {
            0 => (24, 8, other(&mut rng, get(&h, 24, 8), fp.n_batches, 8)),
            1 => (rec, 8, other(&mut rng, get(&c[f], rec, 8), fp.n_batches, 8)),
            // 0 ↔ 1 re-attributes a batch, which is no corruption.
            2 => (rec + 8, 1, rng.gen_range(2..256)),
            3 => {
                let at = rec + 9 + 8 * rng.gen_range(0..2usize);
                let old = get(&c[f], at, 8);
                (at, 8, other(&mut rng, old, old, 8))
            }
            4 => {
                let hits = get(&c[f], rec + 33, 4);
                (rec + 33, 4, other(&mut rng, hits, hits, 4))
            }
            5 => {
                let share = [f64::NAN, f64::INFINITY, -0.25, 1.0 + rng.gen::<f64>()];
                (8, 8, share[rng.gen_range(0..4usize)].to_bits())
            }
            _ => (0, 0, 0),
        };
        let field = if kind == 0 { &mut h } else { &mut c[f] };
        field[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        let (fp_case, batches) = match kind {
            6 => {
                let (f, b) = &layouts[rng.gen_range(0..layouts.len())];
                (f, &b[..])
            }
            _ => (&fp, &db.batches[..]),
        };
        let verdict = accept(&seal(&h, &c), fp_case, batches);
        assert!(
            verdict.is_err(),
            "case {case}: mutation {kind} of {width} bytes at {at} of frame {f} to {value:#x} \
             was accepted"
        );
        ran[kind] += 1;
    }
    assert!(
        ran.iter().all(|&n| n > 0),
        "every mutation kind ran: {ran:?}"
    );
}

/// The whole-file `SWCKPT1` image an earlier build wrote for a 40-batch
/// search with two records: refused by name, never folded.
const SWCKPT1_IMAGE: &[u8] =
    b"SWCKPT1\0\xed\xa6\xa1!\x88wfUD3\"\x11\0\xff\xee\xdd\xcc\xbb\xaa\x99\x08\0\0\0\0\0\0\0(\0\
    \0\0\0\0\0\0\x03\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\xd8?\x01\0\0\0\0\0\0\0\x02\
    \0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x04\0\0\0\0\0\0\0\x05\0\0\0\0\0\0\0\x01\
    \0\0\0\0\0\0\0\x06\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\xe8\x03\0\0\0\0\0\0\
    \xb0\x04\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x02\0\0\0\x07\0\0\x007\0\0\0\0\0\0\0\x02\0\0\0\xfd\
    \xff\xff\xff\xff\xff\xff\xff'\0\0\0\0\0\0\0\x01\x0a\0\0\0\0\0\0\0\x10\0\0\0\0\0\0\0\0\0\
    \0\0\0\0\0\0\0\0\0\0";

/// The checkpoint log's recovery rule on a real search's log: a bit
/// flip in a frame with bytes after it is `Corrupt` at that frame's
/// offset; a short tail — a crash mid-append — is dropped with every
/// record's hits unchanged; the whole-file format of earlier builds is
/// refused.
#[test]
fn checkpoint_log_recovery_rule() {
    use swhetero::core::{Checkpoint, CheckpointError};
    let (ckpt, ..) = sample_checkpoint(4);
    let (header, commits) = commit_frames(&ckpt);
    let log = seal(&header, &commits);
    let second = seal(&header, &commits[..1]).len();
    let mut flipped = log.clone();
    flipped[second + 40] ^= 0x10;
    match Checkpoint::decode(&flipped) {
        Err(CheckpointError::Corrupt { detail }) => {
            assert!(detail.contains(&format!("at byte {second}")), "{detail}");
        }
        other => panic!("a mid-file flip was not corrupt: {other:?}"),
    }
    for cut in 1..30 {
        let mut torn = log.clone();
        torn.extend_from_slice(&seal(&header, &commits[..1])[8 + 12 + header.len()..][..cut]);
        assert_eq!(
            Checkpoint::decode(&torn).unwrap(),
            Some(ckpt.clone()),
            "cut {cut}"
        );
    }
    let err = Checkpoint::decode(SWCKPT1_IMAGE).expect_err("an SWCKPT1 image was folded");
    assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("not a SWCKPT2 file"), "{err}");
}
