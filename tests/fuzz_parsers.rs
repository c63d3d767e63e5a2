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

/// `SWCKPT1` magic: the fuzz below re-seals mutated payloads under it.
const SWCKPT1: &[u8; 8] = b"SWCKPT1\0";

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

/// Structure-aware SWCKPT1 fuzzing: a checkpoint of a real search has
/// one field at a time rewritten — the batch count, a record's batch
/// index, device, cell counts or hit count — and its CRC re-sealed, or is
/// verified against another lane layout. Every case must be refused:
/// `decode` fails with a typed error, or `verify` / `verify_layout`
/// reject it. None may panic.
#[test]
fn checkpoint_field_mutations_are_refused() {
    use swhetero::core::{BatchResult, Checkpoint, CheckpointError, Hit, SearchFingerprint};
    use swhetero::kernels::CellCount;
    use swhetero::swdb::integrity::{frame, unframe};
    use swhetero::swdb::LaneBatch;

    let a = Alphabet::protein();
    let spec = DbSpec {
        n_seqs: 40,
        ..DbSpec::tiny(5)
    };
    let db = PreparedDb::prepare(generate_database(&spec), 4, &a);
    let q = generate_query(60, 3).residues;
    let m = q.len();
    let fp = SearchFingerprint::compute(&db, &q);
    // Every other batch done, as a search that ran on both pools wrote it.
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
        fingerprint: fp,
        seq: 3,
        resumes: 1,
        accel_share: 0.4,
        recovery: Default::default(),
        done,
    };
    let accept = |bytes: &[u8], fp: &SearchFingerprint, batches: &[LaneBatch]| {
        let c = Checkpoint::decode(bytes)?;
        c.verify(fp)?;
        c.verify_layout(batches, m)?;
        Ok::<_, CheckpointError>(c)
    };
    let bytes = ckpt.encode();
    assert_eq!(accept(&bytes, &fp, &db.batches).expect("pristine"), ckpt);

    // Field offsets in the payload (see the format table in
    // `sw_core::checkpoint`): the batch count at 24, records from 128,
    // each `batch u64, device u8, real u64, padded u64, rescued u64,
    // n_hits u32` and 12 bytes per hit.
    let payload = unframe(SWCKPT1, &bytes).expect("pristine frame").to_vec();
    let mut records = Vec::new();
    let mut at = 128;
    for b in &ckpt.done {
        records.push(at);
        at += 37 + 12 * b.hits.len();
    }
    assert_eq!(at, payload.len(), "offsets match the encoder");
    // Other lane layouts of the same sequences: two neighbouring batches
    // swapped (same fingerprint), and an 8-lane packing (its own).
    let mut layouts: Vec<(SearchFingerprint, Vec<LaneBatch>)> = (0..db.batches.len() - 1)
        .map(|i| {
            let mut batches = db.batches.clone();
            batches.swap(i, i + 1);
            (fp, batches)
        })
        .collect();
    let db8 = PreparedDb::prepare(generate_database(&spec), 8, &a);
    layouts.push((SearchFingerprint::compute(&db8, &q), db8.batches));

    let mut rng = SmallRng::seed_from_u64(0xC4EC);
    let mut ran = [0usize; 6];
    for case in 0..3000 {
        let mut p = payload.clone();
        let rec = records[rng.gen_range(0..records.len())];
        let get = |p: &[u8], at: usize, n: usize| {
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(&p[at..at + n]);
            u64::from_le_bytes(b)
        };
        let kind = rng.gen_range(0..6);
        let (at, width, value) = match kind {
            0 => (24, 8, other(&mut rng, get(&p, 24, 8), fp.n_batches, 8)),
            1 => (rec, 8, other(&mut rng, get(&p, rec, 8), fp.n_batches, 8)),
            // 0 ↔ 1 re-attributes a batch, which is no corruption.
            2 => (rec + 8, 1, rng.gen_range(2..256)),
            3 => {
                let at = rec + 9 + 8 * rng.gen_range(0..2usize);
                (at, 8, other(&mut rng, get(&p, at, 8), get(&p, at, 8), 8))
            }
            4 => {
                let hits = get(&p, rec + 33, 4);
                (rec + 33, 4, other(&mut rng, hits, hits, 4))
            }
            _ => (0, 0, 0),
        };
        p[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        let (fp_case, batches) = match kind {
            5 => {
                let (f, b) = &layouts[rng.gen_range(0..layouts.len())];
                (f, &b[..])
            }
            _ => (&fp, &db.batches[..]),
        };
        let sealed = frame(SWCKPT1, &p);
        let verdict = accept(&sealed, fp_case, batches);
        assert!(
            verdict.is_err(),
            "case {case}: mutation {kind} of {width} bytes at {at} to {value:#x} was accepted"
        );
        ran[kind] += 1;
    }
    assert!(
        ran.iter().all(|&n| n > 0),
        "every mutation kind ran: {ran:?}"
    );
}
