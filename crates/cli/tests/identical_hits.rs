//! The hit list is a function of the query and the database alone: no
//! kernel ISA, worker count or static split moves a byte of it. And a
//! token the command would not read is a usage error, not ignored.

mod common;

use common::{ok, rank_rows, records, run, stdout, tabular_rows, WorkDir};

/// 403 = 25·16 + 3 sequences: no lane width divides it. The query is the
/// database's first two records: both self-hits score far past the byte
/// ceiling, so the avx2 run always walks the promotion to i16, where
/// portable and sse2 start. Returns (database, query).
fn isa_db(dir: &WorkDir) -> (String, String) {
    let db = dir.path("isa.fasta");
    ok(&["gendb", "--seqs", "403", "--out", &db]);
    let query = dir.write("isa_q.fasta", &records(&dir.read("isa.fasta"), 2));
    (db, query)
}

/// A database shaped like the benchmark's (mean 300, longest 5 000):
/// lane refill stacks 133 short sequences into the long batches' lanes
/// across 17 batches, so every path runs with per-lane resets in play.
fn stacked_db(dir: &WorkDir) -> (String, String) {
    let db = dir.path("stack.fasta");
    ok(&[
        "gendb",
        "--seqs",
        "400",
        "--mean-len",
        "300",
        "--max-len",
        "5000",
        "--seed",
        "11",
        "--out",
        &db,
    ]);
    let query = dir.write("stack_q.fasta", &records(&dir.read("stack.fasta"), 2));
    (db, query)
}

/// `search --tabular` rows of one run.
fn tabular(args: &[&str]) -> Vec<String> {
    tabular_rows(&ok(args))
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// Rank rows of one `hetero` run.
fn ranked(args: &[&str]) -> Vec<String> {
    rank_rows(&ok(args))
        .into_iter()
        .map(str::to_string)
        .collect()
}

/// Every kernel ISA this host runs prints portable's rows; one it lacks
/// exits naming it and is passed over.
fn assert_isas_agree(db: &str, query: &str, top: &str) {
    let common = [
        "search",
        "--query",
        query,
        "--db",
        db,
        "--top",
        top,
        "--tabular",
    ];
    let portable = tabular(&[&common[..], &["--kernel-isa", "portable"]].concat());
    assert!(!portable.is_empty());
    for isa in ["sse2", "avx2"] {
        let o = run(&[&common[..], &["--kernel-isa", isa]].concat());
        let text = stdout(&o);
        if !o.status.success() {
            assert!(text.contains(&format!("does not support {isa}")), "{text}");
            continue;
        }
        let rows: Vec<&str> = tabular_rows(&text);
        assert!(!rows.is_empty(), "{isa}: {text}");
        assert_eq!(rows, portable, "{isa} differs from portable");
    }
}

/// `search --tabular` rows at 1 and 3 workers: a flat search is a region
/// of one pool, and more workers must not move a byte.
fn assert_flat_workers_agree(db: &str, query: &str, top: &str) {
    let at = |t: &str| {
        tabular(&[
            "search",
            "--query",
            query,
            "--db",
            db,
            "--top",
            top,
            "--tabular",
            "--threads",
            t,
        ])
    };
    let one = at("1");
    assert!(!one.is_empty());
    assert_eq!(at("3"), one, "3 workers differ from 1");
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn every_kernel_isa_prints_the_same_hits() {
    let dir = WorkDir::new("identical-isa");
    let (db, query) = isa_db(&dir);
    assert_isas_agree(&db, &query, "403");
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn worker_count_and_static_split_move_no_byte() {
    let dir = WorkDir::new("identical-split");
    let (db, query) = isa_db(&dir);
    assert_flat_workers_agree(&db, &query, "403");
    let hetero = ["hetero", "--query", &query, "--db", &db, "--top", "403"];
    // Each share of the static split is a region of one pool.
    let static_t1 = ranked(&[&hetero[..], &["--threads", "1"]].concat());
    assert!(!static_t1.is_empty());
    assert_eq!(
        ranked(&[&hetero[..], &["--threads", "2"]].concat()),
        static_t1
    );
    // The static split runs its two shares at once; at --frac 0 and 1
    // one of them is empty.
    let frac_0 = ranked(&[&hetero[..], &["--frac", "0"]].concat());
    assert!(!frac_0.is_empty());
    assert_eq!(ranked(&[&hetero[..], &["--frac", "0.55"]].concat()), frac_0);
    assert_eq!(ranked(&[&hetero[..], &["--frac", "1"]].concat()), frac_0);
}

#[cfg_attr(debug_assertions, ignore = "drill sized for --release")]
#[test]
fn stacked_lanes_move_no_byte_under_any_isa_or_worker_count() {
    let dir = WorkDir::new("identical-stacked");
    let (db, query) = stacked_db(&dir);
    assert_isas_agree(&db, &query, "400");
    assert_flat_workers_agree(&db, &query, "400");
}

#[test]
fn misspelt_or_unread_options_are_usage_errors() {
    let dir = WorkDir::new("identical-usage");
    let (db, query) = isa_db(&dir);
    let usage_error = |args: &[&str], message: &str| {
        let o = run(args);
        let text = stdout(&o);
        assert_eq!(o.status.code(), Some(2), "{text}");
        assert!(text.contains(message), "{text}");
    };
    // A misspelt option is refused, not ignored.
    usage_error(
        &["search", "--query", &query, "--db", &db, "--thread", "4"],
        "unknown option '--thread' for 'search'",
    );
    // So is an option the command would not act on, before any file opens.
    usage_error(
        &[
            "hetero",
            "--query",
            &query,
            "--db",
            &db,
            "--inject-fault",
            "kill@0",
        ],
        "--inject-fault requires --dynamic",
    );
    let manifest = dir.path("none/shards.manifest");
    usage_error(
        &[
            "search", "--shards", &manifest, "--query", &query, "--matrix", "BLOSUM45",
        ],
        "unknown option '--matrix' for 'search --shards'",
    );
    // Retired options are refused by name: a pool's smallest chunk is
    // one task, and no daemon holds a gather window.
    usage_error(
        &[
            "hetero",
            "--query",
            &query,
            "--db",
            &db,
            "--dynamic",
            "--min-chunk",
            "2",
        ],
        "unknown option '--min-chunk' for 'hetero'",
    );
    let sock = dir.path("none.sock");
    usage_error(
        &[
            "serve",
            "--db",
            &db,
            "--socket",
            &sock,
            "--batch-window-ms",
            "3",
        ],
        "unknown option '--batch-window-ms' for 'serve'",
    );
}
