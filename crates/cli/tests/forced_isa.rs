//! A forced kernel ISA reproduces the detected one's hit list through the
//! CLI, under whatever codegen flags the binary was built with.

mod common;

use common::{head, ok, tabular_rows, WorkDir};

#[test]
fn forced_portable_and_sse2_print_the_detected_isa_hits() {
    let dir = WorkDir::new("forced-isa");
    let db = dir.path("db.fasta");
    ok(&[
        "gendb",
        "--seqs",
        "120",
        "--out",
        &db,
        "--seed",
        "9",
        "--mean-len",
        "200",
    ]);
    let query = dir.write("q.fasta", &head(&dir.read("db.fasta"), 2));
    let rows = |lanes: &str, isa: &[&str]| -> Vec<String> {
        let search = [
            "search",
            "--query",
            &query,
            "--db",
            &db,
            "--lanes",
            lanes,
            "--top",
            "120",
            "--tabular",
        ];
        tabular_rows(&ok(&[&search[..], isa].concat()))
            .into_iter()
            .map(str::to_string)
            .collect()
    };
    let auto = rows("16", &[]);
    assert!(!auto.is_empty());
    assert_eq!(rows("16", &["--kernel-isa", "portable"]), auto);
    // SSE2's native width: the same scalar-filled fused columns on
    // 128-bit intrinsics and on the portable vectors, a pairing an AVX2
    // host never picks by itself.
    let sse2 = rows("8", &["--kernel-isa", "sse2"]);
    assert!(!sse2.is_empty());
    assert_eq!(rows("8", &["--kernel-isa", "portable"]), sse2);
}
